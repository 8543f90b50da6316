open Labelling
module R = Chunk_transport.Receiver

type epoch_report = {
  delivered : bytes;
  complete : bool;
  closed : bool;
  open_csn : int option;
  placed_elems : int;
  shed_spans : (int * int) list;
  passes : int;
}

type conn = {
  id : int;
  acked : unit Int_map.t;  (* ACK ledger, shared across epochs *)
  last_reack : Chunk_transport.throttle;  (* as the live epoch's *)
  mutable live : R.t option;
  mutable live_open : int option;
      (* the live epoch's announced Open C.SN; [None] until its Open is
         seen (implicit establishment) *)
  mutable open_hwm : int;
      (* highest Open C.SN ever processed on this connection (-1 before
         the first): the monotone-label discipline makes any Open at or
         below the watermark a duplicate or a straggler, never a new
         epoch *)
  mutable hist : epoch_report list;
      (* archived epochs, newest first.  A buffer is safe to hold by
         reference: the receiver that owned it is dropped at archive
         time, so nothing writes it again. *)
  mutable last_touch : float;
  mutable gov : Governor.entry;  (* handle on the connection's charge *)
  (* {2 Containment} — anomaly scoring and quarantine (DESIGN §10).
     Only anomalies this connection {e provably authored} feed the
     score: explicit re-establishment churn (each such Open names a
     fresh C.SN above the watermark, which a replay cannot do twice)
     and late traffic with unledgered T.IDs.  Spoofable or replayable
     events — stale Opens, forged sheds naming this connection,
     parity-damaged signals — are counted in [anomalies] but never
     scored, or an attacker could talk an honest connection into the
     penalty box. *)
  mutable epochs_started : int;
  mutable hist_bytes : int;  (* archived-epoch buffer bytes parked *)
  mutable anomalies : int;  (* every anomaly, scored or not *)
  mutable anomaly_score : int;
  mutable last_anomaly : float;
  mutable quarantined_until : float;  (* > now means boxed *)
  mutable quarantine_count : int;  (* admissions revoked so far *)
  mutable poisoned : bool;  (* bulkhead teardown: permanent *)
}

type fastpath_stats = {
  fp_conn : Flowcache.stats;
  fp_tpdu : Flowcache.stats;
}

type t = {
  engine : Netsim.Engine.t;
  config : Chunk_transport.config;
  bus : Busmodel.t;
  governor : Governor.t;
  send_ack : bytes -> unit;
  conns : conn Int_table.t;
  quota_elems : int;
  max_conns : int;
  persist : (Persist.event -> unit) option;
  memo : conn Flowcache.t;  (* lookup memo of [conns], see [find_conn] *)
  scan : Wire.Scan.t;
  spare : R.spare;  (* released per-TPDU records, shared by every epoch *)
  anomaly_budget : int;  (* quarantine trip threshold; 0 disables *)
  quarantine_base : float;  (* first penalty-box duration *)
  anomaly_decay : float;  (* quiet time that forgives the score *)
  mutable n_live : int;  (* connections whose [live] is [Some _] *)
  mutable peak_live : int;  (* [n_live]'s high-water *)
  counts : Counters.t;  (* the endpoint's, and every receiver's *)
  mutable archived_overlap : Placement.overlap_stats;
  mutable archived_verifier : Edc.Verifier.stats;
      (* conflict and verifier counters of archived epochs; live ones
         are read directly off their receivers *)
}

let emit m ev = match m.persist with Some f -> f ev | None -> ()

let m_opens = Obs.Metrics.counter "multi_opens_total"
let m_closes = Obs.Metrics.counter "multi_closes_total"

let now m = Netsim.Engine.now m.engine
let conn_key id = { Governor.conn = id; tpdu = -1 }

let conn_cost m = (m.quota_elems * m.config.elem_size) + 256

let touch_conn m c =
  c.last_touch <- now m;
  c.gov <-
    Governor.refresh m.governor c.gov ~cls:0 ~bytes:(conn_cost m) ~now:(now m);
  Governor.arm m.governor m.engine

(* The live epoch's identity: the Open's announced first C.SN when one
   was processed, else the identity recovered from the data labels
   themselves — the lowest T.ID the epoch freshly acknowledged, which
   under the monotone-label discipline equals the first C.SN once the
   stream head is acknowledged.  An epoch whose Open died in flight
   (gateways resegment envelopes, so the piggybacked Open travels and
   dies independently of the data) is thus still identifiable: explicit
   establishment is an accelerator, not a prerequisite. *)
let epoch_identity c rx =
  match c.live_open with Some _ as s -> s | None -> R.ident_tid rx

let live_report c rx =
  {
    delivered = R.contents rx;
    complete = R.complete rx;
    closed = false;
    open_csn = epoch_identity c rx;
    placed_elems = R.delivered_elems rx;
    shed_spans = R.shed_spans rx;
    passes = R.epoch_passes rx;
  }

(* Archive [c]'s live epoch.  [tally] settles the report's counts before
   the archive gate reads them: the live side journals its own, a replay
   takes a record's. *)
let archive ~tally m c =
  match c.live with
  | None -> ()
  | Some rx ->
      R.quiesce rx;
      m.archived_overlap <-
        Placement.add_overlap m.archived_overlap (R.overlap_stats rx);
      m.archived_verifier <-
        Edc.Verifier.add_stats m.archived_verifier (R.verifier_stats rx);
      (* An epoch in which no TPDU ever verified delivered nothing to the
         application (and acknowledged nothing to the sender), so from
         both ends' point of view it never happened: drop it rather than
         burn an epoch slot.  The sender's retransmissions re-establish
         the connection and deliver the whole stream into the re-opened
         epoch — at the same position in the sequence.  The gate counts
         passes over the epoch's {e whole} life ([R.epoch_passes]), so an
         epoch that verified TPDUs before a crash-restart is not dropped
         just because the restored verifier's counter restarted. *)
      let r = tally { (live_report c rx) with closed = true } in
      (* raise the watermark past a recovered identity too, so a
         straggler Open naming this archived epoch cannot be adopted by
         (or tear down) a later implicitly-established epoch *)
      (match r.open_csn with
      | Some k when k > c.open_hwm -> c.open_hwm <- k
      | Some _ | None -> ());
      if r.passes > 0 then begin
        (* archived buffers are outside the governor's account (nothing
           writes or re-admits them), so their total is exactly the
           state a flapping peer can park for free — tracked per
           connection for the isolation-budget oracle row *)
        c.hist_bytes <- c.hist_bytes + Bytes.length r.delivered;
        c.hist <- r :: c.hist
      end;
      c.live <- None;
      c.live_open <- None;
      m.n_live <- m.n_live - 1

(* [archive] as the live side does it, journalling the closing counts; a
   crash replay archives without journalling. *)
let retire m c =
  archive m c ~tally:(fun r ->
      emit m
        (Persist.Archived
           { conn = c.id; complete = r.complete; elems = r.placed_elems;
             passes = r.passes });
      r)

let close_conn m c =
  retire m c;
  Governor.remove_conn m.governor ~conn:c.id;
  emit m (Persist.Closed c.id);
  if Obs.enabled then begin
    Obs.Metrics.incr m_closes;
    if Obs.Trace.active () then
      Obs.Trace.record (Obs.Trace.Conn_close { conn = c.id }) ~time:(now m)
  end

(* {1 Containment: anomaly scoring, quarantine, bulkheads}

   A byzantine peer speaks valid wire format, so per-chunk validation
   passes everything it sends; what gives it away is the {e pattern} —
   Open/Close flapping that parks an archived epoch per cycle, garbage
   traffic against its own closed epochs, fabricated acknowledgements.
   Each connection carries an anomaly score; exhausting the error
   budget revokes its admission for an exponentially growing penalty,
   which bounds the state and work one hostile connection can cost the
   endpoint without touching any honest connection (the [blast-radius]
   oracle row holds the defense to that claim). *)

let quarantine_active m c = c.poisoned || c.quarantined_until > now m

(* Containment survives a crash: a boxed peer must not get a fresh
   budget by crashing the endpoint.  The score itself is not persisted —
   an un-tripped budget refills on restart, which errs on the side of
   honest connections. *)
let containment c =
  Persist.Quarantined
    { conn = c.id; until = c.quarantined_until; count = c.quarantine_count;
      poisoned = c.poisoned }

let quarantine_drop m =
  m.counts.quarantine_drops <- m.counts.quarantine_drops + 1

let enter_quarantine m c =
  let score = c.anomaly_score in
  c.quarantine_count <- c.quarantine_count + 1;
  (* exponential re-admission backoff: a peer that re-offends right
     after re-admission is boxed for twice as long each time (capped
     at 2^8 so the arithmetic stays tame) *)
  let dur =
    m.quarantine_base *. (2.0 ** float_of_int (min 8 (c.quarantine_count - 1)))
  in
  c.quarantined_until <- now m +. dur;
  c.anomaly_score <- 0;
  m.counts.quarantines <- m.counts.quarantines + 1;
  emit m (containment c);
  close_conn m c;
  if Obs.enabled && Obs.Trace.active () then
    Obs.Trace.record
      (Obs.Trace.Quarantine { conn = c.id; score; until = c.quarantined_until })
      ~time:(now m)

(* A scored anomaly: only for events the connection provably authored
   (see the [conn] field comments).  The score forgives itself after a
   quiet [anomaly_decay], so honest connections whose rare anomalies
   are spread over the transfer never accumulate toward the budget. *)
let note_scored m c ~weight =
  c.anomalies <- c.anomalies + 1;
  m.counts.anomalies <- m.counts.anomalies + 1;
  if m.anomaly_budget > 0 && not (quarantine_active m c) then begin
    let t = now m in
    if t -. c.last_anomaly > m.anomaly_decay then c.anomaly_score <- 0;
    c.last_anomaly <- t;
    c.anomaly_score <- c.anomaly_score + weight;
    if c.anomaly_score >= m.anomaly_budget then enter_quarantine m c
  end

(* An unscored anomaly: observed and counted, but spoofable or
   replayable — anyone on the path could have named this connection, so
   it must never push the connection toward the penalty box. *)
let note_unscored m c =
  c.anomalies <- c.anomalies + 1;
  m.counts.anomalies <- m.counts.anomalies + 1

(* Scored weights: re-establishment churn is the byzantine signature
   (4 per cycle, 8 cycles inside one decay window trip the default
   budget of 32), late unledgered traffic is corroborating evidence.
   An honest connection's worst legitimate episode — displacement under
   flood pressure followed by its sender's catch-up retransmissions —
   scores one churn plus a handful of late drops, far under budget. *)
let w_churn = 4
let w_late = 1

(* Exception bulkhead: a connection whose processing throws is torn
   down and permanently boxed instead of letting the exception kill the
   endpoint (or worse, leave half-mutated per-connection state in
   service).  Resource-exhaustion exceptions are not containable at
   connection granularity and re-raise. *)
let poison m ~conn_id =
  match Int_table.find_opt m.conns conn_id with
  | None -> ()
  | Some c ->
      if not c.poisoned then begin
        c.poisoned <- true;
        m.counts.conns_poisoned <- m.counts.conns_poisoned + 1;
        emit m (containment c);
        close_conn m c;
        if Obs.enabled && Obs.Trace.active () then
          Obs.Trace.record
            (Obs.Trace.Quarantine
               { conn = conn_id; score = c.anomaly_score; until = infinity })
            ~time:(now m)
      end

let bulkhead m ~conn_id exn =
  match exn with
  | Out_of_memory | Stack_overflow -> raise exn
  | _ -> poison m ~conn_id

(* Delta-t: a record outlives every retransmission its peer can still
   make.  Once a TPDU of the live epoch verified, its sender no longer
   announces the Open, so closing the incomplete epoch would strand it:
   its retransmissions would be scored late until it gave up.  The
   deadline sweep holds such a connection until the sender's
   retransmission horizon has passed since it was last heard from.  An
   epoch that never verified still has its Open re-announced, and a
   budget eviction is never held. *)
let owed m c =
  match c.live with
  | Some rx ->
      (not (R.complete rx))
      && R.epoch_passes rx > 0
      && now m -. c.last_touch
         < Chunk_transport.retransmit_horizon m.config
  | None -> false

let create engine ~config ~quota_elems ~max_conns ?(bus = Busmodel.create ())
    ?persist ?fastpath_slots ?(anomaly_budget = 32) ~send_ack () =
  if quota_elems < 1 || max_conns < 1 then
    invalid_arg "Multi.create: quota_elems and max_conns must be >= 1";
  if anomaly_budget < 0 then
    invalid_arg "Multi.create: anomaly_budget must be >= 0";
  let slots =
    match fastpath_slots with
    | Some n -> n
    | None -> max 64 (min max_conns 65536)
  in
  let m =
    {
      engine;
      config;
      bus;
      governor =
        Governor.create ~budget_bytes:config.state_budget
          ~ttl:config.state_ttl ();
      send_ack;
      conns = Int_table.create 16;
      quota_elems;
      max_conns;
      persist;
      memo = Flowcache.create ~name:"conn" ~slots ();
      scan = Wire.Scan.create ();
      spare = R.spare ();
      anomaly_budget;
      (* both containment clocks scale with the configured round trip:
         the first box outlasts a retransmission burst, and the decay
         window comfortably covers one displacement-and-catch-up
         episode without spanning two unrelated ones *)
      quarantine_base = Float.max 0.25 (4.0 *. config.rto);
      anomaly_decay = Float.max 1.0 (8.0 *. config.rto);
      n_live = 0;
      peak_live = 0;
      counts = Counters.zero ();
      archived_overlap = Placement.zero_overlap;
      archived_verifier = Edc.Verifier.zero_stats;
    }
  in
  Governor.set_on_evict m.governor (fun key ->
      match Int_table.find_opt m.conns key.Governor.conn with
      | None -> ()
      | Some c ->
          if key.Governor.tpdu >= 0 then (
            match c.live with
            | Some rx -> R.evict rx ~t_id:key.Governor.tpdu
            | None -> ())
          else if Governor.expired c.gov ~now:(now m) && owed m c then
            (* idle, but its sender may still be retransmitting: keep
               the record for another [state_ttl] *)
            c.gov <-
              Governor.refresh m.governor c.gov ~cls:0 ~bytes:(conn_cost m)
                ~now:(now m)
          else begin
            (* the connection itself went stale (or was squeezed out by
               budget pressure): reclaim everything it holds *)
            m.counts.conn_gcs <- m.counts.conn_gcs + 1;
            close_conn m c
          end);
  m

let stalest_live m =
  let pick pred =
    Int_table.fold
      (fun _ c best ->
        if c.live = None || not (pred c) then best
        else
          match best with
          | Some b when b.last_touch <= c.last_touch -> best
          | _ -> Some c)
      m.conns None
  in
  (* Displace unproven connections first: one whose ACK ledger has ever
     recorded a verified TPDU demonstrably carries a real sender, while a
     flood connection never verifies anything — so an Open flood churns
     through its own connections before it can touch a conn that is
     merely quiet between retransmissions. *)
  match pick (fun c -> Int_map.length c.acked = 0) with
  | Some _ as v -> v
  | None -> pick (fun _ -> true)

(* What connection [c]'s epoch receivers share with the endpoint. *)
let owner m c =
  { R.o_governor = m.governor; o_acked = c.acked; o_counts = m.counts;
    o_spare = m.spare }

(* A fresh receiver as [c]'s live epoch, journalled and accounted
   nowhere: [new_epoch]'s, and a crash replay's. *)
let start_epoch m c =
  let rx =
    R.create m.engine
      { m.config with conn_id = c.id }
      ~bus:m.bus ~owner:(owner m c) ?persist:m.persist ~send_ack:m.send_ack
      ~capacity:(`Quota m.quota_elems) ()
  in
  c.live <- Some rx;
  m.n_live <- m.n_live + 1;
  m.peak_live <- Int.max m.peak_live m.n_live;
  rx

let new_epoch ?open_csn m c =
  emit m (Persist.Opened { conn = c.id; open_csn });
  ignore (start_epoch m c : R.t);
  c.live_open <- open_csn;
  c.epochs_started <- c.epochs_started + 1;
  (match open_csn with
  | Some k when k > c.open_hwm -> c.open_hwm <- k
  | Some _ | None -> ());
  touch_conn m c

(* Make room for one more live connection by displacing the stalest one
   — never the freshest, so an Open flood churns through its own
   connections while refreshing legitimate ones stay. *)
let ensure_capacity m =
  if m.n_live >= m.max_conns then
    match stalest_live m with
    | Some victim ->
        m.counts.displaced_conns <- m.counts.displaced_conns + 1;
        close_conn m victim
    | None -> ()

(* Every per-chunk connection lookup goes through this memo of
   [m.conns].  It can never go stale: within one endpoint incarnation
   [m.conns] only grows (a record is added once, for an absent C.ID, and
   afterwards only mutated in place — archive, close, GC, displacement,
   quarantine and poison included), and a crash restore builds a new
   [t] with a new, empty memo.  Whatever the memo returns is therefore
   exactly what [m.conns] would, so it needs no invalidation; a conflict
   miss just costs the table probe.  C.IDs with no record insert
   nothing. *)
let find_conn m cid =
  match Flowcache.find m.memo ~k1:cid ~k2:0 with
  | Some _ as hit -> hit
  | None -> (
      match Int_table.find_opt m.conns cid with
      | Some c as found ->
          Flowcache.insert m.memo ~k1:cid ~k2:0 c;
          found
      | None -> None)

(* A connection record with no epoch, history or anomaly behind it. *)
let new_conn m id =
  {
    id;
    (* room for 32 T.IDs before it first grows, as the 16-bucket table
       it replaced had *)
    acked = Int_map.set 32;
    last_reack = Chunk_transport.throttle ~room:0;
    live = None;
    live_open = None;
    open_hwm = -1;
    hist = [];
    last_touch = now m;
    gov = Governor.entry (conn_key id);
    epochs_started = 0;
    hist_bytes = 0;
    anomalies = 0;
    anomaly_score = 0;
    last_anomaly = 0.0;
    quarantined_until = 0.0;
    quarantine_count = 0;
    poisoned = false;
  }

(* Each epoch's Open announces the stream's first C.SN, and the
   monotone-label discipline makes those strictly increase across a
   connection's epochs.  The announced C.SN is therefore the epoch's
   identity: an Open above the connection's watermark starts a new epoch
   no matter what state the live one is in (its sender may have given up
   mid-stream and moved on — waiting for the live epoch to complete
   would leak the new epoch's chunks into the stuck epoch's buffer),
   while an Open at or below the watermark can only be a retransmitted
   duplicate or a straggler from an archived epoch and is ignored.  A
   forged or duplicated Open can consequently never tear down a live
   epoch: teardown requires a label the connection has never seen.
   [found] is the connection's record, if it has one; the caller has
   already refused a boxed connection's Open. *)
let handle_open m cid found ~first_csn =
  match found with
  | None ->
      ensure_capacity m;
      let c = new_conn m cid in
      Int_table.add m.conns cid c;
      if Obs.enabled then begin
        Obs.Metrics.incr m_opens;
        if Obs.Trace.active () then
          Obs.Trace.record (Obs.Trace.Conn_open { conn = cid }) ~time:(now m)
      end;
      new_epoch m c ~open_csn:first_csn
  | Some c -> (
      match c.live with
      | None ->
          (* re-establishment under the same C.ID: fresh epoch, fresh
             placement, but the ACK ledger carries over so the old
             epoch's stragglers are re-acknowledged, never re-placed.
             An Open below the watermark is such a straggler itself and
             must not resurrect its archived epoch.  An Open {e at} the
             watermark re-establishes only when no archived epoch
             carries that C.SN: then the epoch's state was lost (a
             crash restore whose journal kept the Opened record but not
             the data, or a never-verified epoch the archive dropped)
             while its sender is evidently still transmitting. *)
          let already_archived =
            List.exists (fun a -> a.open_csn = Some first_csn) c.hist
          in
          if first_csn >= c.open_hwm && not already_archived then begin
            (* churn: only an Open naming a fresh C.SN can re-establish,
               and under the monotone-label discipline only the
               connection's own sender produces fresh C.SNs — a
               replayed Open bounces off the watermark below.  Honest
               re-establishment (reopen after Close, recovery after
               displacement) is rare; sustained churn is flapping. *)
            note_scored m c ~weight:w_churn;
            if quarantine_active m c then quarantine_drop m
            else begin
              ensure_capacity m;
              new_epoch m c ~open_csn:first_csn
            end
          end
          else
            (* a stale Open — a retransmitted duplicate or a replay of
               an archived epoch's Open.  Counted, never scored: a
               replayed signal says nothing about who is replaying. *)
            note_unscored m c
      | Some _ when first_csn <= c.open_hwm ->
          (* a duplicate Open of the live epoch (it piggybacks on every
             transmission of the first TPDU) or a straggler from an
             archived one — ignore; only the straggler is anomalous *)
          if c.live_open <> Some first_csn then note_unscored m c
      | Some _ -> (
          match c.live_open with
          | None ->
              (* the live epoch was established implicitly (its Open was
                 lost or damaged in flight); this is that Open finally
                 arriving — adopt its identity, and journal the adoption
                 so a crash replay recovers it too *)
              c.live_open <- Some first_csn;
              c.open_hwm <- first_csn;
              emit m (Persist.Opened { conn = c.id; open_csn = Some first_csn })
          | Some _ ->
              (* a newer epoch's Open: close-and-reopen, whether or not
                 the live epoch ever completed — its Close (or its
                 sender's remaining data) was evidently lost.  Scored
                 like any other churn: tearing down a live epoch with a
                 fresh label is exactly one flap half-cycle. *)
              note_scored m c ~weight:w_churn;
              if quarantine_active m c then quarantine_drop m
              else begin
                retire m c;
                new_epoch m c ~open_csn:first_csn
              end))

(* [Chunk_transport.reack] of a closed epoch's TPDU, through the
   connection's own throttle table; [gap] as for the live epoch's. *)
let re_ack_closed m c ~gap t_id =
  Chunk_transport.reack ~counts:m.counts ~send_ack:m.send_ack
    ~last_reack:c.last_reack ~gap ~now:(now m) ~conn_id:c.id t_id

let route m (v : Chunk.view) =
  let h = v.Chunk.header in
  let cid = h.Header.c.Ftuple.id in
  match find_conn m cid with
  | None -> m.counts.unknown_drops <- m.counts.unknown_drops + 1
  | Some c when quarantine_active m c -> quarantine_drop m
  | Some c -> (
      try
        match c.live with
        | Some rx ->
            (* Data or ED traffic with a TPDU label this epoch has never
               seen, arriving after the epoch's stream end was verified
               (C.ST), is the start of the next epoch whose Open was lost
               or damaged in flight — the Open piggybacks on every
               envelope, but a corrupted copy must not let the new
               epoch's chunks leak into the finished epoch's buffer.
               Implicit close-and-reopen, exactly as for a late Open.
               Deliberately {e not} scored as churn: it is data-driven,
               so anyone who can forge a data label could otherwise talk
               this connection into the penalty box. *)
            let t_id = h.Header.t.Ftuple.id in
            let rx =
              if
                R.complete rx
                && (Ctype.is_data h.Header.ctype
                   || Ctype.equal h.Header.ctype Ctype.ed)
                && (not (Int_map.mem c.acked t_id))
                && not (R.tracks_tpdu rx ~t_id)
              then begin
                retire m c;
                new_epoch m c;
                match c.live with Some fresh -> fresh | None -> rx
              end
              else rx
            in
            touch_conn m c;
            R.on_view rx v
        | None ->
            (* closed epoch: stale retransmissions of acknowledged TPDUs
               get their ACK again (the ledger outlives the epoch); other
               traffic for a closed connection is refused.  An unledgered
               T.ID here is scored: every T.ID an honest sender ever used
               is in the ledger (or was declared given-up while the epoch
               was live), so persistent late garbage is authored traffic,
               not a replay. *)
            let t_id = h.Header.t.Ftuple.id in
            if Int_map.mem c.acked t_id then
              re_ack_closed m c ~gap:m.config.nack_delay t_id
            else begin
              m.counts.late_drops <- m.counts.late_drops + 1;
              note_scored m c ~weight:w_late
            end
      with e -> bulkhead m ~conn_id:cid e)

(* The one dispatch for every scanned chunk: signals (rare) are
   materialised and go to their handlers, everything else is routed by
   connection record and read in place. *)
let on_view m (v : Chunk.view) =
  let h = v.Chunk.header in
  if Header.is_terminator h then ()
  else if Ctype.equal h.Header.ctype Ctype.signal then
    match Connection.parse_signal (Chunk.of_view v) with
    | Ok (cid, sg) -> (
        match find_conn m cid with
        | Some c when quarantine_active m c ->
            (* no signal is served while boxed — in particular no Open
               (a flapping peer's whole point is getting fresh epochs
               admitted), no Close (which would archive) and no shed
               (which would mutate the shed cover); the penalty box is
               a full service stop.  The first Open after the penalty
               expires re-establishes normally — re-admission is lazy,
               no timer needed. *)
            quarantine_drop m
        | found -> (
            try
              match sg with
              | Connection.Open { first_csn } ->
                  handle_open m cid found ~first_csn
              | Connection.Close -> (
                  match found with Some c -> close_conn m c | None -> ())
              | Connection.Resync _ -> ()
              | Connection.Abort_tpdu { t_id } -> (
                  match found with
                  | Some ({ live = Some rx; _ } as c) ->
                      c.last_touch <- now m;
                      R.abort_tpdu rx ~t_id
                  | Some _ | None -> ())
              | Connection.Shed_tpdu { t_id; first_elem; elems } -> (
                  match found with
                  | Some ({ live = Some rx; _ } as c) ->
                      c.last_touch <- now m;
                      let refused = m.counts.sheds_refused in
                      R.shed_tpdu rx ~t_id ~first_elem ~elems;
                      (* a refused shed named a TPDU this connection's
                         classifier protects: forged (or badly
                         misclassified).  Unscored — the signal names
                         its victim, not its author. *)
                      if m.counts.sheds_refused > refused then
                        note_unscored m c
                  | Some c when Int_map.mem c.acked t_id ->
                      (* shed signal straggling behind the epoch close
                         while its ACK was lost: re-acknowledge so the
                         sender stops retrying the signal *)
                      re_ack_closed m c ~gap:m.config.nack_delay t_id
                  | Some _ | None -> ())
            with e -> bulkhead m ~conn_id:cid e))
    | Error _ -> (
        (* a structurally valid signal chunk whose payload failed its
           WSC-2 parity (or shape) check, or whose labels are not a
           signal's: silently dropped, but counted — corruption in
           flight and tampering look identical here *)
        m.counts.sig_damage <- m.counts.sig_damage + 1;
        match find_conn m h.Header.c.Ftuple.id with
        | Some c -> note_unscored m c
        | None -> ())
  else route m v

let ingest m b =
  Busmodel.nic_to_mem m.bus (Bytes.length b);
  if Wire.Scan.packet m.scan b then
    for i = 0 to Wire.Scan.count m.scan - 1 do
      on_view m (Wire.Scan.view b (Wire.Scan.offset m.scan i))
    done

let ingest_batch m packets = Chunk_transport.ingest_each ingest m packets

let fastpath_stats m =
  { fp_conn = Flowcache.stats m.memo; fp_tpdu = Flowcache.zero_stats }

let epochs m ~conn_id =
  match Int_table.find_opt m.conns conn_id with
  | None -> []
  | Some c ->
      List.rev_append c.hist
        (match c.live with Some rx -> [ live_report c rx ] | None -> [])

let known_conns m =
  List.sort compare (Int_table.fold (fun id _ acc -> id :: acc) m.conns [])

let governor_stats m = Governor.stats m.governor
let live_conns m = m.n_live

let receivers m =
  Int_table.fold
    (fun id c acc -> match c.live with Some rx -> (id, rx) :: acc | None -> acc)
    m.conns []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let governor m = m.governor
let governor_handles m = Int_table.fold (fun _ c acc -> c.gov :: acc) m.conns []
let counters m = m.counts
let reacks_sent m = m.counts.reacks_sent
let unknown_drops m = m.counts.unknown_drops

type conn_stats = {
  cs_epochs : int;
  cs_hist_bytes : int;
  cs_anomalies : int;
  cs_quarantines : int;
  cs_quarantined : bool;
  cs_poisoned : bool;
}

let conn_stats m ~conn_id =
  Option.map
    (fun c ->
      {
        cs_epochs = c.epochs_started;
        cs_hist_bytes = c.hist_bytes;
        cs_anomalies = c.anomalies;
        cs_quarantines = c.quarantine_count;
        cs_quarantined = quarantine_active m c;
        cs_poisoned = c.poisoned;
      })
    (Int_table.find_opt m.conns conn_id)

let fold_live m f init =
  Int_table.fold
    (fun _ c acc -> match c.live with Some rx -> f acc rx | None -> acc)
    m.conns init

let overlap_stats m =
  fold_live m
    (fun acc rx -> Placement.add_overlap acc (R.overlap_stats rx))
    m.archived_overlap

let verifier_stats m =
  fold_live m
    (fun acc rx -> Edc.Verifier.add_stats acc (R.verifier_stats rx))
    m.archived_verifier

let tally m senders =
  let counts = Counters.zero () in
  Counters.add counts m.counts;
  let sum f = List.fold_left (fun acc tx -> acc + f tx) 0 senders in
  {
    Tally.counts;
    verifier = verifier_stats m;
    governor = Governor.stats m.governor;
    live_conns = m.n_live;
    peak_live_conns = m.peak_live;
    shed_bytes = counts.shed_elems * m.config.elem_size;
    retransmissions = sum Chunk_transport.Sender.retransmissions;
    aborts_sent = sum Chunk_transport.Sender.aborts_sent;
    sheds_sent = sum Chunk_transport.Sender.sheds_sent;
  }

let sum_live m f = fold_live m (fun acc rx -> acc + f rx) 0
let live_in_flight m = sum_live m R.verifier_in_flight
let live_stashed m = sum_live m R.stashed_tpdus

(* {1 Crash recovery: the compacted journal}

   [export] writes the fewest records that rebuild the durable state, in
   the journal's own vocabulary; [restore] replays them, and the journal
   written since, from an empty endpoint through the one [replay]. *)

(* Ascending T.IDs as runs [(first, count)] of consecutive ones. *)
let tid_runs tids =
  List.fold_left
    (fun acc t ->
      match acc with
      | (first, n) :: rest when first + n = t -> (first, n + 1) :: rest
      | _ -> (t, 1) :: acc)
    [] tids
  |> List.rev

(* An archived epoch's buffer as one run, from its first element up to
   its last nonzero one: it reads 0 everywhere else, so the run rebuilds
   it whole. *)
let delivered_runs ~es buf =
  let used = ref (Bytes.length buf) in
  while !used > 0 && Bytes.get buf (!used - 1) = '\000' do decr used done;
  let n = (!used + es - 1) / es * es in
  if n = 0 then [] else [ Persist.owned_run 0 (Bytes.sub buf 0 n) ]

let export m =
  List.concat_map
    (fun conn ->
      let c = Int_table.find m.conns conn in
      let tids = Int_map.sorted_keys c.acked in
      let ledgered = match tids with t :: _ -> t | [] -> 0 in
      (* One epoch: its verified runs in one [Acked] under a T.ID the
         ledger holds (verified bytes imply one), each honoured shed span
         under the first shed T.ID and each shed T.ID alone, then its
         identity, which the [Opened] sets last, and [last]. *)
      let epoch ~runs ~end_confirmed ~shed_tids ~shed_spans open_csn last =
        let t_id = match shed_tids with t :: _ -> t | [] -> ledgered in
        (if runs = [] && end_confirmed = None then []
         else
           [ Persist.Acked
               { conn; t_id = ledgered; end_confirmed; runs; parity = None } ])
        @ List.map
            (fun (first_elem, elems) ->
              Persist.Shed { conn; t_id; first_elem; elems })
            shed_spans
        @ List.map
            (fun t_id -> Persist.Shed { conn; t_id; first_elem = 0; elems = 0 })
            shed_tids
        @ [ Persist.Opened { conn; open_csn }; last ]
      in
      let archived r =
        epoch
          ~runs:(delivered_runs ~es:m.config.elem_size r.delivered)
          ~end_confirmed:None ~shed_tids:[] ~shed_spans:r.shed_spans r.open_csn
          (Persist.Archived
             { conn; complete = r.complete; elems = r.placed_elems;
               passes = r.passes })
      in
      let live rx =
        epoch ~runs:(R.verified_runs rx) ~end_confirmed:(R.end_confirmed rx)
          ~shed_tids:(R.shed_tids rx) ~shed_spans:(R.shed_spans rx)
          (epoch_identity c rx)
          (Persist.Passes { conn; passes = R.epoch_passes rx })
      in
      (* An Open watermark above every identity the epochs below carry
         was raised by an epoch the archive gate dropped: its identity
         travels as that epoch did, opened and archived with no pass,
         and the replayed gate drops it again. *)
      let identities =
        List.filter_map (fun r -> r.open_csn) c.hist
        @ Option.to_list (Option.bind c.live (epoch_identity c))
      in
      let dropped =
        if c.open_hwm >= 0 && List.for_all (fun k -> k < c.open_hwm) identities
        then
          [ Persist.Opened { conn; open_csn = Some c.open_hwm };
            Persist.Archived { conn; complete = false; elems = 0; passes = 0 } ]
        else []
      in
      let records =
        (if tids = [] then [] else [ Persist.Ledger { conn; tids = tid_runs tids } ])
        @ dropped
        @ List.concat_map archived (List.rev c.hist)
        @ (match c.live with Some rx -> live rx | None -> [])
        @
        if c.quarantine_count > 0 || c.poisoned || c.quarantined_until <> 0.0
        then [ containment c ]
        else []
      in
      (* a connection with nothing durable still exists *)
      if records = [] then [ Persist.Closed conn ] else records)
    (known_conns m)

(* One record applied to the endpoint being restored, through the
   primitives the live side uses ([R.replay] for the receiver's part).
   It journals, sends and accounts nothing: [restore] accounts the whole
   recovered state once, after the last record. *)
let replay m (ev : Persist.event) =
  let c = Int_table.find m.conns (Persist.event_conn ev) in
  let epoch () = match c.live with Some rx -> rx | None -> start_epoch m c in
  (* A TPDU settled by its ACK or its honoured shed.  Identity recovery
     under the monotone-label discipline: each such T.ID bounds the
     epoch's first C.SN from above, so the running minimum converges on
     it, covering epochs whose Open died in flight and never produced an
     Opened record. *)
  let close_tpdu t_id =
    R.replay (epoch ()) ev;
    c.live_open <- Some (Option.fold ~none:t_id ~some:(Int.min t_id) c.live_open)
  in
  match ev with
  | Persist.Acked { t_id; _ } ->
      Int_map.replace c.acked t_id ();
      close_tpdu t_id
  | Persist.Shed { t_id; _ } -> close_tpdu t_id
  | Persist.Opened { open_csn; _ } ->
      (* on a live epoch, an adoption: the epoch was established
         implicitly (its Open lost in flight) and this is its identity
         finally arriving *)
      ignore (epoch () : R.t);
      c.live_open <- open_csn
  | Persist.Passes _ -> R.replay (epoch ()) ev
  | Persist.Archived { complete; elems; passes; _ } ->
      archive m c ~tally:(fun r -> { r with complete; placed_elems = elems; passes })
  | Persist.Closed _ ->
      (* the live side's Close archives first, so a bare Closed record
         (its Archived torn away) archives with its own counts *)
      archive m c ~tally:Fun.id
  | Persist.Ledger { tids; _ } ->
      List.iter
        (fun (first, n) ->
          for t = first to first + n - 1 do
            Int_map.replace c.acked t ()
          done)
        tids
  | Persist.Quarantined { until; count; poisoned; _ } ->
      c.quarantined_until <- until;
      c.quarantine_count <- count;
      c.poisoned <- poisoned

(* Rebuild a demultiplexer from a snapshot's records and the journal
   written since.  Every connection they name is added in ascending
   order, the records are replayed over them, and only then is each
   connection's epoch and watermark accounting re-derived and its slot
   accounted against the fresh governor: the budget, not the snapshot,
   decides what survives.  Nothing in flight is restored, so a slot is
   all there is to account. *)
let restore engine ~config ~quota_elems ~max_conns ?bus ?persist
    ?anomaly_budget ~send_ack events =
  let m =
    create engine ~config ~quota_elems ~max_conns ?bus ?persist
      ?anomaly_budget ~send_ack ()
  in
  let ids = List.sort_uniq Int.compare (List.map Persist.event_conn events) in
  List.iter (fun id -> Int_table.add m.conns id (new_conn m id)) ids;
  List.iter (replay m) events;
  List.iter
    (fun id ->
      let c = Int_table.find m.conns id in
      (* replaying [Archived] raised the watermark past every archived
         epoch's identity, the gate's dropped ones included; the live
         epoch's identity raises it too *)
      Option.iter (fun k -> c.open_hwm <- Int.max c.open_hwm k) c.live_open;
      (* the epoch count re-derived (archiving counted the parked
         bytes), so the isolation-budget bound spans the crash *)
      c.epochs_started <- List.length c.hist + Bool.to_int (Option.is_some c.live);
      touch_conn m c)
    ids;
  m

(* Conservative re-entry into service: every TPDU in every restored
   ledger is re-acknowledged, whether its epoch is live or closed — any
   ACK from the pre-crash life may have died with the crash. *)
let reannounce m =
  Int_table.fold (fun id c acc -> (id, c) :: acc) m.conns []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, c) ->
         match c.live with
         | Some rx -> R.reannounce rx
         | None ->
             Int_map.sorted_keys c.acked
             |> List.iter (re_ack_closed m c ~gap:neg_infinity))

(* Crash the endpoint: release all soft state so the governor's sweep
   timer stops re-arming (a dead endpoint must not keep the simulation
   alive), without archiving anything or emitting journal events — a
   crash is not a graceful close — and without a verdict: what was in
   flight is not counted as failed. *)
let teardown m =
  Int_table.iter (fun _ c -> Option.iter R.forget_in_flight c.live) m.conns;
  Int_table.iter (fun id _ -> Governor.remove_conn m.governor ~conn:id) m.conns
