module CT = Transport.Chunk_transport
module Multi = Transport.Multi
module Persist = Transport.Persist

(* Stack bugs injected at the receiver door to prove the oracle can see
   (and the shrinker can minimise) real misbehaviour.  The door is the
   one point every forward packet crosses, whatever the topology. *)
type mutation =
  | No_mutation
  | Flip_every of int  (** XOR one byte of every [n]th delivered packet *)
  | Dup_every of int  (** deliver every [n]th packet twice *)
  | Drop_every of int  (** swallow every [n]th packet *)
  | Corrupt_restore
      (** flip one already-verified byte in the first restored snapshot *)
  | Overlap_clobber
      (** forge a {e correctly sealed} TPDU with divergent bytes over the
          first data chunk's connection range and inject it right after
          the original — a verified-vs-verified clash no honest network
          can produce *)
  | Shed_clobber
      (** mis-configure both endpoints to treat TPDU 0 — which the
          schedule's shed contract does {e not} declare sheddable — as
          expendable, and swallow its data at the door so the sender's
          shed policy fires: the stack "completes" with Critical bytes
          missing, the shed-safety violation the oracle must catch *)
  | Byz_clobber
      (** disable the anomaly-scoring quarantine ([anomaly_budget = 0])
          so a byzantine peer runs unboxed: its flap churn accumulates
          unbounded per-connection state, the isolation-budget violation
          the oracle must catch — proving the defense, not luck, is
          what contains the peer *)

let mutation_to_string = function
  | No_mutation -> "none"
  | Flip_every n -> Printf.sprintf "flip:%d" n
  | Dup_every n -> Printf.sprintf "dup:%d" n
  | Drop_every n -> Printf.sprintf "drop:%d" n
  | Corrupt_restore -> "corrupt-restore"
  | Overlap_clobber -> "overlap-clobber"
  | Shed_clobber -> "shed-clobber"
  | Byz_clobber -> "byz-clobber"

let mutation_of_string str =
  match String.split_on_char ':' str with
  | [ "none" ] -> Some No_mutation
  | [ "flip"; n ] -> Option.map (fun n -> Flip_every n) (int_of_string_opt n)
  | [ "dup"; n ] -> Option.map (fun n -> Dup_every n) (int_of_string_opt n)
  | [ "drop"; n ] -> Option.map (fun n -> Drop_every n) (int_of_string_opt n)
  | [ "corrupt-restore" ] -> Some Corrupt_restore
  | [ "overlap-clobber" ] -> Some Overlap_clobber
  | [ "shed-clobber" ] -> Some Shed_clobber
  | [ "byz-clobber" ] -> Some Byz_clobber
  | _ -> None

type epoch_obs = {
  e_conn : int;
  e_epoch : int;
  e_gave_up : bool;
  e_complete : bool;
  e_delivered : bytes option;
      (** the epoch's receiver buffer; [None] if the receiver never saw
          the epoch *)
}

(* Per-connection containment accounting for one byzantine connection,
   as the endpoint saw it at quiescence. *)
type byz_conn_obs = {
  bc_conn : int;
  bc_epochs : int;  (* epochs the peer ever started on this C.ID *)
  bc_hist_bytes : int;  (* archived bytes parked on the endpoint *)
  bc_quarantines : int;  (* admissions revoked *)
  bc_boxed : bool;  (* still boxed (or poisoned) at quiescence *)
}

(* The byzantine adversary's own accounting plus the endpoint-side view
   of its connections — what the isolation-budget oracle row bounds. *)
type byz_obs = {
  bo_stats : Netsim.Byzantine.stats;
  bo_conns : byz_conn_obs list;
  bo_honest_quarantined : int;
      (* honest connections ever boxed — must stay 0: every scored
         anomaly is provably authored, so no attacker can talk an
         honest connection into the penalty box *)
  bo_sender_bogus_acks : int;
      (* fabricated ACK/NACKs the honest senders detected and ignored *)
}

type observation = {
  ok : bool;
  complete : bool;
  gave_up : bool;
  finished : bool;
  delivered : bytes;
  delivered_elems : int;
  sack_retransmissions : int;
  packets_sent : int;
  passes : int;  (* connection 1 epoch 0's *)
  tally : Transport.Tally.t;
      (* folded over every endpoint instance, like every other endpoint
         statistic below *)
  verifier_in_flight : int;
  stashed_tpdus : int;
  engine_pending : int;
  sim_time : float;
  gateways_malformed : int;
  (* partial reliability *)
  shed_spans : (int * int) list;
  flood_injected : int;
  rtt_samples : int;
  max_txs_at_rtt_sample : int;
  final_rto : float;
  (* crash recovery *)
  crashes_injected : int;
  restores : int;
  recovery_bad : int;
  restore_over_budget : int;
  roundtrip_failures : int;
  snapshots_taken : int;
  journal_records : int;
  journal_bytes : int;
  epochs : epoch_obs list;  (* every planned (connection, epoch) *)
  known_conns : int;  (* connections ever admitted (incl. flood) *)
  (* overlap policy; [os_verified_overwrites] must stay 0: two verified
     TPDUs clashing *)
  overlap : Labelling.Placement.overlap_stats;
  overlap_injected : int;  (* overlap-adversary packets put on the wire *)
  fastpath_stats : Transport.Flowcache.stats;
      (* the endpoint's memo of its connection table, across crash
         incarnations *)
  byz : byz_obs option;  (* present iff the schedule runs the adversary *)
  counterfactuals : (string * epoch_obs list) list;
      (* (row, re-run outcome) for every counterfactual that applies *)
}

(* Far beyond the slowest legitimate run: a sender that gives up does so
   after at most ~303 RTOs (capped exponential backoff), RTOs are
   clamped to 2 s, and the state governor's deadline sweep finishes
   within one TTL of the last arrival.  Events still queued at the
   horizon mean a component reschedules itself forever — the lockup the
   oracle reports. *)
let horizon = 1000.0

(* The forward side of the wire: door mutation, congestion dropper,
   gateway chain, multipath, plus the scheduled outage valve in front
   of it all. *)
type plumbing = {
  engine : Netsim.Engine.t;
  forward_send : bytes -> unit;
  door : bytes -> unit;  (** the raw receiver door (adversary injection) *)
  gateways_malformed : unit -> int;
}

(* Notes go to the caller's sink only, never the process-wide one;
   untraced runs skip the formatting altogether. *)
let make_trec engine trace fmt =
  match trace with
  | Some sink ->
      Printf.ksprintf
        (fun text ->
          Obs.Trace.emit sink ~time:(Netsim.Engine.now engine)
            (Obs.Trace.Note text))
        fmt
  | None -> Printf.ikfprintf ignore () fmt

(* The Shed_clobber mutation, part 1: both endpoints mis-classify TPDU 0
   as expendable and (if the schedule did not already) arm the sender's
   shed policy.  Forcing the {e config} rather than the schedule is what
   makes the mutation survive the [shed=none] shrink transform — the
   oracle must catch it from the observed behaviour alone. *)
let config_for ~mutation (s : Schedule.t) =
  let config = Schedule.config_of s in
  if mutation <> Shed_clobber then config
  else
    {
      config with
      CT.classify =
        (fun t_id ->
          if t_id = 0 then Labelling.Significance.Sheddable 1
          else config.CT.classify t_id);
      shed_txs =
        (if config.CT.shed_txs > 0 then config.CT.shed_txs
         else if config.CT.give_up_txs > 1 then
           min 2 (config.CT.give_up_txs - 1)
         else 0);
    }

(* Part 2's door predicate: a packet carrying TPDU-0 payload (data or ED
   chunks).  Signal chunks pass — the shed signal itself must reach the
   receiver for the clobber to "succeed". *)
let carries_tid0_payload b =
  let open Labelling in
  match Wire.decode_packet b with
  | Error _ -> false
  | Ok chunks ->
      List.exists
        (fun c ->
          (Chunk.is_data c || Ctype.equal c.Chunk.header.Header.ctype Ctype.ed)
          && c.Chunk.header.Header.t.Ftuple.id = 0)
        chunks

let build_plumbing ~mutation ~trace (s : Schedule.t) engine to_receiver_raw =
  let trec fmt = make_trec engine trace fmt in
  let door_count = ref 0 in
  let to_receiver b =
    incr door_count;
    let n = !door_count in
    trec "rx packet #%d (%d bytes)" n (Bytes.length b);
    match mutation with
    | No_mutation | Corrupt_restore | Overlap_clobber | Byz_clobber ->
        to_receiver_raw b
    | Shed_clobber ->
        if carries_tid0_payload b then
          trec "MUTATION swallow TPDU-0 packet #%d" n
        else to_receiver_raw b
    | Flip_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION flip byte of packet #%d" n;
        let b = Bytes.copy b in
        let i = 50 mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        to_receiver_raw b
    | Dup_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION duplicate packet #%d" n;
        to_receiver_raw b;
        to_receiver_raw b
    | Drop_every k when k > 0 && n mod k = 0 ->
        trec "MUTATION drop packet #%d" n
    | Flip_every _ | Dup_every _ | Drop_every _ -> to_receiver_raw b
  in
  (* Congestion-drop element just before the receiver.  Doomed-TPDU
     memory must not outlive a retransmission round, or the dropper
     black-holes a TPDU forever; resetting on the first arrival after an
     RTO-sized quiet period keeps the simulation event-driven (a
     repeating reset timer would never let the queue drain). *)
  let after_gateways =
    match s.dropper with
    | None -> to_receiver
    | Some { drop_mode; drop_loss } ->
        let d =
          Netsim.Dropper.create ~mode:drop_mode
            ~sheddable:(fun t_id -> Schedule.sheddable_tid s ~t_id)
            ~rng:(Netsim.Rng.split (Netsim.Engine.rng engine))
            ~loss:drop_loss ~forward:to_receiver ()
        in
        let last_reset = ref 0.0 in
        fun b ->
          let now = Netsim.Engine.now engine in
          if now -. !last_reset > s.rto then begin
            last_reset := now;
            Netsim.Dropper.reset_epoch d
          end;
          Netsim.Dropper.on_packet d b
  in
  (* Gateway chain, built back to front; each re-envelopes for its own
     outgoing link.  Batching gateways get a one-shot flush scheduled
     per arrival so held chunks always drain. *)
  let gws = ref [] in
  let first_hop =
    List.fold_left
      (fun downstream (g : Schedule.gateway) ->
        let out_link =
          Netsim.Link.create engine ~rate_bps:s.rate_bps ~delay:s.delay
            ~mtu:g.gw_mtu ~deliver:downstream ()
        in
        let gw =
          Netsim.Gateway.create ~policy:g.gw_policy ~flush_batch:g.gw_batch
            ~forward:(fun b -> ignore (Netsim.Link.send out_link b))
            ~out_mtu:g.gw_mtu ()
        in
        gws := gw :: !gws;
        fun b ->
          Netsim.Gateway.on_packet gw b;
          if g.gw_batch > 1 then
            Netsim.Engine.schedule engine ~delay:0.002 (fun () ->
                Netsim.Gateway.flush gw))
      after_gateways (List.rev s.gateways)
  in
  let spread =
    match s.spread with
    | Schedule.Round_robin -> Netsim.Multipath.Round_robin
    | Schedule.Random_path -> Netsim.Multipath.Random
    | Schedule.Route_change t -> Netsim.Multipath.Route_change t
  in
  let forward =
    Netsim.Multipath.create engine ~paths:s.paths ~rate_bps:s.rate_bps
      ~delay:s.delay ~skew:s.skew ~jitter:s.jitter ~mtu:s.mtu ~loss:s.loss
      ~corrupt:s.corrupt ~duplicate:s.duplicate ~spread ~deliver:first_hop ()
  in
  let into_multipath b = ignore (Netsim.Multipath.send forward b) in
  (* The scheduled forward outage sits between the sender and the wire:
     during the window packets are discarded (dead path) or held and
     replayed in order at resume (pausing link). *)
  let forward_send =
    match s.outage with
    | None -> into_multipath
    | Some o ->
        let valve =
          Netsim.Outage.create engine
            ~mode:(if o.Schedule.out_hold then Netsim.Outage.Hold
                   else Netsim.Outage.Drop)
            ~start:o.Schedule.out_start ~duration:o.Schedule.out_duration
            ~deliver:into_multipath ()
        in
        fun b -> Netsim.Outage.send valve b
  in
  {
    engine;
    forward_send;
    door = to_receiver_raw;
    gateways_malformed =
      (fun () ->
        List.fold_left
          (fun acc gw ->
            acc + (Netsim.Gateway.stats gw).Netsim.Gateway.malformed)
          0 !gws);
  }

(* The reverse path, with the optional ACK black hole in front of it. *)
let build_reverse ~trace (s : Schedule.t) engine deliver =
  let trec fmt = make_trec engine trace fmt in
  let reverse =
    Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay:s.delay
      ~mtu:s.mtu
      ~deliver:(fun b ->
        trec "ack packet (%d bytes)" (Bytes.length b);
        deliver b)
      ()
  in
  let into_link b = ignore (Netsim.Link.send reverse b) in
  match s.ack_blackhole with
  | None -> into_link
  | Some (start, duration) ->
      let valve =
        Netsim.Outage.create engine ~mode:Netsim.Outage.Drop ~start ~duration
          ~deliver:into_link ()
      in
      fun b -> Netsim.Outage.send valve b

(* {2 Crash injection}

   A crash drops the endpoint's in-memory state and every packet that
   arrives during the down window; the restart rebuilds the endpoint
   from the persisted snapshot + journal. *)

(* Per-run crash bookkeeping: counters the oracle's recovery checks
   read, plus accumulators for statistics that die with each crashed
   endpoint instance (the restored instance restarts them at zero). *)
type crash_track = {
  mutable ct_crashes : int;
  mutable ct_restores : int;
  mutable ct_bad : int;  (* recovery-safety probe failures *)
  mutable ct_over_budget : int;
  mutable ct_roundtrip : int;
  mutable ct_corrupted : bool;  (* Corrupt_restore already applied *)
  (* statistics folded in from every endpoint instance *)
  mutable ct_fp : Transport.Flowcache.stats;
  mutable ct_tally : Transport.Tally.t;
  mutable ct_overlap : Labelling.Placement.overlap_stats;
}

let crash_track () =
  {
    ct_crashes = 0;
    ct_restores = 0;
    ct_bad = 0;
    ct_over_budget = 0;
    ct_roundtrip = 0;
    ct_corrupted = false;
    ct_fp = Transport.Flowcache.zero_stats;
    ct_tally = Transport.Tally.zero ();
    ct_overlap = Labelling.Placement.zero_overlap;
  }

(* Fold one endpoint instance's statistics in: at its crash, and at the
   end of the run for the last one, with the run's [senders]. *)
let absorb ct m senders =
  ct.ct_fp <-
    Transport.Flowcache.add_stats ct.ct_fp
      (Multi.fastpath_stats m).Multi.fp_conn;
  ct.ct_tally <- Transport.Tally.add ct.ct_tally (Multi.tally m senders);
  ct.ct_overlap <-
    Labelling.Placement.add_overlap ct.ct_overlap (Multi.overlap_stats m)

(* The codec must be a fixpoint on every image it produced itself; a
   re-encode that fails to decode back to the same value means the
   snapshot format lies about something. *)
let codec_roundtrip_ok img =
  match Persist.decode_endpoint (Persist.encode_endpoint img) with
  | Ok img' -> img' = img
  | Error _ -> false

(* A copy of [data] with byte [i] flipped. *)
let flip_byte data i =
  let data = Bytes.copy data in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x01));
  data

(* The first element of [l] that [f] changes, changed. *)
let rec update_first f = function
  | [] -> None
  | x :: rest -> (
      match f x with
      | Some x' -> Some (x' :: rest)
      | None -> Option.map (List.cons x) (update_first f rest))

(* The Corrupt_restore mutation: flip one byte that the image holds as
   {e verified}.  Verified bytes are exactly the ones recovery must
   preserve faithfully — their TPDUs sit in the ledger, so the sender
   will never retransmit them and no later traffic can heal the damage.
   The byte is the first of the first [Acked] run in the compacted
   journal, a live epoch's or an archived one's alike.  Returns [None]
   when the image holds none (the caller retries at the next
   restore). *)
let corrupt_image events =
  update_first
    (function
      | Persist.Acked ({ runs = run :: rest; _ } as a) ->
          let sn, data = Persist.run_bytes run in
          if Bytes.length data = 0 then None
          else
            Some
              (Persist.Acked
                 { a with runs = Persist.owned_run sn (flip_byte data 0) :: rest })
      | _ -> None)
    events

(* Snapshots are scheduled up front at k·snap_period for every k that
   lands before the last crash (later ones could never be consulted),
   so the store never re-arms itself and cannot keep the engine alive. *)
let schedule_snapshots engine (s : Schedule.t) store export_now =
  if s.Schedule.crashes <> [] && s.Schedule.snap_period > 0.0 then begin
    let last =
      List.fold_left
        (fun acc (c : Schedule.crash) -> Float.max acc c.Schedule.cr_time)
        0.0 s.Schedule.crashes
    in
    let k = ref 1 in
    while float_of_int !k *. s.Schedule.snap_period <= last do
      let at = float_of_int !k *. s.Schedule.snap_period in
      Netsim.Engine.schedule engine ~delay:at (fun () ->
          match export_now () with
          | Some img -> Persist.Store.snapshot store img
          | None -> ());
      incr k
    done
  end

(* The snapshot store, and the write-ahead hook the endpoint journals
   into — armed only when the schedule crashes. *)
let crash_store (s : Schedule.t) =
  let store = Persist.Store.create () in
  let persist =
    if s.Schedule.crashes <> [] then Some (Persist.Store.append store)
    else None
  in
  (store, persist)

(* A crashed endpoint neither receives nor buffers: one [Drop] valve
   per crash window, chained, discards everything that arrives at the
   door inside any of them. *)
let crash_valve engine (s : Schedule.t) endpoint =
  List.fold_left
    (fun deliver (c : Schedule.crash) ->
      Netsim.Outage.send
        (Netsim.Outage.create engine ~mode:Netsim.Outage.Drop
           ~start:c.Schedule.cr_time ~duration:c.Schedule.cr_restart ~deliver
           ()))
    (fun b -> match !endpoint with Some m -> Multi.ingest m b | None -> ())
    s.Schedule.crashes

(* Snapshots, crashes and restarts for the endpoint held in [current];
   [restore engine] rebuilds one on [engine] from a snapshot's records
   and the journal since.  A restore runs every recovery
   probe the oracle reads: the codec fixpoint, the export round trip,
   the absence of in-flight state and the state budget.  A probe or mutation
   that needs a second restore runs it on a private engine, so the run's
   own engine schedules only what the one real restore does. *)
let install_crashes ~mutation ~trace engine (s : Schedule.t) store ct current
    ~restore =
  let trec fmt = make_trec engine trace fmt in
  let export m = Persist.Multi (Multi.export m) in
  schedule_snapshots engine s store (fun () -> Option.map export !current);
  (* [f] of an endpoint restored on a private engine, which never runs *)
  let aside events f = f (restore (Netsim.Engine.create ()) events) in
  let restore_now (c : Schedule.crash) =
    let t0 = Unix.gettimeofday () in
    match Persist.Store.recover store with
    | Error msg ->
        ct.ct_bad <- ct.ct_bad + 1;
        trec "RESTORE failed: %s" msg
    | Ok (events, torn) ->
        (* no schedule damages the journal, so a torn one means a
           record that does not read back as written *)
        if torn then begin
          ct.ct_bad <- ct.ct_bad + 1;
          trec "RESTORE journal torn, tail discarded"
        end;
        (* the mutation corrupts the image the journal recovers to, and
           the run goes on from that image *)
        let corrupted =
          if mutation = Corrupt_restore && not ct.ct_corrupted then
            corrupt_image (aside events Multi.export)
          else None
        in
        let m =
          match corrupted with
          | Some events' ->
              ct.ct_corrupted <- true;
              trec "MUTATION corrupt restored image";
              restore engine events'
          | None -> restore engine events
        in
        if Obs.enabled then
          Obs.Metrics.observe_s Persist.m_recovery (Unix.gettimeofday () -. t0);
        let img = Multi.export m in
        if not (codec_roundtrip_ok (Persist.Multi img)) then
          ct.ct_roundtrip <- ct.ct_roundtrip + 1;
        (* Restoring the re-export must reproduce it (structural round
           trip), unless that restore evicted state — then the budget
           legitimately trimmed the image. *)
        let round_trips again =
          let k = Multi.counters again in
          k.evictions > 0 || k.displaced_conns > 0 || k.conn_gcs > 0
          || Multi.export again = img
        in
        if not (aside img round_trips) then
          ct.ct_roundtrip <- ct.ct_roundtrip + 1;
        (* a restored endpoint holds nothing in flight: a TPDU it held
           could be both ledgered and in flight, and verify (and deliver)
           again what the ledger already promised was done *)
        if Multi.live_in_flight m + Multi.live_stashed m > 0 then
          ct.ct_bad <- ct.ct_bad + 1;
        if
          s.Schedule.state_budget > 0
          && (Multi.governor_stats m).Transport.Governor.accounted_bytes
             > s.Schedule.state_budget
        then ct.ct_over_budget <- ct.ct_over_budget + 1;
        ct.ct_restores <- ct.ct_restores + 1;
        Multi.reannounce m;
        current := Some m;
        trec "RESTART demultiplexer after %.4fs down" c.Schedule.cr_restart
  in
  List.iter
    (fun (c : Schedule.crash) ->
      Netsim.Engine.schedule engine ~delay:c.Schedule.cr_time (fun () ->
          match !current with
          | None -> ()
          | Some m ->
              ct.ct_crashes <- ct.ct_crashes + 1;
              trec "CRASH demultiplexer, down %.4fs" c.Schedule.cr_restart;
              absorb ct m [];
              Multi.teardown m;
              current := None);
      Netsim.Engine.schedule engine
        ~delay:(c.Schedule.cr_time +. c.Schedule.cr_restart)
        (fun () -> match !current with None -> restore_now c | Some _ -> ()))
    s.Schedule.crashes

(* The Overlap_clobber mutation: a forged TPDU with a {e correct} WSC-2
   seal over divergent bytes, covering exactly the first data chunk's
   connection range and injected right after the packet it copies (so
   the endpoint has admitted the connection by then).  The forged TPDU
   is whole in one packet, so it verifies at once and locks its bytes
   under first-verified-wins; the real TPDU still passes its own parity
   over its own chunks, so the receiver completes with the forged bytes
   in that window — the data mismatch the oracle must catch.  Forging
   it requires authoring a {e valid} seal, which no honest network
   element can do: that is what makes this a stack-bug mutation rather
   than an adversary mode. *)
let clobber_tid_base = 900_000

let forge_clobber b =
  let open Labelling in
  match Wire.decode_packet b with
  | Error _ -> None
  | Ok chunks -> (
      match List.find_opt Chunk.is_data chunks with
      | None -> None
      | Some c -> (
          let h = c.Chunk.header in
          let payload =
            Bytes.init (Bytes.length c.Chunk.payload) (fun i ->
                Char.chr (Char.code (Bytes.get c.Chunk.payload i) lxor 0xFF))
          in
          match
            Chunk.data ~size:h.Header.size
              ~c:
                (Ftuple.v ~id:h.Header.c.Ftuple.id ~sn:h.Header.c.Ftuple.sn
                   ())
              ~t:(Ftuple.v ~st:true ~id:clobber_tid_base ~sn:0 ())
              ~x:(Ftuple.v ~id:clobber_tid_base ~sn:0 ())
              payload
          with
          | Error _ -> None
          | Ok d -> (
              match Edc.Encoder.seal [ d ] with
              | Error _ -> None
              | Ok ed -> (
                  match (Wire.encode_packet [ d ], Wire.encode_packet [ ed ])
                  with
                  | Ok p1, Ok p2 -> Some [ p1; p2 ]
                  | _ -> None))))

(* T.ID spaces of successive epochs of one connection must be disjoint
   (a stale full-TPDU retransmission from a closed epoch must never be
   mistakable for new-epoch data). *)
let epoch_tid_stride = 200_000

(* One (connection, epoch) transfer as the driver-side endpoint sees
   it. *)
type ep = {
  ep_conn : int;
  ep_epoch : int;
  mutable ep_tx : CT.Sender.t option;
  mutable ep_done : bool;
  mutable ep_gave_up : bool;
}

(* Every schedule runs one [Multi] endpoint, fed by one sender per
   planned (connection, epoch): a single-connection schedule is
   connection 1's epoch 0, whose report feeds the single-transfer
   fields of the observation. *)
let run_once ~mutation ~trace ?(overlap_salt = 0) (s : Schedule.t) =
  let config = config_for ~mutation s in
  let engine = Netsim.Engine.create ~seed:s.seed () in
  let trec fmt = make_trec engine trace fmt in
  let multi = ref None in
  let inject = crash_valve engine s multi in
  (* The overlap adversary and the byzantine peer tap the door (before
     their own injections, so neither feeds on itself) and inject
     straight past the taps. *)
  let overlapper = ref None and byzantine = ref None in
  let clobbered = ref false in
  let to_receiver_raw b =
    Option.iter (fun o -> Netsim.Overlapper.observe o b) !overlapper;
    Option.iter (fun bz -> Netsim.Byzantine.observe bz b) !byzantine;
    inject b;
    if mutation = Overlap_clobber && not !clobbered then
      match forge_clobber b with
      | Some pkts ->
          clobbered := true;
          trec "MUTATION forged clobber TPDU after packet";
          List.iter inject pkts
      | None -> ()
  in
  let p = build_plumbing ~mutation ~trace s engine to_receiver_raw in
  Option.iter
    (fun (o : Schedule.overlap) ->
      overlapper :=
        Some
          (Netsim.Overlapper.create engine
             ~seed:(s.seed lxor 0x0A51A9 lxor overlap_salt)
             ~rate:o.ov_rate ~stop:o.ov_stop ~dup:o.ov_dup ~forge:o.ov_forge
             ~resplit:o.ov_resplit ~inject ()))
    s.Schedule.overlap;
  (* Reverse traffic is demultiplexed to the per-connection sender by
     the C.ID every control chunk carries. *)
  let senders : (int, CT.Sender.t) Hashtbl.t = Hashtbl.create 8 in
  let demux_reverse = CT.Sender.demux (Hashtbl.find_opt senders) in
  let reverse_send = build_reverse ~trace s engine demux_reverse in
  let quota_elems =
    CT.expected_elements config ~data_len:s.Schedule.data_len
  in
  let store, persist = crash_store s in
  let max_conns = s.Schedule.connections + 8 in
  (* The byz-clobber mutation switches the quarantine off wholesale —
     at creation and at every restore, so a crash cannot silently
     re-arm the defense mid-mutation. *)
  let anomaly_budget =
    match mutation with Byz_clobber -> Some 0 | _ -> None
  in
  let m =
    Multi.create engine ~config ~quota_elems ~max_conns ?persist
      ?anomaly_budget ~send_ack:reverse_send ()
  in
  multi := Some m;
  let ct = crash_track () in
  install_crashes ~mutation ~trace engine s store ct multi
    ~restore:(fun engine events ->
      Multi.restore engine ~config ~quota_elems ~max_conns ?persist
        ?anomaly_budget ~send_ack:reverse_send events);
  (* Plan the (connection, epoch) transfers: every connection one epoch,
     connection 1 a second one when the schedule re-opens it. *)
  let eps =
    List.concat_map
      (fun i ->
        let conn = i + 1 in
        let epochs = if conn = 1 && s.Schedule.reopen then 2 else 1 in
        List.init epochs (fun e ->
            {
              ep_conn = conn;
              ep_epoch = e;
              ep_tx = None;
              ep_done = false;
              ep_gave_up = false;
            }))
      (List.init s.Schedule.connections Fun.id)
  in
  let start_ep ep =
    let tx =
      CT.Sender.create engine
        { config with CT.conn_id = ep.ep_conn }
        ~first_tid:(ep.ep_epoch * epoch_tid_stride)
        ~announce_open:true ~send:p.forward_send
        ~data:(Schedule.data_of_conn s ~conn:ep.ep_conn ~epoch:ep.ep_epoch)
        ()
    in
    ep.ep_tx <- Some tx;
    Hashtbl.replace senders ep.ep_conn tx;
    trec "start epoch (%d,%d)" ep.ep_conn ep.ep_epoch;
    CT.Sender.start tx
  in
  (* Epoch 0 of every connection starts together; later epochs start
     only after the previous one finished (their Open performs the
     close-and-reopen).  The explicit Close is sent once per connection
     after its {e final} epoch, so no Close is ever in flight while a
     reopen could race it. *)
  List.iter (fun ep -> if ep.ep_epoch = 0 then start_ep ep) eps;
  let close_sent : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let send_close conn =
    if not (Hashtbl.mem close_sent conn) then begin
      Hashtbl.add close_sent conn ();
      trec "close connection %d" conn;
      match
        Labelling.Wire.encode_packet
          [ Labelling.Connection.(signal_chunk ~conn_id:conn Close) ]
      with
      | Ok b -> p.forward_send b
      | Error _ -> ()
    end
  in
  let last_of conn =
    List.fold_left
      (fun acc ep -> if ep.ep_conn = conn then max acc ep.ep_epoch else acc)
      0 eps
  in
  let poll_dt = Float.max 0.002 (s.Schedule.rto /. 4.0) in
  (* A finished epoch hands over after one RTO of settling time, so its
     last retransmitted packets (and the next epoch's Open) cannot
     arrive out of order across the multipath skew. *)
  let rec poll () =
    List.iter
      (fun ep ->
        match ep.ep_tx with
        | Some tx when (not ep.ep_done) && CT.Sender.finished tx ->
            ep.ep_done <- true;
            ep.ep_gave_up <- CT.Sender.gave_up tx;
            trec "epoch (%d,%d) finished gave_up=%b" ep.ep_conn ep.ep_epoch
              ep.ep_gave_up;
            if ep.ep_epoch = last_of ep.ep_conn then send_close ep.ep_conn
            else begin
              let next =
                List.find
                  (fun e ->
                    e.ep_conn = ep.ep_conn && e.ep_epoch = ep.ep_epoch + 1)
                  eps
              in
              Netsim.Engine.schedule engine ~delay:s.Schedule.rto (fun () ->
                  start_ep next)
            end
        | _ -> ())
      eps;
    if List.exists (fun ep -> not ep.ep_done) eps then
      Netsim.Engine.schedule engine ~delay:poll_dt poll
  in
  Netsim.Engine.schedule engine ~delay:poll_dt poll;
  (* The flood adversary injects straight at the receiver door. *)
  let adversary =
    match s.Schedule.flood with
    | None -> None
    | Some f ->
        Some
          (Adversary.create engine ~seed:(s.seed lxor 0xF100D)
             ~rate:f.Schedule.flood_rate ~stop:f.Schedule.flood_stop
             ~legit_conns:(List.init s.Schedule.connections (fun i -> i + 1))
             ~bogus_conns:f.Schedule.flood_conns ~elem_size:s.Schedule.elem_size
             ~inject:p.door ())
  in
  (* The byzantine peer: own RNG (so removing it leaves every honest
     draw untouched), forward injection straight past its own tap at
     the door, reverse injection straight into the sender demux —
     bypassing the shared ACK link, so forged reverse traffic cannot
     perturb honest ACK serialisation.  Both properties together make
     the blast-radius re-run a true counterfactual. *)
  (match s.Schedule.byz with
  | None -> ()
  | Some b ->
      byzantine :=
        Some
          (Netsim.Byzantine.create engine ~seed:(s.seed lxor 0xB12A97)
             ~rate:b.Schedule.bz_rate ~stop:b.Schedule.bz_stop
             ~conns:b.Schedule.bz_conns
             ~legit_conns:(List.init s.Schedule.connections (fun i -> i + 1))
             ~elem_size:s.Schedule.elem_size ~acks:b.Schedule.bz_acks
             ~sheds:b.Schedule.bz_sheds ~replay:b.Schedule.bz_replay
             ~garbage:b.Schedule.bz_garbage
             ~inject ~inject_ack:demux_reverse ()));
  Netsim.Engine.run ~until:horizon engine;
  let m = match !multi with Some m -> m | None -> m in
  let senders = List.filter_map (fun ep -> ep.ep_tx) eps in
  absorb ct m senders;
  (* Join the driver-side epochs with the receiver-side reports by
     epoch identity (the Open's announced first C.SN), not by list
     position: the receiver legitimately drops an epoch in which no TPDU
     ever verified (a fully-given-up transfer), which would shift every
     later epoch under a positional join. *)
  let joined =
    List.map
      (fun ep ->
        let want = Some (ep.ep_epoch * epoch_tid_stride) in
        ( ep,
          List.find_opt
            (fun (r : Multi.epoch_report) -> r.Multi.open_csn = want)
            (Multi.epochs m ~conn_id:ep.ep_conn) ))
      eps
  in
  let epochs =
    List.map
      (fun (ep, r) ->
        {
          e_conn = ep.ep_conn;
          e_epoch = ep.ep_epoch;
          e_gave_up = ep.ep_gave_up;
          e_complete =
            (match r with Some r -> r.Multi.complete | None -> false);
          e_delivered = Option.map (fun r -> r.Multi.delivered) r;
        })
      joined
  in
  (* Byte-exact outside the epoch's honoured shed spans; the oracle
     separately checks that every observed shed was contractually
     permitted. *)
  let epoch_ok (ep, r) =
    ep.ep_gave_up
    ||
    match r with
    | Some (r : Multi.epoch_report) ->
        r.Multi.complete
        && Transport.Transfer.equal_outside_sheds ~elem_size:s.Schedule.elem_size
             ~spans:r.Multi.shed_spans
             ~expected:
               (Schedule.data_of_conn s ~conn:ep.ep_conn ~epoch:ep.ep_epoch)
             ~delivered:r.Multi.delivered
    | None -> false
  in
  let finished = List.for_all (fun ep -> ep.ep_done) eps in
  let ok = List.for_all epoch_ok joined && finished in
  trec "run end: ok=%b pending=%d" ok (Netsim.Engine.pending engine);
  (* The endpoint-side view of the byzantine connections at quiescence.
     Containment survives crashes (it is journalled), so [conn_stats] on
     the final incarnation is the whole run's story. *)
  let byz_report =
    match !byzantine with
    | None -> None
    | Some bz ->
        let conn_view cid =
          match Multi.conn_stats m ~conn_id:cid with
          | Some cs ->
              {
                bc_conn = cid;
                bc_epochs = cs.Multi.cs_epochs;
                bc_hist_bytes = cs.Multi.cs_hist_bytes;
                bc_quarantines = cs.Multi.cs_quarantines;
                bc_boxed = cs.Multi.cs_quarantined;
              }
          | None ->
              {
                bc_conn = cid;
                bc_epochs = 0;
                bc_hist_bytes = 0;
                bc_quarantines = 0;
                bc_boxed = false;
              }
        in
        let honest_quarantined =
          List.fold_left
            (fun acc i ->
              match Multi.conn_stats m ~conn_id:(i + 1) with
              | Some cs when cs.Multi.cs_quarantines > 0 || cs.Multi.cs_poisoned
                ->
                  acc + 1
              | _ -> acc)
            0
            (List.init s.Schedule.connections Fun.id)
        in
        Some
          {
            bo_stats = Netsim.Byzantine.stats bz;
            bo_conns = List.map conn_view (Netsim.Byzantine.conn_ids bz);
            bo_honest_quarantined = honest_quarantined;
            bo_sender_bogus_acks =
              List.fold_left (fun acc tx -> acc + CT.Sender.bogus_acks tx) 0
                senders;
          }
  in
  (* Connection 1's epoch 0: the transfer a single-connection schedule
     is, and the first one of every other. *)
  let first_tx, first =
    match joined with (ep, r) :: _ -> (ep.ep_tx, r) | [] -> (None, None)
  in
  let from_first f default = match first with Some r -> f r | None -> default in
  let sum f = List.fold_left (fun acc tx -> acc + f tx) 0 senders in
  {
    ok;
    complete = List.for_all (fun e -> e.e_gave_up || e.e_complete) epochs;
    gave_up = List.exists (fun e -> e.e_gave_up) epochs;
    finished;
    delivered = from_first (fun r -> r.Multi.delivered) Bytes.empty;
    delivered_elems = from_first (fun r -> r.Multi.placed_elems) 0;
    sack_retransmissions = sum CT.Sender.sack_retransmissions;
    packets_sent = sum CT.Sender.packets_sent;
    passes = from_first (fun r -> r.Multi.passes) 0;
    tally = ct.ct_tally;
    verifier_in_flight = Multi.live_in_flight m;
    stashed_tpdus = Multi.live_stashed m;
    engine_pending = Netsim.Engine.pending engine;
    sim_time = Netsim.Engine.now engine;
    gateways_malformed = p.gateways_malformed ();
    shed_spans = from_first (fun r -> r.Multi.shed_spans) [];
    flood_injected =
      (match adversary with
      | Some a -> (Adversary.stats a).Adversary.injected
      | None -> 0);
    rtt_samples = sum CT.Sender.rtt_samples;
    max_txs_at_rtt_sample =
      List.fold_left
        (fun acc tx -> max acc (CT.Sender.max_txs_at_rtt_sample tx))
        0 senders;
    final_rto =
      (match first_tx with
      | Some tx -> CT.Sender.current_rto tx
      | None -> s.Schedule.rto);
    crashes_injected = ct.ct_crashes;
    restores = ct.ct_restores;
    recovery_bad = ct.ct_bad;
    restore_over_budget = ct.ct_over_budget;
    roundtrip_failures = ct.ct_roundtrip;
    snapshots_taken = Persist.Store.snapshots_taken store;
    journal_records = Persist.Store.journal_records store;
    journal_bytes = Persist.Store.bytes_appended store;
    epochs;
    known_conns = List.length (Multi.known_conns m);
    overlap = ct.ct_overlap;
    overlap_injected =
      (match !overlapper with
      | Some o -> (Netsim.Overlapper.stats o).Netsim.Overlapper.injected
      | None -> 0);
    fastpath_stats = ct.ct_fp;
    byz = byz_report;
    counterfactuals = [];
  }

(* {2 Counterfactuals}

   The paper's claim is that labelled chunks produce the same result
   whatever the arrival order, path or processing shortcut.  Each row
   below re-runs a schedule in a world changed in exactly one respect
   and hands the oracle both per-epoch outcomes to compare. *)

type equality = Exact | Delivery_when_settled

type counterfactual = {
  row : string;
  applies : Schedule.t -> bool;
  rerun : mutation -> Schedule.t -> observation;
  equality : equality;
}

(* Listed in execution order. *)
let counterfactuals =
  [
    (* The same transfer with the overlap adversary's injection seed
       changed, so its arrival order and mode mix are permuted. *)
    {
      row = "overlap-determinism";
      applies = (fun s -> s.Schedule.overlap <> None);
      rerun =
        (fun mutation s ->
          run_once ~mutation ~trace:None ~overlap_salt:0x7E12A5 s);
      equality = Delivery_when_settled;
    };
    (* The byzantine peer deleted.  Its RNG and wire paths are disjoint
       from every honest draw, so the honest traffic is byte-identical. *)
    {
      row = "blast-radius";
      applies = (fun s -> s.Schedule.byz <> None);
      rerun =
        (fun mutation s ->
          run_once ~mutation ~trace:None { s with Schedule.byz = None });
      equality = Exact;
    };
  ]

let run ?(mutation = No_mutation) ?trace (s : Schedule.t) =
  let o = run_once ~mutation ~trace s in
  {
    o with
    counterfactuals =
      List.filter_map
        (fun cf ->
          if cf.applies s then Some (cf.row, (cf.rerun mutation s).epochs)
          else None)
        counterfactuals;
  }
