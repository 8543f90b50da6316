open Labelling

type config = {
  conn_id : int;
  elem_size : int;
  tpdu_elems : int;
  frame_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  rto_adaptive : bool;
  adaptive : bool;
  sack : bool;
  nack_delay : float;
  give_up_txs : int;
  state_budget : int;
  state_ttl : float;
  (* partial reliability: [classify] maps a T.ID to its significance
     class (both endpoints must agree — the class is part of the
     transfer contract, like the framing); [shed_txs > 0] arms the
     sender's congestion shed policy, abandoning a sheddable TPDU after
     that many transmissions instead of retransmitting to give-up *)
  classify : int -> Significance.t;
  shed_txs : int;
}

let default_config =
  {
    conn_id = 1;
    elem_size = 4;
    tpdu_elems = 512;
    frame_bytes = 1024;
    mtu = 1500;
    window = 8;
    rto = 0.05;
    rto_adaptive = false;
    adaptive = false;
    sack = false;
    nack_delay = 0.01;
    give_up_txs = 40;
    state_budget = 0;
    state_ttl = 60.0;
    classify = (fun _ -> Significance.Normal);
    shed_txs = 0;
  }

let validate_config c =
  if c.elem_size < 4 || c.elem_size mod 4 <> 0 then
    invalid_arg "Chunk_transport: elem_size must be a positive multiple of 4";
  if c.frame_bytes mod c.elem_size <> 0 then
    invalid_arg "Chunk_transport: frame_bytes must be a multiple of elem_size";
  if c.tpdu_elems < 1 || c.window < 1 then
    invalid_arg "Chunk_transport: tpdu_elems and window must be >= 1";
  if c.tpdu_elems > Edc.Invariant.max_tpdu_elems ~size:c.elem_size then
    invalid_arg "Chunk_transport: TPDU exceeds the error-detection invariant";
  if c.mtu <= Wire.header_size then
    invalid_arg "Chunk_transport: mtu cannot hold a chunk header";
  if c.give_up_txs < 1 then
    invalid_arg "Chunk_transport: give_up_txs must be >= 1";
  if c.state_ttl <= 0.0 then
    invalid_arg "Chunk_transport: state_ttl must be positive";
  if c.shed_txs < 0 then
    invalid_arg "Chunk_transport: shed_txs must be >= 0";
  if c.shed_txs > 0 && c.shed_txs >= c.give_up_txs then
    invalid_arg "Chunk_transport: shed_txs must be < give_up_txs"

(* The sender's longest wait between two transmissions of one TPDU:
   exponential backoff caps at 8x the configured RTO. *)
let backoff_cap config = 8.0 *. config.rto

let retransmit_horizon config =
  float_of_int config.give_up_txs *. backoff_cap config

(* Total elements the receiver will hold once the stream of [n] bytes is
   framed: only the final frame is padded to a whole element. *)
let expected_elements config ~data_len =
  let full = data_len / config.frame_bytes in
  let rem = data_len mod config.frame_bytes in
  (full * (config.frame_bytes / config.elem_size))
  + ((rem + config.elem_size - 1) / config.elem_size)

(* Every ACK is one 50-byte image in which only C.ID and T.ID vary: the
   generic encoder builds it once, and each ACK is a copy with the two
   IDs written in. *)
let ack_template =
  match
    Chunk.control ~kind:Ctype.ack ~c:Ftuple.zero ~t:Ftuple.zero ~x:Ftuple.zero
      (Bytes.make 4 '\000')
  with
  | Error e -> invalid_arg e
  | Ok ack -> (
      match Wire.encode_packet [ ack ] with
      | Ok b -> b
      | Error e -> invalid_arg e)

let ack_packet ~conn_id ~t_id = Wire.with_ids ack_template ~c_id:conn_id ~t_id

(* NACK payload: [u8 flags (bit0 = resend the ED chunk)]
   [u16 span count][count * (u32 t_sn, u32 len)]. *)
let nack_packet ~conn_id ~t_id ~need_ed ~spans =
  let spans = if List.length spans > 64 then List.filteri (fun i _ -> i < 64) spans else spans in
  let payload = Bytes.make (3 + (8 * List.length spans)) '\000' in
  Bytes.set_uint8 payload 0 (if need_ed then 1 else 0);
  Bytes.set_uint16_be payload 1 (List.length spans);
  List.iteri
    (fun i (sn, len) ->
      Bytes.set_int32_be payload (3 + (8 * i)) (Int32.of_int sn);
      Bytes.set_int32_be payload (7 + (8 * i)) (Int32.of_int len))
    spans;
  let c = Ftuple.v ~id:conn_id ~sn:0 () in
  let t = Ftuple.v ~id:t_id ~sn:0 () in
  let nk =
    match Chunk.control ~kind:Ctype.nack ~c ~t ~x:Ftuple.zero payload with
    | Ok n -> n
    | Error e -> invalid_arg e
  in
  match Wire.encode_packet [ nk ] with
  | Ok b -> b
  | Error e -> invalid_arg e

(* What the instance records cannot hold: histograms, the RTO level and
   the give-ups, which no record counts.  Every other count is a field
   of [Counters.t] or of the sender. *)
let m_give_ups = Obs.Metrics.counter "transport_give_ups_total"
let m_tpdu_latency = Obs.Metrics.histogram "transport_tpdu_latency_us"
let m_batch = Obs.Metrics.histogram "transport_ingest_batch_packets"
let m_rtt = Obs.Metrics.histogram "transport_rtt_us"
let m_backoff = Obs.Metrics.histogram "transport_rto_backoff_us"
let g_rto = Obs.Metrics.gauge "transport_rto_us"

(* The whole batch is warmed first: warming one packet ahead of the work
   measured slower on shuffled traffic (DESIGN.md section 7). *)
let ingest_each ingest x packets =
  if Obs.enabled then Obs.Metrics.observe m_batch (Array.length packets);
  Array.iter Wire.Scan.warm packets;
  (* not [Array.iter (ingest x)], which allocates a closure *)
  for i = 0 to Array.length packets - 1 do
    ingest x packets.(i)
  done

(* The [n]-byte NACK payload at [pos] of [b], read where it lies. *)
let parse_nack b pos n =
  if n < 3 then None
  else begin
    let count = Bytes.get_uint16_be b (pos + 1) in
    if n <> 3 + (8 * count) then None
    else begin
      let u32 at = Int32.to_int (Bytes.get_int32_be b at) land 0xFFFF_FFFF in
      let spans =
        List.init count (fun i ->
            (u32 (pos + 3 + (8 * i)), u32 (pos + 7 + (8 * i))))
      in
      Some (Bytes.get_uint8 b pos land 1 = 1, spans)
    end
  end

(* The one re-ACK path.  An already-verified TPDU whose traffic keeps
   arriving means the sender never heard the ACK (a lossy or black-holed
   reverse path): re-acknowledge instead of staying silent, or the
   sender retransmits to a wall until it gives up.  Throttled per TPDU
   through the caller's [last_reack] table, so a duplication storm does
   not become an ACK storm; the table is flat and holds [Obs.stamp]s,
   immediates, so no re-ACK, a T.ID's first included, stores a block
   into a table long since promoted.  Every re-ACK sent is counted once,
   in [counts]. *)
type throttle = int Int_map.t

(* No clock reading's stamp: its bits are a NaN's. *)
let no_stamp = -1
let throttle ~room = Int_map.create ~absent:no_stamp room

let reack ~counts ~send_ack ~last_reack ~gap ~now ~conn_id t_id =
  let last = Int_map.find last_reack t_id in
  if last <> no_stamp && now -. Obs.unstamp last < gap then ()
  else begin
    Int_map.replace last_reack t_id (Obs.stamp now);
    counts.Counters.reacks_sent <- counts.Counters.reacks_sent + 1;
    send_ack (ack_packet ~conn_id ~t_id)
  end

module Receiver = struct
  (* Every fresh run is placed the moment it arrives, straight into the
     application buffer at its connection offset.  A corrupted C.SN that
     stays inside the window may aim a run at bytes some other TPDU
     placed; placement's first-verified-wins policy settles it: a run
     that differs from verified bytes is refused, one that differs from
     unverified bytes is quarantined against its TPDU until a verdict,
     and a TPDU whose chunks disagree on the C.SN - T.SN delta fails in
     the verifier, so the identical-label retransmission starts a clean
     epoch.

     The record is all of a TPDU's receive-side state that dies with its
     verdict: the TPDU's first data or ED chunk creates it, and the
     verdict, [drop_tpdu_state] or [quiesce] drops it.  A record is only
     created for a T.ID in neither [acked] nor [shed_tids], and dies
     before its T.ID joins either, so a live record proves both misses:
     [on_view] probes those tables only for a T.ID with no record.

     Every field a chunk updates is an immediate, or a row buffer or
     buffer array kept with the record and filled in place, so a record
     that has outlived a minor collection takes no young block from a
     chunk (short of a buffer outgrowing its room, or a copied-out
     quarantined run); absent values are sentinels no label produces. *)
  type record = {
    mutable t_id : int;
    mutable cls : int;  (* the TPDU's significance rank, its governor class *)
    mutable gov : Governor.entry;  (* handle on the TPDU's charge *)
    mutable stamped : bool;  (* [arrival] is set *)
    mutable arrival : int;  (* [Obs.stamp] of the first data chunk's time *)
    placed_runs : Int_rows.t;
        (* (c_sn, elems) runs this TPDU has placed; credited to the
           verified coverage only if the TPDU passes *)
    quarantine : Int_rows.t;
        (* runs whose bytes conflicted with unverified resident bytes
           (Placement's fresh-vs-fresh case), oldest first, as (off,
           c_sn, elems, c_id) rows: [elems] elements from [off] in the
           run's buffer, the first at C.SN [c_sn], of a chunk labelled
           C.ID [c_id]; re-asserted by a verified write if this TPDU
           passes, dropped with the epoch otherwise *)
    mutable quarantined : bytes array;
        (* the buffer each quarantined run lies in, row for row, kept
           with the record so that holding a run stores no new block
           into it *)
    mutable held : bytes;
        (* where copied-out quarantined runs go, [held_len] bytes of it
           used: kept with the record, so a copy lands in room long
           since promoted *)
    mutable held_len : int;
    mutable end_claim : int;
        (* the last C.SN a C.ST data chunk of this TPDU claims ends the
           stream, or [no_claim]: the claim is believed only once the
           TPDU verifies — a forged or corrupted C.ST must not truncate
           the stream *)
  }

  (* No C.SN + LEN - 1 of a data chunk is -1: a C.SN lies in
     [0, max_int]. *)
  let no_claim = -1

  (* Released records and verifier states kept for reuse, as
     [Edc.Verifier.pool] keeps states: a TPDU opened from spares
     allocates neither, and the per-TPDU records a minor collection
     finds alive stay the same few, long since promoted.  At most
     [spare_cap] records are kept. *)
  type spare = {
    states : Edc.Verifier.pool;
    placed : Placement.outcome;
        (* what the last placement of a receiver sharing the spares
           did: one run at a time reads it *)
    mutable recs : record array;
    mutable nrecs : int;
  }

  let spare_cap = 32
  let spare () =
    {
      states = Edc.Verifier.pool ();
      placed = Placement.outcome ();
      recs = [||];
      nrecs = 0;
    }

  (* What an owner of several receivers shares with each of them. *)
  type owner = {
    o_governor : Governor.t;
    o_acked : unit Int_map.t;
    o_counts : Counters.t;
    o_spare : spare;
  }

  type t = {
    engine : Netsim.Engine.t;
    config : config;
    bus : Busmodel.t;
    send_ack : bytes -> unit;
    verifier : Edc.Verifier.t;
    placement : Placement.t;
    governor : Governor.t;
    (* t_id -> [Obs.stamp] of the first arrival, for a TPDU whose record
       died with a failed verdict: its retransmission's latency counts
       from the first arrival still *)
    first_arrival : int Int_map.t;  (* [no_stamp] for a T.ID not held *)
    acked : unit Int_map.t;  (* TPDUs already acknowledged *)
    nack_armed : unit Int_map.t;  (* TPDUs with a gap timer *)
    records : record Int_map.t;  (* [no_record] for a T.ID not held *)
    spare : spare;
    (* the last record found, so one chunk's lookups cost one probe;
       [no_record] whenever [records] loses its T.ID *)
    mutable record_memo : record;
    (* element runs deliberately given up by the sender (Shed_tpdu):
       they count toward stream completion — the degradation contract —
       but never toward verified delivery, and late chunks for a shed
       TPDU are dropped rather than re-admitted to the verifier *)
    shed_cover : Vreassembly.t;
    shed_tids : unit Int_map.t;
    (* every element below is locked or shed: coverage only grows, so
       the frontier only moves forward *)
    mutable frontier : int;
    (* the stream's last element, from a verified TPDU's end claim *)
    mutable end_confirmed : int option;
    (* t_id -> [Obs.stamp] of its last re-ACK *)
    last_reack : throttle;
    element_delay : Netsim.Stats.t;
    tpdu_latency : Netsim.Stats.t;
    counts : Counters.t;  (* the owner's record, or the receiver's own *)
    (* crash recovery: [persist] receives one journal event per fresh
       ACK {e before} the ACK leaves (write-ahead — the receiver never
       promises bytes it has not made durable), its runs views of
       locked spans of the placement buffer, which stay as they are
       while the buffer lives; [restored_passes] carries
       the verified-TPDU count across restarts so the epoch's archive
       gate survives a crash *)
    mutable persist : (Persist.event -> unit) option;
    mutable restored_passes : int;
    (* lowest T.ID freshly acknowledged this epoch (verified or
       shed-honoured), [max_int] before the first.  Under the
       monotone-label discipline this equals the epoch's first C.SN once
       the stream head is acknowledged — the epoch's identity recovered
       from the data labels alone, for epochs whose Open died in
       flight *)
    mutable ident_min : int;
    scan : Wire.Scan.t;
  }

  let gov_key rx t_id = { Governor.conn = rx.config.conn_id; tpdu = t_id }

  let blank_record t_id ~cls gov =
    {
      t_id;
      cls;
      gov;
      stamped = false;
      arrival = 0;
      placed_runs = Int_rows.create ~width:2;
      quarantine = Int_rows.empty ();
      quarantined = [||];
      held = Bytes.empty;
      held_len = 0;
      end_claim = no_claim;
    }

  (* No record: what [find_record] returns for a T.ID with none.  It is
     never held, nor recycled. *)
  let no_key = { Governor.conn = -1; tpdu = -1 }
  let no_record = blank_record (-1) ~cls:0 (Governor.entry no_key)

  (* The record of [t_id], or [no_record], through the memo: a lookup
     allocates nothing. *)
  let find_record rx t_id =
    let m = rx.record_memo in
    if m.t_id = t_id && m != no_record then m
    else begin
      let m = Int_map.find rx.records t_id in
      if m != no_record then rx.record_memo <- m;
      m
    end

  let holds_record rx t_id = find_record rx t_id != no_record

  (* The blank record of [t_id]: a spare one if there is one. *)
  let record rx t_id =
    let sp = rx.spare in
    if sp.nrecs = 0 then
      blank_record t_id
        ~cls:(Significance.rank (rx.config.classify t_id))
        (Governor.entry (gov_key rx t_id))
    else begin
      sp.nrecs <- sp.nrecs - 1;
      let m = sp.recs.(sp.nrecs) in
      m.t_id <- t_id;
      m.cls <- Significance.rank (rx.config.classify t_id);
      m.gov <- Governor.retarget m.gov (gov_key rx t_id);
      m
    end

  (* Copy-out room a record keeps from one TPDU to the next.  What the
     copybreak copies is a quarantined run alone, less than half of its
     packet: under 288 bytes at a 576 B MTU, under 750 at 1500 B, where
     the commonest small run is the 384 B of a 1 KiB frame that share a
     packet with the frame before it.  512 bytes holds either of those,
     and is little enough that a record holding one such copy still
     retains less than twice its charge.  Only a TPDU with a conflict
     quarantines anything, so most records never use it. *)
  let held_room = 512

  (* Nothing quarantined: the buffers are let go, and with them room
     grown past 16 runs, as [Int_rows.clear] lets a grown row buffer go;
     the copy-out room is free again, but a buffer grown past
     [held_room] for one TPDU is not kept. *)
  let clear_quarantine m =
    if Array.length m.quarantined > 16 then m.quarantined <- [||]
    else
      for k = 0 to Int_rows.count m.quarantine - 1 do
        m.quarantined.(k) <- Bytes.empty
      done;
    Int_rows.clear m.quarantine ~width:4;
    m.held_len <- 0;
    if Bytes.length m.held > held_room then m.held <- Bytes.empty

  (* Copy [n] bytes of [src] from [off] into [m]'s copy-out room,
     returning their offset in [m.held]: after the copies already
     there, or at 0 of a new buffer when they do not fit (the full one
     then lives on only through the rows holding copies in it). *)
  let copy_out m src off n =
    if m.held_len + n > Bytes.length m.held then begin
      m.held <- Bytes.create (Int.max held_room n);
      m.held_len <- 0
    end;
    let at = m.held_len in
    Bytes.blit src off m.held at n;
    m.held_len <- at + n;
    at

  (* A record no table holds and nothing will read again goes back to
     the spares, while there is room, made blank but for its T.ID,
     class and handle, which the TPDU that reuses it sets.  A spare
     holds no chunk, and names no TPDU, so a finished TPDU's key and
     packets die with it. *)
  let recycle rx m =
    let sp = rx.spare in
    if sp.nrecs < spare_cap && m != no_record then begin
      if not (Governor.live m.gov) then m.gov <- Governor.retarget m.gov no_key;
      m.stamped <- false;
      Int_rows.clear m.placed_runs ~width:2;
      clear_quarantine m;
      m.end_claim <- no_claim;
      if Array.length sp.recs = 0 then sp.recs <- Array.make spare_cap m;
      sp.recs.(sp.nrecs) <- m;
      sp.nrecs <- sp.nrecs + 1
    end

  let new_record rx t_id =
    let m = record rx t_id in
    Int_map.replace rx.records t_id m;
    rx.record_memo <- m;
    m

  let forget_record rx t_id =
    Int_map.remove rx.records t_id;
    if rx.record_memo.t_id = t_id then rx.record_memo <- no_record

  (* Dispose of the per-TPDU and arrival records of [t_id]. *)
  let drop_records rx t_id =
    let m = find_record rx t_id in
    if m != no_record then begin
      forget_record rx t_id;
      recycle rx m
    end;
    Int_map.remove rx.first_arrival t_id

  (* Dispose of every piece of per-TPDU soft state (verifier
     accumulator, per-TPDU record, arrival record).  The governor's
     account is the caller's responsibility: the eviction callback has
     already been debited, the abort path has not. *)
  let drop_tpdu_state rx t_id =
    ignore (Edc.Verifier.abandon rx.verifier ~t_id);
    drop_records rx t_id

  let evict rx ~t_id =
    drop_tpdu_state rx t_id;
    rx.counts.evictions <- rx.counts.evictions + 1

  let create engine config ?(bus = Busmodel.create ()) ?owner ?persist
      ~send_ack ~capacity () =
    validate_config config;
    let (`Quota capacity_elems) = capacity in
    let o =
      match owner with
      | Some o -> o
      | None ->
          {
            o_governor =
              Governor.create ~budget_bytes:config.state_budget
                ~ttl:config.state_ttl ();
            (* room for 64 T.IDs before it first grows, as the 32-bucket
               table it replaced had *)
            o_acked = Int_map.set 64;
            o_counts = Counters.zero ();
            o_spare = spare ();
          }
    in
    let rx =
      {
        engine;
        config;
        bus;
        send_ack;
        verifier = Edc.Verifier.create ~pool:o.o_spare.states ();
        placement =
          Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems
            ~elem_size:config.elem_size;
        governor = o.o_governor;
        first_arrival = Int_map.create ~absent:no_stamp 0;
        acked = o.o_acked;
        nack_armed = Int_map.set 0;
        records = Int_map.create ~absent:no_record 4;
        spare = o.o_spare;
        record_memo = no_record;
        shed_cover = Vreassembly.create ();
        shed_tids = Int_map.set 0;
        frontier = 0;
        end_confirmed = None;
        (* re-offers of acknowledged TPDUs come from the sender's last
           windows: their first re-ACKs store into room the epoch has *)
        last_reack = throttle ~room:(2 * config.window);
        element_delay = Netsim.Stats.create ();
        tpdu_latency = Netsim.Stats.create ();
        counts = o.o_counts;
        persist;
        restored_passes = 0;
        ident_min = max_int;
        scan = Wire.Scan.create ();
      }
    in
    if Option.is_none owner then
      Governor.set_on_evict o.o_governor (fun key ->
          if key.Governor.tpdu >= 0 then evict rx ~t_id:key.Governor.tpdu);
    rx

  (* Retention copybreak.  A quarantined run keeps its whole buffer
     alive while the governor charges only its payload ([held_bytes]),
     so a run whose payload is less than half of its buffer is copied
     out into its record's copy-out room: retained memory then stays
     within twice what is charged.  A fixed rule, not a tunable.  A
     materialised chunk's payload spans its whole buffer and is never
     copied. *)
  let copybreak ~payload src = 2 * payload < Bytes.length src

  (* Credit [m]'s TPDU with the runs placement reported: fresh writes
     and identical duplicates. *)
  let credit m (o : Placement.outcome) =
    Int_rows.append m.placed_runs o.Placement.fresh ~width:2;
    Int_rows.append m.placed_runs o.Placement.benign ~width:2

  (* Hold [elems] elements from [off] in [src], the first at C.SN
     [c_sn], of a chunk labelled C.ID [c_id], in [m]'s quarantine. *)
  let push_quarantine m src ~off ~c_sn ~elems ~c_id =
    let k = Int_rows.count m.quarantine in
    if k = Array.length m.quarantined then begin
      let a = Array.make (Int.max 4 (2 * k)) Bytes.empty in
      Array.blit m.quarantined 0 a 0 k;
      m.quarantined <- a
    end;
    m.quarantined.(k) <- src;
    Int_rows.push4 m.quarantine off c_sn elems c_id

  (* Place [elems] fresh elements of [m]'s TPDU straight into the
     application buffer — spatial reordering, one pass: [size]-byte
     elements from [src] at [off], the first at C.SN [c_sn], of a chunk
     labelled C.ID [c_id].  The runs it covers join [placed_runs], whose
     order nothing reads: they are counted, sorted or merged. *)
  let place_run rx m ~src ~off ~size ~c_sn ~elems ~c_id =
    let nbytes = elems * size in
    (* A fixed architectural charge, not a measurement: one read and
       one write per placed byte, whatever passes the code actually
       makes (see ROADMAP item 1a). *)
    Busmodel.mem_to_cpu rx.bus nbytes;
    Busmodel.cpu_to_mem rx.bus nbytes;
    let o = rx.spare.placed in
    if
      Placement.place_run rx.placement o ~sn:c_sn ~len:elems ~size ~src ~off
        ~conn:c_id ~tpdu:m.t_id
    then begin
      (* only bytes this TPDU actually covers (fresh writes and
         identical duplicates) are credited; conflicting runs either
         lost to a verified owner (discarded by placement) or wait in
         quarantine for this TPDU's parity *)
      credit m o;
      if o.Placement.held_back > 0 then begin
        if copybreak ~payload:nbytes src then begin
          let at = copy_out m src off nbytes in
          push_quarantine m m.held ~off:at ~c_sn ~elems ~c_id
        end
        else push_quarantine m src ~off ~c_sn ~elems ~c_id
      end;
      (* Available to the application the instant it arrived. *)
      Netsim.Stats.add rx.element_delay 0.0
    end

  (* Place the fresh sub-run [t_sn, t_sn+elems) of [v], a chunk of
     [m]'s TPDU: the whole chunk in the common case, else its fresh part
     of the same bytes. *)
  let place_fresh rx m (v : Chunk.view) ~t_sn ~elems =
    let h = v.Chunk.header in
    let skip = t_sn - h.Header.t.Ftuple.sn and size = h.Header.size in
    place_run rx m ~src:v.Chunk.src ~off:(v.Chunk.off + (skip * size)) ~size
      ~c_sn:(h.Header.c.Ftuple.sn + skip) ~elems ~c_id:h.Header.c.Ftuple.id

  (* While a TPDU stays incomplete, periodically report its gap list so
     the sender can re-send exactly the missing element runs.  Bounded:
     if the gaps never fill (black-hole path) the timer must not keep
     the simulation alive forever. *)
  let max_nack_rounds = 200

  let rec arm_nack rx t_id rounds =
    Netsim.Engine.schedule rx.engine ~delay:rx.config.nack_delay (fun () ->
        if rounds >= max_nack_rounds || Int_map.mem rx.acked t_id then
          Int_map.remove rx.nack_armed t_id
        else
        match Edc.Verifier.missing rx.verifier ~t_id with
        | None -> Int_map.remove rx.nack_armed t_id (* verified or dropped *)
        | Some spans ->
            let need_ed = not (Edc.Verifier.ed_seen rx.verifier ~t_id) in
            if spans <> [] || need_ed then begin
              rx.counts.nacks_sent <- rx.counts.nacks_sent + 1;
              rx.send_ack
                (nack_packet ~conn_id:rx.config.conn_id ~t_id ~need_ed ~spans)
            end;
            arm_nack rx t_id (rounds + 1))

  (* What a record costs: its quarantined runs and the runs it has
     placed. *)
  let held_bytes rx m =
    let bytes = ref (16 * Int_rows.count m.placed_runs) in
    for k = 0 to Int_rows.count m.quarantine - 1 do
      bytes :=
        !bytes
        + (Int_rows.get m.quarantine ~width:4 k 2 * rx.config.elem_size)
        + 48
    done;
    !bytes

  (* Re-assert the receiver's accounted cost of one TPDU's soft state
     through the handle [h] and refresh its delta-t deadline, returning
     the handle to keep.  Called after every chunk that touched the
     TPDU, with [held] the cost of its record (0 when there is none);
     once verification has released everything the entry is retired
     instead.  Sheddable state is charged at its
     significance rank [cls], so budget pressure displaces it before any
     fully-reliable TPDU's state. *)
  let charge rx t_id ~cls ~held h =
    let fp = Edc.Verifier.footprint_bytes rx.verifier ~t_id in
    if fp = 0 && held = 0 then begin
      Governor.remove rx.governor ~key:(Governor.entry_key h);
      h
    end
    else begin
      let h =
        Governor.refresh rx.governor h ~cls ~bytes:(fp + held + 64)
          ~now:(Netsim.Engine.now rx.engine)
      in
      Governor.arm rx.governor rx.engine;
      h
    end

  let account_record rx m ~held =
    m.gov <- charge rx m.t_id ~cls:m.cls ~held m.gov

  (* [charge] of [t_id], through its record's handle if it has one. *)
  let account rx t_id =
    let m = find_record rx t_id in
    if m != no_record then account_record rx m ~held:(held_bytes rx m)
    else
        ignore
          (charge rx t_id
             ~cls:(Significance.rank (rx.config.classify t_id))
             ~held:0
             (Governor.entry (gov_key rx t_id))
            : Governor.entry)

  (* A sender that abandoned a TPDU says so (give-up is signalled, not
     silent): release the partial state instead of waiting for the
     deadline sweep to find it. *)
  let abort_tpdu rx ~t_id =
    if
      Edc.Verifier.footprint_bytes rx.verifier ~t_id > 0
      || holds_record rx t_id
    then begin
      drop_tpdu_state rx t_id;
      Governor.remove rx.governor ~key:(gov_key rx t_id);
      rx.counts.aborts_received <- rx.counts.aborts_received + 1
    end

  (* [reack] of [t_id] through the epoch's own throttle table, at most
     once per [gap] seconds. *)
  let re_ack rx ~gap t_id =
    reack ~counts:rx.counts ~send_ack:rx.send_ack ~last_reack:rx.last_reack
      ~gap ~now:(Netsim.Engine.now rx.engine) ~conn_id:rx.config.conn_id t_id

  (* [t_id]'s shed honoured: its span joins the shed cover. *)
  let cover_shed rx ~t_id ~first_elem ~elems =
    Int_map.replace rx.shed_tids t_id ();
    match
      Vreassembly.insert_new rx.shed_cover ~sn:first_elem ~len:elems ~st:false
    with
    | Ok _ | Error `Inconsistent -> ()

  (* The sender deliberately abandoned a sheddable TPDU (partial
     reliability).  Honoured only when this receiver's own classifier
     agrees the TPDU is sheddable — a forged (or buggy) shed of a
     Critical TPDU must not truncate the stream — and only when the TPDU
     has not already been verified and acknowledged (a shed racing a
     lost ACK changes nothing: the bytes are already delivered).  The
     span joins [shed_cover] so completion can proceed without it. *)
  let shed_tpdu rx ~t_id ~first_elem ~elems =
    if Int_map.mem rx.acked t_id || Int_map.mem rx.shed_tids t_id then
      (* a shed racing a lost ACK, or a duplicated shed signal: the
         sender is still retrying, so re-acknowledge (throttled) *)
      re_ack rx ~gap:rx.config.nack_delay t_id
    else if Significance.sheddable (rx.config.classify t_id) then begin
      drop_tpdu_state rx t_id;
      Governor.remove rx.governor ~key:(gov_key rx t_id);
      if t_id < rx.ident_min then rx.ident_min <- t_id;
      cover_shed rx ~t_id ~first_elem ~elems;
      rx.counts.sheds_received <- rx.counts.sheds_received + 1;
      rx.counts.shed_elems <- rx.counts.shed_elems + elems;
      if Obs.enabled && Obs.Trace.active () then
        Obs.Trace.record
          (Obs.Trace.Shed
             {
               conn = rx.config.conn_id;
               tpdu = t_id;
               elems;
               cls = Significance.to_string (rx.config.classify t_id);
             })
          ~time:(Netsim.Engine.now rx.engine);
      (* write-ahead, as for a verified TPDU: the honoured shed is
         durable before its ACK can reach the sender *)
      (match rx.persist with
      | Some journal ->
          journal
            (Persist.Shed
               { conn = rx.config.conn_id; t_id; first_elem; elems })
      | None -> ());
      (* the shed is acknowledged like a verified TPDU — the sender
         stops retrying the signal once this lands; deliberately NOT
         counted in [acks_sent] (the metrics-verify-count oracle check
         demands fresh ACKs track verified TPDUs one-for-one) *)
      rx.send_ack (ack_packet ~conn_id:rx.config.conn_id ~t_id)
    end
    else
      (* the local classifier says this TPDU is not sheddable: a forged
         (or misclassified) shed of Critical/Normal traffic.  Refused
         silently — honouring it would truncate the stream — but
         counted, so the demultiplexer's anomaly accounting can see how
         often this connection is named by forged sheds *)
      rx.counts.sheds_refused <- rx.counts.sheds_refused + 1

  (* T.IDs holding verifier state or a per-TPDU record. *)
  let held_tids rx =
    List.sort_uniq Int.compare
      (Edc.Verifier.in_flight_ids rx.verifier @ Int_map.sorted_keys rx.records)

  (* Release every piece of soft state at once (connection close): the
     governor account is cleared entry by entry so a shared governor
     keeps other connections' entries intact, and bytes placed by a TPDU
     that never verified are un-placed, so the closed epoch holds only
     what it acknowledged. *)
  let quiesce rx =
    List.iter
      (fun t_id ->
        drop_tpdu_state rx t_id;
        Governor.remove rx.governor ~key:(gov_key rx t_id))
      (held_tids rx);
    Placement.drop_unlocked rx.placement

  let on_signal rx chunk =
    match Connection.parse_signal chunk with
    | Ok (conn_id, Connection.Abort_tpdu { t_id })
      when conn_id = rx.config.conn_id ->
        abort_tpdu rx ~t_id
    | Ok (conn_id, Connection.Shed_tpdu { t_id; first_elem; elems })
      when conn_id = rx.config.conn_id ->
        shed_tpdu rx ~t_id ~first_elem ~elems
    | Ok _ | Error _ -> ()

  (* A TPDU passed: settle its quarantine, credit its placed runs to the
     verified coverage, believe its end claim, and acknowledge it. *)
  let on_passed rx m t_id =
    (* the parity settles this TPDU's quarantined conflicts: re-assert
       each held run with a verified write, which reclaims bytes from any
       unverified squatter but never from a locked region *)
    let es = rx.config.elem_size in
    let q = m.quarantine in
    for k = 0 to Int_rows.count q - 1 do
      if
        Placement.place_run ~verified:true rx.placement rx.spare.placed
          ~sn:(Int_rows.get q ~width:4 k 1)
          ~len:(Int_rows.get q ~width:4 k 2)
          ~size:es ~src:m.quarantined.(k)
          ~off:(Int_rows.get q ~width:4 k 0)
          ~conn:(Int_rows.get q ~width:4 k 3)
          ~tpdu:t_id
      then credit m rx.spare.placed
    done;
    clear_quarantine m;
    (* read raw: the journal views below cover only the runs this pass
       locks, so nothing on the receive path zeroes a hole *)
    let buf = Placement.raw_contents rx.placement in
    (* the placed runs, merged in place into the TPDU's spans: each is
       covered, locked and journalled once.  Placement only reports runs
       inside its buffer, so the limit drops nothing a run-by-run pass
       would have kept.  Nothing reads the runs after a pass. *)
    let spans = m.placed_runs in
    Int_rows.coalesce spans ~limit:(Bytes.length buf / es);
    (* The verifier's data parity is the runs' own when they are exactly
       the TPDU's data span and no other TPDU has locked verified bytes
       there: until this pass locks the span, every byte in it is then
       this TPDU's own.  Anything else (shed or clipped elements, a
       partial cover) leaves the journal to compute the parity.  Asked
       on every pass, so the verifier keeps nothing of the TPDU. *)
    let whole =
      Option.is_some rx.persist
      && Int_rows.count spans = 1
      && not
           (Placement.any_locked rx.placement
              ~sn:(Int_rows.get spans ~width:2 0 0)
              ~len:(Int_rows.get spans ~width:2 0 1))
    in
    let parity =
      Edc.Verifier.take_data_parity rx.verifier ~t_id
        ~first_c_sn:(if whole then Int_rows.get spans ~width:2 0 0 else 0)
        ~elems:(if whole then Int_rows.get spans ~width:2 0 1 else 0)
    in
    (* verified bytes can never again be clobbered by conflicting data;
       bytes of a TPDU that fails parity stay unlocked.  The spans are
       runs placement reported, so they are occupied already. *)
    for k = 0 to Int_rows.count spans - 1 do
      Placement.lock_placed rx.placement
        ~sn:(Int_rows.get spans ~width:2 k 0)
        ~len:(Int_rows.get spans ~width:2 k 1)
    done;
    forget_record rx t_id;
    if m.end_claim <> no_claim then rx.end_confirmed <- Some m.end_claim;
    if not (Int_map.mem rx.acked t_id) then begin
      Int_map.replace rx.acked t_id ();
      if t_id < rx.ident_min then rx.ident_min <- t_id;
      rx.counts.acks_sent <- rx.counts.acks_sent + 1;
      if m.stamped then begin
        let dt = Netsim.Engine.now rx.engine -. Obs.unstamp m.arrival in
        Netsim.Stats.add rx.tpdu_latency dt;
        if Obs.enabled then Obs.Metrics.observe_s m_tpdu_latency dt
      end;
      (* write-ahead: the bytes this ACK promises to keep go to stable
         storage before the ACK can reach the sender — otherwise a crash
         after the ACK leaves a hole the sender will never refill *)
      (match rx.persist with
      | Some journal ->
          (* hand the journal views into the placement buffer: the spans
             are locked above, so placement never rewrites them while
             the buffer lives, and the journal keeps the views, not the
             bytes *)
          journal
            (Persist.Acked
               {
                 conn = rx.config.conn_id;
                 t_id;
                 end_confirmed = rx.end_confirmed;
                 runs =
                   List.init (Int_rows.count spans) (fun k ->
                       let sn = Int_rows.get spans ~width:2 k 0
                       and len = Int_rows.get spans ~width:2 k 1 in
                       (sn, buf, sn * es, len * es));
                 parity;
               })
      | None -> ());
      rx.send_ack (ack_packet ~conn_id:rx.config.conn_id ~t_id)
    end

  (* Act on what the verifier took from [v], a chunk of [m]'s TPDU:
     its fresh elements are placed, then a verdict, if the chunk reached
     one, settles the TPDU.  Whether [m] still lives. *)
  let take rx m (v : Chunk.view) fresh =
    (match fresh with
    | Edc.Verifier.All ->
        let h = v.Chunk.header in
        place_fresh rx m v ~t_sn:h.Header.t.Ftuple.sn ~elems:h.Header.len
    | Edc.Verifier.Runs ->
        let runs = Edc.Verifier.fresh_runs rx.verifier in
        for k = 0 to Int_rows.count runs - 1 do
          place_fresh rx m v
            ~t_sn:(Int_rows.get runs ~width:2 k 0)
            ~elems:(Int_rows.get runs ~width:2 k 1)
        done
    | Edc.Verifier.Duplicate | Edc.Verifier.No_data -> ());
    (not (Edc.Verifier.closed rx.verifier))
    || begin
         (match Edc.Verifier.verdict rx.verifier with
         | Edc.Verifier.Passed -> on_passed rx m m.t_id
         | Edc.Verifier.Parity_mismatch | Edc.Verifier.Consistency_failure _
         | Edc.Verifier.Reassembly_error _ ->
             (* failed epoch: drop its quarantine and end claim with it,
                but keep its first arrival for the retransmission *)
             if m.stamped then
               Int_map.replace rx.first_arrival m.t_id m.arrival;
             forget_record rx m.t_id);
         false
       end

  (* The verifier-dispatch and governor re-accounting tail of
     [on_view] for a data or ED chunk of [m]'s TPDU, once that TPDU is
     known to be neither acked nor shed.  What the verifier found fresh
     is placed before its verdict, if any, is acted on. *)
  let verify_and_account rx m (v : Chunk.view) =
    let live = take rx m v (Edc.Verifier.absorb rx.verifier v) in
    account_record rx m ~held:(if live then held_bytes rx m else 0);
    (* a verdict retired the record: its charge went with the last
       account *)
    if not live then recycle rx m

  (* Whether [t_id] is settled: late traffic for an already-verified
     TPDU is not re-processed (feeding it would recreate verifier state
     that can never complete), but it is re-acknowledged; a shed TPDU is
     gone for good, so its straggler chunks must not recreate verifier
     state the sender will never complete. *)
  let settled rx t_id =
    if Int_map.mem rx.acked t_id then begin
      re_ack rx ~gap:rx.config.nack_delay t_id;
      true
    end
    else Int_map.mem rx.shed_tids t_id

  (* A data or ED chunk of [m]'s TPDU. *)
  let on_tpdu_chunk rx m (v : Chunk.view) ~is_data =
    let h = v.Chunk.header in
    if is_data then begin
      let t_id = m.t_id in
      if not m.stamped then begin
        m.stamped <- true;
        let t0 = Int_map.find rx.first_arrival t_id in
        if t0 <> no_stamp then Int_map.remove rx.first_arrival t_id;
        m.arrival <-
          (if t0 <> no_stamp then t0
           else Obs.stamp (Netsim.Engine.now rx.engine))
      end;
      (* the C.ST bit claims the connection's final element; the claim
         is trusted only once this TPDU verifies *)
      if h.Header.c.Ftuple.st then
        m.end_claim <- h.Header.c.Ftuple.sn + h.Header.len - 1;
      if rx.config.sack && not (Int_map.mem rx.nack_armed t_id) then begin
        Int_map.replace rx.nack_armed t_id ();
        arm_nack rx t_id 0
      end
    end;
    verify_and_account rx m v

  let on_view rx (v : Chunk.view) =
    let h = v.Chunk.header in
    if Header.is_terminator h then ()
    else if Ctype.equal h.Header.ctype Ctype.signal then
      (* signals are rare: materialising one costs nothing that counts *)
      on_signal rx (Chunk.of_view v)
    else begin
      let t_id = h.Header.t.Ftuple.id in
      if Obs.enabled && Obs.Trace.active () then
        Obs.Trace.record
          (Obs.Trace.Chunk_rx
             {
               conn = h.Header.c.Ftuple.id;
               tpdu = t_id;
               bytes = Chunk.view_payload_bytes v;
             })
          ~time:(Netsim.Engine.now rx.engine);
      let is_data = Ctype.is_data h.Header.ctype in
      if is_data || Ctype.equal h.Header.ctype Ctype.ed then begin
        (* a live record proves the T.ID is neither acked nor shed *)
        let m = find_record rx t_id in
        if m != no_record then on_tpdu_chunk rx m v ~is_data
        else if not (settled rx t_id) then
          on_tpdu_chunk rx (new_record rx t_id) v ~is_data
      end
      else if not (settled rx t_id) then begin
        (* other control traffic carries no TPDU state: the verifier
           only counts it *)
        ignore (Edc.Verifier.absorb rx.verifier v : Edc.Verifier.absorbed);
        account rx t_id
      end
    end

  let ingest rx b =
    Busmodel.nic_to_mem rx.bus (Bytes.length b);
    if Wire.Scan.packet rx.scan b then
      for i = 0 to Wire.Scan.count rx.scan - 1 do
        on_view rx (Wire.Scan.view b (Wire.Scan.offset rx.scan i))
      done

  let ingest_batch rx packets = ingest_each ingest rx packets

  let contents rx = Placement.contents rx.placement
  let delivered_elems rx = Placement.placed_elems rx.placement

  (* First element not locked (verified) or shed, walked on from the
     last answer past locked runs and shed spans.  A shed span counts
     toward stream {e completion} (the degradation contract says those
     bytes may be missing) but never toward verified delivery. *)
  let rec frontier_from p shed e = function
    | (s, l) :: _ when s <= e && e < s + l ->
        frontier_from p shed (Placement.first_unlocked p (s + l)) shed
    | _ :: rest -> frontier_from p shed e rest
    | [] -> e

  let covered_frontier rx =
    let p = rx.placement and shed = Vreassembly.spans rx.shed_cover in
    rx.frontier <-
      frontier_from p shed (Placement.first_unlocked p rx.frontier) shed;
    rx.frontier

  (* Contiguous coverage of [0, last] by {e verified} (or shed) TPDUs,
     not a bare element count: bytes placed by a TPDU that later failed
     parity (or diverted here by a corrupted C.ID) must not fake
     completeness — a premature "complete" lets a connection archive a
     buffer the pending retransmission was about to correct. *)
  let complete rx =
    match rx.end_confirmed with
    | Some last -> covered_frontier rx > last
    | None -> false

  (* Whether this receiver knows [t_id]: soft state for it (verifier
     accumulator or per-TPDU record), or an honoured shed.  The
     demultiplexer uses this to tell a chunk of this epoch's TPDUs, a
     shed one's straggler included, from traffic with a label this epoch
     has never seen. *)
  let tracks_tpdu rx ~t_id =
    Int_map.mem rx.shed_tids t_id
    || Edc.Verifier.footprint_bytes rx.verifier ~t_id > 0
    || holds_record rx t_id

  let element_delay rx = rx.element_delay
  let tpdu_latency rx = rx.tpdu_latency
  let overlap_stats rx = Placement.overlap_stats rx.placement
  let verifier_stats rx = Edc.Verifier.stats rx.verifier
  let verifier_in_flight rx = Edc.Verifier.in_flight rx.verifier
  let shed_spans rx = Vreassembly.spans rx.shed_cover

  let stashed_tpdus rx =
    Int_map.fold
      (fun _ m acc ->
        if Int_rows.count m.quarantine > 0 then acc + 1 else acc)
      rx.records 0

  let record_tids rx = Int_map.sorted_keys rx.records
  let shed_tids rx = Int_map.sorted_keys rx.shed_tids
  let governor_handles rx =
    Int_map.fold (fun _ m acc -> m.gov :: acc) rx.records []

  (* {2 Crash recovery} *)

  let epoch_passes rx =
    rx.restored_passes + (Edc.Verifier.stats rx.verifier).Edc.Verifier.tpdus_passed

  let ident_tid rx = if rx.ident_min = max_int then None else Some rx.ident_min

  let acked_tids rx = Int_map.sorted_keys rx.acked

  let end_confirmed rx = rx.end_confirmed

  (* The verified runs, copied out: only locked runs are read, so a raw
     read zeroes nothing. *)
  let verified_runs rx =
    let es = rx.config.elem_size in
    let buf = Placement.raw_contents rx.placement in
    List.map
      (fun (sn, len) -> Persist.owned_run sn (Bytes.sub buf (sn * es) (len * es)))
      (Placement.locked_spans rx.placement)

  (* Every in-flight TPDU's state dropped without a verdict, as a crash
     drops it: a crash is no verdict, so no failure is counted. *)
  let forget_in_flight rx =
    List.iter
      (fun t_id ->
        Edc.Verifier.forget rx.verifier ~t_id;
        drop_records rx t_id)
      (held_tids rx)

  (* A record applied to a restored receiver, through the primitives the
     live path uses.  Acknowledged runs are placed and locked where
     their labels say (a run outside the window is neither), and each
     copies its bytes once, into the placement buffer.  A restored
     receiver holds nothing in flight, so no record has soft state to
     settle.  Nothing is journalled, sent or accounted. *)
  let replay rx (ev : Persist.event) =
    match ev with
    | Persist.Acked { end_confirmed; runs; _ } ->
        List.iter
          (fun (sn, src, off, len) ->
            ignore
              (Placement.restore_run rx.placement ~sn src ~off ~len
                : (unit, string) result);
            Placement.lock_span rx.placement ~sn ~len:(len / rx.config.elem_size))
          runs;
        if Option.is_some end_confirmed then rx.end_confirmed <- end_confirmed;
        rx.restored_passes <- rx.restored_passes + 1
    | Persist.Shed { t_id; first_elem; elems; _ } ->
        cover_shed rx ~t_id ~first_elem ~elems
    | Persist.Passes { passes; _ } -> rx.restored_passes <- passes
    | Persist.Opened _ | Persist.Archived _ | Persist.Closed _
    | Persist.Ledger _ | Persist.Quarantined _ ->
        ()

  (* Conservative re-entry into service: re-ACK the whole restored
     ledger, because any ACK sent in the pre-crash epoch may have been
     lost with the crash — the sender retransmitting into a restored
     receiver that stays silent would probe until give-up. *)
  let reannounce rx = List.iter (re_ack rx ~gap:neg_infinity) (acked_tids rx)
end

module Sender = struct
  type tpdu = {
    t_id : int;
    chunks : Chunk.t list;  (* data chunks followed by the ED chunk *)
    mutable acked : bool;
    mutable last_tx : float;
    mutable txs : int;
    mutable shed : bool;
        (* abandoned under the shed policy: the timer now retries the
           Shed_tpdu signal instead of the data *)
  }

  type t = {
    engine : Netsim.Engine.t;
    config : config;
    send : bytes -> unit;
    framer : Framer.t;
    frames : bytes array;
    first_tid : int;
    mutable open_chunk : Chunk.t option;
    open_sz : int;  (* wire bytes the piggybacked Open occupies *)
    mutable next_frame : int;
    mutable pending : Chunk.t list;  (* current TPDU, reversed *)
    ready : tpdu Queue.t;
    inflight : tpdu Int_table.t;
    mutable retrans : int;
    mutable sack_retrans : int;
    mutable packets_sent : int;
    mutable bytes_sent : int;
    mutable cur_tpdu_elems : int;
    mutable clean_acks : int;
    mutable started : bool;
    mutable gave_up : bool;
    mutable aborts_sent : int;
    mutable sheds_sent : int;
    (* ACK/NACK traffic naming a T.ID this sender never transmitted:
       nothing to do but ignore it, yet worth counting — a peer that
       manufactures acknowledgements is lying about the conversation *)
    mutable bogus_acks : int;
    (* Jacobson estimation state; [srtt < 0] means no sample yet.  The
       configured [rto] doubles as the estimator's ceiling (it is the
       conservative a-priori bound) and the initial value. *)
    mutable srtt : float;
    mutable rttvar : float;
    mutable rto_cur : float;
    mutable rtt_samples : int;
    mutable max_txs_at_sample : int;
    (* T.IDs acknowledged over the transfer's whole life: an ACK or NACK
       naming one is routine, one naming no T.ID ever sent is bogus *)
    done_tids : unit Int_table.t;
  }

  let rto_min = 2e-3

  let cut_frames config data =
    let n = Bytes.length data in
    if n = 0 then invalid_arg "Chunk_transport.Sender: empty data";
    let fb = config.frame_bytes in
    let count = (n + fb - 1) / fb in
    Array.init count (fun i ->
        let off = i * fb in
        let len = Int.min fb (n - off) in
        Framer.pad_frame ~elem_size:config.elem_size (Bytes.sub data off len))

  let create engine config ?(first_tid = 0) ?(announce_open = false) ~send
      ~data () =
    validate_config config;
    (* The Open announces the stream's first C.SN (= the first T.ID
       under the label scheme's per-epoch numbering), which identifies
       the epoch: the receiver distinguishes a reopen from a duplicate
       piggybacked Open by comparing it against the connection's
       watermark. *)
    let open_chunk =
      if announce_open then
        Some
          (Connection.signal_chunk ~conn_id:config.conn_id
             (Connection.Open { first_csn = first_tid }))
      else None
    in
    let open_sz =
      match open_chunk with
      | None -> 0
      | Some s -> (
          match Packet.pack ~mtu:config.mtu [ s ] with
          | Ok [ p ] -> Packet.wire_used p
          | Ok _ | Error _ ->
              invalid_arg "Chunk_transport.Sender: mtu cannot hold Open")
    in
    if open_sz > 0 && config.mtu - open_sz < (2 * Wire.header_size) + config.elem_size
    then invalid_arg "Chunk_transport.Sender: mtu too small to piggyback Open";
    {
      engine;
      config;
      send;
      framer =
        Framer.create ~elem_size:config.elem_size
          ~tpdu_elems:config.tpdu_elems ~first_tid ~conn_id:config.conn_id ();
      frames = cut_frames config data;
      first_tid;
      open_chunk;
      open_sz;
      next_frame = 0;
      pending = [];
      ready = Queue.create ();
      inflight = Int_table.create 16;
      retrans = 0;
      sack_retrans = 0;
      packets_sent = 0;
      bytes_sent = 0;
      cur_tpdu_elems = config.tpdu_elems;
      clean_acks = 0;
      started = false;
      gave_up = false;
      aborts_sent = 0;
      sheds_sent = 0;
      bogus_acks = 0;
      srtt = -1.0;
      rttvar = 0.0;
      rto_cur = config.rto;
      rtt_samples = 0;
      max_txs_at_sample = 0;
      done_tids = Int_table.create 16;
    }

  (* A sender over pre-cut, pre-sealed TPDUs (each chunk list is the
     data chunks followed by their ED chunk), transmitted in list order
     — the hook for {!Interleave}: a priority scheduler decides the
     order across many X streams, and this sender gives every TPDU the
     full retransmission/shed machinery without re-framing anything. *)
  let of_tpdus engine config ?(announce_open = false) ~send tpdus =
    let first_tid =
      match tpdus with
      | [] -> invalid_arg "Chunk_transport.Sender.of_tpdus: no TPDUs"
      | (t_id, _) :: _ -> t_id
    in
    (* a one-element dummy transfer builds a fully-initialised sender;
       the real TPDUs then replace the framer's queue wholesale *)
    let tx =
      create engine config ~first_tid ~announce_open ~send
        ~data:(Bytes.make config.elem_size '\000')
        ()
    in
    tx.next_frame <- Array.length tx.frames;
    tx.pending <- [];
    Queue.clear tx.ready;
    List.iter
      (fun (t_id, chunks) ->
        if chunks = [] then
          invalid_arg "Chunk_transport.Sender.of_tpdus: empty TPDU";
        Queue.add
          { t_id; chunks; acked = false; last_tx = 0.0; txs = 0; shed = false }
          tx.ready)
      tpdus;
    tx

  (* The adaptive floor: a TPDU small enough that (data + ED chunk) fits
     one packet, so a single loss forfeits at most one packet's data —
     the paper's point against Kent & Mogul's fragment-loss argument. *)
  let min_tpdu_elems config =
    Int.max 16
      (Int.min config.tpdu_elems
         ((config.mtu - (2 * Wire.header_size) - 8) / config.elem_size))

  (* Move complete TPDUs from [pending] (chunk stream) to [ready]. *)
  let absorb tx chunks =
    List.iter
      (fun chunk ->
        tx.pending <- chunk :: tx.pending;
        if chunk.Chunk.header.Header.t.Ftuple.st then begin
          let tpdu_chunks = List.rev tx.pending in
          tx.pending <- [];
          match Edc.Encoder.seal tpdu_chunks with
          | Error e -> invalid_arg e
          | Ok ed ->
              Queue.add
                {
                  t_id = (List.hd tpdu_chunks).Chunk.header.Header.t.Ftuple.id;
                  chunks = tpdu_chunks @ [ ed ];
                  acked = false;
                  last_tx = 0.0;
                  txs = 0;
                  shed = false;
                }
                tx.ready
        end)
      chunks

  let build_more tx =
    while
      Queue.length tx.ready < tx.config.window
      && tx.next_frame < Array.length tx.frames
    do
      (* Apply the adaptive TPDU size at the next TPDU boundary. *)
      (match Framer.set_tpdu_elems tx.framer tx.cur_tpdu_elems with
      | Ok () | Error _ -> ());
      let frame = tx.frames.(tx.next_frame) in
      let last = tx.next_frame = Array.length tx.frames - 1 in
      tx.next_frame <- tx.next_frame + 1;
      match Framer.push_frame ~last tx.framer frame with
      | Error e -> invalid_arg e
      | Ok chunks -> absorb tx chunks
    done

  let emit tx b =
    tx.packets_sent <- tx.packets_sent + 1;
    tx.bytes_sent <- tx.bytes_sent + Bytes.length b;
    tx.send b

  (* Connection establishment rides in the same envelope as the data
     (Appendix A piggybacking) — in {e every} envelope until the first
     TPDU is acknowledged, not just the first one: packets are
     arbitrarily reorderable in flight, and whichever arrives first must
     (re-)establish the epoch before its data chunks are routed.  A lost
     Open is likewise re-announced by the retransmission machinery for
     free. *)
  let send_chunks tx chunks =
    match tx.open_chunk with
    | None -> (
        match Packet.pack ~mtu:tx.config.mtu chunks with
        | Error e -> invalid_arg e
        | Ok packets ->
            List.iter (fun p -> emit tx (Packet.encode_unpadded p)) packets)
    | Some s -> (
        match Packet.pack ~mtu:(tx.config.mtu - tx.open_sz) chunks with
        | Error e -> invalid_arg e
        | Ok packets ->
            List.iter
              (fun p ->
                match
                  Packet.pack ~mtu:tx.config.mtu (s :: Packet.chunks p)
                with
                | Error e -> invalid_arg e
                | Ok ps ->
                    List.iter (fun q -> emit tx (Packet.encode_unpadded q)) ps)
              packets)

  let transmit tx tp =
    send_chunks tx tp.chunks;
    tp.last_tx <- Netsim.Engine.now tx.engine;
    tp.txs <- tp.txs + 1

  (* The abandonment is announced on the forward path so the receiver
     can evict the TPDU's partial state instead of leaking it; the
     receiver's own deadline sweep is the backstop when even this
     signal is lost. *)
  let send_abort tx t_id =
    let s =
      Connection.signal_chunk ~conn_id:tx.config.conn_id
        (Connection.Abort_tpdu { t_id })
    in
    match Wire.encode_packet [ s ] with
    | Error _ -> ()
    | Ok b ->
        tx.aborts_sent <- tx.aborts_sent + 1;
        emit tx b

  (* The element span a stored TPDU covers in the connection buffer:
     its data chunks (everything before the trailing ED chunk) are
     contiguous by construction, labelled with the connection SN. *)
  let tpdu_span tp =
    let data_chunks =
      match List.rev tp.chunks with _ed :: rev -> List.rev rev | [] -> []
    in
    match data_chunks with
    | [] -> None
    | first :: _ ->
        let first_elem = first.Chunk.header.Header.c.Ftuple.sn in
        let elems =
          List.fold_left
            (fun acc c -> acc + c.Chunk.header.Header.len)
            0 data_chunks
        in
        if elems > 0 then Some (first_elem, elems) else None

  (* Deliberate abandonment of a sheddable TPDU under congestion: the
     Shed_tpdu signal tells the receiver to reclaim partial state {e
     and} count the span as covered, so the stream finishes without the
     shed bytes instead of both ends retransmitting them to give-up.
     Unlike Abort_tpdu (where the deadline sweep is a sufficient
     backstop), stream completion depends on this signal arriving, so
     the receiver acknowledges it like a verified TPDU and the
     retransmission timer re-sends the {e signal} (one small packet, not
     the data) until that ACK lands. *)
  let send_shed tx tp =
    match tpdu_span tp with
    | None -> ()
    | Some (first_elem, elems) -> (
        let s =
          Connection.signal_chunk ~conn_id:tx.config.conn_id
            (Connection.Shed_tpdu { t_id = tp.t_id; first_elem; elems })
        in
        match Wire.encode_packet [ s ] with Error _ -> () | Ok b -> emit tx b)

  (* First shed of a TPDU: count it once and trace it. *)
  let shed_now tx tp =
    tp.shed <- true;
    tx.sheds_sent <- tx.sheds_sent + 1;
    if Obs.enabled && Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Shed
           {
             conn = tx.config.conn_id;
             tpdu = tp.t_id;
             elems = (match tpdu_span tp with Some (_, e) -> e | None -> 0);
             cls = Significance.to_string (tx.config.classify tp.t_id);
           })
        ~time:(Netsim.Engine.now tx.engine);
    send_shed tx tp

  (* Exponential backoff de-synchronises retransmission bursts.  The
     interval doubles from the current (possibly adaptively shrunk) RTO
     but caps at 8× the {e configured} ceiling, so an adaptive sender
     whose RTO converged to milliseconds still probes long enough to
     outlast a multi-second outage before exhausting [give_up_txs]. *)
  let rec arm_timer tx tp =
    let interval =
      Float.min
        (tx.rto_cur *. Float.pow 2.0 (float_of_int (Int.min 30 (tp.txs - 1))))
        (backoff_cap tx.config)
    in
    Netsim.Engine.schedule tx.engine ~delay:interval
      (fun () ->
        if not tp.acked then
          if tp.txs >= tx.config.give_up_txs then begin
            (* black-hole path: stop the timer so the simulation can
               end; the transfer reports failure via [gave_up], and the
               receiver is told to evict the TPDU's partial state *)
            tx.gave_up <- true;
            tp.acked <- true;
            Int_table.remove tx.inflight tp.t_id;
            if Obs.enabled then Obs.Metrics.incr m_give_ups;
            send_abort tx tp.t_id;
            pump tx
          end
          else if tp.shed then begin
            (* already abandoned: keep retrying the (cheap) shed signal
               until the receiver's ACK confirms the span is accounted *)
            tp.txs <- tp.txs + 1;
            send_shed tx tp;
            arm_timer tx tp
          end
          else if
            tx.config.shed_txs > 0
            && tp.txs >= tx.config.shed_txs
            && Significance.sheddable (tx.config.classify tp.t_id)
          then begin
            (* congestion shed: the RTO backoff is the congestion
               signal — after [shed_txs] transmissions a sheddable TPDU
               is deliberately given up rather than retransmitted to
               give-up, freeing the path for Critical/Normal data *)
            shed_now tx tp;
            arm_timer tx tp
          end
          else begin
            tx.retrans <- tx.retrans + 1;
            if Obs.enabled then begin
              Obs.Metrics.observe_s m_backoff interval;
              if Obs.Trace.active () then
                Obs.Trace.record
                  (Obs.Trace.Rto_fire
                     {
                       conn = tx.config.conn_id;
                       tpdu = tp.t_id;
                       txs = tp.txs;
                       rto = interval;
                     })
                  ~time:(Netsim.Engine.now tx.engine)
            end;
            if tx.config.adaptive then begin
              tx.clean_acks <- 0;
              tx.cur_tpdu_elems <-
                Int.max (min_tpdu_elems tx.config) (tx.cur_tpdu_elems / 2)
            end;
            transmit tx tp;
            arm_timer tx tp
          end)

  and pump tx =
    build_more tx;
    if Int_table.length tx.inflight < tx.config.window
       && not (Queue.is_empty tx.ready)
    then begin
      let tp = Queue.pop tx.ready in
      Int_table.add tx.inflight tp.t_id tp;
      transmit tx tp;
      arm_timer tx tp;
      pump tx
    end

  let start tx =
    if not tx.started then begin
      tx.started <- true;
      Netsim.Engine.schedule tx.engine ~delay:0.0 (fun () -> pump tx)
    end

  (* Jacobson/Karn: an RTT sample is taken only from a TPDU that was
     transmitted exactly once — retransmissions reuse identical labels
     (§3.3), so an ACK after a retransmission is inherently ambiguous
     and must never feed the estimator. *)
  let note_rtt tx tp =
    if tp.txs = 1 then begin
      let sample = Netsim.Engine.now tx.engine -. tp.last_tx in
      tx.rtt_samples <- tx.rtt_samples + 1;
      if Obs.enabled then Obs.Metrics.observe_s m_rtt sample;
      if tp.txs > tx.max_txs_at_sample then tx.max_txs_at_sample <- tp.txs;
      if tx.config.rto_adaptive && sample >= 0.0 then begin
        if tx.srtt < 0.0 then begin
          tx.srtt <- sample;
          tx.rttvar <- sample /. 2.0
        end
        else begin
          let err = sample -. tx.srtt in
          tx.srtt <- tx.srtt +. (err /. 8.0);
          tx.rttvar <- tx.rttvar +. ((Float.abs err -. tx.rttvar) /. 4.0)
        end;
        (* a 2x SRTT floor keeps a long clean run (where RTTVAR decays
           to nothing) from shaving the timeout below queueing noise *)
        let rto =
          Float.max (2.0 *. tx.srtt) (tx.srtt +. (4.0 *. tx.rttvar))
        in
        tx.rto_cur <- Float.min tx.config.rto (Float.max rto_min rto);
        if Obs.enabled then
          Obs.Metrics.set g_rto (int_of_float (tx.rto_cur *. 1e6))
      end
    end

  let on_ack tx t_id =
    match Int_table.find_opt tx.inflight t_id with
    | None ->
        (* an ACK for a finished TPDU is a routine re-ACK; one for a
           T.ID never sent is fabricated *)
        if not (Int_table.mem tx.done_tids t_id) then
          tx.bogus_acks <- tx.bogus_acks + 1
    | Some tp ->
        if not tp.acked then begin
          (* an ACK for a shed TPDU confirms the signal, not the data:
             it must feed neither the RTT estimator (the sample spans
             the RTO wait) nor the adaptive clean-run counter *)
          if not tp.shed then note_rtt tx tp;
          tp.acked <- true;
          Int_table.replace tx.done_tids t_id ();
          Int_table.remove tx.inflight t_id;
          (* first ACK proves the receiver processed the Open: the
             establishment phase is over *)
          if t_id = tx.first_tid then tx.open_chunk <- None;
          if tx.config.adaptive && not tp.shed then begin
            tx.clean_acks <- tx.clean_acks + 1;
            (* grow cautiously: a long clean run is needed before the
               TPDU doubles, so a lossy path keeps small TPDUs instead
               of oscillating *)
            if tx.clean_acks >= 32 then begin
              tx.clean_acks <- 0;
              tx.cur_tpdu_elems <-
                Int.min tx.config.tpdu_elems (tx.cur_tpdu_elems * 2)
            end
          end;
          pump tx
        end

  (* Selective retransmission: cut exactly the requested element runs
     out of the stored TPDU (chunks are self-describing, so any sub-run
     is a first-class chunk) and re-send them, plus the ED chunk when
     asked. *)
  let on_nack tx t_id ~need_ed ~spans =
    match Int_table.find_opt tx.inflight t_id with
    | None ->
        (* already acknowledged: stale NACK — unless the T.ID was never
           sent at all, which only a fabricating peer produces *)
        if not (Int_table.mem tx.done_tids t_id) then
          tx.bogus_acks <- tx.bogus_acks + 1
    | Some tp ->
        let data_chunks, ed =
          match List.rev tp.chunks with
          | ed :: rev_data -> (List.rev rev_data, [ ed ])
          | [] -> ([], [])
        in
        let pieces =
          List.concat_map
            (fun (sn, len) ->
              if len < 1 then []
              else
                List.filter_map
                  (fun c ->
                    let h = c.Chunk.header in
                    let c_first = h.Header.t.Ftuple.sn in
                    let c_last = c_first + h.Header.len - 1 in
                    let lo = Int.max sn c_first and hi = Int.min (sn + len - 1) c_last in
                    if lo > hi then None
                    else
                      match Fragment.extract c ~t_sn:lo ~elems:(hi - lo + 1) with
                      | Ok piece -> Some piece
                      | Error _ -> None)
                  data_chunks)
            spans
        in
        let to_send = pieces @ (if need_ed then ed else []) in
        if to_send <> [] then begin
          tx.sack_retrans <- tx.sack_retrans + 1;
          send_chunks tx to_send
        end

  let ack_code = Ctype.code Ctype.ack
  let nack_code = Ctype.code Ctype.nack

  (* The reverse path's one entry: one structural scan, then each ACK or
     NACK chunk goes to the sender its C.ID names, a NACK's payload read
     where it lies.  The scan scratch is the call's own, because a
     sender's reaction may reach this entry again before the call
     returns. *)
  let demux find b =
    let scan = Wire.Scan.create () in
    if Wire.Scan.packet scan b then
      for i = 0 to Wire.Scan.count scan - 1 do
        let code = Wire.Scan.ctype_code_at scan i in
        if code = ack_code || code = nack_code then
          match find (Wire.Scan.c_id_at scan i) with
          | None -> ()
          | Some tx -> (
              let off = Wire.Scan.offset scan i in
              let t_id = Wire.Scan.t_id b off in
              if code = ack_code then on_ack tx t_id
              else
                match
                  parse_nack b (off + Wire.header_size) (Wire.Scan.len b off)
                with
                | Some (need_ed, spans) -> on_nack tx t_id ~need_ed ~spans
                | None -> ())
      done

  let on_packet tx =
    let this = Some tx in
    demux (fun _ -> this)

  let finished tx =
    tx.started
    && tx.next_frame >= Array.length tx.frames
    && Queue.is_empty tx.ready
    && Int_table.length tx.inflight = 0

  let retransmissions tx = tx.retrans
  let sack_retransmissions tx = tx.sack_retrans
  let gave_up tx = tx.gave_up
  let aborts_sent tx = tx.aborts_sent
  let sheds_sent tx = tx.sheds_sent
  let bogus_acks tx = tx.bogus_acks
  let packets_sent tx = tx.packets_sent
  let bytes_sent tx = tx.bytes_sent
  let current_tpdu_elems tx = tx.cur_tpdu_elems
  let current_rto tx = tx.rto_cur
  let rtt_samples tx = tx.rtt_samples
  let max_txs_at_rtt_sample tx = tx.max_txs_at_sample
end
