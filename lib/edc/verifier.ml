open Labelling

type verdict =
  | Passed
  | Parity_mismatch
  | Consistency_failure of string
  | Reassembly_error of string

let pp_verdict fmt = function
  | Passed -> Format.pp_print_string fmt "passed"
  | Parity_mismatch -> Format.pp_print_string fmt "parity-mismatch"
  | Consistency_failure s -> Format.fprintf fmt "consistency-failure(%s)" s
  | Reassembly_error s -> Format.fprintf fmt "reassembly-error(%s)" s

let verdict_equal a b =
  match (a, b) with
  | Passed, Passed | Parity_mismatch, Parity_mismatch -> true
  | Consistency_failure x, Consistency_failure y -> String.equal x y
  | Reassembly_error x, Reassembly_error y -> String.equal x y
  | (Passed | Parity_mismatch | Consistency_failure _ | Reassembly_error _), _
    ->
      false

type event =
  | Tpdu_verified of { t_id : int; verdict : verdict }
  | Fresh_data of { t_id : int; t_sn : int; elems : int }
  | Duplicate_dropped of { t_id : int }

type absorbed = All | Runs | Duplicate | No_data

(* An int-keyed map for the per-TPDU label tables.  Most TPDUs record
   one or two entries (a single boundary, a single external PDU), so
   those live in the map's own int fields; only a TPDU with more pays
   for a flat table, which keeps each operation O(1) however many
   boundaries it carries.  The map is allocated with its TPDU's state
   and updated in place.  The first binding of a key wins, as every
   caller wants. *)
module Small = struct
  type t = {
    mutable n : int;  (* bindings; beyond two, [many] holds every one *)
    mutable k0 : int;
    mutable v0 : int;
    mutable k1 : int;
    mutable v1 : int;
    mutable many : int Int_map.t;
  }

  (* the [many] of every map that never held three bindings: never
     written *)
  let few : int Int_map.t = Int_map.create ~absent:0 1

  let create () = { n = 0; k0 = 0; v0 = 0; k1 = 0; v1 = 0; many = few }

  let mem m k =
    if m.n > 2 then Int_map.mem m.many k
    else (m.n > 0 && m.k0 = k) || (m.n > 1 && m.k1 = k)

  (* Whether [k] is bound to a value other than [v]. *)
  let conflicts m k v =
    if m.n > 2 then Int_map.mem m.many k && Int_map.find m.many k <> v
    else
      (m.n > 0 && m.k0 = k && m.v0 <> v) || (m.n > 1 && m.k1 = k && m.v1 <> v)

  let add m k v =
    if not (mem m k) then begin
      (match m.n with
      | 0 ->
          m.k0 <- k;
          m.v0 <- v
      | 1 ->
          m.k1 <- k;
          m.v1 <- v
      | 2 ->
          let t = Int_map.create ~absent:0 8 in
          Int_map.replace t m.k0 m.v0;
          Int_map.replace t m.k1 m.v1;
          Int_map.replace t k v;
          m.many <- t
      | _ -> Int_map.replace m.many k v);
      m.n <- m.n + 1
    end

  let length m = m.n

  let clear m =
    m.n <- 0;
    m.many <- few
end

(* Everything the verifier keeps of one in-flight TPDU between its
   chunks.  Every field that a chunk updates is an immediate, and the
   tracker, the two label maps and the run buffer are allocated with the
   record and updated in place, so a state that has outlived a minor
   collection takes no young pointer from a later chunk (short of a
   buffer growing).  Absent values are sentinels no label produces. *)
type tpdu_state = {
  mutable t_id : int;
  mutable born : int;  (* [Obs.stamp] of the clock when this state was opened *)
  mutable d0 : Gf232.t;  (* the data symbols' parity *)
  mutable d1 : Gf232.t;
  mutable l0 : Gf232.t;  (* the X pairs', T.ID's, C.ID's and C.ST's *)
  mutable l1 : Gf232.t;
  tracker : Vreassembly.t;
  pairs_done : Small.t;  (* boundary T.SNs already paired, each -> 0 *)
  x_deltas : Small.t;  (* X.ID -> C.SN - X.SN *)
  mutable delta_ct : int;  (* C.SN - T.SN, [no_delta] until known *)
  mutable c_id : int;  (* -1 until known *)
  mutable size : int;  (* 0 until known *)
  mutable labels_done : bool;
  mutable e0 : Gf232.t;  (* the ED chunk's parity, [e0 = -1] until then *)
  mutable e1 : Gf232.t;
  mutable damage : string option;  (* completion-time failure note *)
  x_spans : Int_rows.t;
      (* fresh runs as (t_sn, len, x_id, x_sn), for the X-framing check *)
}

(* No C.SN - T.SN of two labels is [min_int]: both SNs lie in
   [0, max_int]. *)
let no_delta = min_int

let blank_state t_id ~born =
  {
    t_id;
    born = Obs.stamp born;
    d0 = Gf232.zero;
    d1 = Gf232.zero;
    l0 = Gf232.zero;
    l1 = Gf232.zero;
    tracker = Vreassembly.create ();
    pairs_done = Small.create ();
    x_deltas = Small.create ();
    delta_ct = no_delta;
    c_id = -1;
    size = 0;
    labels_done = false;
    e0 = -1;
    e1 = 0;
    damage = None;
    x_spans = Int_rows.create ~width:4;
  }

(* [s], released, made blank but for its T.ID and birth, which the
   TPDU that reuses it sets: its buffers keep their room, and it keeps no
   table or message of the TPDU it held. *)
let blank_out s =
  s.d0 <- Gf232.zero;
  s.d1 <- Gf232.zero;
  s.l0 <- Gf232.zero;
  s.l1 <- Gf232.zero;
  Vreassembly.clear s.tracker;
  Small.clear s.pairs_done;
  Small.clear s.x_deltas;
  s.delta_ct <- no_delta;
  s.c_id <- -1;
  s.size <- 0;
  s.labels_done <- false;
  s.e0 <- -1;
  s.e1 <- 0;
  s.damage <- None;
  Int_rows.clear s.x_spans ~width:4

let ed_arrived s = s.e0 >= 0

(* Fold what the scratch accumulator [sc] absorbed into the labels'
   parity. *)
let fold_labels s sc =
  s.l0 <- Gf232.add s.l0 (Wsc2.p0 sc);
  s.l1 <- Gf232.add s.l1 (Wsc2.p1 sc)

(* No state: what [find] returns for a T.ID it does not hold, and
   [last_passed] while no passed TPDU awaits [take_data_parity].  It is
   never held, nor recycled. *)
let no_state = blank_state (-1) ~born:0.0

(* Released states kept for reuse by the verifiers that share the pool:
   a TPDU opened from a spare state allocates nothing, so the states
   that live through minor collections stay the same few records in the
   major heap instead of a new set per TPDU.  At most [pool_cap] are
   kept, so the pool holds no more than a burst of verdicts leaves. *)
type pool = {
  mutable spare : tpdu_state array;
  mutable n : int;
  (* the fresh runs of the chunk last absorbed by a verifier of the
     pool: one chunk at a time reads them *)
  fresh : Int_rows.t;
}

let pool_cap = 32
let pool () = { spare = [||]; n = 0; fresh = Int_rows.create ~width:2 }

type t = {
  tpdus : tpdu_state Int_map.t;  (* [no_state] for a T.ID not held *)
  pool : pool;
  (* the last state looked up, so the several lookups one chunk makes
     cost one probe; [no_state] whenever [tpdus] loses its T.ID *)
  mutable memo : tpdu_state;
  (* the TPDU whose [Passed] verdict [on_chunk] returned last, until
     [take_data_parity] takes it ([no_state] otherwise) *)
  mutable last_passed : tpdu_state;
  now : unit -> float;
  (* scratch for one run's data parity, folded into its state's ints *)
  scratch : Wsc2.acc;
  (* whether the chunk last absorbed closed its TPDU, with which
     verdict; its fresh runs, when they are not the whole chunk, are in
     [pool.fresh] *)
  mutable closed : bool;
  mutable verdict : verdict;
  mutable passed : int;
  mutable failed : int;
  mutable dups : int;
  mutable seen : int;
}

type stats = {
  tpdus_passed : int;
  tpdus_failed : int;
  duplicates : int;
  chunks_seen : int;
}

(* First-chunk-seen to verdict, in simulated microseconds; the counts
   are the instance's own ([stats]). *)
let m_latency = Obs.Metrics.histogram "edc_verify_latency_us"

let verdict_tag = function
  | Passed -> "passed"
  | Parity_mismatch -> "parity-mismatch"
  | Consistency_failure _ -> "consistency-failure"
  | Reassembly_error _ -> "reassembly-error"

(* Shared bookkeeping for every path that emits a verdict and releases
   the TPDU's state. *)
let note_verdict v s t_id verdict =
  if Obs.enabled then begin
    Obs.Metrics.observe_s m_latency (v.now () -. Obs.unstamp s.born);
    if Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Verify_done
           {
             conn = s.c_id;
             tpdu = t_id;
             verdict = verdict_tag verdict;
           })
  end

let create ?now ?(pool = pool ()) () =
  let now = match now with Some f -> f | None -> fun () -> !Obs.now in
  {
    tpdus = Int_map.create ~absent:no_state 4;
    pool;
    memo = no_state;
    last_passed = no_state;
    now;
    scratch = Wsc2.create ();
    closed = false;
    verdict = Passed;
    passed = 0;
    failed = 0;
    dups = 0;
    seen = 0;
  }

(* The held state for [t_id], or [no_state], through the memo: repeated
   lookups allocate nothing. *)
let find v t_id =
  let m = v.memo in
  if m.t_id = t_id && m != no_state then m
  else begin
    let s = Int_map.find v.tpdus t_id in
    if s != no_state then v.memo <- s;
    s
  end

(* A state no table holds and nothing will read again goes back to the
   pool, while it has room. *)
let recycle v s =
  let p = v.pool in
  if p.n < pool_cap && s != no_state then begin
    blank_out s;
    if Array.length p.spare = 0 then p.spare <- Array.make pool_cap no_state;
    p.spare.(p.n) <- s;
    p.n <- p.n + 1
  end

(* Forget [s]; it is recycled unless it is the passed TPDU awaiting
   [take_data_parity]. *)
let release v s =
  Int_map.remove v.tpdus s.t_id;
  if v.memo == s then v.memo <- no_state;
  if s != v.last_passed then recycle v s

let state v t_id =
  let s = find v t_id in
  if s != no_state then s
  else begin
      if Obs.enabled && Obs.Trace.active () then
        Obs.Trace.record (Obs.Trace.Verify_start { conn = -1; tpdu = t_id });
      let p = v.pool in
      let s =
        if p.n = 0 then blank_state t_id ~born:(v.now ())
        else begin
          p.n <- p.n - 1;
          let s = p.spare.(p.n) in
          s.t_id <- t_id;
          s.born <- Obs.stamp (v.now ());
          s
        end
      in
      Int_map.replace v.tpdus t_id s;
      v.memo <- s;
      s
  end

(* The chunk closed its TPDU with [verdict]: what {!closed} and
   {!verdict} report until the next chunk. *)
let close v verdict =
  v.closed <- true;
  v.verdict <- verdict

(* A damaged chunk dooms its TPDU: report at once and release state, so
   a retransmission (with identical, correct labels) starts clean.  The
   offending chunk is discarded without being processed — "the error
   detection system will detect the incorrect sequence numbers and allow
   any incorrect chunks to be discarded" (Appendix A). *)
let fail_now v t_id verdict =
  let s = find v t_id in
  if s != no_state then begin
    note_verdict v s t_id verdict;
    release v s
  end;
  v.failed <- v.failed + 1;
  close v verdict;
  No_data

(* Completion-time X-framing contiguity: sort the fresh element runs by
   T.SN; along the TPDU the X.ID may change only across an element that
   some chunk declared as a boundary (an X.ST or T.ST position), and an
   X.ID must not recur after a different one.  This catches a corrupted
   X.ID on a {e non-boundary} chunk, which neither the parity (pairs
   come from boundary chunks only) nor the per-X.ID delta check sees. *)
let x_cell rows k j = Int_rows.get rows ~width:4 k j

(* No row of [rows] before [k] has X.ID [x]. *)
let rec x_unseen rows x k =
  k = 0 || (x_cell rows (k - 1) 2 <> x && x_unseen rows x (k - 1))

let rec x_walk s rows k =
  k + 1 >= Int_rows.count rows
  ||
  let xa = x_cell rows k 2 and xb = x_cell rows (k + 1) 2 in
  (xa = xb
  ||
  let boundary = x_cell rows k 0 + x_cell rows k 1 - 1
  and sn_b = x_cell rows (k + 1) 0 in
  (* the new external PDU starts just after the boundary, so its
     element at T.SN [sn_b] has X.SN [sn_b - boundary - 1] *)
  Small.mem s.pairs_done boundary
  && x_cell rows (k + 1) 3 = sn_b - boundary - 1
  && x_unseen rows xb k)
  && x_walk s rows (k + 1)

(* The rows are sorted in place: only a verdict reads them, and the
   state is released after it. *)
let x_framing_ok s =
  Int_rows.sort s.x_spans ~width:4;
  x_walk s s.x_spans 0

(* The whole TPDU's parity, data and labels, against the ED chunk's. *)
let verdict_of s =
  match s.damage with
  | Some msg -> Reassembly_error msg
  | None ->
      if not (ed_arrived s) then Reassembly_error "ED chunk never arrived"
      else if
        Gf232.add s.l0 s.d0 <> s.e0 || Gf232.add s.l1 s.d1 <> s.e1
      then Parity_mismatch
      else if not (x_framing_ok s) then
        Consistency_failure "X framing not contiguous"
      else Passed

(* [fresh], the chunk's own contribution, after which its TPDU's
   verdict, if the chunk completed it, is closed. *)
let try_finish v t_id s fresh =
  if Vreassembly.complete s.tracker && ed_arrived s then begin
    let verdict = verdict_of s in
    note_verdict v s t_id verdict;
    (match verdict with
    | Passed ->
        v.passed <- v.passed + 1;
        (* the state the pass displaces has nothing left to give *)
        recycle v v.last_passed;
        v.last_passed <- s
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        v.failed <- v.failed + 1);
    release v s;
    close v verdict;
    fresh
  end
  else fresh

(* Returns the first on-arrival problem with this chunk, if any. *)
let arrival_check s (h : Header.t) =
  let size_problem =
    let spw = Invariant.size_symbols ~size:h.Header.size in
    if spw = 0 then
      match Invariant.check_size ~size:h.Header.size with
      | Error msg -> Some (Reassembly_error msg)
      | Ok _ -> assert false
    else if
      h.Header.t.Ftuple.sn > Invariant.data_limit_symbols
      || (h.Header.t.Ftuple.sn + h.Header.len) * spw
         > Invariant.data_limit_symbols
    then
      (* a (possibly corrupted) T.SN/LEN that escapes the invariant's
         data region can never virtually reassemble *)
      Some (Reassembly_error "TPDU data outside the invariant region")
    else if s.size <> 0 && s.size <> h.Header.size then
      Some (Reassembly_error "SIZE changed between chunks")
    else None
  in
  match size_problem with
  | Some _ as p -> p
  | None ->
      if h.Header.c.Ftuple.st && not h.Header.t.Ftuple.st then
        (* The C.ST bit can be set only on a TPDU boundary (§4). *)
        Some (Consistency_failure "C.ST set off a TPDU boundary")
      else if s.c_id <> -1 && s.c_id <> h.Header.c.Ftuple.id then
        Some (Consistency_failure "C.ID changed between chunks")
      else if
        s.delta_ct <> no_delta
        && s.delta_ct <> h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn
      then Some (Consistency_failure "C.SN - T.SN changed")
      else
        let xd = h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn in
        if Small.conflicts s.x_deltas h.Header.x.Ftuple.id xd then
          Some (Consistency_failure "C.SN - X.SN changed")
        else None

let commit_arrival s (h : Header.t) =
  if s.size = 0 then s.size <- h.Header.size;
  if s.c_id = -1 then s.c_id <- h.Header.c.Ftuple.id;
  if s.delta_ct = no_delta then
    s.delta_ct <- h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn;
  Small.add s.x_deltas h.Header.x.Ftuple.id
    (h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn)

(* Accumulate exactly the fresh element sub-runs of a chunk's payload,
   where it lies in the view's buffer.  The unchecked fast path is safe
   here: [fresh] runs are sub-ranges of the chunk's own [sn, sn + len)
   (so the byte slice is inside the payload, which a view's maker
   guarantees spans LEN * SIZE bytes of [src] from [off]), and
   [arrival_check] already rejected any chunk whose element span escapes
   the invariant's data region, so every position is in range. *)
let accumulate_fresh v s (cv : Chunk.view) sn len =
  let h = cv.Chunk.header in
  let size = h.Header.size in
  let pos = Invariant.data_symbol ~size ~t_sn:sn in
  (if pos < 0 then begin
     match Invariant.data_position ~size ~t_sn:sn with
     | Error msg -> if s.damage = None then s.damage <- Some msg
     | Ok _ -> assert false
   end
   else
      let off = cv.Chunk.off + ((sn - h.Header.t.Ftuple.sn) * size) in
      let sc = v.scratch in
      Wsc2.reset sc;
      Wsc2.add_subbytes_exn sc ~pos cv.Chunk.src off (len * size);
      s.d0 <- Gf232.add s.d0 (Wsc2.p0 sc);
      s.d1 <- Gf232.add s.d1 (Wsc2.p1 sc));
  let xsn = h.Header.x.Ftuple.sn + (sn - h.Header.t.Ftuple.sn) in
  Int_rows.push4 s.x_spans sn len h.Header.x.Ftuple.id xsn

(* What the chunk's span [sn, sn + len) adds to the tracker, its runs
   in [v.pool.fresh]; [No_data] where the span contradicts the
   tracker. *)
let fresh_of v tr ~sn ~len ~st =
  if Vreassembly.append_new tr ~sn ~len ~st then All
  else if not (Vreassembly.insert_runs tr v.pool.fresh ~sn ~len ~st) then
    No_data
  else
    let rows = v.pool.fresh in
    match Int_rows.count rows with
    | 0 -> Duplicate
    | 1
      when Int_rows.get rows ~width:2 0 0 = sn
           && Int_rows.get rows ~width:2 0 1 = len ->
        All
    | _ -> Runs

let on_data v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  match arrival_check s h with
  | Some verdict -> fail_now v t_id verdict
  | None -> (
      commit_arrival s h;
      let sn = h.Header.t.Ftuple.sn and len = h.Header.len in
      match fresh_of v s.tracker ~sn ~len ~st:h.Header.t.Ftuple.st with
      | No_data ->
          fail_now v t_id
            (Reassembly_error "fragment beyond or contradicting the TPDU end")
      | fresh ->
          (match fresh with
          | All -> accumulate_fresh v s cv sn len
          | Runs ->
              let rows = v.pool.fresh in
              for k = 0 to Int_rows.count rows - 1 do
                accumulate_fresh v s cv
                  (Int_rows.get rows ~width:2 k 0)
                  (Int_rows.get rows ~width:2 k 1)
              done
          | Duplicate -> v.dups <- v.dups + 1
          | No_data -> ());
          (* Boundary contributions are deduplicated independently of
             payload freshness: a refragmented retransmission can
             re-deliver a boundary on an all-duplicate chunk. *)
          if h.Header.t.Ftuple.st || h.Header.x.Ftuple.st then begin
            let boundary = h.Header.t.Ftuple.sn + h.Header.len - 1 in
            if not (Small.mem s.pairs_done boundary) then begin
              Small.add s.pairs_done boundary 0;
              let sc = v.scratch in
              Wsc2.reset sc;
              Encoder.add_xpair sc ~boundary_t_sn:boundary
                ~x_id:h.Header.x.Ftuple.id ~x_st:h.Header.x.Ftuple.st;
              fold_labels s sc
            end
          end;
          if h.Header.t.Ftuple.st && not s.labels_done then begin
            s.labels_done <- true;
            let sc = v.scratch in
            Wsc2.reset sc;
            Encoder.add_labels sc ~t_id:h.Header.t.Ftuple.id
              ~c_id:h.Header.c.Ftuple.id ~c_st:h.Header.c.Ftuple.st;
            fold_labels s sc
          end;
          try_finish v t_id s fresh)

let on_ed v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  if Chunk.view_payload_bytes cv <> 12 then
    fail_now v t_id (Reassembly_error "malformed ED chunk payload")
  else
    if s.c_id <> -1 && s.c_id <> h.Header.c.Ftuple.id then
      fail_now v t_id (Consistency_failure "ED chunk C.ID mismatch")
    else
  begin
    let get32 off =
      Int32.to_int (Bytes.get_int32_be cv.Chunk.src (cv.Chunk.off + off))
      land 0xFFFF_FFFF
    in
    let p0 = get32 0 and p1 = get32 4 and total = get32 8 in
    if ed_arrived s && (s.e0 <> p0 || s.e1 <> p1) then
      fail_now v t_id (Reassembly_error "conflicting ED chunks")
    else (
        (* The ED chunk also pins the C.SN - T.SN delta (its T.SN is 0,
           its C.SN the TPDU's first element) and the TPDU's extent.  A
           delta already established by data chunks must agree: with a
           single data chunk the delta check in [arrival_check] never
           fires, so this comparison is the only consistency coverage
           the connection label gets. *)
        let delta = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
        if s.delta_ct <> no_delta && s.delta_ct <> delta then
          fail_now v t_id (Consistency_failure "ED chunk C.SN mismatch")
        else (
            s.e0 <- p0;
            s.e1 <- p1;
            if s.delta_ct = no_delta then s.delta_ct <- delta;
            if total < 1 then
              fail_now v t_id (Reassembly_error "ED chunk announces no data")
            else
              match Vreassembly.set_total s.tracker total with
              | Error `Inconsistent ->
                  fail_now v t_id
                    (Reassembly_error "ED extent contradicts received data")
              | Ok () -> try_finish v t_id s No_data))
  end

let absorb v (cv : Chunk.view) =
  v.closed <- false;
  v.seen <- v.seen + 1;
  let h = cv.Chunk.header in
  if Header.is_terminator h then No_data
  else if Ctype.is_data h.Header.ctype then on_data v cv
  else if Ctype.equal h.Header.ctype Ctype.ed then on_ed v cv
  else No_data

let on_view v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let fresh_data (sn, len) = Fresh_data { t_id; t_sn = sn; elems = len } in
  let fresh =
    match absorb v cv with
    | All -> [ fresh_data (h.Header.t.Ftuple.sn, h.Header.len) ]
    | Runs ->
        List.map fresh_data (Int_rows.pairs v.pool.fresh)
    | Duplicate -> [ Duplicate_dropped { t_id } ]
    | No_data -> []
  in
  if v.closed then fresh @ [ Tpdu_verified { t_id; verdict = v.verdict } ]
  else fresh

let on_chunk v chunk = on_view v (Chunk.view chunk)
let fresh_runs v = v.pool.fresh
let closed v = v.closed
let verdict v = v.verdict
let in_flight v = Int_map.length v.tpdus
let in_flight_ids v = Int_map.sorted_keys v.tpdus

let missing v ~t_id =
  let s = find v t_id in
  if s == no_state then None else Some (Vreassembly.missing s.tracker)

let ed_seen v ~t_id =
  let s = find v t_id in
  s != no_state && ed_arrived s

let abort v ~t_id =
  let s = find v t_id in
  if s == no_state then None
  else begin
      let verdict =
        if not (Vreassembly.complete s.tracker) then
          Reassembly_error "virtual reassembly never completed"
        else
          match verdict_of s with
          | Passed -> Reassembly_error "aborted while incomplete"
          | other -> other
      in
      note_verdict v s t_id verdict;
      release v s;
      v.failed <- v.failed + 1;
      Some verdict
  end

let abandon = abort

let forget v ~t_id =
  let s = find v t_id in
  if s != no_state then release v s

(* Conservative per-TPDU accounting: a fixed overhead for the WSC-2
   accumulator and the mutable cells, plus the per-span costs of the
   virtual-reassembly tracker and the X-framing record.  Exact heap
   words do not matter; what matters is that the figure grows with the
   state an adversary can force us to hold. *)
let footprint_bytes v ~t_id =
  let s = find v t_id in
  if s == no_state then 0
  else
      128
      + (24 * Vreassembly.run_count s.tracker)
      + (40 * Int_rows.count s.x_spans)
      + (16 * Small.length s.pairs_done)
      + (16 * Small.length s.x_deltas)

let take_data_parity v ~t_id ~first_c_sn ~elems =
  let s = v.last_passed in
  if s.t_id <> t_id then None
  else begin
    v.last_passed <- no_state;
    let parity =
      match Vreassembly.total s.tracker with
      | Some total
        when s.delta_ct <> no_delta && s.delta_ct = first_c_sn
             && total = elems ->
          Some { Wsc2.p0 = s.d0; p1 = s.d1 }
      | Some _ | None -> None
    in
    recycle v s;
    parity
  end

let stats v =
  {
    tpdus_passed = v.passed;
    tpdus_failed = v.failed;
    duplicates = v.dups;
    chunks_seen = v.seen;
  }

let zero_stats =
  { tpdus_passed = 0; tpdus_failed = 0; duplicates = 0; chunks_seen = 0 }

let add_stats a b =
  {
    tpdus_passed = a.tpdus_passed + b.tpdus_passed;
    tpdus_failed = a.tpdus_failed + b.tpdus_failed;
    duplicates = a.duplicates + b.duplicates;
    chunks_seen = a.chunks_seen + b.chunks_seen;
  }
