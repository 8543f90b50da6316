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

type absorbed =
  | All
  | Runs of (int * int) list
  | Duplicate
  | No_data
  | Verdict of absorbed * verdict

(* An int-keyed map for the per-TPDU label tables.  Most TPDUs record
   one or two entries (a single boundary, a single external PDU), so
   those live inline; only a TPDU with more pays for a hash table, which
   keeps each operation O(1) however many boundaries it carries.  The
   first binding of a key wins, as every caller wants. *)
module Small = struct
  type t =
    | Empty
    | One of int * int
    | Two of int * int * int * int
    | Many of int Int_table.t

  let mem m k =
    match m with
    | Empty -> false
    | One (k1, _) -> k1 = k
    | Two (k1, _, k2, _) -> k1 = k || k2 = k
    | Many t -> Int_table.mem t k

  (* Whether [k] is bound to a value other than [v]. *)
  let conflicts m k v =
    match m with
    | Empty -> false
    | One (k1, v1) -> k1 = k && v1 <> v
    | Two (k1, v1, k2, v2) -> (k1 = k && v1 <> v) || (k2 = k && v2 <> v)
    | Many t -> (
        match Int_table.find_opt t k with Some d -> d <> v | None -> false)

  let add m k v =
    match m with
    | Empty -> One (k, v)
    | One (k1, v1) -> if k1 = k then m else Two (k1, v1, k, v)
    | Two (k1, v1, k2, v2) ->
        if k1 = k || k2 = k then m
        else begin
          let t = Int_table.create 8 in
          Int_table.add t k1 v1;
          Int_table.add t k2 v2;
          Int_table.add t k v;
          Many t
        end
    | Many t ->
        if not (Int_table.mem t k) then Int_table.add t k v;
        m

  let length = function
    | Empty -> 0
    | One _ -> 1
    | Two _ -> 2
    | Many t -> Int_table.length t

  let bindings = function
    | Empty -> []
    | One (k1, v1) -> [ (k1, v1) ]
    | Two (k1, v1, k2, v2) -> [ (k1, v1); (k2, v2) ]
    | Many t -> Int_table.fold (fun k v l -> (k, v) :: l) t []
end

type tpdu_state = {
  t_id : int;
  born : float;  (* clock reading when this state was opened *)
  acc : Wsc2.acc;  (* the data symbols *)
  labels : Wsc2.acc;  (* the X pairs, T.ID, C.ID and C.ST *)
  mutable restored : bool;
      (* imported from an image: [acc] then holds the whole parity *)
  tracker : Vreassembly.t;
  mutable pairs_done : Small.t;  (* boundary T.SNs already paired, each -> 0 *)
  mutable x_deltas : Small.t;  (* X.ID -> C.SN - X.SN *)
  mutable delta_ct : int option;       (* C.SN - T.SN *)
  mutable c_id : int option;
  mutable size : int option;
  mutable labels_done : bool;
  mutable expected : Wsc2.parity option;
  mutable damage : string option;      (* completion-time failure note *)
  mutable x_spans : (int * int * int * int) list;
      (* (t_sn, len, x_id, x_sn) fresh runs *)
}

let blank_state t_id ~born =
  {
    t_id;
    born;
    acc = Wsc2.create ();
    labels = Wsc2.create ();
    restored = false;
    tracker = Vreassembly.create ();
    pairs_done = Small.Empty;
    x_deltas = Small.Empty;
    delta_ct = None;
    c_id = None;
    size = None;
    labels_done = false;
    expected = None;
    damage = None;
    x_spans = [];
  }

(* [last_passed] while no passed TPDU awaits [take_data_parity]: no
   32-bit T.ID is negative, and with no C.SN - T.SN it vouches for
   nothing anyway. *)
let none_passed = blank_state (-1) ~born:0.0

type t = {
  tpdus : tpdu_state Int_table.t;
  (* the last state looked up, so the several lookups one chunk makes
     cost one hash probe; cleared whenever [tpdus] loses its T.ID *)
  mutable memo : tpdu_state option;
  (* the TPDU whose [Passed] verdict [on_chunk] returned last, until
     [take_data_parity] takes it ([none_passed] otherwise) *)
  mutable last_passed : tpdu_state;
  now : unit -> float;
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

(* Pipeline-wide accounting; [m_latency] measures first-chunk-seen to
   verdict, in simulated microseconds. *)
let m_chunks = Obs.Metrics.counter "edc_chunks_total"
let m_passed = Obs.Metrics.counter "edc_tpdus_passed_total"
let m_failed = Obs.Metrics.counter "edc_tpdus_failed_total"
let m_dups = Obs.Metrics.counter "edc_duplicates_total"
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
    (match verdict with
    | Passed -> Obs.Metrics.incr m_passed
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        Obs.Metrics.incr m_failed);
    Obs.Metrics.observe_s m_latency (v.now () -. s.born);
    if Obs.Trace.active () then
      Obs.Trace.record
        (Obs.Trace.Verify_done
           {
             conn = Option.value s.c_id ~default:(-1);
             tpdu = t_id;
             verdict = verdict_tag verdict;
           })
  end

let create ?now () =
  let now = match now with Some f -> f | None -> fun () -> !Obs.now in
  {
    tpdus = Int_table.create 32;
    memo = None;
    last_passed = none_passed;
    now;
    passed = 0;
    failed = 0;
    dups = 0;
    seen = 0;
  }

(* The held state for [t_id], through the memo: a hit returns the
   memo's own option, so repeated lookups allocate nothing. *)
let find v t_id =
  match v.memo with
  | Some s as hit when s.t_id = t_id -> hit
  | Some _ | None -> (
      match Int_table.find_opt v.tpdus t_id with
      | Some _ as found ->
          v.memo <- found;
          found
      | None -> None)

let release v t_id =
  Int_table.remove v.tpdus t_id;
  match v.memo with
  | Some s when s.t_id = t_id -> v.memo <- None
  | Some _ | None -> ()

let state v t_id =
  match find v t_id with
  | Some s -> s
  | None ->
      if Obs.enabled && Obs.Trace.active () then
        Obs.Trace.record (Obs.Trace.Verify_start { conn = -1; tpdu = t_id });
      let s = blank_state t_id ~born:(v.now ()) in
      Int_table.add v.tpdus t_id s;
      v.memo <- Some s;
      s

(* A damaged chunk dooms its TPDU: report at once and release state, so
   a retransmission (with identical, correct labels) starts clean.  The
   offending chunk is discarded without being processed — "the error
   detection system will detect the incorrect sequence numbers and allow
   any incorrect chunks to be discarded" (Appendix A). *)
let fail_now v t_id verdict =
  (match find v t_id with
  | Some s -> note_verdict v s t_id verdict
  | None -> ());
  release v t_id;
  v.failed <- v.failed + 1;
  Verdict (No_data, verdict)

(* Completion-time X-framing contiguity: sort the fresh element runs by
   T.SN; along the TPDU the X.ID may change only across an element that
   some chunk declared as a boundary (an X.ST or T.ST position), and an
   X.ID must not recur after a different one.  This catches a corrupted
   X.ID on a {e non-boundary} chunk, which neither the parity (pairs
   come from boundary chunks only) nor the per-X.ID delta check sees. *)
let x_framing_ok s =
  let spans =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) s.x_spans
  in
  let rec walk seen = function
    | [] | [ _ ] -> true
    | (sn_a, len_a, xa, _) :: ((sn_b, _, xb, xsn_b) :: _ as rest) ->
        if xa = xb then walk seen rest
        else begin
          let boundary = sn_a + len_a - 1 in
          (* the new external PDU starts just after the boundary, so its
             element at T.SN [sn_b] has X.SN [sn_b - boundary - 1] *)
          Small.mem s.pairs_done boundary
          && xsn_b = sn_b - boundary - 1
          (* [memq] is integer equality on ints, with no call into
             polymorphic compare *)
          && (not (List.memq xb seen))
          && walk (xa :: seen) rest
        end
  in
  walk [] spans

(* Folds the data parity into [s.labels], which then holds the whole
   TPDU's, and leaves [s.acc] the data's alone: call once, as the state
   is released. *)
let verdict_of s =
  match (s.damage, s.expected) with
  | Some msg, _ -> Reassembly_error msg
  | None, Some expected ->
      Wsc2.combine s.labels s.acc;
      if not (Wsc2.verify ~expected s.labels) then Parity_mismatch
      else if not (x_framing_ok s) then
        Consistency_failure "X framing not contiguous"
      else Passed
  | None, None -> Reassembly_error "ED chunk never arrived"

(* [fresh], the chunk's own contribution, and then its TPDU's verdict
   if the chunk completed it. *)
let try_finish v t_id s fresh =
  if Vreassembly.complete s.tracker && s.expected <> None then begin
    let verdict = verdict_of s in
    note_verdict v s t_id verdict;
    release v t_id;
    (match verdict with
    | Passed ->
        v.passed <- v.passed + 1;
        v.last_passed <- s
    | Parity_mismatch | Consistency_failure _ | Reassembly_error _ ->
        v.failed <- v.failed + 1);
    Verdict (fresh, verdict)
  end
  else fresh

(* Returns the first on-arrival problem with this chunk, if any. *)
let arrival_check s (h : Header.t) =
  let size_problem =
    match Invariant.check_size ~size:h.Header.size with
    | Error msg -> Some (Reassembly_error msg)
    | Ok spw
      when h.Header.t.Ftuple.sn > Invariant.data_limit_symbols
           || (h.Header.t.Ftuple.sn + h.Header.len) * spw
              > Invariant.data_limit_symbols ->
        (* a (possibly corrupted) T.SN/LEN that escapes the invariant's
           data region can never virtually reassemble *)
        Some (Reassembly_error "TPDU data outside the invariant region")
    | Ok _ -> (
        match s.size with
        | Some sz when sz <> h.Header.size ->
            Some (Reassembly_error "SIZE changed between chunks")
        | Some _ | None -> None)
  in
  match size_problem with
  | Some _ as p -> p
  | None ->
      if h.Header.c.Ftuple.st && not h.Header.t.Ftuple.st then
        (* The C.ST bit can be set only on a TPDU boundary (§4). *)
        Some (Consistency_failure "C.ST set off a TPDU boundary")
      else (
        match s.c_id with
        | Some id when id <> h.Header.c.Ftuple.id ->
            Some (Consistency_failure "C.ID changed between chunks")
        | Some _ | None -> (
            let delta = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
            match s.delta_ct with
            | Some d when d <> delta ->
                Some (Consistency_failure "C.SN - T.SN changed")
            | Some _ | None -> (
                let xd = h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn in
                if Small.conflicts s.x_deltas h.Header.x.Ftuple.id xd then
                  Some (Consistency_failure "C.SN - X.SN changed")
                else None)))

let commit_arrival s (h : Header.t) =
  if s.size = None then s.size <- Some h.Header.size;
  if s.c_id = None then s.c_id <- Some h.Header.c.Ftuple.id;
  if s.delta_ct = None then
    s.delta_ct <- Some (h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn);
  s.x_deltas <-
    Small.add s.x_deltas h.Header.x.Ftuple.id
      (h.Header.c.Ftuple.sn - h.Header.x.Ftuple.sn)

(* Accumulate exactly the fresh element sub-runs of a chunk's payload,
   where it lies in the view's buffer.  The unchecked fast path is safe
   here: [fresh] runs are sub-ranges of the chunk's own [sn, sn + len)
   (so the byte slice is inside the payload, which a view's maker
   guarantees spans LEN * SIZE bytes of [src] from [off]), and
   [arrival_check] already rejected any chunk whose element span escapes
   the invariant's data region, so every position is in range. *)
let accumulate_fresh s (v : Chunk.view) sn len =
  let h = v.Chunk.header in
  let size = h.Header.size in
  (match Invariant.data_position ~size ~t_sn:sn with
  | Error msg -> if s.damage = None then s.damage <- Some msg
  | Ok pos ->
      let off = v.Chunk.off + ((sn - h.Header.t.Ftuple.sn) * size) in
      Wsc2.add_subbytes_exn s.acc ~pos v.Chunk.src off (len * size));
  let xsn = h.Header.x.Ftuple.sn + (sn - h.Header.t.Ftuple.sn) in
  s.x_spans <- (sn, len, h.Header.x.Ftuple.id, xsn) :: s.x_spans

(* What the chunk's span [sn, sn + len) adds to the tracker. *)
let fresh_of tr ~sn ~len ~st =
  if Vreassembly.append_new tr ~sn ~len ~st then Ok All
  else
    match Vreassembly.insert_new tr ~sn ~len ~st with
    | Error _ as e -> e
    | Ok [] -> Ok Duplicate
    | Ok [ (s, l) ] when s = sn && l = len -> Ok All
    | Ok runs -> Ok (Runs runs)

let on_data v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  match arrival_check s h with
  | Some verdict -> fail_now v t_id verdict
  | None -> (
      commit_arrival s h;
      let sn = h.Header.t.Ftuple.sn and len = h.Header.len in
      match fresh_of s.tracker ~sn ~len ~st:h.Header.t.Ftuple.st with
      | Error `Inconsistent ->
          fail_now v t_id
            (Reassembly_error "fragment beyond or contradicting the TPDU end")
      | Ok fresh ->
          (match fresh with
          | All -> accumulate_fresh s cv sn len
          | Runs runs ->
              List.iter (fun (sn, len) -> accumulate_fresh s cv sn len) runs
          | Duplicate ->
              v.dups <- v.dups + 1;
              if Obs.enabled then Obs.Metrics.incr m_dups
          | No_data | Verdict _ -> ());
          (* Boundary contributions are deduplicated independently of
             payload freshness: a refragmented retransmission can
             re-deliver a boundary on an all-duplicate chunk. *)
          if h.Header.t.Ftuple.st || h.Header.x.Ftuple.st then begin
            let boundary = h.Header.t.Ftuple.sn + h.Header.len - 1 in
            if not (Small.mem s.pairs_done boundary) then begin
              s.pairs_done <- Small.add s.pairs_done boundary 0;
              let pos = Invariant.xpair_position ~boundary_t_sn:boundary in
              Wsc2.add_symbol s.labels ~pos
                (h.Header.x.Ftuple.id land 0xFFFF_FFFF);
              Wsc2.add_symbol s.labels ~pos:(pos + 1)
                (Encoder.xpair_second_symbol ~boundary_t_sn:boundary
                   ~x_st:h.Header.x.Ftuple.st)
            end
          end;
          if h.Header.t.Ftuple.st && not s.labels_done then begin
            s.labels_done <- true;
            Wsc2.add_symbol s.labels ~pos:Invariant.tid_position
              (h.Header.t.Ftuple.id land 0xFFFF_FFFF);
            Wsc2.add_symbol s.labels ~pos:Invariant.cid_position
              (h.Header.c.Ftuple.id land 0xFFFF_FFFF);
            Wsc2.add_symbol s.labels ~pos:Invariant.cst_position
              (if h.Header.c.Ftuple.st then Gf232.one else Gf232.zero)
          end;
          try_finish v t_id s fresh)

let on_ed v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let s = state v t_id in
  if Chunk.view_payload_bytes cv <> 12 then
    fail_now v t_id (Reassembly_error "malformed ED chunk payload")
  else
    match s.c_id with
    | Some id when id <> h.Header.c.Ftuple.id ->
        fail_now v t_id (Consistency_failure "ED chunk C.ID mismatch")
    | Some _ | None ->
  begin
    let parity = Wsc2.parity_of_bytes cv.Chunk.src cv.Chunk.off in
    let total =
      Int32.to_int (Bytes.get_int32_be cv.Chunk.src (cv.Chunk.off + 8))
      land 0xFFFF_FFFF
    in
    match s.expected with
    | Some p when not (Wsc2.parity_equal p parity) ->
        fail_now v t_id (Reassembly_error "conflicting ED chunks")
    | Some _ | None -> (
        (* The ED chunk also pins the C.SN - T.SN delta (its T.SN is 0,
           its C.SN the TPDU's first element) and the TPDU's extent.  A
           delta already established by data chunks must agree: with a
           single data chunk the delta check in [arrival_check] never
           fires, so this comparison is the only consistency coverage
           the connection label gets. *)
        let delta = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
        match s.delta_ct with
        | Some d when d <> delta ->
            fail_now v t_id (Consistency_failure "ED chunk C.SN mismatch")
        | Some _ | None -> (
            s.expected <- Some parity;
            if s.delta_ct = None then s.delta_ct <- Some delta;
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
  v.seen <- v.seen + 1;
  if Obs.enabled then Obs.Metrics.incr m_chunks;
  let h = cv.Chunk.header in
  if Header.is_terminator h then No_data
  else if Ctype.is_data h.Header.ctype then on_data v cv
  else if Ctype.equal h.Header.ctype Ctype.ed then on_ed v cv
  else No_data

let on_view v (cv : Chunk.view) =
  let h = cv.Chunk.header in
  let t_id = h.Header.t.Ftuple.id in
  let fresh_data (sn, len) = Fresh_data { t_id; t_sn = sn; elems = len } in
  let rec events = function
    | All -> [ fresh_data (h.Header.t.Ftuple.sn, h.Header.len) ]
    | Runs runs -> List.map fresh_data runs
    | Duplicate -> [ Duplicate_dropped { t_id } ]
    | No_data -> []
    | Verdict (fresh, verdict) ->
        events fresh @ [ Tpdu_verified { t_id; verdict } ]
  in
  events (absorb v cv)

let on_chunk v chunk = on_view v (Chunk.view chunk)

let in_flight v = Int_table.length v.tpdus

let in_flight_ids v =
  Int_table.fold (fun id _ acc -> id :: acc) v.tpdus [] |> List.sort Int.compare

let missing v ~t_id =
  Option.map (fun s -> Vreassembly.missing s.tracker) (find v t_id)

let ed_seen v ~t_id =
  match find v t_id with
  | Some s -> s.expected <> None
  | None -> false

let abort v ~t_id =
  match find v t_id with
  | None -> None
  | Some s ->
      let verdict =
        if not (Vreassembly.complete s.tracker) then
          Reassembly_error "virtual reassembly never completed"
        else
          match verdict_of s with
          | Passed -> Reassembly_error "aborted while incomplete"
          | other -> other
      in
      note_verdict v s t_id verdict;
      release v t_id;
      v.failed <- v.failed + 1;
      Some verdict

let abandon = abort

(* Conservative per-TPDU accounting: a fixed overhead for the WSC-2
   accumulator and the mutable cells, plus the per-span costs of the
   virtual-reassembly tracker and the X-framing record.  Exact heap
   words do not matter; what matters is that the figure grows with the
   state an adversary can force us to hold. *)
let footprint_bytes v ~t_id =
  match find v t_id with
  | None -> 0
  | Some s ->
      128
      + (24 * List.length (Vreassembly.spans s.tracker))
      + (40 * List.length s.x_spans)
      + (16 * Small.length s.pairs_done)
      + (16 * Small.length s.x_deltas)

let take_data_parity v ~t_id ~first_c_sn ~elems =
  let s = v.last_passed in
  if s.t_id <> t_id then None
  else begin
    v.last_passed <- none_passed;
    match (s.restored, s.delta_ct, Vreassembly.total s.tracker) with
    | false, Some first, Some total when first = first_c_sn && total = elems ->
        Some (Wsc2.snapshot s.acc)
    | _ -> None
  end

let stats v =
  {
    tpdus_passed = v.passed;
    tpdus_failed = v.failed;
    duplicates = v.dups;
    chunks_seen = v.seen;
  }

(* Persisted image of one in-flight TPDU: every field of [tpdu_state]
   that cannot be re-derived, in canonical (sorted) order so that
   export/import round-trips are comparable structurally.  [born] is
   deliberately absent — a restored TPDU is re-born at restore time, so
   its latency figures restart rather than counting the outage. *)
type tpdu_image = {
  ti_t_id : int;
  ti_parity : Wsc2.parity;
  ti_spans : (int * int) list;
  ti_total : int option;
  ti_pairs : int list;
  ti_x_deltas : (int * int) list;
  ti_delta_ct : int option;
  ti_c_id : int option;
  ti_size : int option;
  ti_labels_done : bool;
  ti_expected : Wsc2.parity option;
  ti_damage : string option;
  ti_x_spans : (int * int * int * int) list;
}

(* The whole parity so far, data and labels, leaving both
   accumulators as they are. *)
let whole_parity s =
  let whole = Wsc2.of_parity (Wsc2.snapshot s.labels) in
  Wsc2.combine whole s.acc;
  Wsc2.snapshot whole

let export v =
  Int_table.fold
    (fun t_id s acc ->
      {
        ti_t_id = t_id;
        ti_parity = whole_parity s;
        ti_spans = Vreassembly.spans s.tracker;
        ti_total = Vreassembly.total s.tracker;
        ti_pairs =
          List.map fst (Small.bindings s.pairs_done) |> List.sort Int.compare;
        ti_x_deltas = List.sort compare (Small.bindings s.x_deltas);
        ti_delta_ct = s.delta_ct;
        ti_c_id = s.c_id;
        ti_size = s.size;
        ti_labels_done = s.labels_done;
        ti_expected = s.expected;
        ti_damage = s.damage;
        ti_x_spans = List.sort compare s.x_spans;
      }
      :: acc)
    v.tpdus []
  |> List.sort (fun a b -> Int.compare a.ti_t_id b.ti_t_id)

let import v img =
  if not (Int_table.mem v.tpdus img.ti_t_id) then begin
    let s = state v img.ti_t_id in
    (* rebuild the accumulator from its parity: XOR accumulation makes
       resume-from-snapshot indistinguishable from never stopping *)
    Wsc2.combine s.acc (Wsc2.of_parity img.ti_parity);
    s.restored <- true;
    List.iter
      (fun (sn, len) ->
        match Vreassembly.insert_new s.tracker ~sn ~len ~st:false with
        | Ok _ | Error `Inconsistent -> ())
      img.ti_spans;
    (match img.ti_total with
    | Some total -> (
        match Vreassembly.set_total s.tracker total with
        | Ok () | Error `Inconsistent -> ())
    | None -> ());
    List.iter
      (fun k -> s.pairs_done <- Small.add s.pairs_done k 0)
      img.ti_pairs;
    (* the image's last binding of a key wins, as a table replace would *)
    List.iter
      (fun (k, d) -> s.x_deltas <- Small.add s.x_deltas k d)
      (List.rev img.ti_x_deltas);
    s.delta_ct <- img.ti_delta_ct;
    s.c_id <- img.ti_c_id;
    s.size <- img.ti_size;
    s.labels_done <- img.ti_labels_done;
    s.expected <- img.ti_expected;
    s.damage <- img.ti_damage;
    s.x_spans <- img.ti_x_spans
  end
