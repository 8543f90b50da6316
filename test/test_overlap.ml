(* Overlap semantics: the first-verified-wins policy
   (Labelling.Placement) must make delivery deterministic under
   overlapping writes with conflicting bytes — whatever the arrival
   order, verified regions hold exactly the verified bytes, and a byte
   from a never-verified writer can never survive in them. *)

open Labelling
module CT = Transport.Chunk_transport

(* A write on behalf of a TPDU whose parity passed. *)
let place_verified p c = Placement.place_view ~verified:true p (Chunk.view c)

(* ------------------------------------------------------------------ *)
(* Policy table, deterministically (mirrors the Placement doc).        *)

let elem = 4
let cap = 32

(* sized for the differential test's widest placement (below) *)
let truth = Util.deterministic_bytes (128 * 8)

let slice_of ?(elem = elem) sn len = Bytes.sub truth (sn * elem) (len * elem)

let xor_bytes key b =
  Bytes.map (fun c -> Char.chr (Char.code c lxor key)) b

let mk_chunk ?(elem = elem) ~sn payload =
  Util.ok_or_fail
    (Chunk.data ~size:elem
       ~c:(Ftuple.v ~id:1 ~sn ())
       ~t:(Ftuple.v ~id:1 ~sn:0 ())
       ~x:(Ftuple.v ~id:1 ~sn:0 ())
       payload)

let fresh_placement () =
  Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:cap
    ~elem_size:elem

let lock_owned p (rep : Placement.report) =
  List.iter
    (fun (sn, len) -> Placement.lock_span p ~sn ~len)
    (rep.Placement.rp_fresh @ rep.Placement.rp_benign)

let test_policy_table () =
  let p = fresh_placement () in
  (* 1. unplaced: fresh write lands *)
  let rep = Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn:0 (slice_of 0 4))) in
  Alcotest.(check (list (pair int int))) "fresh run" [ (0, 4) ] rep.Placement.rp_fresh;
  (* 2. identical resident: benign, no conflict *)
  let rep = Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn:0 (slice_of 0 4))) in
  Alcotest.(check (list (pair int int))) "benign run" [ (0, 4) ] rep.Placement.rp_benign;
  Alcotest.(check int) "no conflicts yet" 0
    (Placement.overlap_stats p).Placement.os_conflicts_seen;
  (* 3. fresh-vs-fresh conflict: resident kept, newcomer reported for
     quarantine *)
  let rep =
    Util.ok_or_fail
      (Placement.place_checked p (mk_chunk ~sn:2 (xor_bytes 0x5A (slice_of 2 4))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (2, 2, Placement.Fresh_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a fresh conflict over elements 2..3");
  Alcotest.check Util.bytes_testable "resident bytes kept" (slice_of 0 4)
    (Bytes.sub (Placement.contents p) 0 (4 * elem));
  Alcotest.(check int) "quarantined counted" 2
    (Placement.overlap_stats p).Placement.os_quarantined;
  (* 4. verified write reclaims unverified squatters... *)
  let p2 = fresh_placement () in
  ignore
    (Util.ok_or_fail
       (Placement.place_checked p2 (mk_chunk ~sn:0 (xor_bytes 0x77 (slice_of 0 4)))));
  let rep = Util.ok_or_fail (place_verified p2 (mk_chunk ~sn:0 (slice_of 0 6))) in
  lock_owned p2 rep;
  Alcotest.check Util.bytes_testable "squatter reclaimed" (slice_of 0 6)
    (Bytes.sub (Placement.contents p2) 0 (6 * elem));
  (* ...and the locked region then discards conflicting newcomers,
     verified or not (first-verified-wins) *)
  let rep =
    Util.ok_or_fail
      (Placement.place_checked p2 (mk_chunk ~sn:4 (xor_bytes 0x11 (slice_of 4 4))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (4, 2, Placement.Verified_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a verified conflict over elements 4..5");
  let rep =
    Util.ok_or_fail
      (place_verified p2 (mk_chunk ~sn:2 (xor_bytes 0x22 (slice_of 2 2))))
  in
  (match rep.Placement.rp_conflicts with
  | [ (2, 2, Placement.Verified_conflict) ] -> ()
  | _ -> Alcotest.fail "expected a verified-vs-verified conflict");
  Alcotest.check Util.bytes_testable "locked bytes immutable" (slice_of 0 6)
    (Bytes.sub (Placement.contents p2) 0 (6 * elem));
  let os = Placement.overlap_stats p2 in
  Alcotest.(check int) "rejections counted" 4 os.Placement.os_conflicts_rejected;
  Alcotest.(check int) "verified overwrite attempt counted" 2
    os.Placement.os_verified_overwrites

(* ------------------------------------------------------------------ *)
(* Placement-level property: random interleavings of verified writes
   (carrying the true bytes) and fresh writes (honest or divergent)
   always leave every verified-covered element holding the true bytes —
   so two permutations of one overlap set agree byte for byte. *)

type wkind =
  | Verified
  | Fresh_honest
  | Fresh_divergent of int
  | Lock  (** [lock_span] alone, verified or not *)
  | Restore of int  (** [restore_span] with the truth xor the key *)
  | Read  (** [contents]: the buffer read whole, its holes zeroed *)

let gen_kind ~extended =
  QCheck2.Gen.(
    oneof
      ([
         return Verified;
         return Fresh_honest;
         map (fun k -> Fresh_divergent k) (int_range 1 255);
       ]
      @
      if extended then
        [ return Lock; map (fun k -> Restore k) (int_range 0 255); return Read ]
      else []))

(* [in_window] keeps every write inside [0, cap); otherwise a write may
   overhang the end, which both sides must refuse alike. *)
let gen_write ~cap ~max_len ~in_window ~extended =
  QCheck2.Gen.(
    let* sn = int_range 0 (cap - 1) in
    let* len =
      int_range 1 (if in_window then min max_len (cap - sn) else max_len)
    in
    let* kind = gen_kind ~extended in
    return (sn, len, kind))

let gen_writes =
  QCheck2.Gen.(
    let* ws =
      list_size (int_range 1 20)
        (gen_write ~cap ~max_len:8 ~in_window:true ~extended:false)
    in
    let* shuffle_seed = int_range 0 0xFFFF in
    return (ws, shuffle_seed))

let apply_writes ws =
  let p = fresh_placement () in
  List.iter
    (fun (sn, len, kind) ->
      match kind with
      | Verified ->
          let rep =
            Util.ok_or_fail (place_verified p (mk_chunk ~sn (slice_of sn len)))
          in
          lock_owned p rep
      | Fresh_honest ->
          ignore (Util.ok_or_fail (Placement.place_checked p (mk_chunk ~sn (slice_of sn len))))
      | Fresh_divergent k ->
          ignore
            (Util.ok_or_fail
               (Placement.place_checked p (mk_chunk ~sn (xor_bytes k (slice_of sn len)))))
      | Lock -> Placement.lock_span p ~sn ~len
      | Restore k ->
          Util.ok_or_fail (Placement.restore_span p ~sn (xor_bytes k (slice_of sn len)))
      | Read -> ignore (Placement.contents p : bytes))
    ws;
  p

let verified_cover ws =
  let a = Array.make cap false in
  List.iter
    (fun (sn, len, kind) ->
      if kind = Verified then
        for i = sn to sn + len - 1 do
          a.(i) <- true
        done)
    ws;
  a

let prop_first_verified_wins (ws, shuffle_seed) =
  let covered = verified_cover ws in
  let sound p =
    (Placement.overlap_stats p).Placement.os_verified_overwrites = 0
    && Array.for_all Fun.id
         (Array.init cap (fun i ->
              (not covered.(i))
              || Bytes.equal
                   (Bytes.sub (Placement.contents p) (i * elem) elem)
                   (Bytes.sub truth (i * elem) elem)))
  in
  let a = apply_writes ws in
  let b = apply_writes (Util.shuffle ~seed:shuffle_seed ws) in
  sound a && sound b
  && Array.for_all Fun.id
       (Array.init cap (fun i ->
            (not covered.(i))
            || Bytes.equal
                 (Bytes.sub (Placement.contents a) (i * elem) elem)
                 (Bytes.sub (Placement.contents b) (i * elem) elem)))

(* ------------------------------------------------------------------ *)
(* Differential property: run-granular placement over one-bit maps
   against the per-element reference it replaced (kept here verbatim in
   behaviour: one byte per element, one report entry per element).
   Capacities are never multiples of 8 and runs start and end anywhere,
   so every bitmap head, tail and whole-byte path is crossed.  Reads of
   the whole buffer come at random points, so writes, locks and
   restores land both before and after its holes are first zeroed. *)

module Ref_placement = struct
  type t = {
    base_sn : int;
    elem_size : int;
    capacity_elems : int;
    buf : bytes;
    occ : bytes;
    lck : bytes;
    mutable conflicts_seen : int;
    mutable conflicts_rejected : int;
    mutable quarantined : int;
    mutable verified_overwrites : int;
  }

  let create ~capacity_elems ~elem_size =
    {
      base_sn = 0;
      elem_size;
      capacity_elems;
      buf = Bytes.make (capacity_elems * elem_size) '\000';
      occ = Bytes.make capacity_elems '\000';
      lck = Bytes.make capacity_elems '\000';
      conflicts_seen = 0;
      conflicts_rejected = 0;
      quarantined = 0;
      verified_overwrites = 0;
    }

  let same p ~src i e =
    Bytes.equal
      (Bytes.sub src (i * p.elem_size) p.elem_size)
      (Bytes.sub p.buf (e * p.elem_size) p.elem_size)

  let apply p ~sn ~len ~src ~verified =
    let es = p.elem_size in
    let fresh = ref [] and benign = ref [] and conflicts = ref [] in
    let push acc e =
      match !acc with
      | (s, l) :: rest when s + l = e -> acc := (s, l + 1) :: rest
      | _ -> acc := (e, 1) :: !acc
    in
    let push_conflict e k =
      match !conflicts with
      | (s, l, k') :: rest when s + l = e && k' = k ->
          conflicts := (s, l + 1, k') :: rest
      | _ -> conflicts := (e, 1, k) :: !conflicts
    in
    for i = 0 to len - 1 do
      let e = sn + i in
      if Bytes.get p.occ e = '\000' then begin
        Bytes.blit src (i * es) p.buf (e * es) es;
        Bytes.set p.occ e '\001';
        push fresh e
      end
      else if same p ~src i e then push benign e
      else if Bytes.get p.lck e <> '\000' then begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        p.conflicts_rejected <- p.conflicts_rejected + 1;
        if verified then p.verified_overwrites <- p.verified_overwrites + 1;
        push_conflict e Placement.Verified_conflict
      end
      else if verified then begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        Bytes.blit src (i * es) p.buf (e * es) es;
        push fresh e
      end
      else begin
        p.conflicts_seen <- p.conflicts_seen + 1;
        p.quarantined <- p.quarantined + 1;
        push_conflict e Placement.Fresh_conflict
      end
    done;
    {
      Placement.rp_fresh = List.rev !fresh;
      rp_benign = List.rev !benign;
      rp_conflicts = List.rev !conflicts;
    }

  let place p chunk ~verified =
    let h = chunk.Chunk.header in
    let sn = h.Header.c.Ftuple.sn - p.base_sn and len = h.Header.len in
    if sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len then
      Error "outside destination window"
    else Ok (apply p ~sn ~len ~src:chunk.Chunk.payload ~verified)

  let lock_span p ~sn ~len =
    if sn >= 0 && len > 0 && len <= p.capacity_elems
       && sn <= p.capacity_elems - len
    then begin
      Bytes.fill p.lck sn len '\001';
      Bytes.fill p.occ sn len '\001'
    end

  let restore_span p ~sn data =
    let len = Bytes.length data / p.elem_size in
    if sn < 0 || len > p.capacity_elems || sn > p.capacity_elems - len then
      Error "outside destination window"
    else begin
      Bytes.blit data 0 p.buf (sn * p.elem_size) (Bytes.length data);
      Bytes.fill p.occ sn len '\001';
      Ok ()
    end

  let overlap_stats p =
    {
      Placement.os_conflicts_seen = p.conflicts_seen;
      os_conflicts_rejected = p.conflicts_rejected;
      os_quarantined = p.quarantined;
      os_verified_overwrites = p.verified_overwrites;
    }

  (* the maximal runs of elements whose byte in [map] is [v] *)
  let runs map v =
    let n = Bytes.length map in
    let rec go e acc =
      if e >= n then List.rev acc
      else if Bytes.get map e <> v then go (e + 1) acc
      else
        let t = ref e in
        while !t < n && Bytes.get map !t = v do incr t done;
        go !t ((e, !t - e) :: acc)
    in
    go 0 []

  (* placed means occupied, locked elements included *)
  let spans p = runs p.occ '\001'
  let holes p = runs p.occ '\000'
  let is_full p = not (Bytes.contains p.occ '\000')
  let locked_spans p = runs p.lck '\001'

  let first_unlocked p =
    match Bytes.index_opt p.lck '\000' with
    | Some e -> e
    | None -> p.capacity_elems
end

let gen_differential =
  QCheck2.Gen.(
    let* cap = oneofl [ 5; 13; 29; 61; 83; 127 ] in
    let* elem = oneofl [ 1; 3; 4; 8 ] in
    let* ws =
      list_size (int_range 1 40)
        (gen_write ~cap ~max_len:40 ~in_window:false ~extended:true)
    in
    return (cap, elem, ws))

(* The truth's [len] elements from [sn], xor [key]: payloads past the
   truth's end are only ever refused, so clamp what is sliced while
   keeping the chunk's labelled length. *)
let clamped_payload ~elem sn len key =
  let avail = max 0 (min len ((Bytes.length truth / elem) - sn)) in
  let b = Bytes.make (len * elem) '\007' in
  Bytes.blit (slice_of ~elem sn avail) 0 b 0 (avail * elem);
  if key = 0 then b else xor_bytes key b

let prop_differential (cap, elem, ws) =
  let p = Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:cap ~elem_size:elem in
  let r = Ref_placement.create ~capacity_elems:cap ~elem_size:elem in
  let same_result what a b =
    match (a, b) with
    | Ok a, Ok b ->
        if a <> b then QCheck2.Test.fail_reportf "%s: reports differ" what
    | Error _, Error _ -> ()
    | _ -> QCheck2.Test.fail_reportf "%s: one side refused" what
  in
  (* The reference's buffer starts zeroed; ours is zeroed only where it
     is read whole, so until a [Read] only occupied bytes are compared,
     off the raw buffer, which must not zero anything. *)
  let read () =
    if not (Bytes.equal (Placement.contents p) r.Ref_placement.buf) then
      QCheck2.Test.fail_reportf "contents diverged"
  in
  let same_occupied () =
    List.for_all
      (fun (sn, len) ->
        Bytes.equal
          (Bytes.sub (Placement.raw_contents p) (sn * elem) (len * elem))
          (Bytes.sub r.Ref_placement.buf (sn * elem) (len * elem)))
      (Placement.spans p)
  in
  let step (sn, len, kind) =
    let place ~verified payload =
      let c = mk_chunk ~elem ~sn payload in
      let ours =
        if verified then place_verified p c else Placement.place_checked p c
      in
      let theirs = Ref_placement.place r c ~verified in
      same_result "place" ours theirs;
      (* a verified write locks what it now owns, as the receiver does:
         placed runs, with the lock that sets the lock bits alone *)
      if verified then
        match ours with
        | Ok rep ->
            List.iter
              (fun (sn, len) ->
                Placement.lock_placed p ~sn ~len;
                Ref_placement.lock_span r ~sn ~len)
              (rep.Placement.rp_fresh @ rep.Placement.rp_benign)
        | Error _ -> ()
    in
    let payload = clamped_payload ~elem sn len in
    match kind with
    | Verified -> place ~verified:true (payload 0)
    | Fresh_honest -> place ~verified:false (payload 0)
    | Fresh_divergent k -> place ~verified:false (payload k)
    | Lock ->
        Placement.lock_span p ~sn ~len;
        Ref_placement.lock_span r ~sn ~len
    | Restore k ->
        same_result "restore"
          (Placement.restore_span p ~sn (payload k))
          (Ref_placement.restore_span r ~sn (payload k))
    | Read -> read ()
  in
  (* no lock bit is ever cleared, so a frontier walked on from its last
     position stays equal to a scan from element 0 *)
  let frontier = ref 0 in
  let sum = List.fold_left (fun n (_, l) -> n + l) 0 in
  List.iter
    (fun w ->
      step w;
      frontier := Placement.first_unlocked p !frontier;
      if
        Placement.overlap_stats p <> Ref_placement.overlap_stats r
        || not (same_occupied ())
        || Placement.spans p <> Ref_placement.spans r
        || Placement.holes p <> Ref_placement.holes r
        || Placement.is_full p <> Ref_placement.is_full r
        || Placement.placed_elems p <> sum (Ref_placement.spans r)
        || Placement.locked_spans p <> Ref_placement.locked_spans r
        || Placement.locked_elems p <> sum (Ref_placement.locked_spans r)
      then QCheck2.Test.fail_reportf "state diverged";
      if !frontier <> Ref_placement.first_unlocked r then
        QCheck2.Test.fail_reportf "frontier %d, a scan from 0 finds %d"
          !frontier (Ref_placement.first_unlocked r))
    ws;
  read ();
  true

(* Placed means occupied, locked elements included: a span locked
   without ever being placed counts as placed. *)
let test_lock_alone_counts_as_placed () =
  let p = fresh_placement () in
  Placement.lock_span p ~sn:4 ~len:3;
  Alcotest.(check (list (pair int int))) "placed" [ (4, 3) ] (Placement.spans p);
  Alcotest.(check int) "placed elems" 3 (Placement.placed_elems p);
  Alcotest.(check (list (pair int int)))
    "holes" [ (0, 4); (7, cap - 7) ] (Placement.holes p)

(* The receiver never locks an element it has not placed: it locks only
   runs a verified placement reported as its own, and re-locks a
   snapshot's verified spans only after restoring its placed runs.
   Under that discipline the occupancy runs equal the interval list of
   every span placed or restored. *)
let prop_receiver_discipline (cap, elem, ws) =
  let p =
    Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:cap
      ~elem_size:elem
  in
  let tracker = Vreassembly.create () in
  let track sn len =
    match Vreassembly.insert_new tracker ~sn ~len ~st:false with
    | Ok _ | Error `Inconsistent -> ()
  in
  let payload = clamped_payload ~elem in
  let restore sn len key =
    match Placement.restore_span p ~sn (payload sn len key) with
    | Ok () -> track sn len; true
    | Error _ -> false
  in
  List.for_all
    (fun (sn, len, kind) ->
      (match kind with
      | Verified | Fresh_honest | Fresh_divergent _ -> (
          let key = match kind with Fresh_divergent k -> k | _ -> 0 in
          let c = mk_chunk ~elem ~sn (payload sn len key) in
          match
            if kind = Verified then place_verified p c
            else Placement.place_checked p c
          with
          | Ok rep ->
              track sn len;
              if kind = Verified then
                List.iter
                  (fun (sn, len) -> Placement.lock_placed p ~sn ~len)
                  (rep.Placement.rp_fresh @ rep.Placement.rp_benign)
          | Error _ -> ())
      | Lock ->
          (* a restored verified span: placed first, then locked *)
          if restore sn len 0 then Placement.lock_span p ~sn ~len
      | Restore k -> ignore (restore sn len k)
      | Read -> ignore (Placement.contents p : bytes));
      Placement.spans p = Vreassembly.spans tracker
      && Placement.placed_elems p = Vreassembly.received_elems tracker)
    ws

(* ------------------------------------------------------------------ *)
(* Receiver-level property: a full transfer's sealed chunks mixed with
   forged corroborated TPDUs (divergent bytes, garbage parity — the
   Netsim.Overlapper forge mode) is delivered complete, byte-identical
   under any two arrival orders, and equal to the sender's stream: no
   unverified byte survives, because the forged TPDUs always fail
   WSC-2. *)

let forged_tid_base = 7_000

(* One forged single-chunk TPDU over [sn, sn+len) whose ED chunk agrees
   with the data chunk's C.SN - T.SN delta (so the verifier's label
   checks pass) but carries a garbage parity (so verification fails
   it). *)
let forge ~idx ~sn ~len ~key ~garbage =
  let t_id = forged_tid_base + idx in
  let data =
    Util.ok_or_fail
      (Chunk.data ~size:elem
         ~c:(Ftuple.v ~id:1 ~sn ())
         ~t:(Ftuple.v ~st:true ~id:t_id ~sn:0 ())
         ~x:(Ftuple.v ~id:t_id ~sn:0 ())
         (xor_bytes key (slice_of sn len)))
  in
  let ed_payload = Bytes.make 12 '\000' in
  for i = 0 to 7 do
    Bytes.set ed_payload i (Char.chr ((garbage + (i * 41)) land 0xFF))
  done;
  Bytes.set_int32_be ed_payload 8 (Int32.of_int len);
  let ed =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:(Ftuple.v ~id:1 ~sn ())
         ~t:(Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Ftuple.zero ed_payload)
  in
  [ data; ed ]

let gen_receiver_case =
  QCheck2.Gen.(
    let* tpdu_elems = int_range 4 8 in
    let* n_tpdus = int_range 2 4 in
    let* frame_elems = int_range 2 6 in
    let elems = tpdu_elems * n_tpdus in
    let* forged =
      list_size (int_range 1 3)
        (let* sn = int_range 0 (elems - 1) in
         let* len = int_range 1 (min 4 (elems - sn)) in
         let* key = int_range 1 255 in
         let* garbage = int_range 0 0xFFFF in
         return (sn, len, key, garbage))
    in
    let* order_a = int_range 0 0xFFFF in
    let* order_b = int_range 0 0xFFFF in
    let* frag_seed = int_range 0 0xFFFF in
    return (tpdu_elems, n_tpdus, frame_elems, forged, order_a, order_b, frag_seed))

let prop_receiver_order_invariant
    (tpdu_elems, n_tpdus, frame_elems, forged, order_a, order_b, frag_seed) =
  let data_len = tpdu_elems * n_tpdus * elem in
  let stream = Util.deterministic_bytes (cap * elem) in
  let stream = Bytes.sub stream 0 data_len in
  let f = Framer.create ~elem_size:elem ~tpdu_elems ~conn_id:1 () in
  let chunks =
    Util.ok_or_fail (Framer.frames_of_stream f ~frame_bytes:(frame_elems * elem) stream)
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
  let forged_chunks =
    List.concat
      (List.mapi
         (fun idx (sn, len, key, garbage) ->
           if sn + len <= n_tpdus * tpdu_elems then forge ~idx ~sn ~len ~key ~garbage
           else [])
         forged)
  in
  let pool = Util.fragment_randomly ~seed:frag_seed (sealed @ forged_chunks) in
  let config =
    {
      CT.default_config with
      conn_id = 1;
      elem_size = elem;
      tpdu_elems;
      state_budget = 0;
    }
  in
  let expected = CT.expected_elements config ~data_len in
  let deliver order_seed =
    let engine = Netsim.Engine.create ~seed:1 () in
    let rx =
      CT.Receiver.create engine config
        ~send_ack:(fun _ -> ())
        ~capacity:(`Quota expected) ()
    in
    List.iter
      (fun c -> CT.Receiver.on_view rx (Chunk.view c))
      (Util.shuffle ~seed:order_seed pool);
    rx
  in
  let a = deliver order_a and b = deliver order_b in
  let os_a = CT.Receiver.overlap_stats a in
  let os_b = CT.Receiver.overlap_stats b in
  CT.Receiver.complete a && CT.Receiver.complete b
  && Bytes.equal (CT.Receiver.contents a) (CT.Receiver.contents b)
  && Bytes.equal (Bytes.sub (CT.Receiver.contents a) 0 data_len) stream
  && os_a.Placement.os_verified_overwrites = 0
  && os_b.Placement.os_verified_overwrites = 0
  && os_a.Placement.os_conflicts_seen > 0
  && os_b.Placement.os_conflicts_seen > 0

(* A chunk whose C.SN is corrupted is placed on arrival like any other:
   what keeps it from clobbering data is placement's first-verified-wins
   policy, and the verifier's C.SN - T.SN cross-check fails its TPDU.
   Three 8-element TPDUs of one chunk each; TPDU 1's data chunk arrives
   first with its C.SN shifted 8 elements down, into TPDU 0's span.
   With TPDU 0 verified the shifted run is refused and the locked bytes
   stay as they are; with TPDU 0 in flight it is quarantined, and
   dropped when TPDU 1 fails.  Either way TPDU 1's identical-label
   retransmission completes the stream byte-exact. *)
let test_shifted_csn ~verified () =
  let tpdu_elems = 8 in
  let stream = Util.deterministic_bytes (3 * tpdu_elems * elem) in
  let f = Framer.create ~elem_size:elem ~tpdu_elems ~conn_id:1 () in
  let sealed =
    Util.ok_or_fail
      (Edc.Encoder.seal_tpdus
         (Util.ok_or_fail
            (Framer.frames_of_stream f ~frame_bytes:(tpdu_elems * elem) stream)))
  in
  let data, ed =
    match sealed with
    | [ d0; e0; d1; e1; d2; e2 ] -> ([| d0; d1; d2 |], [| e0; e1; e2 |])
    | l -> Alcotest.failf "expected 3 one-chunk TPDUs, got %d chunks" (List.length l)
  in
  let shifted =
    let h = data.(1).Chunk.header in
    let c = h.Header.c in
    Util.ok_or_fail
      (Chunk.data ~size:elem
         ~c:(Ftuple.v ~st:c.Ftuple.st ~id:c.Ftuple.id ~sn:(c.Ftuple.sn - tpdu_elems) ())
         ~t:h.Header.t ~x:h.Header.x data.(1).Chunk.payload)
  in
  let config =
    { CT.default_config with conn_id = 1; elem_size = elem; tpdu_elems }
  in
  let rx =
    CT.Receiver.create (Netsim.Engine.create ~seed:1 ()) config
      ~send_ack:(fun _ -> ())
      ~capacity:(`Quota (3 * tpdu_elems))
      ()
  in
  let feed c = CT.Receiver.on_view rx (Chunk.view c) in
  let head () = Bytes.sub (CT.Receiver.contents rx) 0 (tpdu_elems * elem) in
  let os () = CT.Receiver.overlap_stats rx in
  feed data.(0);
  if verified then feed ed.(0);
  let before = head () in
  feed shifted;
  if verified then begin
    Alcotest.(check bool) "the shifted run is refused" true
      ((os ()).Placement.os_conflicts_rejected > 0);
    Alcotest.(check int) "nothing is quarantined" 0 (os ()).Placement.os_quarantined;
    Alcotest.check Util.bytes_testable "the locked bytes do not change" before
      (head ())
  end
  else begin
    Alcotest.(check int) "nothing is refused" 0
      (os ()).Placement.os_conflicts_rejected;
    Alcotest.(check bool) "the shifted run is quarantined" true
      ((os ()).Placement.os_quarantined > 0);
    Alcotest.(check int) "its TPDU holds the quarantine" 1
      (CT.Receiver.stashed_tpdus rx)
  end;
  feed data.(1);
  feed ed.(1);
  Alcotest.(check int) "the mislabelled TPDU fails" 1
    (CT.Receiver.verifier_stats rx).Edc.Verifier.tpdus_failed;
  Alcotest.(check int) "its quarantine is dropped" 0 (CT.Receiver.stashed_tpdus rx);
  if not verified then feed ed.(0);
  (* the identical-label retransmission, then the last TPDU *)
  Array.iter feed [| data.(1); ed.(1); data.(2); ed.(2) |];
  Alcotest.(check bool) "the stream completes" true (CT.Receiver.complete rx);
  Alcotest.check Util.bytes_testable "byte-exact" stream
    (Bytes.sub (CT.Receiver.contents rx) 0 (Bytes.length stream));
  Alcotest.(check int) "no verified overwrite" 0
    (os ()).Placement.os_verified_overwrites

let suite =
  [
    Alcotest.test_case "policy table" `Quick test_policy_table;
    Util.qtest ~count:300 "verified cover is order-invariant and exact"
      gen_writes prop_first_verified_wins;
    Util.qtest ~count:500
      "run placement over bit maps matches the per-element reference"
      gen_differential prop_differential;
    Alcotest.test_case "a span locked without being placed counts as placed"
      `Quick test_lock_alone_counts_as_placed;
    Util.qtest ~count:300
      "under the receiver's discipline placed runs equal the placed spans"
      gen_differential prop_receiver_discipline;
    Util.qtest ~count:60
      "receiver delivery is order-invariant under forged overlaps"
      gen_receiver_case prop_receiver_order_invariant;
    Alcotest.test_case "a shifted C.SN over verified bytes is refused" `Quick
      (test_shifted_csn ~verified:true);
    Alcotest.test_case "a shifted C.SN over in-flight bytes is quarantined"
      `Quick
      (test_shifted_csn ~verified:false);
  ]
