(* §4 end-to-end error detection: the Fig 5 invariant, the encoder's
   fragmentation invariance, and the verifier's behaviour. *)

open Labelling

(* --- Invariant --- *)

let test_positions () =
  Alcotest.(check int) "data limit" 16384 Edc.Invariant.data_limit_symbols;
  Alcotest.(check int) "T.ID" 16384 Edc.Invariant.tid_position;
  Alcotest.(check int) "C.ID" 16385 Edc.Invariant.cid_position;
  Alcotest.(check int) "C.ST" 16386 Edc.Invariant.cst_position;
  Alcotest.(check int) "first X pair" 16387
    (Edc.Invariant.xpair_position ~boundary_t_sn:0);
  Alcotest.(check int) "X pairs stride 2" 16389
    (Edc.Invariant.xpair_position ~boundary_t_sn:1);
  (* pair positions never collide with each other or the fixed slots *)
  let max_pair = Edc.Invariant.xpair_position ~boundary_t_sn:16383 + 1 in
  Alcotest.(check bool) "within WSC-2 space" true (max_pair <= Wsc2.max_position)

let test_size_checks () =
  (match Edc.Invariant.check_size ~size:4 with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "size 4 = 1 symbol");
  (match Edc.Invariant.check_size ~size:16 with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "size 16 = 4 symbols");
  (match Edc.Invariant.check_size ~size:6 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size 6 rejected");
  (match Edc.Invariant.check_size ~size:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size 2 rejected");
  Alcotest.(check int) "max elems for size 4" 16384
    (Edc.Invariant.max_tpdu_elems ~size:4);
  Alcotest.(check int) "max elems for size 64" 1024
    (Edc.Invariant.max_tpdu_elems ~size:64)

let test_data_positions () =
  (match Edc.Invariant.data_position ~size:8 ~t_sn:5 with
  | Ok p -> Alcotest.(check int) "size 8, sn 5" 10 p
  | Error e -> Alcotest.fail e);
  match Edc.Invariant.data_position ~size:4 ~t_sn:16384 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "beyond the data region"

(* --- Encoder: fragmentation invariance --- *)

let tpdu_fixture ?(tpdu_elems = 24) () =
  let f = Framer.create ~elem_size:4 ~tpdu_elems ~conn_id:3 () in
  let c1 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 40)) in
  let c2 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 36)) in
  let c3 = Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 20)) in
  (* exactly one TPDU: 24 elements = 96 bytes = 40+36+20 *)
  c1 @ c2 @ c3

let test_parity_invariant_under_fragmentation () =
  let chunks = tpdu_fixture () in
  let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
  for seed = 1 to 20 do
    let frag = Util.fragment_randomly ~seed chunks in
    let shuffled = Util.shuffle ~seed:(seed * 3) frag in
    let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu shuffled) in
    Alcotest.(check bool)
      (Printf.sprintf "parity invariant (seed %d)" seed)
      true (Wsc2.parity_equal p0 p)
  done

let test_parity_after_gateway_reassembly () =
  let chunks = tpdu_fixture () in
  let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
  let frag = Util.fragment_randomly ~seed:5 chunks in
  let merged = Reassemble.coalesce (Util.shuffle ~seed:8 frag) in
  let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu merged) in
  Alcotest.(check bool) "reassembled parity equal" true (Wsc2.parity_equal p0 p)

let test_seal_validation () =
  let chunks = tpdu_fixture () in
  (match Edc.Encoder.seal chunks with
  | Ok ed ->
      Alcotest.(check bool) "ED is control" true (Chunk.is_control ed);
      Alcotest.(check int) "12-byte ED payload (parity + extent)" 12 (Chunk.payload_bytes ed)
  | Error e -> Alcotest.fail e);
  (match Edc.Encoder.seal [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty TPDU");
  (* strip T.ST: incomplete *)
  let headless =
    List.filter (fun c -> not c.Chunk.header.Header.t.Ftuple.st) chunks
  in
  match Edc.Encoder.seal headless with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "TPDU without T.ST cannot be sealed"

let test_seal_tpdus_interleaves () =
  let f = Framer.create ~elem_size:4 ~tpdu_elems:8 ~conn_id:3 () in
  let cs =
    Util.ok_or_fail (Framer.push_frame ~last:true f (Util.deterministic_bytes 96))
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus cs) in
  let eds = List.filter Chunk.is_control sealed in
  Alcotest.(check int) "one ED per TPDU" 3 (List.length eds);
  (* each ED chunk directly follows the data of its TPDU *)
  let rec check_order = function
    | [] -> ()
    | ed :: rest when Chunk.is_control ed -> check_order rest
    | d :: rest ->
        let tid = d.Chunk.header.Header.t.Ftuple.id in
        (* the ED for tid appears later in the list *)
        Alcotest.(check bool) "ED follows data" true
          (List.exists
             (fun c ->
               Chunk.is_control c
               && c.Chunk.header.Header.t.Ftuple.id = tid)
             rest);
        check_order rest
  in
  check_order sealed

(* --- Verifier --- *)

let feed verifier chunks =
  let verdicts = ref [] in
  List.iter
    (fun chunk ->
      List.iter
        (fun ev ->
          match ev with
          | Edc.Verifier.Tpdu_verified { t_id; verdict } ->
              verdicts := (t_id, verdict) :: !verdicts
          | Edc.Verifier.Fresh_data _ | Edc.Verifier.Duplicate_dropped _ -> ())
        (Edc.Verifier.on_chunk verifier chunk))
    chunks;
  List.rev !verdicts

let test_verifier_passes_disorder () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  for seed = 1 to 10 do
    let v = Edc.Verifier.create () in
    let arrived =
      Util.shuffle ~seed (ed :: Util.fragment_randomly ~seed chunks)
    in
    match feed v arrived with
    | [ (0, Edc.Verifier.Passed) ] -> ()
    | other ->
        Alcotest.failf "seed %d: expected pass, got %d verdicts" seed
          (List.length other)
  done

let test_verifier_duplicates () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let v = Edc.Verifier.create () in
  (* every data chunk delivered twice, ED last *)
  let doubled = List.concat_map (fun c -> [ c; c ]) chunks in
  (match feed v (doubled @ [ ed ]) with
  | [ (0, Edc.Verifier.Passed) ] -> ()
  | _ -> Alcotest.fail "duplicates must not corrupt the parity");
  let s = Edc.Verifier.stats v in
  Alcotest.(check bool) "duplicates counted" true
    (s.Edc.Verifier.duplicates >= List.length chunks)

let test_verifier_refragmented_retransmission () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let first = Util.fragment_randomly ~seed:3 chunks in
  (* lose a third of the first transmission *)
  let survived = List.filteri (fun i _ -> i mod 3 <> 0) first in
  let retrans = Util.fragment_randomly ~seed:44 chunks in
  let v = Edc.Verifier.create () in
  match feed v (survived @ [ ed ] @ retrans) with
  | [ (0, Edc.Verifier.Passed) ] -> ()
  | [] -> Alcotest.fail "never completed"
  | (_, verdict) :: _ ->
      Alcotest.failf "expected pass, got %s"
        (Format.asprintf "%a" Edc.Verifier.pp_verdict verdict)

let test_verifier_payload_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let corrupt =
    List.mapi
      (fun i c ->
        if i = 1 then begin
          let p = Bytes.copy c.Chunk.payload in
          Bytes.set p 3 (Char.chr (Char.code (Bytes.get p 3) lxor 0x40));
          Chunk.make_exn c.Chunk.header p
        end
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  match feed v (corrupt @ [ ed ]) with
  | [ (0, Edc.Verifier.Parity_mismatch) ] -> ()
  | _ -> Alcotest.fail "payload corruption must be a parity mismatch"

let test_verifier_csn_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let corrupt =
    List.mapi
      (fun i c ->
        if i = 1 then begin
          let h = c.Chunk.header in
          let bad = { h with Header.c = Ftuple.advance h.Header.c 13 } in
          Chunk.make_exn { bad with Header.c = Ftuple.with_st bad.Header.c h.Header.c.Ftuple.st } c.Chunk.payload
        end
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  match feed v (corrupt @ [ ed ]) with
  | (0, Edc.Verifier.Consistency_failure _) :: _ -> ()
  | _ -> Alcotest.fail "C.SN corruption must fail the consistency check"

let test_verifier_missing_ed_abort () =
  let chunks = tpdu_fixture () in
  let v = Edc.Verifier.create () in
  ignore (feed v chunks);
  Alcotest.(check int) "in flight" 1 (Edc.Verifier.in_flight v);
  (match Edc.Verifier.abort v ~t_id:0 with
  | Some (Edc.Verifier.Reassembly_error _) -> ()
  | _ -> Alcotest.fail "abort should report a reassembly error");
  Alcotest.(check int) "released" 0 (Edc.Verifier.in_flight v)

let test_verifier_early_failure_then_recovery () =
  (* a poisoned chunk fails the TPDU immediately; a full clean
     retransmission must then pass *)
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let poisoned =
    match chunks with
    | first :: rest ->
        let h = first.Chunk.header in
        Chunk.make_exn
          { h with Header.c = Ftuple.advance h.Header.c 99 }
          first.Chunk.payload
        :: rest
    | [] -> assert false
  in
  let v = Edc.Verifier.create () in
  let verdicts = feed v (poisoned @ [ ed ] @ chunks @ [ ed ]) in
  Alcotest.(check bool) "a failure was reported" true
    (List.exists
       (fun (_, vd) -> not (Edc.Verifier.verdict_equal vd Edc.Verifier.Passed))
       verdicts);
  Alcotest.(check bool) "recovered to a pass" true
    (List.exists
       (fun (_, vd) -> Edc.Verifier.verdict_equal vd Edc.Verifier.Passed)
       verdicts)

let test_verifier_tst_corruption () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  (* clear the final T.ST: reassembly can never complete *)
  let stripped =
    List.map
      (fun c ->
        let h = c.Chunk.header in
        if h.Header.t.Ftuple.st then
          Chunk.make_exn
            { h with
              Header.t = Ftuple.with_st h.Header.t false;
              c = Ftuple.with_st h.Header.c false;
              x = h.Header.x }
            c.Chunk.payload
        else c)
      chunks
  in
  let v = Edc.Verifier.create () in
  (* the ED chunk announces the TPDU's extent, so the verifier need not
     wait for a timeout: reassembly completes via the extent and the
     missing label contributions fail the parity immediately *)
  match feed v (stripped @ [ ed ]) with
  | [ (0, Edc.Verifier.Parity_mismatch) ] -> ()
  | [] -> Alcotest.fail "extent should complete the TPDU"
  | _ -> Alcotest.fail "T.ST corruption must fail verification"

let test_arrival_sn_overflow () =
  (* regression: (T.SN + LEN) * symbols-per-word once overflowed for a
     corrupted near-max_int T.SN, letting the chunk past the
     invariant-region check and into the position computation *)
  let huge =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:0 ~sn:(max_int - 2) ())
         ~x:(Ftuple.v ~id:0 ~sn:0 ())
         (Bytes.create 4))
  in
  let v = Edc.Verifier.create () in
  match feed v [ huge ] with
  | [ (0, Edc.Verifier.Reassembly_error _) ] -> ()
  | [] -> Alcotest.fail "huge T.SN must fail the TPDU immediately"
  | _ -> Alcotest.fail "huge T.SN must fail as a reassembly error"

let test_ed_csn_mismatch () =
  (* regression: the ED chunk's own C.SN - T.SN delta was recorded but
     never cross-checked against the delta seen on data chunks, so a
     corrupted data-chunk label could steer placement with no
     independent witness *)
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let h = ed.Chunk.header in
  let bad_ed =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:
           (Ftuple.v ~st:h.Header.c.Ftuple.st ~id:h.Header.c.Ftuple.id
              ~sn:(h.Header.c.Ftuple.sn + 4) ())
         ~t:h.Header.t ~x:h.Header.x ed.Chunk.payload)
  in
  let v = Edc.Verifier.create () in
  match feed v (chunks @ [ bad_ed ]) with
  | [ (0, Edc.Verifier.Consistency_failure _) ] -> ()
  | [] -> Alcotest.fail "shifted ED C.SN went unnoticed"
  | _ -> Alcotest.fail "shifted ED C.SN must be a consistency failure"

(* --- Verifier memo coherence --- *)

(* A pool of four TPDUs (T.IDs 0..3) with their ED chunks, plus for each
   TPDU an ED chunk whose parity conflicts with the real one. *)
let memo_pool =
  lazy
    (let f = Framer.create ~elem_size:4 ~tpdu_elems:6 ~conn_id:5 () in
     let first =
       Util.ok_or_fail (Framer.push_frame f (Util.deterministic_bytes 44))
     in
     let last =
       Util.ok_or_fail
         (Framer.push_frame ~last:true f (Util.deterministic_bytes 52))
     in
     let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus (first @ last)) in
     let bad_eds =
       List.filter_map
         (fun c ->
           if Chunk.is_control c then begin
             let p = Bytes.copy c.Chunk.payload in
             Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 0x10));
             Some (Chunk.make_exn c.Chunk.header p)
           end
           else None)
         sealed
     in
     Array.of_list (sealed @ bad_eds))

type memo_op = Feed of int * int | Abort of int | Abandon of int

let gen_memo_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         (8, map2 (fun i k -> Feed (i, k)) (int_range 0 1000) (int_range 0 3));
         (1, map (fun t -> Abort t) (int_range 0 4));
         (1, map (fun t -> Abandon t) (int_range 0 4));
       ])

(* What one op does to a verifier: [Feed (i, k)] feeds pool chunk [i]
   whole, or only its first [k] elements when it has more. *)
let apply_memo_op v = function
  | Feed (i, k) -> (
      let pool = Lazy.force memo_pool in
      let c = pool.(i mod Array.length pool) in
      let c =
        if Chunk.is_data c && k > 0 && k < c.Chunk.header.Header.len then
          fst (Fragment.split_exn c ~elems:k)
        else c
      in
      `Events (Edc.Verifier.on_chunk v c))
  | Abort t_id -> `Verdict (Edc.Verifier.abort v ~t_id)
  | Abandon t_id -> `Verdict (Edc.Verifier.abandon v ~t_id)

(* Two verifiers run the same ops and, between ops, answer the queries
   the receiver makes between chunks about every T.ID 0–4: the live one
   in descending order, its twin in ascending order, so whenever two
   TPDUs are held their lookup memos point at different ones.  The
   outcomes, the held T.IDs and the answers must agree. *)
let prop_verifier_memo_coherent ops =
  let live = Edc.Verifier.create ~now:(fun () -> 0.0) () in
  let twin = Edc.Verifier.create ~now:(fun () -> 0.0) () in
  let answers v t_ids =
    List.map
      (fun t_id ->
        ( t_id,
          Edc.Verifier.footprint_bytes v ~t_id,
          Edc.Verifier.missing v ~t_id,
          Edc.Verifier.ed_seen v ~t_id ))
      t_ids
    |> List.sort compare
  in
  List.for_all
    (fun op ->
      let a = apply_memo_op live op and b = apply_memo_op twin op in
      a = b
      && Edc.Verifier.in_flight_ids live = Edc.Verifier.in_flight_ids twin
      && answers live [ 4; 3; 2; 1; 0 ] = answers twin [ 0; 1; 2; 3; 4 ])
    ops

(* One TPDU carrying 64 external PDUs: 64 X boundaries with distinct
   X.IDs outgrow the inline form of the verifier's label tables.  It
   must verify, and a corrupted X.ID on a non-boundary chunk — invisible
   to the parity, which only pairs boundary chunks — must still fail
   it. *)
let test_verifier_many_x_boundaries () =
  let f = Framer.create ~elem_size:4 ~tpdu_elems:128 ~conn_id:2 () in
  let frames =
    List.concat_map
      (fun i ->
        Util.ok_or_fail
          (Framer.push_frame ~last:(i = 63) f (Util.deterministic_bytes 8)))
      (List.init 64 Fun.id)
  in
  Alcotest.(check int) "one chunk per external PDU" 64 (List.length frames);
  let ed = Util.ok_or_fail (Edc.Encoder.seal frames) in
  let x_ids =
    List.sort_uniq Int.compare
      (List.map (fun c -> c.Chunk.header.Header.x.Ftuple.id) frames)
  in
  Alcotest.(check int) "distinct X.IDs" 64 (List.length x_ids);
  let shuffled = Util.shuffle ~seed:7 (ed :: frames) in
  (match feed (Edc.Verifier.create ()) shuffled with
  | [ (0, Edc.Verifier.Passed) ] -> ()
  | _ -> Alcotest.fail "64 X boundaries must verify");
  (* split every frame in two; the first halves are non-boundary chunks *)
  let halves =
    List.concat_map
      (fun c ->
        let a, b = Fragment.split_exn c ~elems:1 in
        [ a; b ])
      frames
  in
  let corrupted =
    List.mapi
      (fun i c ->
        if i = 40 then begin
          let h = c.Chunk.header in
          assert (not h.Header.x.Ftuple.st);
          Chunk.make_exn
            { h with Header.x = { h.Header.x with Ftuple.id = 1000 } }
            c.Chunk.payload
        end
        else c)
      halves
  in
  match feed (Edc.Verifier.create ()) (corrupted @ [ ed ]) with
  | [ (0, Edc.Verifier.Consistency_failure "X framing not contiguous") ] -> ()
  | [ (0, v) ] ->
      Alcotest.failf "expected an X-framing failure, got %s"
        (Format.asprintf "%a" Edc.Verifier.pp_verdict v)
  | _ -> Alcotest.fail "expected one verdict"

(* The verifier's data parity: over random fragmentations, arrival
   orders and duplicates, each passed TPDU's data parity is a direct
   WSC-2 of its data at its data positions — the label symbols left
   out. *)
let gen_data_parity_case =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* tpdu_elems = int_range 1 64 in
    let* frame_elems = int_range 1 40 in
    let* first_csn = int_range 0 1_000 in
    let* dup_every = int_range 1 5 in
    return (seed, tpdu_elems, frame_elems, first_csn, dup_every))

let prop_data_parity (seed, tpdu_elems, frame_elems, first_csn, dup_every) =
  let es = 4 in
  let total = 2 * tpdu_elems * es in
  let data = Bytes.init total (fun i -> Char.chr ((seed + (i * 131)) land 0xFF)) in
  let f = Framer.create ~elem_size:es ~tpdu_elems ~first_csn ~conn_id:5 () in
  let rec push off acc =
    if off >= total then acc
    else
      let n = Int.min (frame_elems * es) (total - off) in
      let cs =
        Util.ok_or_fail
          (Framer.push_frame ~last:(off + n = total) f (Bytes.sub data off n))
      in
      push (off + n) (acc @ cs)
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus (push 0 [])) in
  let frag = Util.fragment_randomly ~seed sealed in
  let dups = List.filteri (fun i _ -> i mod dup_every = 0) frag in
  let arrived = Util.shuffle ~seed:(seed + 1) (frag @ dups) in
  let v = Edc.Verifier.create () in
  (* TPDU [t_id] holds elements [t_id * tpdu_elems, ...) of the data *)
  let passed = ref [] in
  List.iter
    (fun c ->
      List.iter
        (function
          | Edc.Verifier.Tpdu_verified { t_id; verdict = Edc.Verifier.Passed }
            when not (List.mem_assoc t_id !passed) ->
              let off = t_id * tpdu_elems in
              let d =
                Edc.Verifier.take_data_parity v ~t_id
                  ~first_c_sn:(first_csn + off) ~elems:tpdu_elems
              in
              let want =
                Wsc2.encode_bytes ~pos:0 (Bytes.sub data (off * es) (tpdu_elems * es))
              in
              passed :=
                (t_id, Option.fold ~none:false ~some:(Wsc2.parity_equal want) d)
                :: !passed
          | _ -> ())
        (Edc.Verifier.on_chunk v c))
    arrived;
  List.sort compare !passed = [ (0, true); (1, true) ]

let test_data_parity_own_span () =
  let chunks = tpdu_fixture () in
  let ed = Util.ok_or_fail (Edc.Encoder.seal chunks) in
  let passes v cs =
    match feed v cs with
    | [ (0, Edc.Verifier.Passed) ] -> ()
    | _ -> Alcotest.fail "expected one pass"
  in
  let take v ~elems = Edc.Verifier.take_data_parity v ~t_id:0 ~first_c_sn:0 ~elems in
  (* the span must be the TPDU's own, and the parity is taken once *)
  let a = Edc.Verifier.create () in
  passes a (ed :: chunks);
  Alcotest.(check bool) "longer span refused" true (take a ~elems:25 = None);
  Alcotest.(check bool) "and forgotten" true (take a ~elems:24 = None);
  let b = Edc.Verifier.create () in
  passes b (ed :: chunks);
  Alcotest.(check bool) "own span vouched" true (take b ~elems:24 <> None);
  Alcotest.(check bool) "once" true (take b ~elems:24 = None)

let suite =
  [
    Alcotest.test_case "invariant positions" `Quick test_positions;
    Alcotest.test_case "invariant size checks" `Quick test_size_checks;
    Alcotest.test_case "invariant data positions" `Quick test_data_positions;
    Alcotest.test_case "parity invariant under fragmentation (Fig 5)" `Quick
      test_parity_invariant_under_fragmentation;
    Alcotest.test_case "parity after gateway reassembly" `Quick
      test_parity_after_gateway_reassembly;
    Alcotest.test_case "seal validation" `Quick test_seal_validation;
    Alcotest.test_case "seal_tpdus interleaving" `Quick
      test_seal_tpdus_interleaves;
    Alcotest.test_case "verifier passes any disorder" `Quick
      test_verifier_passes_disorder;
    Alcotest.test_case "verifier ignores duplicates" `Quick
      test_verifier_duplicates;
    Alcotest.test_case "refragmented retransmission" `Quick
      test_verifier_refragmented_retransmission;
    Alcotest.test_case "payload corruption -> parity" `Quick
      test_verifier_payload_corruption;
    Alcotest.test_case "C.SN corruption -> consistency" `Quick
      test_verifier_csn_corruption;
    Alcotest.test_case "missing ED -> abort" `Quick
      test_verifier_missing_ed_abort;
    Alcotest.test_case "early failure then recovery" `Quick
      test_verifier_early_failure_then_recovery;
    Alcotest.test_case "T.ST corruption -> reassembly error" `Quick
      test_verifier_tst_corruption;
    Alcotest.test_case "huge T.SN fails without overflow" `Quick
      test_arrival_sn_overflow;
    Alcotest.test_case "ED C.SN mismatch -> consistency" `Quick
      test_ed_csn_mismatch;
    Alcotest.test_case "64 X boundaries verify; bad X.ID still fails" `Quick
      test_verifier_many_x_boundaries;
    Util.qtest ~count:300 "verifier memo agrees with a cold-memo twin"
      gen_memo_ops prop_verifier_memo_coherent;
    Util.qtest ~count:300 "passed TPDU's data parity is its data's WSC-2"
      gen_data_parity_case prop_data_parity;
    Alcotest.test_case "data parity: own span only, once, then forgotten"
      `Quick test_data_parity_own_span;
    Util.qtest ~count:40 "parity invariance (property)"
      QCheck2.Gen.(tup2 (int_range 0 10000) (int_range 0 10000))
      (fun (s1, s2) ->
        let chunks = tpdu_fixture () in
        let p0 = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu chunks) in
        let frag = Util.fragment_randomly ~seed:s1 chunks in
        let shuffled = Util.shuffle ~seed:s2 frag in
        let p = Util.ok_or_fail (Edc.Encoder.parity_of_tpdu shuffled) in
        Wsc2.parity_equal p0 p);
  ]
