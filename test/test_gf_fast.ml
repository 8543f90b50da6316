(* Differential tests: every fast path in Gf232/Wsc2 must be
   bit-identical to the bit-serial reference implementation (Gf232.Ref),
   on random operands and on awkward byte slices (unaligned offsets,
   lengths that leave a partial word, a short step and several 64-byte
   kernel steps). *)

let gen_elt = QCheck2.Gen.map (fun i -> i land 0xFFFF_FFFF) QCheck2.Gen.int

let gen_nonzero =
  QCheck2.Gen.map (fun i -> 1 + (i land 0xFFFF_FFFE)) QCheck2.Gen.int

(* Reference parity of [len] bytes of [b] at [off], symbols anchored at
   [pos]: per-symbol weights, Ref arithmetic only (each weight is the
   previous one times alpha). *)
let ref_parity ~pos b off len =
  let nsym = Wsc2.symbols_of_bytes len in
  let p0 = ref 0 and p1 = ref 0 in
  let weight = ref (Gf232.Ref.alpha_pow pos) in
  for i = 0 to nsym - 1 do
    let sym = ref 0 in
    for k = 0 to 3 do
      let j = off + (4 * i) + k in
      let c = if j < off + len then Char.code (Bytes.get b j) else 0 in
      sym := (!sym lsl 8) lor c
    done;
    p0 := !p0 lxor !sym;
    p1 := !p1 lxor Gf232.Ref.mul !weight !sym;
    weight := Gf232.Ref.mul !weight Gf232.alpha
  done;
  (!p0, !p1)

let gen_slice =
  (* a buffer, a slice length up to 4 KiB (many 64-byte kernel steps
     plus the short step and the partial-word tail; half the lengths
     drawn from 0..80 alone) and a position on either side of the 2^16
     weight-cache edge; each property checks the slice at every skew
     0..7 from the buffer start *)
  let open QCheck2.Gen in
  let* total = int_range 0 4096 in
  let* seed = int_range 0 0xFFFF in
  let* pos =
    oneof [ int_range 0 5000; int_range (65536 - 1100) (65536 + 1100) ]
  in
  let b =
    Bytes.init (total + 7) (fun i ->
        Char.chr ((seed + (i * 73) + ((i * i) lsr 3)) land 0xFF))
  in
  let* len = oneof [ int_range 0 total; int_range 0 (min total 80) ] in
  return (b, len, pos)

let every_skew f = List.for_all f [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_mul_matches_ref =
  Util.qtest ~count:500 "mul = Ref.mul"
    QCheck2.Gen.(tup2 gen_elt gen_elt)
    (fun (a, b) -> Gf232.mul a b = Gf232.Ref.mul a b)

(* The dense and sparse operands random draws rarely reach: every pair
   of single-bit elements, and all-ones and alternating patterns, whose
   partial products fill the multiply's columns to the brim. *)
let test_mul_edges =
  Alcotest.test_case "mul = Ref.mul on single-bit and dense operands" `Quick
    (fun () ->
      let bits = List.init 32 (fun i -> 1 lsl i) in
      let dense =
        [ 0; 1; 0xFFFF_FFFF; 0xAAAA_AAAA; 0x5555_5555; 0x8888_8888;
          0x1111_1111; 0xFFFF_0000; 0x0000_FFFF; 0x8000_0001 ]
      in
      let ops = bits @ dense in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Gf232.mul a b <> Gf232.Ref.mul a b then
                Alcotest.failf "mul 0x%08x 0x%08x" a b)
            ops)
        ops)

(* The multiply keeps no table or scratch: a chain of them allocates
   nothing on the minor heap. *)
let test_mul_allocates_nothing =
  Alcotest.test_case "mul allocates no minor word" `Quick (fun () ->
      let acc = ref 0x1234_5678 in
      let w0 = Gc.minor_words () in
      for i = 1 to 1000 do
        acc := Gf232.mul !acc (i lor 0x0101_0000)
      done;
      let w1 = Gc.minor_words () in
      ignore (Sys.opaque_identity !acc);
      Alcotest.(check (float 0.)) "minor words over 1000 multiplies" 0.
        (w1 -. w0))

let test_alpha_pow_matches_ref =
  (* straddle the weight-cache boundary (2^16) on purpose *)
  Util.qtest ~count:300 "alpha_pow = Ref.alpha_pow (across the cache edge)"
    (QCheck2.Gen.int_range 0 200_000)
    (fun i -> Gf232.alpha_pow i = Gf232.Ref.alpha_pow i)

let test_add_bytes_matches_ref =
  Util.qtest ~count:500 "add_bytes = per-symbol Ref accumulation"
    gen_slice
    (fun (b, len, pos) ->
      every_skew (fun skew ->
          let acc = Wsc2.create () in
          Wsc2.add_bytes acc ~pos b skew len;
          let p = Wsc2.snapshot acc in
          let p0, p1 = ref_parity ~pos b skew len in
          p.Wsc2.p0 = p0 && p.Wsc2.p1 = p1))

(* Known answer: the parity of a fixed 2 KiB buffer, as the previous
   (slicing-by-8) kernel computed it, pinned so that a kernel and the
   reference cannot drift together. *)
let test_known_parity =
  Alcotest.test_case "2 KiB known-answer parity" `Quick (fun () ->
      let b =
        Bytes.init 2048 (fun i ->
            Char.chr (((i * 2654435761) lsr 13) land 0xFF))
      in
      let hex p = Printf.sprintf "%08x%08x" p.Wsc2.p0 p.Wsc2.p1 in
      Alcotest.(check string) "pos 0" "02df237477eb51a8"
        (hex (Wsc2.encode_bytes ~pos:0 b));
      Alcotest.(check string) "pos 16384" "02df23745cfcedb7"
        (hex (Wsc2.encode_bytes ~pos:16384 b)))

let test_add_subbytes_exn_matches =
  Util.qtest ~count:300 "add_subbytes_exn = add_bytes" gen_slice
    (fun (b, len, pos) ->
      every_skew (fun skew ->
          let checked = Wsc2.create () and unchecked = Wsc2.create () in
          Wsc2.add_bytes checked ~pos b skew len;
          Wsc2.add_subbytes_exn unchecked ~pos b skew len;
          Wsc2.parity_equal (Wsc2.snapshot checked)
            (Wsc2.snapshot unchecked)))

let test_parity_blit =
  Util.qtest ~count:100 "parity_blit = parity_to_bytes at any offset"
    QCheck2.Gen.(tup3 gen_elt gen_elt (int_range 0 16))
    (fun (a, b, off) ->
      let p = { Wsc2.p0 = a; p1 = b } in
      let img = Wsc2.parity_to_bytes p in
      let buf = Bytes.make (off + 8) '\xAA' in
      Wsc2.parity_blit p buf off;
      Bytes.equal img (Bytes.sub buf off 8)
      && Wsc2.parity_equal p (Wsc2.parity_of_bytes buf off))

(* The field axioms, re-run against the fast path (the seed suite ran
   them against the bit-serial multiply). *)
let axiom_suite =
  [
    Util.qtest "fast mul commutative"
      QCheck2.Gen.(tup2 gen_elt gen_elt)
      (fun (a, b) -> Gf232.mul a b = Gf232.mul b a);
    Util.qtest "fast mul associative"
      QCheck2.Gen.(tup3 gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        Gf232.mul a (Gf232.mul b c) = Gf232.mul (Gf232.mul a b) c);
    Util.qtest "fast mul distributes over add"
      QCheck2.Gen.(tup3 gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        Gf232.mul a (Gf232.add b c)
        = Gf232.add (Gf232.mul a b) (Gf232.mul a c));
    Util.qtest "fast mul stays in field"
      QCheck2.Gen.(tup2 gen_elt gen_elt)
      (fun (a, b) -> Gf232.is_valid (Gf232.mul a b));
    Util.qtest ~count:50 "fast inverse law" gen_nonzero (fun a ->
        Gf232.mul a (Gf232.inv a) = Gf232.one);
    Util.qtest ~count:100 "cached alpha_pow additive law"
      QCheck2.Gen.(tup2 (int_range 0 100_000) (int_range 0 100_000))
      (fun (i, j) ->
        Gf232.mul (Gf232.alpha_pow i) (Gf232.alpha_pow j)
        = Gf232.alpha_pow (i + j));
  ]

let suite =
  [
    test_mul_matches_ref;
    test_alpha_pow_matches_ref;
    test_add_bytes_matches_ref;
    test_known_parity;
    test_add_subbytes_exn_matches;
    test_parity_blit;
  ]
  @ axiom_suite
  (* Appended after the older cases so those keep their indices. *)
  @ [ test_mul_edges; test_mul_allocates_nothing ]
