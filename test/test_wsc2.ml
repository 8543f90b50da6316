(* WSC-2: the property the whole paper leans on — parity is independent
   of the order in which symbols are absorbed. *)

let gen_symbols =
  (* a list of (distinct position, symbol) pairs *)
  let open QCheck2.Gen in
  let* n = int_range 1 60 in
  let* base = int_range 0 1000 in
  let* stride = int_range 1 50 in
  let* seed = int_range 0 0xFFFF in
  return
    (List.init n (fun i ->
         (base + (i * stride), (seed + (i * 2654435761)) land 0xFFFF_FFFF)))

let parity_of pairs =
  let acc = Wsc2.create () in
  List.iter (fun (pos, sym) -> Wsc2.add_symbol acc ~pos sym) pairs;
  Wsc2.snapshot acc

let test_empty () =
  let acc = Wsc2.create () in
  Alcotest.(check bool)
    "empty parity is zero" true
    (Wsc2.parity_equal (Wsc2.snapshot acc) Wsc2.parity_zero)

let test_zero_symbols_free () =
  (* unused positions are equivalent to encoding zero there (paper §4) *)
  let a = parity_of [ (5, 123); (9, 456) ] in
  let b = parity_of [ (5, 123); (7, 0); (9, 456); (100, 0) ] in
  Alcotest.(check bool) "zeros at unused positions" true (Wsc2.parity_equal a b)

let test_parity_bytes_roundtrip () =
  let p = parity_of [ (0, 0xDEADBEEF); (77, 0x0BADF00D) ] in
  let b = Wsc2.parity_to_bytes p in
  Alcotest.(check int) "8 bytes" 8 (Bytes.length b);
  let p' = Wsc2.parity_of_bytes b 0 in
  Alcotest.(check bool) "roundtrip" true (Wsc2.parity_equal p p')

let test_add_bytes_matches_symbols () =
  let data = Util.deterministic_bytes 40 in
  let acc1 = Wsc2.create () in
  Wsc2.add_bytes acc1 ~pos:3 data 0 40;
  let acc2 = Wsc2.create () in
  for i = 0 to 9 do
    let sym =
      Gf232.of_int32_bits (Bytes.get_int32_be data (4 * i))
    in
    Wsc2.add_symbol acc2 ~pos:(3 + i) sym
  done;
  Alcotest.(check bool)
    "word-wise equals bulk" true
    (Wsc2.parity_equal (Wsc2.snapshot acc1) (Wsc2.snapshot acc2))

let test_partial_word_padding () =
  (* a 5-byte buffer behaves as one full word + one right-zero-padded *)
  let data = Bytes.of_string "\x01\x02\x03\x04\x05" in
  let acc = Wsc2.create () in
  Wsc2.add_bytes acc ~pos:0 data 0 5;
  let expect = Wsc2.create () in
  Wsc2.add_symbol expect ~pos:0 0x01020304;
  Wsc2.add_symbol expect ~pos:1 0x05000000;
  Alcotest.(check bool)
    "trailing pad" true
    (Wsc2.parity_equal (Wsc2.snapshot acc) (Wsc2.snapshot expect))

let test_position_range () =
  let acc = Wsc2.create () in
  Alcotest.check_raises "negative position"
    (Invalid_argument "Wsc2: position out of range") (fun () ->
      Wsc2.add_symbol acc ~pos:(-1) 5);
  Alcotest.check_raises "too large"
    (Invalid_argument "Wsc2: position out of range") (fun () ->
      Wsc2.add_symbol acc ~pos:(Wsc2.max_position + 1) 5);
  (* boundary position is fine *)
  Wsc2.add_symbol acc ~pos:Wsc2.max_position 5

let test_single_symbol_error_detected () =
  (* flipping one symbol always changes the parity *)
  let pairs = List.init 20 (fun i -> (i, (i * 7919) land 0xFFFF_FFFF)) in
  let p = parity_of pairs in
  List.iteri
    (fun k _ ->
      let pairs' =
        List.mapi (fun i (pos, s) -> if i = k then (pos, s lxor 1) else (pos, s)) pairs
      in
      Alcotest.(check bool)
        (Printf.sprintf "flip symbol %d detected" k)
        false
        (Wsc2.parity_equal p (parity_of pairs')))
    pairs

let test_double_symbol_error_detected () =
  (* any two-symbol corruption is caught: P0 catches unequal flips, P1
     catches equal flips at distinct positions (distinct weights) *)
  let pairs = List.init 10 (fun i -> (i, (i * 104729) land 0xFFFF_FFFF)) in
  let p = parity_of pairs in
  for i = 0 to 9 do
    for j = i + 1 to 9 do
      let pairs' =
        List.mapi
          (fun k (pos, s) ->
            if k = i || k = j then (pos, s lxor 0xFF) else (pos, s))
          pairs
      in
      Alcotest.(check bool)
        (Printf.sprintf "double flip (%d,%d) detected" i j)
        false
        (Wsc2.parity_equal p (parity_of pairs'))
    done
  done

let test_swap_detected () =
  (* swapping the data at two positions is caught by P1 even though P0
     is blind to it — the advantage over the Internet checksum *)
  let pairs = [ (0, 0xAAAA); (1, 0xBBBB); (2, 0xCCCC) ] in
  let swapped = [ (0, 0xBBBB); (1, 0xAAAA); (2, 0xCCCC) ] in
  let p = parity_of pairs and q = parity_of swapped in
  Alcotest.(check bool) "P0 equal" true (Gf232.equal p.Wsc2.p0 q.Wsc2.p0);
  Alcotest.(check bool) "P1 differs" false (Gf232.equal p.Wsc2.p1 q.Wsc2.p1)

let suite =
  [
    Alcotest.test_case "empty accumulator" `Quick test_empty;
    Alcotest.test_case "unused positions are zeros" `Quick
      test_zero_symbols_free;
    Alcotest.test_case "parity byte roundtrip" `Quick
      test_parity_bytes_roundtrip;
    Alcotest.test_case "add_bytes = add_symbol loop" `Quick
      test_add_bytes_matches_symbols;
    Alcotest.test_case "partial word zero padding" `Quick
      test_partial_word_padding;
    Alcotest.test_case "position range checks" `Quick test_position_range;
    Alcotest.test_case "single-symbol errors detected" `Quick
      test_single_symbol_error_detected;
    Alcotest.test_case "double-symbol errors detected" `Slow
      test_double_symbol_error_detected;
    Alcotest.test_case "reordering detected (vs Internet ck)" `Quick
      test_swap_detected;
    Util.qtest "order independence" gen_symbols (fun pairs ->
        let p = parity_of pairs in
        let q = parity_of (List.rev pairs) in
        let r = parity_of (Util.shuffle ~seed:7 pairs) in
        Wsc2.parity_equal p q && Wsc2.parity_equal p r);
    Util.qtest "combine over a split" gen_symbols (fun pairs ->
        let p = parity_of pairs in
        let k = List.length pairs / 2 in
        let left = List.filteri (fun i _ -> i < k) pairs in
        let right = List.filteri (fun i _ -> i >= k) pairs in
        let a = Wsc2.create () and b = Wsc2.create () in
        List.iter (fun (pos, s) -> Wsc2.add_symbol a ~pos s) left;
        List.iter (fun (pos, s) -> Wsc2.add_symbol b ~pos s) right;
        Wsc2.combine a b;
        Wsc2.parity_equal p (Wsc2.snapshot a));
    Util.qtest "duplicate absorption cancels" gen_symbols (fun pairs ->
        (* absorbing everything twice yields the zero parity — why the
           verifier must suppress duplicates *)
        let acc = Wsc2.create () in
        List.iter (fun (pos, s) -> Wsc2.add_symbol acc ~pos s) pairs;
        List.iter (fun (pos, s) -> Wsc2.add_symbol acc ~pos s) pairs;
        Wsc2.parity_equal (Wsc2.snapshot acc) Wsc2.parity_zero);
    Util.qtest "encode_bytes consistent with verify"
      (QCheck2.Gen.int_range 1 200)
      (fun n ->
        let data = Util.deterministic_bytes n in
        let p = Wsc2.encode_bytes ~pos:0 data in
        let acc = Wsc2.create () in
        Wsc2.add_bytes acc ~pos:0 data 0 n;
        Wsc2.verify ~expected:p acc);
    Util.qtest "add_pair and add_triple = add_symbol at consecutive positions"
      QCheck2.Gen.(
        quad
          (int_range 0 (Wsc2.max_position - 2))
          (map (fun x -> x land 0xFFFF_FFFF) int)
          (map (fun x -> x land 0xFFFF_FFFF) int)
          (map (fun x -> x land 0xFFFF_FFFF) int))
      (fun (pos, a, b, c) ->
        let one = Wsc2.create () and grouped = Wsc2.create () in
        Wsc2.add_symbol one ~pos:(pos + 2) c;
        Wsc2.add_symbol one ~pos a;
        Wsc2.add_symbol one ~pos:(pos + 1) b;
        Wsc2.add_triple grouped ~pos a b c;
        let same x y = Wsc2.parity_equal (Wsc2.snapshot x) (Wsc2.snapshot y) in
        let triple_ok = same one grouped in
        let one = Wsc2.create () and grouped = Wsc2.create () in
        Wsc2.add_symbol one ~pos:(pos + 1) b;
        Wsc2.add_symbol one ~pos a;
        Wsc2.add_pair grouped ~pos a b;
        triple_ok && same one grouped);
  ]
