(* Short-input sweeps over the receive-side decoders: each is fed every
   input of at most two bytes, then every truncation and every one-byte
   extension of a valid image.  No call may raise; a malformed input is
   an [Error] (or a value), never an exception. *)

open Labelling

let get = function Ok x -> x | Error e -> failwith e

(* Every input of at most two bytes, then each proper prefix of
   [valid] and [valid] with each byte value appended. *)
let short_inputs ~valid =
  let n = Bytes.length valid in
  List.concat
    [
      [ Bytes.empty ];
      List.init 256 (fun a -> Bytes.make 1 (Char.chr a));
      List.init 65536 (fun ab ->
          Bytes.init 2 (fun i -> Char.chr ((ab lsr (8 * i)) land 0xFF)));
      List.init n (fun k -> Bytes.sub valid 0 k);
      List.init 256 (fun a -> Bytes.cat valid (Bytes.make 1 (Char.chr a)));
    ]

let hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq b)))

(* Fails with the first input on which [decode] raises. *)
let sweep ~valid decode () =
  List.iter
    (fun b ->
      match decode b with
      | _ -> ()
      | exception e ->
          Alcotest.failf "raised %s on %s" (Printexc.to_string e) (hex b))
    (short_inputs ~valid)

(* Two TPDUs of a small framed stream, as every encoder below sees it. *)
let chunks =
  let fr = Framer.create ~elem_size:4 ~tpdu_elems:6 ~conn_id:3 () in
  let frame n seed =
    Bytes.init (4 * n) (fun i -> Char.chr ((seed + (i * 29)) land 0xFF))
  in
  let first = get (Framer.push_frame fr (frame 4 1)) in
  let last = get (Framer.push_frame ~last:true fr (frame 5 2)) in
  get (Edc.Encoder.seal_tpdus (first @ last))

let size_table ct = if Ctype.is_data ct then Some 4 else None

let compress options =
  let valid =
    Compress.Tx.encode_all (Compress.Tx.create ~options ~size_table ()) chunks
  in
  sweep ~valid (fun b ->
      Compress.Rx.decode_all (Compress.Rx.create ~options ~size_table ()) b)

let code = Huffman.build (Array.init 256 (fun i -> 1 + (i mod 7)))

let huffman_decode_bytes () =
  let data = Bytes.of_string "chunks, labelled" in
  let valid = Huffman.encode_bytes code data in
  sweep ~valid
    (fun b ->
      List.iter
        (fun count -> ignore (Huffman.decode_bytes code ~count b))
        [ -1; 0; 1; Bytes.length data; (2 * Bytes.length b) + 5; max_int ])
    ()

(* Regression: a negative count reached [Bytes.create] and raised, and a
   count no input could satisfy (as a forged chunk count in
   [decompress_packet] asks for) allocated its whole output first. *)
let huffman_impossible_counts () =
  let src = Huffman.encode_bytes code (Bytes.of_string "ab") in
  let refused count =
    match Huffman.decode_bytes code ~count src with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "negative count refused" true (refused (-1));
  let w0 = Gc.minor_words () in
  Alcotest.(check bool) "count beyond the bits refused" true
    (refused (65535 * Wire.header_size));
  Alcotest.(check bool) "nothing allocated for it" true
    (Gc.minor_words () -. w0 < 1000.0)

(* The payload of a signal chunk, as the wire delivers one: a control
   chunk has at least one payload byte (LEN 0 is the terminator). *)
let parse_signal sg () =
  let valid = (Connection.signal_chunk ~conn_id:3 sg).Chunk.payload in
  sweep ~valid
    (fun b ->
      match
        Chunk.control ~kind:Ctype.signal ~c:(Ftuple.v ~id:3 ~sn:0 ())
          ~t:Ftuple.zero ~x:Ftuple.zero b
      with
      | Ok c -> ignore (Connection.parse_signal c)
      | Error _ -> ())
    ()

let suite =
  [
    Alcotest.test_case "Compress.Rx, canonical format" `Quick
      (compress Compress.all_off);
    Alcotest.test_case "Compress.Rx, every transformation on" `Quick
      (compress Compress.all_on);
    Alcotest.test_case "Huffman.decompress_packet" `Quick
      (sweep ~valid:(get (Huffman.compress_packet chunks))
         Huffman.decompress_packet);
    Alcotest.test_case "Huffman.deserialize" `Quick
      (sweep ~valid:(Huffman.serialize code) (fun b ->
           Huffman.deserialize b 0));
    Alcotest.test_case "Huffman.decode_bytes" `Quick huffman_decode_bytes;
    Alcotest.test_case "Huffman.decode_bytes refuses impossible counts"
      `Quick huffman_impossible_counts;
    Alcotest.test_case "Packed.decode_packet" `Quick
      (sweep ~valid:(get (Packed.encode_packet chunks)) Packed.decode_packet);
    Alcotest.test_case "Connection.parse_signal, Open" `Quick
      (parse_signal (Connection.Open { first_csn = 7 }));
    Alcotest.test_case "Connection.parse_signal, Shed_tpdu" `Quick
      (parse_signal
         (Connection.Shed_tpdu { t_id = 2; first_elem = 6; elems = 3 }));
  ]
