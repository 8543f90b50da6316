(* Binary wire format: roundtrips, terminators, and malformed input. *)

open Labelling

let test_header_size () =
  Alcotest.(check int) "fixed header size" 46 Wire.header_size

let roundtrip chunk =
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  match Wire.decode_chunk b 0 with
  | Error e -> Alcotest.fail e
  | Ok (c, off) ->
      Alcotest.(check int) "consumed everything" (Bytes.length b) off;
      Alcotest.check Util.chunk_testable "roundtrip" chunk c

let test_roundtrip_simple () =
  let chunk =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~st:true ~id:0xFFFF_FFFF ~sn:123456789 ())
         ~t:(Ftuple.v ~id:0 ~sn:0 ())
         ~x:(Ftuple.v ~st:true ~id:77 ~sn:1 ())
         (Util.deterministic_bytes 16))
  in
  roundtrip chunk

let test_roundtrip_control () =
  let c = Ftuple.v ~id:5 ~sn:9 () in
  roundtrip
    (Util.ok_or_fail (Chunk.control ~kind:Ctype.ed ~c ~t:c ~x:c (Bytes.create 8)))

let test_truncated () =
  (match Wire.decode_chunk (Bytes.create 10) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated header must fail");
  let buf = Buffer.create 64 in
  let chunk =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:1 ~sn:0 ())
         ~x:(Ftuple.v ~id:1 ~sn:0 ())
         (Bytes.create 8))
  in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  match Wire.decode_chunk (Bytes.sub b 0 (Bytes.length b - 2)) 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload must fail"

let test_packet_with_terminator () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let b = Util.ok_or_fail (Wire.encode_packet ~capacity:200 [ chunk ]) in
  Alcotest.(check int) "padded to capacity" 200 (Bytes.length b);
  let chunks = Util.ok_or_fail (Wire.decode_packet b) in
  Alcotest.(check int) "one chunk back" 1 (List.length chunks);
  Alcotest.check Util.chunk_testable "same chunk" chunk (List.hd chunks)

let test_packet_small_slack () =
  (* slack smaller than a header: zero-fill, decoder treats as padding *)
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let used = Wire.chunk_size chunk in
  let b = Util.ok_or_fail (Wire.encode_packet ~capacity:(used + 10) [ chunk ]) in
  let chunks = Util.ok_or_fail (Wire.decode_packet b) in
  Alcotest.(check int) "one chunk" 1 (List.length chunks)

let test_packet_overflow () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 100))
  in
  match Wire.encode_packet ~capacity:100 [ chunk ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overflow must be rejected"

let test_trailing_garbage () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  Buffer.add_string buf "\x01\x02\x03";
  match Wire.decode_packet (Buffer.to_bytes buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-zero residue must be rejected"

let test_invalid_st_byte () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let chunk =
    Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))
  in
  let buf = Buffer.create 64 in
  Wire.encode_chunk buf chunk;
  let b = Buffer.to_bytes buf in
  Bytes.set b 19 '\x07';
  match Wire.decode_chunk b 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ST byte 7 must be rejected"

let suite =
  [
    Alcotest.test_case "header size" `Quick test_header_size;
    Alcotest.test_case "roundtrip data chunk" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip control chunk" `Quick test_roundtrip_control;
    Alcotest.test_case "truncated input" `Quick test_truncated;
    Alcotest.test_case "packet with terminator + padding" `Quick
      test_packet_with_terminator;
    Alcotest.test_case "packet with sub-header slack" `Quick
      test_packet_small_slack;
    Alcotest.test_case "packet overflow" `Quick test_packet_overflow;
    Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage;
    Alcotest.test_case "invalid ST byte rejected" `Quick test_invalid_st_byte;
    Util.qtest "chunk wire roundtrip" Util.gen_data_chunk (fun chunk ->
        let buf = Buffer.create 64 in
        Wire.encode_chunk buf chunk;
        match Wire.decode_chunk (Buffer.to_bytes buf) 0 with
        | Ok (c, _) -> Chunk.equal c chunk
        | Error _ -> false);
    Util.qtest ~count:60 "multi-chunk packet roundtrip"
      QCheck2.Gen.(list_size (int_range 1 6) Util.gen_data_chunk)
      (fun chunks ->
        let total = Wire.chunks_size chunks in
        let b =
          Util.ok_or_fail (Wire.encode_packet ~capacity:(total + 100) chunks)
        in
        match Wire.decode_packet b with
        | Ok cs -> List.for_all2 Chunk.equal chunks cs
        | Error _ -> false);
    Util.qtest "chunk_size consistent with encoding" Util.gen_data_chunk
      (fun chunk ->
        let buf = Buffer.create 64 in
        Wire.encode_chunk buf chunk;
        Buffer.length buf = Wire.chunk_size chunk);
  ]

let test_header_codec () =
  let h =
    Util.ok_or_fail
      (Header.v ~ctype:Ctype.ed ~size:1 ~len:12
         ~c:(Ftuple.v ~id:9 ~sn:77 ())
         ~t:(Ftuple.v ~st:true ~id:3 ~sn:0 ())
         ~x:Ftuple.zero)
  in
  let buf = Buffer.create 64 in
  Wire.encode_header buf h;
  Alcotest.(check int) "exactly header_size" Wire.header_size
    (Buffer.length buf);
  match Wire.decode_header (Buffer.to_bytes buf) 0 with
  | Ok h' -> Alcotest.(check bool) "roundtrip" true (Header.equal h h')
  | Error e -> Alcotest.fail e

let suite =
  suite
  @ [ Alcotest.test_case "header-only codec" `Quick test_header_codec ]

(* The exact wire image of one packet, byte for byte.  The roundtrip
   properties above only check that decoding inverts encoding; this pins
   the layout itself, so a change to the encoder cannot move a byte
   without failing here.  The data chunk carries boundary labels (every
   ID 0xFFFF_FFFF, every SN at or above 2^32, every ST bit set). *)
let wire_image_chunks () =
  let data =
    Util.ok_or_fail
      (Chunk.data ~size:2
         ~c:(Ftuple.v ~st:true ~id:0xFFFF_FFFF ~sn:0x1_0000_0002 ())
         ~t:(Ftuple.v ~st:true ~id:0xFFFF_FFFF ~sn:0x0123_4567_89AB_CDEF ())
         ~x:(Ftuple.v ~st:true ~id:0xFFFF_FFFF ~sn:max_int ())
         (Bytes.of_string "\xA1\xA2\xB1\xB2\xC1\xC2"))
  in
  let ed =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:(Ftuple.v ~id:7 ~sn:9 ())
         ~t:(Ftuple.v ~st:true ~id:7 ~sn:0 ())
         ~x:Ftuple.zero
         (Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0A\x0B\x0C"))
  in
  let signal =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.signal
         ~c:(Ftuple.v ~id:0x0102_0304 ~sn:0x1_0000_0000 ())
         ~t:Ftuple.zero ~x:Ftuple.zero (Bytes.of_string "SIGN"))
  in
  [ data; ed; signal ]

let wire_image_hex =
  String.concat ""
    [
      (* data: TYPE 0, SIZE 2, LEN 3 *)
      "00" ^ "0002" ^ "00000003";
      (* C.ID, C.SN, C.ST *)
      "ffffffff" ^ "0000000100000002" ^ "01";
      (* T.ID, T.SN, T.ST *)
      "ffffffff" ^ "0123456789abcdef" ^ "01";
      (* X.ID, X.SN, X.ST *)
      "ffffffff" ^ "3fffffffffffffff" ^ "01";
      "a1a2b1b2c1c2";
      (* ED: TYPE 1, SIZE 1, LEN 12 *)
      "01" ^ "0001" ^ "0000000c";
      "00000007" ^ "0000000000000009" ^ "00";
      "00000007" ^ "0000000000000000" ^ "01";
      "00000000" ^ "0000000000000000" ^ "00";
      "0102030405060708090a0b0c";
      (* signal: TYPE 3, SIZE 1, LEN 4 *)
      "03" ^ "0001" ^ "00000004";
      "01020304" ^ "0000000100000000" ^ "00";
      "00000000" ^ "0000000000000000" ^ "00";
      "00000000" ^ "0000000000000000" ^ "00";
      "5349474e";
    ]

let to_hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let test_wire_image () =
  let chunks = wire_image_chunks () in
  let used = String.length wire_image_hex / 2 in
  Alcotest.(check int) "chunks_size" used (Wire.chunks_size chunks);
  Alcotest.(check string) "unpadded image" wire_image_hex
    (to_hex (Util.ok_or_fail (Wire.encode_packet chunks)));
  (* capacity leaves a header plus five bytes: terminator, then zeros *)
  let padded =
    wire_image_hex
    ^ String.make (2 * Wire.header_size) '0'
    ^ String.make (2 * 5) '0'
  in
  Alcotest.(check string) "image with terminator and padding" padded
    (to_hex
       (Util.ok_or_fail
          (Wire.encode_packet ~capacity:(used + Wire.header_size + 5) chunks)));
  (* sub-header slack is zero-filled without a terminator *)
  Alcotest.(check string) "image with sub-header slack"
    (wire_image_hex ^ String.make (2 * 7) '0')
    (to_hex (Util.ok_or_fail (Wire.encode_packet ~capacity:(used + 7) chunks)));
  match Wire.decode_packet (Util.ok_or_fail (Wire.encode_packet chunks)) with
  | Ok cs -> Alcotest.(check bool) "decodes back" true (List.for_all2 Chunk.equal chunks cs)
  | Error e -> Alcotest.fail e

let suite =
  suite @ [ Alcotest.test_case "exact packet wire image" `Quick test_wire_image ]

(* [with_ids] restamps a pre-encoded packet: the copy equals encoding
   the same chunks with the first one's C.ID and T.ID replaced, and the
   template is left as it was.  [test_transport] checks the range check
   through [Chunk_transport.ack_packet]. *)
let suite =
  suite
  @ [
      Util.qtest ~count:100 "with_ids equals re-encoding with the new IDs"
        QCheck2.Gen.(
          triple
            (list_size (int_range 1 3) Util.gen_data_chunk)
            (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
        (fun (chunks, c_id, t_id) ->
          let template = Util.ok_or_fail (Wire.encode_packet chunks) in
          let before = Bytes.copy template in
          let restamped =
            match chunks with
            | first :: rest ->
                let h = first.Chunk.header in
                let h =
                  {
                    h with
                    Header.c = { h.Header.c with Ftuple.id = c_id };
                    t = { h.Header.t with Ftuple.id = t_id };
                  }
                in
                Util.ok_or_fail (Chunk.make h first.Chunk.payload) :: rest
            | [] -> []
          in
          Bytes.equal
            (Wire.with_ids template ~c_id ~t_id)
            (Util.ok_or_fail (Wire.encode_packet restamped))
          && Bytes.equal template before);
    ]
