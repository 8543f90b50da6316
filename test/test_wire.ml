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

(* --- the header layout, declared once ------------------------------- *)

let layout_offset field =
  match List.find_opt (fun (f, _, _) -> f = field) Wire.layout with
  | Some (_, off, width) -> (off, width)
  | None -> Alcotest.fail "field missing from Wire.layout"

(* The unsigned big-endian value of [width] bytes at [off]. *)
let read_be b off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Bytes.get_uint8 b (off + i)
  done;
  !v

let field_value (h : Header.t) field =
  let tuple = function
    | Wire.C -> h.Header.c
    | Wire.T -> h.Header.t
    | Wire.X -> h.Header.x
  in
  match field with
  | Wire.Type -> Ctype.code h.Header.ctype
  | Wire.Size -> h.Header.size
  | Wire.Len -> h.Header.len
  | Wire.Id u -> (tuple u).Ftuple.id
  | Wire.Sn u -> (tuple u).Ftuple.sn
  | Wire.St u -> if (tuple u).Ftuple.st then 1 else 0

(* The fields tile the header: in order, back to back, each once. *)
let test_layout_tiles () =
  let next =
    List.fold_left
      (fun expect (_, off, width) ->
        Alcotest.(check int) "field starts where the last one ended" expect off;
        off + width)
      0 Wire.layout
  in
  Alcotest.(check int) "fields end at header_size" Wire.header_size next;
  let fields = List.map (fun (f, _, _) -> f) Wire.layout in
  Alcotest.(check int) "twelve distinct fields" 12
    (List.length (List.sort_uniq compare fields))

(* Headers with labels over their whole ranges, the IDs and SNs at
   their edges a good share of the time. *)
let gen_wide_header =
  let open QCheck2.Gen in
  let tuple =
    map3
      (fun id sn st -> Ftuple.v ~st ~id ~sn ())
      (oneof [ int_range 0 0xFFFF_FFFF; oneofl [ 0; 1; 0xFFFF_FFFF ] ])
      (oneof [ int_range 0 max_int; oneofl [ 0; 1; max_int ] ])
      bool
  in
  let* code = int_range 0 0xFF in
  let* size = int_range 1 Header.max_size in
  let* len = oneof [ int_range 1 Header.max_len; return Header.max_len ] in
  let* c = tuple in
  let* t = tuple in
  let* x = tuple in
  let ctype = Util.ok_or_fail (Ctype.of_code code) in
  return (Util.ok_or_fail (Header.v ~ctype ~size ~len ~c ~t ~x))

(* A random header at a random offset reads back the same through the
   decoder, the scanner's view and its accessors, and every field holds
   its value at its declared offset and width. *)
let prop_readers_agree =
  Util.qtest ~count:300 "every header reader agrees with the layout"
    QCheck2.Gen.(pair gen_wide_header (int_range 0 7))
    (fun (h, pad) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf (String.make pad '\xAA');
      Wire.encode_header buf h;
      let b = Buffer.to_bytes buf in
      (match Wire.decode_header b pad with
      | Ok h' -> Header.equal h h'
      | Error _ -> false)
      && Header.equal h (Wire.Scan.view b pad).Chunk.header
      && Wire.Scan.size b pad = h.Header.size
      && Wire.Scan.len b pad = h.Header.len
      && Wire.Scan.c_id b pad = h.Header.c.Ftuple.id
      && Wire.Scan.t_id b pad = h.Header.t.Ftuple.id
      && List.for_all
           (fun (f, off, width) -> read_be b (pad + off) width = field_value h f)
           Wire.layout)

(* [with_ids] writes the C.ID and T.ID fields and no other byte. *)
let prop_with_ids_fields =
  Util.qtest ~count:200 "with_ids writes only the C.ID and T.ID bytes"
    QCheck2.Gen.(
      triple gen_wide_header (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
    (fun (h, c_id, t_id) ->
      let buf = Buffer.create 64 in
      Wire.encode_header buf h;
      let template = Buffer.to_bytes buf in
      let b = Wire.with_ids template ~c_id ~t_id in
      let c_off, c_w = layout_offset (Wire.Id Wire.C)
      and t_off, t_w = layout_offset (Wire.Id Wire.T) in
      let inside off w i = off <= i && i < off + w in
      read_be b c_off c_w = c_id
      && read_be b t_off t_w = t_id
      && List.for_all
           (fun i ->
             inside c_off c_w i || inside t_off t_w i
             || Bytes.get b i = Bytes.get template i)
           (List.init (Bytes.length b) Fun.id))

(* One field of a valid one-chunk packet at a time, set to the edges of
   its width (0, 1, max-1, max; ST bytes 0/1/2/255; an SN with bit 62 or
   bit 63 set): the decoders never raise, the scanner accepts exactly
   what [decode_packet] accepts, and whatever is accepted re-encodes to
   the input.  One input is accepted without being canonical, and
   pinned here as such: LEN = 0 makes the header a terminator, so the
   packet decodes to no chunk at all. *)
let test_field_boundary_sweep () =
  let label id sn st = Ftuple.v ~st ~id ~sn () in
  let base =
    Util.ok_or_fail
      (Wire.encode_packet
         [
           Util.ok_or_fail
             (Chunk.data ~size:4 ~c:(label 7 1000 false) ~t:(label 3 5 false)
                ~x:(label 1 0 true)
                (Bytes.of_string "\x11\x22\x33\x44\x55\x66\x77\x88"));
         ])
  in
  let edges field width =
    match field with
    | Wire.St _ -> [ 0L; 1L; 2L; 255L ]
    | Wire.Sn _ ->
        [ 0L; 1L; -2L; -1L; Int64.shift_left 1L 62; Int64.shift_left 1L 63 ]
    | Wire.Type | Wire.Size | Wire.Len | Wire.Id _ ->
        let max = Int64.pred (Int64.shift_left 1L (8 * width)) in
        [ 0L; 1L; Int64.pred max; max ]
  in
  let write b off width v =
    match width with
    | 1 -> Bytes.set_uint8 b off (Int64.to_int v land 0xFF)
    | 2 -> Bytes.set_uint16_be b off (Int64.to_int v land 0xFFFF)
    | 4 -> Bytes.set_int32_be b off (Int64.to_int32 v)
    | _ -> Bytes.set_int64_be b off v
  in
  let scan = Wire.Scan.create () in
  List.iter
    (fun (field, off, width) ->
      List.iter
        (fun v ->
          let b = Bytes.copy base in
          write b off width v;
          let what = Printf.sprintf "field at %d set to %Lx" off v in
          let no_raise f =
            try f () with e ->
              Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
          in
          ignore (no_raise (fun () -> Wire.decode_chunk b 0));
          let decoded = no_raise (fun () -> Wire.decode_packet b) in
          Alcotest.(check bool)
            (what ^ ": scan accepts iff decode_packet does")
            (Result.is_ok decoded) (Wire.Scan.packet scan b);
          match (decoded, field) with
          | Error _, _ -> ()
          | Ok chunks, Wire.Len when v = 0L ->
              Alcotest.(check int) (what ^ ": a terminator") 0
                (List.length chunks)
          | Ok chunks, _ ->
              Alcotest.(check string) (what ^ ": re-encodes to the input")
                (Bytes.to_string b)
                (Bytes.to_string
                   (Util.ok_or_fail
                      (Wire.encode_packet ~capacity:(Bytes.length b) chunks))))
        (edges field width))
    Wire.layout

(* The scanner records offsets into its own arrays and builds nothing:
   once warmed (its arrays grown to the packet's chunk count), a scan
   allocates no minor word. *)
let test_scan_allocates_nothing () =
  let label id sn st = Ftuple.v ~st ~id ~sn () in
  let chunks =
    List.init 20 (fun i ->
        Util.ok_or_fail
          (Chunk.data ~size:4 ~c:(label 7 (8 * i) false)
             ~t:(label 3 (8 * i) false) ~x:(label 1 0 (i = 19))
             (Bytes.make 32 (Char.chr i))))
  in
  let b = Util.ok_or_fail (Wire.encode_packet chunks) in
  let scan = Wire.Scan.create () in
  Alcotest.(check bool) "accepted" true (Wire.Scan.packet scan b);
  Alcotest.(check int) "every chunk" 20 (Wire.Scan.count scan);
  let ok = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ok := Wire.Scan.packet scan b && !ok
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "still accepted" true !ok;
  Alcotest.(check (float 0.)) "minor words over 1000 scans" 0. (w1 -. w0)

let suite =
  suite
  @ [
      Alcotest.test_case "header layout tiles the header" `Quick
        test_layout_tiles;
      prop_readers_agree;
      prop_with_ids_fields;
      Alcotest.test_case "boundary sweep of every header field" `Quick
        test_field_boundary_sweep;
      Alcotest.test_case "a warmed scanner allocates nothing per packet"
        `Quick test_scan_allocates_nothing;
    ]
