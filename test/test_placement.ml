(* Spatial reordering into the application's address space. *)

open Labelling

let mk ~c_sn ~t_sn ~x_sn ~elems =
  Util.ok_or_fail
    (Chunk.data ~size:4
       ~c:(Ftuple.v ~id:1 ~sn:c_sn ())
       ~t:(Ftuple.v ~id:2 ~sn:t_sn ())
       ~x:(Ftuple.v ~id:3 ~sn:x_sn ())
       (Util.deterministic_bytes (4 * elems)))

let test_place_by_conn () =
  let p = Placement.create ~level:Placement.Conn ~base_sn:10 ~capacity_elems:8 ~elem_size:4 in
  let chunk = mk ~c_sn:12 ~t_sn:0 ~x_sn:0 ~elems:3 in
  Util.ok_or_fail (Placement.place p chunk);
  Alcotest.(check int) "placed" 3 (Placement.placed_elems p);
  Alcotest.(check bool) "not full" false (Placement.is_full p);
  Alcotest.check Util.bytes_testable "at offset 8"
    chunk.Chunk.payload
    (Bytes.sub (Placement.contents p) 8 12);
  Alcotest.(check (list (pair int int))) "holes" [ (0, 2); (5, 3) ]
    (Placement.holes p)

let test_place_levels () =
  let chunk = mk ~c_sn:100 ~t_sn:5 ~x_sn:2 ~elems:1 in
  let by_t = Placement.create ~level:Placement.Tpdu ~base_sn:0 ~capacity_elems:10 ~elem_size:4 in
  Util.ok_or_fail (Placement.place by_t chunk);
  Alcotest.check Util.bytes_testable "t-level offset"
    chunk.Chunk.payload
    (Bytes.sub (Placement.contents by_t) 20 4);
  let by_x = Placement.create ~level:Placement.External ~base_sn:0 ~capacity_elems:10 ~elem_size:4 in
  Util.ok_or_fail (Placement.place by_x chunk);
  Alcotest.check Util.bytes_testable "x-level offset"
    chunk.Chunk.payload
    (Bytes.sub (Placement.contents by_x) 8 4)

let test_rejects () =
  let p = Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:4 ~elem_size:4 in
  (match Placement.place p (mk ~c_sn:3 ~t_sn:0 ~x_sn:0 ~elems:2) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out of window must fail");
  let wrong_size =
    Util.ok_or_fail
      (Chunk.data ~size:8
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:2 ~sn:0 ())
         ~x:(Ftuple.v ~id:3 ~sn:0 ())
         (Bytes.create 8))
  in
  (match Placement.place p wrong_size with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "size mismatch must fail");
  let ctl =
    Util.ok_or_fail
      (Chunk.control ~kind:Ctype.ed
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:2 ~sn:0 ())
         ~x:(Ftuple.v ~id:3 ~sn:0 ())
         (Bytes.create 8))
  in
  match Placement.place p ctl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "control chunk must fail"

let test_full_after_disorder () =
  let p = Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:6 ~elem_size:4 in
  Util.ok_or_fail (Placement.place p (mk ~c_sn:4 ~t_sn:0 ~x_sn:0 ~elems:2));
  Util.ok_or_fail (Placement.place p (mk ~c_sn:0 ~t_sn:0 ~x_sn:0 ~elems:2));
  Util.ok_or_fail (Placement.place p (mk ~c_sn:2 ~t_sn:0 ~x_sn:0 ~elems:2));
  Alcotest.(check bool) "full" true (Placement.is_full p);
  (* duplicate placement is safe *)
  Util.ok_or_fail (Placement.place p (mk ~c_sn:2 ~t_sn:0 ~x_sn:0 ~elems:2));
  Alcotest.(check int) "still 6" 6 (Placement.placed_elems p)

let test_stream_reconstruction () =
  (* the §1 bulk-transfer story: shuffled fragments land correctly *)
  let rand = Random.State.make [| 17 |] in
  let stream, chunks =
    QCheck2.Gen.generate1 ~rand Util.gen_framed_stream
  in
  let frag = Util.fragment_randomly ~seed:5 chunks in
  let arrived = Util.shuffle ~seed:6 frag in
  let total = Bytes.length stream / 4 in
  let p = Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:total ~elem_size:4 in
  List.iter (fun c -> Util.ok_or_fail (Placement.place p c)) arrived;
  Alcotest.(check bool) "full" true (Placement.is_full p);
  Alcotest.check Util.bytes_testable "stream equal" stream (Placement.contents p)

let suite =
  [
    Alcotest.test_case "place by connection SN" `Quick test_place_by_conn;
    Alcotest.test_case "place by T / X level" `Quick test_place_levels;
    Alcotest.test_case "rejections" `Quick test_rejects;
    Alcotest.test_case "full after disorder" `Quick test_full_after_disorder;
    Alcotest.test_case "shuffled fragments rebuild the stream" `Quick
      test_stream_reconstruction;
    Util.qtest ~count:60 "any fragmentation/order lands correctly"
      QCheck2.Gen.(tup3 Util.gen_framed_stream (int_range 0 9999) (int_range 0 9999))
      (fun ((stream, chunks), s1, s2) ->
        let arrived = Util.shuffle ~seed:s2 (Util.fragment_randomly ~seed:s1 chunks) in
        let total = Bytes.length stream / 4 in
        let p =
          Placement.create ~level:Placement.Conn ~base_sn:0
            ~capacity_elems:total ~elem_size:4
        in
        List.iter (fun c -> Util.ok_or_fail (Placement.place p c)) arrived;
        Placement.is_full p && Bytes.equal stream (Placement.contents p));
  ]

let test_overlap_accounting () =
  (* refragmented retransmission: runs [0,4) then [2,6) — every covered
     element must count exactly once *)
  let p =
    Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:6
      ~elem_size:4
  in
  Util.ok_or_fail (Placement.place p (mk ~c_sn:0 ~t_sn:0 ~x_sn:0 ~elems:4));
  Util.ok_or_fail (Placement.place p (mk ~c_sn:2 ~t_sn:2 ~x_sn:2 ~elems:4));
  Alcotest.(check int) "six distinct elements" 6 (Placement.placed_elems p);
  Alcotest.(check bool) "full" true (Placement.is_full p)

let test_huge_sn_no_overflow () =
  (* regression: a corrupted C.SN near max_int once wrapped the window
     check (sn + len overflowed) and crashed on the copy *)
  let p =
    Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:8
      ~elem_size:4
  in
  (match Placement.place p (mk ~c_sn:(max_int - 1) ~t_sn:0 ~x_sn:0 ~elems:2) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "SN near max_int must be rejected");
  Alcotest.(check int) "nothing placed" 0 (Placement.placed_elems p)

let suite =
  suite
  @ [
      Alcotest.test_case "partial-overlap accounting" `Quick
        test_overlap_accounting;
      Alcotest.test_case "huge SN does not overflow the window check" `Quick
        test_huge_sn_no_overflow;
    ]

(* Recycled memory: a placement's buffer is not zero-filled when it is
   created, so storage that a dropped placement filled with 0xFF can
   come back under a new one of the same size.  None of it may show
   through a reader of whole buffers: every hole reads 0. *)
module CT = Transport.Chunk_transport

let recycled_elems = 16_384

let litter () =
  let ff = Bytes.make (recycled_elems * 4) '\255' in
  for _ = 1 to 16 do
    let p =
      Placement.create ~level:Placement.Conn ~base_sn:0
        ~capacity_elems:recycled_elems ~elem_size:4
    in
    Util.ok_or_fail (Placement.restore_span p ~sn:0 ff)
  done;
  Gc.full_major ()

(* [buf] holds [data] at its head and reads 0 everywhere after it. *)
let check_zero_tail what data buf =
  let n = Bytes.length data in
  Alcotest.(check int) (what ^ ": size") (recycled_elems * 4) (Bytes.length buf);
  Alcotest.check Util.bytes_testable (what ^ ": data") data (Bytes.sub buf 0 n);
  Alcotest.check Util.bytes_testable (what ^ ": holes")
    (Bytes.make (Bytes.length buf - n) '\000')
    (Bytes.sub buf n (Bytes.length buf - n))

let recycled_config =
  { CT.default_config with CT.elem_size = 4; tpdu_elems = 16; frame_bytes = 64 }

(* A finished transfer of [data] into a fresh one-connection endpoint
   whose quota is the littered size. *)
let transfer data =
  litter ();
  let w =
    Transport.Transfer.connect (Netsim.Engine.create ~seed:3 ())
      recycled_config ~quota_elems:recycled_elems (`Data data)
  in
  Transport.Transfer.finish w;
  Transport.Transfer.endpoint w

let test_recycled_memory_reads_zero () =
  let data = Util.deterministic_bytes 3000 in
  (* a placement: a written run, a run locked without being written *)
  litter ();
  let p =
    Placement.create ~level:Placement.Conn ~base_sn:0
      ~capacity_elems:recycled_elems ~elem_size:4
  in
  Util.ok_or_fail (Placement.restore_span p ~sn:0 data);
  Placement.lock_span p ~sn:5000 ~len:100;
  check_zero_tail "placement" data (Placement.contents p);
  (* a receiver that has received nothing *)
  litter ();
  let rx =
    CT.Receiver.create (Netsim.Engine.create ()) recycled_config
      ~send_ack:ignore ~capacity:(`Quota recycled_elems) ()
  in
  check_zero_tail "receiver" Bytes.empty (CT.Receiver.contents rx);
  (* a live epoch, and the same endpoint restored from its snapshot *)
  let m = transfer data in
  let restore m =
    Transport.Multi.restore (Netsim.Engine.create ()) ~config:recycled_config
      ~quota_elems:recycled_elems ~max_conns:1 ~send_ack:ignore
      (Transport.Multi.export m)
  in
  let only m =
    match Transport.Multi.epochs m ~conn_id:recycled_config.CT.conn_id with
    | [ e ] -> e.Transport.Multi.delivered
    | _ -> Alcotest.fail "one epoch expected"
  in
  check_zero_tail "live epoch" data (only m);
  litter ();
  check_zero_tail "restored epoch" data (only (restore m));
  (* an epoch archived with holes, and the same restored from its
     snapshot records alone *)
  let m = transfer data in
  (match
     Wire.encode_packet
       [ Connection.signal_chunk ~conn_id:recycled_config.CT.conn_id Connection.Close ]
   with
  | Ok b -> Transport.Multi.ingest m b
  | Error e -> Alcotest.fail e);
  check_zero_tail "archived epoch" data (only m);
  litter ();
  check_zero_tail "restored archived epoch" data (only (restore m))

let suite =
  suite
  @ [
      Alcotest.test_case "recycled memory never shows through a hole" `Quick
        test_recycled_memory_reads_zero;
    ]
