(* The discrete-event simulator: queue order, engine clock, link timing,
   impairments, multipath reordering, and the chunk gateway. *)

let test_eventq_order () =
  let q = Netsim.Eventq.create () in
  Netsim.Eventq.push q ~time:3.0 "c";
  Netsim.Eventq.push q ~time:1.0 "a";
  Netsim.Eventq.push q ~time:2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "a first" (Some (1.0, "a"))
    (Netsim.Eventq.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "b next" (Some (2.0, "b"))
    (Netsim.Eventq.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "c last" (Some (3.0, "c"))
    (Netsim.Eventq.pop q);
  Alcotest.(check bool) "empty" true (Netsim.Eventq.pop q = None)

let test_eventq_fifo_ties () =
  let q = Netsim.Eventq.create () in
  Netsim.Eventq.push q ~time:1.0 "first";
  Netsim.Eventq.push q ~time:1.0 "second";
  Netsim.Eventq.push q ~time:1.0 "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Netsim.Eventq.pop q))) in
  Alcotest.(check (list string)) "fifo on ties" [ "first"; "second"; "third" ]
    order

let test_engine_clock () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  Netsim.Engine.schedule e ~delay:0.5 (fun () ->
      log := (Netsim.Engine.now e, "b") :: !log);
  Netsim.Engine.schedule e ~delay:0.1 (fun () ->
      log := (Netsim.Engine.now e, "a") :: !log;
      Netsim.Engine.schedule e ~delay:0.1 (fun () ->
          log := (Netsim.Engine.now e, "a2") :: !log));
  Netsim.Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "clock advances through nested schedules"
    [ (0.1, "a"); (0.2, "a2"); (0.5, "b") ]
    (List.rev !log)

let test_engine_until () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Netsim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Netsim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "only events before the horizon" 5 !fired;
  Alcotest.(check int) "rest pending" 5 (Netsim.Engine.pending e)

let test_link_serialization () =
  let e = Netsim.Engine.create () in
  let arrivals = ref [] in
  let link =
    Netsim.Link.create e ~rate_bps:8000.0 ~delay:1.0
      ~deliver:(fun b -> arrivals := (Netsim.Engine.now e, Bytes.length b) :: !arrivals)
      ()
  in
  (* two 1000-byte packets at 8 kb/s: 1 s serialisation each + 1 s prop *)
  ignore (Netsim.Link.send link (Bytes.create 1000));
  ignore (Netsim.Link.send link (Bytes.create 1000));
  Netsim.Engine.run e;
  match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
      Alcotest.(check (float 1e-9)) "first at 2s" 2.0 t1;
      Alcotest.(check (float 1e-9)) "second at 3s (queued)" 3.0 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_mtu_drop () =
  let e = Netsim.Engine.create () in
  let link = Netsim.Link.create e ~mtu:100 ~deliver:(fun _ -> ()) () in
  (match Netsim.Link.send link (Bytes.create 101) with
  | `Dropped_mtu -> ()
  | `Queued -> Alcotest.fail "oversize must drop");
  Alcotest.(check int) "counted" 1 (Netsim.Link.stats link).Netsim.Link.dropped_mtu

let test_link_loss () =
  let e = Netsim.Engine.create ~seed:7 () in
  let got = ref 0 in
  let link =
    Netsim.Link.create e ~loss:0.5 ~deliver:(fun _ -> incr got) ()
  in
  for _ = 1 to 400 do
    ignore (Netsim.Link.send link (Bytes.create 10))
  done;
  Netsim.Engine.run e;
  let s = Netsim.Link.stats link in
  Alcotest.(check int) "deliveries + losses = sends" 400
    (!got + s.Netsim.Link.dropped_loss);
  Alcotest.(check bool) "loss rate plausible" true
    (s.Netsim.Link.dropped_loss > 120 && s.Netsim.Link.dropped_loss < 280)

let test_link_corruption () =
  let e = Netsim.Engine.create ~seed:11 () in
  let changed = ref 0 and total = ref 0 in
  let payload = Bytes.make 64 'x' in
  let link =
    Netsim.Link.create e ~corrupt:0.5
      ~deliver:(fun b ->
        incr total;
        if not (Bytes.equal b payload) then incr changed)
      ()
  in
  for _ = 1 to 200 do
    ignore (Netsim.Link.send link payload)
  done;
  Netsim.Engine.run e;
  Alcotest.(check int) "all delivered" 200 !total;
  Alcotest.(check bool) "some corrupted" true (!changed > 50);
  Alcotest.(check int) "stats agree" !changed
    (Netsim.Link.stats link).Netsim.Link.corrupted

let test_multipath_reorders () =
  let e = Netsim.Engine.create () in
  let order = ref [] in
  let mp =
    Netsim.Multipath.create e ~paths:4 ~rate_bps:1e9 ~delay:1e-3 ~skew:2e-3
      ~deliver:(fun b -> order := Bytes.get_uint8 b 0 :: !order)
      ()
  in
  for i = 0 to 7 do
    let b = Bytes.create 100 in
    Bytes.set_uint8 b 0 i;
    ignore (Netsim.Multipath.send mp b)
  done;
  Netsim.Engine.run e;
  let arrival = List.rev !order in
  Alcotest.(check int) "all arrived" 8 (List.length arrival);
  Alcotest.(check bool) "skew reordered the stream" true
    (arrival <> [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  (* per-path FIFO: packet 0 and 4 share path 0, 0 must precede 4 *)
  let pos x = Option.get (List.find_index (Int.equal x) arrival) in
  Alcotest.(check bool) "per-path order kept" true (pos 0 < pos 4)

let test_rng_determinism () =
  let a = Netsim.Rng.create ~seed:99 in
  let b = Netsim.Rng.create ~seed:99 in
  let xs = List.init 20 (fun _ -> Netsim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Netsim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Netsim.Rng.split a in
  let zs = List.init 20 (fun _ -> Netsim.Rng.int c 1000) in
  Alcotest.(check bool) "split diverges" true (zs <> xs)

let test_stats_summary () =
  let s = Netsim.Stats.create () in
  Alcotest.(check bool) "empty" true (Netsim.Stats.summary s = None);
  List.iter (Netsim.Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 100.0 ];
  match Netsim.Stats.summary s with
  | None -> Alcotest.fail "expected summary"
  | Some sum ->
      Alcotest.(check int) "count" 5 sum.Netsim.Stats.count;
      Alcotest.(check (float 1e-9)) "mean" 22.0 sum.Netsim.Stats.mean;
      Alcotest.(check (float 1e-9)) "p50" 3.0 sum.Netsim.Stats.p50;
      Alcotest.(check (float 1e-9)) "max" 100.0 sum.Netsim.Stats.max

let test_gateway_refragment () =
  let open Labelling in
  let rand = Random.State.make [| 3 |] in
  let stream, chunks = QCheck2.Gen.generate1 ~rand Util.gen_framed_stream in
  let big = Util.ok_or_fail (Repack.repack ~policy:Repack.Combine ~mtu:4096 chunks) in
  let received = ref [] in
  let gw =
    Netsim.Gateway.create ~policy:Repack.Combine
      ~forward:(fun b -> received := b :: !received)
      ~out_mtu:100 ()
  in
  List.iter (fun p -> Netsim.Gateway.on_packet gw (Packet.encode p)) big;
  Netsim.Gateway.flush gw;
  let out_chunks =
    List.concat_map
      (fun b -> Util.ok_or_fail (Wire.decode_packet b))
      (List.rev !received)
  in
  Alcotest.check Util.bytes_testable "gateway transparent" stream
    (Util.stream_of_chunks out_chunks);
  let s = Netsim.Gateway.stats gw in
  Alcotest.(check bool) "chunks were split" true
    (s.Netsim.Gateway.chunks_out > s.Netsim.Gateway.chunks_in);
  Alcotest.(check bool) "header ops counted" true
    (s.Netsim.Gateway.header_ops > 0);
  List.iter
    (fun b -> Alcotest.(check bool) "out mtu" true (Bytes.length b <= 100))
    !received

let suite =
  [
    Alcotest.test_case "eventq time order" `Quick test_eventq_order;
    Alcotest.test_case "eventq FIFO ties" `Quick test_eventq_fifo_ties;
    Alcotest.test_case "engine clock" `Quick test_engine_clock;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "link serialisation timing" `Quick
      test_link_serialization;
    Alcotest.test_case "link MTU drop" `Quick test_link_mtu_drop;
    Alcotest.test_case "link loss" `Quick test_link_loss;
    Alcotest.test_case "link corruption" `Quick test_link_corruption;
    Alcotest.test_case "multipath skew reorders" `Quick test_multipath_reorders;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "gateway refragmentation" `Quick test_gateway_refragment;
    Util.qtest ~count:100 "eventq pops in time order"
      QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 1000))
      (fun times ->
        let q = Netsim.Eventq.create () in
        List.iter (fun t -> Netsim.Eventq.push q ~time:(float_of_int t) ()) times;
        let rec drain last =
          match Netsim.Eventq.pop q with
          | None -> true
          | Some (t, ()) -> t >= last && drain t
        in
        drain neg_infinity);
  ]

let test_route_change () =
  let e = Netsim.Engine.create () in
  let order = ref [] in
  let mp =
    Netsim.Multipath.create e ~paths:2 ~rate_bps:1e9 ~delay:1e-3 ~skew:5e-3
      ~spread:(Netsim.Multipath.Route_change 0.01)
      ~deliver:(fun b -> order := Bytes.get_uint8 b 0 :: !order)
      ()
  in
  (* send one packet every 4 ms: the route flips every 10 ms, and the
     5 ms skew makes the first packet on the new faster path overtake
     the last packet on the old slow one *)
  for i = 0 to 9 do
    Netsim.Engine.schedule e ~delay:(float_of_int i *. 4e-3) (fun () ->
        let b = Bytes.create 100 in
        Bytes.set_uint8 b 0 i;
        ignore (Netsim.Multipath.send mp b))
  done;
  Netsim.Engine.run e;
  let arrival = List.rev !order in
  Alcotest.(check int) "all delivered" 10 (List.length arrival);
  Alcotest.(check bool) "route change reordered packets" true
    (arrival <> List.init 10 Fun.id)

let test_link_duplication () =
  let e = Netsim.Engine.create ~seed:3 () in
  let got = ref 0 in
  let link = Netsim.Link.create e ~duplicate:0.5 ~deliver:(fun _ -> incr got) () in
  for _ = 1 to 200 do
    ignore (Netsim.Link.send link (Bytes.create 10))
  done;
  Netsim.Engine.run e;
  let s = Netsim.Link.stats link in
  Alcotest.(check int) "deliveries = sends + dups" (200 + s.Netsim.Link.duplicated) !got;
  Alcotest.(check bool) "duplication rate plausible" true
    (s.Netsim.Link.duplicated > 60 && s.Netsim.Link.duplicated < 140)

let suite =
  suite
  @ [
      Alcotest.test_case "route change reorders" `Quick test_route_change;
      Alcotest.test_case "link duplication" `Quick test_link_duplication;
    ]

let test_gateway_batching () =
  let open Labelling in
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let mk sn =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn ())
         ~t:(Ftuple.v ~id:2 ~sn ())
         ~x:c (Bytes.create 40))
  in
  let out = ref [] in
  let gw =
    Netsim.Gateway.create ~policy:Repack.Combine ~flush_batch:3
      ~forward:(fun b -> out := b :: !out)
      ~out_mtu:2048 ()
  in
  let feed sn =
    Netsim.Gateway.on_packet gw
      (Util.ok_or_fail (Wire.encode_packet [ mk sn ]))
  in
  feed 0;
  feed 10;
  Alcotest.(check int) "held until batch" 0 (List.length !out);
  feed 20;
  Alcotest.(check int) "flushed as one combined packet" 1 (List.length !out);
  let chunks = Util.ok_or_fail (Wire.decode_packet (List.hd !out)) in
  Alcotest.(check int) "all three chunks" 3 (List.length chunks)

let test_engine_guards () =
  let e = Netsim.Engine.create () in
  (match Netsim.Engine.schedule e ~delay:(-1.0) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay rejected");
  Netsim.Engine.schedule e ~delay:1.0 (fun () -> ());
  Netsim.Engine.run e;
  match Netsim.Engine.schedule_at e ~time:0.5 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past rejected"

let test_stats_single_sample () =
  let s = Netsim.Stats.create () in
  Netsim.Stats.add s 7.0;
  match Netsim.Stats.summary s with
  | Some sum ->
      Alcotest.(check (float 1e-9)) "p99 of one" 7.0 sum.Netsim.Stats.p99;
      Alcotest.(check (float 1e-9)) "min" 7.0 sum.Netsim.Stats.min
  | None -> Alcotest.fail "summary"

let suite =
  suite
  @ [
      Alcotest.test_case "gateway batching" `Quick test_gateway_batching;
      Alcotest.test_case "engine guards" `Quick test_engine_guards;
      Alcotest.test_case "stats single sample" `Quick test_stats_single_sample;
    ]

let test_dropper_turner () =
  let open Labelling in
  let f = Framer.create ~elem_size:4 ~tpdu_elems:64 ~conn_id:1 () in
  let chunks =
    Util.ok_or_fail
      (Framer.frames_of_stream f ~frame_bytes:256 (Util.deterministic_bytes 8192))
  in
  let packets =
    Util.ok_or_fail (Packet.pack ~mtu:150 chunks) |> List.map Packet.encode
  in
  let run mode =
    let forwarded = ref 0 in
    let d =
      Netsim.Dropper.create ~mode
        ~rng:(Netsim.Rng.create ~seed:9)
        ~loss:0.1
        ~forward:(fun b -> forwarded := !forwarded + Bytes.length b)
        ()
    in
    List.iter (Netsim.Dropper.on_packet d) packets;
    (Netsim.Dropper.stats d, !forwarded)
  in
  let random_stats, _ = run Netsim.Dropper.Random in
  let turner_stats, _ = run Netsim.Dropper.Whole_tpdu in
  Alcotest.(check bool) "random forwards doomed bytes" true
    (random_stats.Netsim.Dropper.doomed_bytes_forwarded > 0);
  Alcotest.(check int) "turner forwards none" 0
    turner_stats.Netsim.Dropper.doomed_bytes_forwarded;
  Alcotest.(check bool) "turner drops more packets" true
    (turner_stats.Netsim.Dropper.packets_dropped
    > random_stats.Netsim.Dropper.packets_dropped);
  (* reset_epoch clears the doom list *)
  let d =
    Netsim.Dropper.create ~mode:Netsim.Dropper.Whole_tpdu
      ~rng:(Netsim.Rng.create ~seed:9) ~loss:1.0 ~forward:(fun _ -> ()) ()
  in
  Netsim.Dropper.on_packet d (List.hd packets);
  Netsim.Dropper.reset_epoch d;
  Alcotest.(check int) "stats persist" 1
    (Netsim.Dropper.stats d).Netsim.Dropper.packets_dropped

let suite =
  suite
  @ [ Alcotest.test_case "Turner whole-TPDU dropping" `Quick
        test_dropper_turner ]

(* Stats keeps runs of bit-identical samples as one cell.  Its summary
   must equal the one computed from the plain newest-first sample list,
   bit for bit: [nan] runs, and [0.0] next to [-0.0] (equal under
   [Float.compare], distinct in their bits), are the cases a run-length
   store could get wrong. *)
let plain_summary samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  Array.sort Float.compare a;
  let total = Array.fold_left ( +. ) 0.0 a in
  let pct p = a.(int_of_float (p *. float_of_int (n - 1))) in
  [ total /. float_of_int n; a.(0); a.(n - 1); pct 0.5; pct 0.9; pct 0.99 ]

let gen_sample_runs =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        oneofl [ nan; 0.0; -0.0; 1.0; -2.5; infinity; neg_infinity ];
        float_range (-1e3) 1e3;
      ]
  in
  list_size (int_range 1 40) (pair value (int_range 1 6))

let prop_stats_runs_match_plain runs =
  let s = Netsim.Stats.create () in
  let plain = ref [] in
  List.iter
    (fun (x, k) ->
      for _ = 1 to k do
        Netsim.Stats.add s x;
        plain := x :: !plain
      done)
    runs;
  match Netsim.Stats.summary s with
  | None -> false
  | Some sum ->
      let open Netsim.Stats in
      let bits = List.map Int64.bits_of_float in
      sum.count = List.length !plain
      && bits [ sum.mean; sum.min; sum.max; sum.p50; sum.p90; sum.p99 ]
         = bits (plain_summary !plain)

let suite =
  suite
  @ [
      Util.qtest ~count:500 "stats: run-length summary equals the plain one"
        gen_sample_runs prop_stats_runs_match_plain;
    ]
