(* Partial reliability: the Shed_tpdu signal codec, the forged-shed
   guard, class-aware governor eviction, the interleave scheduler, and
   the degradation path end to end (shedding under loss, the
   degrade-hostile soak, and the shed-clobber mutation self-test). *)

open Labelling
module CT = Transport.Chunk_transport
module TR = Transport.Transfer
module Gov = Transport.Governor
module Il = Transport.Interleave

(* --- Shed_tpdu signal codec --- *)

let gen_shed_signal =
  let open QCheck2.Gen in
  tup3 (int_range 0 0xFFFF) (int_range 0 1_000_000) (int_range 1 100_000)

let prop_shed_signal_roundtrip (t_id, first_elem, elems) =
  let chunk =
    Connection.signal_chunk ~conn_id:9
      (Connection.Shed_tpdu { t_id; first_elem; elems })
  in
  match Connection.parse_signal chunk with
  | Ok (9, Connection.Shed_tpdu s) ->
      s.t_id = t_id && s.first_elem = first_elem && s.elems = elems
  | _ -> false

(* --- end-to-end shedding under random loss --- *)

(* Odd TPDUs are enhancement data; the final TPDU stays Normal so the
   stream-end marker is never shed. *)
let test_shed_under_loss () =
  let elem_size = 4 and tpdu_elems = 64 in
  let n_tpdus = 32 in
  let data = Util.deterministic_bytes (elem_size * tpdu_elems * n_tpdus) in
  let classify t_id =
    if t_id mod 2 = 1 && t_id < n_tpdus - 1 then Significance.Sheddable 1
    else Significance.Normal
  in
  let config =
    {
      CT.default_config with
      conn_id = 6;
      elem_size;
      tpdu_elems;
      rto = 0.05;
      classify;
      shed_txs = 2;
    }
  in
  let o = TR.run ~seed:5 ~config ~loss:0.5 ~data () in
  Alcotest.(check bool) "outcome ok (shed-aware)" true o.TR.ok;
  let t = o.TR.tally in
  Alcotest.(check bool) "congestion provoked sheds" true
    (t.Transport.Tally.sheds_sent > 0);
  Alcotest.(check bool) "receiver honoured sheds" true
    (t.counts.sheds_received > 0);
  Alcotest.(check int) "one span per honoured shed" t.counts.sheds_received
    (List.length o.TR.shed_spans);
  (* every shed span is exactly one sheddable TPDU *)
  List.iter
    (fun (first, len) ->
      Alcotest.(check int) "span starts on a TPDU boundary" 0
        (first mod tpdu_elems);
      Alcotest.(check int) "span is one whole TPDU" tpdu_elems len;
      Alcotest.(check bool) "span belongs to a sheddable TPDU" true
        (Significance.sheddable (classify (first / tpdu_elems))))
    o.TR.shed_spans;
  (* the fully-reliable TPDUs arrived byte-exact *)
  Alcotest.(check bool) "reliable bytes intact" true
    (TR.equal_outside_sheds ~elem_size ~spans:o.TR.shed_spans ~expected:data
       ~delivered:o.TR.delivered);
  for t_id = 0 to n_tpdus - 1 do
    if not (Significance.sheddable (classify t_id)) then
      let off = t_id * tpdu_elems * elem_size in
      let n = tpdu_elems * elem_size in
      Alcotest.check Util.bytes_testable
        (Printf.sprintf "reliable TPDU %d byte-exact" t_id)
        (Bytes.sub data off n)
        (Bytes.sub o.TR.delivered off n)
  done

(* --- the forged-shed guard --- *)

let feed_stream m config data =
  let framer =
    Framer.create ~elem_size:config.CT.elem_size
      ~tpdu_elems:config.CT.tpdu_elems ~conn_id:config.CT.conn_id ()
  in
  let chunks = Util.ok_or_fail (Framer.push_frame ~last:true framer data) in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
  let packets = Util.ok_or_fail (Packet.pack ~mtu:config.CT.mtu sealed) in
  List.iter (fun p -> Transport.Multi.ingest m (Packet.encode p)) packets

let shed_signal m ~conn_id ~t_id ~first_elem ~elems =
  Transport.Multi.ingest m
    (Util.ok_or_fail
       (Wire.encode_packet
          [
            Connection.signal_chunk ~conn_id
              (Connection.Shed_tpdu { t_id; first_elem; elems });
          ]))

let test_forged_shed_ignored () =
  (* default classify: everything Normal — no shed may ever be
     honoured, before or after the data arrives *)
  let engine = Netsim.Engine.create ~seed:1 () in
  let config = { CT.default_config with conn_id = 4; tpdu_elems = 8 } in
  let data = Util.deterministic_bytes (4 * 8 * 3) in
  let m = Util.one_conn engine config ~quota_elems:24 in
  let epoch () = Util.only_epoch m ~conn_id:4 in
  shed_signal m ~conn_id:4 ~t_id:1 ~first_elem:8 ~elems:8;
  Alcotest.(check int) "forged shed of Normal TPDU ignored" 0
    (Transport.Multi.counters m).sheds_received;
  Alcotest.(check bool) "no shed cover accrued" true
    ((epoch ()).Transport.Multi.shed_spans = []);
  (* completion still requires the real bytes *)
  Alcotest.(check bool) "not complete without the data" false
    (epoch ()).Transport.Multi.complete;
  feed_stream m config data;
  Alcotest.(check bool) "complete once the data lands" true
    (epoch ()).Transport.Multi.complete;
  Alcotest.check Util.bytes_testable "delivery byte-exact" data
    (epoch ()).Transport.Multi.delivered

let test_shed_after_verify_ignored () =
  (* a shed of a genuinely sheddable TPDU arriving after that TPDU
     verified must not un-deliver it *)
  let engine = Netsim.Engine.create ~seed:2 () in
  let config =
    {
      CT.default_config with
      conn_id = 4;
      tpdu_elems = 8;
      classify = (fun t_id -> if t_id = 1 then Significance.Sheddable 1
                              else Significance.Normal);
    }
  in
  let data = Util.deterministic_bytes (4 * 8 * 3) in
  let m = Util.one_conn engine config ~quota_elems:24 in
  feed_stream m config data;
  Alcotest.(check bool) "complete" true
    (Util.only_epoch m ~conn_id:4).Transport.Multi.complete;
  shed_signal m ~conn_id:4 ~t_id:1 ~first_elem:8 ~elems:8;
  Alcotest.(check int) "late shed of verified TPDU ignored" 0
    (Transport.Multi.counters m).sheds_received;
  Alcotest.check Util.bytes_testable "bytes survive the late shed" data
    (Util.only_epoch m ~conn_id:4).Transport.Multi.delivered

(* A chunk of a TPDU the epoch shed, arriving after the epoch completed,
   is a straggler of that epoch, not the start of the next: [Multi]
   keeps the one epoch and abandons no verifier state. *)
let test_multi_late_chunk_of_shed_tpdu () =
  let tpdu_elems = 8 and conn_id = 4 in
  let config =
    {
      CT.default_config with
      conn_id;
      tpdu_elems;
      classify =
        (fun t_id ->
          if t_id = 1 then Significance.Sheddable 1 else Significance.Normal);
    }
  in
  let data = Util.deterministic_bytes (config.CT.elem_size * tpdu_elems * 3) in
  let framer =
    Framer.create ~elem_size:config.CT.elem_size ~tpdu_elems ~conn_id ()
  in
  let sealed =
    Util.ok_or_fail
      (Edc.Encoder.seal_tpdus
         (Util.ok_or_fail (Framer.push_frame ~last:true framer data)))
  in
  let engine = Netsim.Engine.create ~seed:4 () in
  let m =
    Transport.Multi.create engine ~config ~quota_elems:(tpdu_elems * 3)
      ~max_conns:4
      ~send_ack:(fun _ -> ())
      ()
  in
  let feed chunks =
    Util.ok_or_fail (Packet.pack ~mtu:config.CT.mtu chunks)
    |> List.iter (fun p -> Transport.Multi.ingest m (Packet.encode p))
  in
  let tpdu t =
    List.filter (fun c -> c.Chunk.header.Header.t.Ftuple.id = t) sealed
  in
  let signal sg = feed [ Connection.signal_chunk ~conn_id sg ] in
  signal (Connection.Open { first_csn = 0 });
  feed (tpdu 0);
  signal
    (Connection.Shed_tpdu
       { t_id = 1; first_elem = tpdu_elems; elems = tpdu_elems });
  feed (tpdu 2);
  let epochs () = Transport.Multi.epochs m ~conn_id in
  Alcotest.(check (list bool)) "one complete epoch after the shed" [ true ]
    (List.map (fun e -> e.Transport.Multi.complete) (epochs ()));
  feed (tpdu 1);
  let cs = Option.get (Transport.Multi.conn_stats m ~conn_id) in
  Alcotest.(check int) "the late chunk opens no epoch" 1
    cs.Transport.Multi.cs_epochs;
  Alcotest.(check (list bool)) "the epoch stays complete" [ true ]
    (List.map (fun e -> e.Transport.Multi.complete) (epochs ()));
  Alcotest.(check int) "no verifier state abandoned" 0
    (List.fold_left
       (fun acc rx ->
         acc + (CT.Receiver.verifier_stats rx).Edc.Verifier.tpdus_failed
         + CT.Receiver.verifier_in_flight rx)
       0
       (Transport.Multi.receivers m))

(* --- class-aware governor eviction --- *)

let test_governor_evicts_sheddable_first () =
  let evicted = ref [] in
  let g = Gov.create ~budget_bytes:100 ~ttl:10.0 () in
  Gov.set_on_evict g (fun k -> evicted := k.Gov.tpdu :: !evicted);
  let touch ~cls ~tpdu ~now =
    Gov.touch ~cls g ~key:{ Gov.conn = 1; tpdu } ~bytes:40 ~now
  in
  touch ~cls:0 ~tpdu:0 ~now:0.0;
  touch ~cls:2 ~tpdu:1 ~now:1.0;
  touch ~cls:1 ~tpdu:2 ~now:2.0;
  (* 120 > 100: the class-2 entry goes first, though TPDU 0 is oldest *)
  Alcotest.(check (list int)) "highest class displaced first" [ 1 ] !evicted;
  touch ~cls:0 ~tpdu:3 ~now:3.0;
  Alcotest.(check (list int)) "then the class-1 entry" [ 2; 1 ] !evicted;
  touch ~cls:0 ~tpdu:4 ~now:4.0;
  (* only class-0 entries remain: back to oldest-deadline *)
  Alcotest.(check (list int)) "class 0 falls back to oldest deadline"
    [ 0; 2; 1 ] !evicted;
  Alcotest.(check bool) "budget respected" true (Gov.total g <= 100)

(* A scripted governor run: each step is applied in order, and every
   eviction is logged as "budget c.t" (inside a touch) or "deadline c.t"
   (inside a sweep).  The expected logs below pin the exact victim
   order, including ties between equal deadlines, so any change to the
   governor's table discipline shows up as a diff. *)
type gov_step =
  | Touch of { conn : int; tpdu : int; cls : int; bytes : int; now : float }
  | Remove of { conn : int; tpdu : int }
  | Remove_conn of int
  | Sweep of float

let run_gov_script ~budget ~ttl steps =
  let g = Gov.create ~budget_bytes:budget ~ttl () in
  let log = ref [] in
  let phase = ref "budget" in
  Gov.set_on_evict g (fun k ->
      log := Printf.sprintf "%s %d.%d" !phase k.Gov.conn k.Gov.tpdu :: !log);
  List.iter
    (function
      | Touch { conn; tpdu; cls; bytes; now } ->
          phase := "budget";
          Gov.touch ~cls g ~key:{ Gov.conn; tpdu } ~bytes ~now
      | Remove { conn; tpdu } -> Gov.remove g ~key:{ Gov.conn; tpdu }
      | Remove_conn conn -> Gov.remove_conn g ~conn
      | Sweep now ->
          phase := "deadline";
          Gov.sweep g ~now)
    steps;
  let s = Gov.stats g in
  ( List.rev !log,
    [
      s.Gov.accounted_bytes;
      s.Gov.high_water;
      s.Gov.entries;
      s.Gov.evictions_deadline;
      s.Gov.evictions_budget;
    ] )

let touch ?(cls = 0) conn tpdu bytes now = Touch { conn; tpdu; cls; bytes; now }

let test_governor_eviction_order_pinned () =
  (* connection-level (tpdu = -1) and TPDU-level keys, equal deadlines
     within each burst, classes 0 and 2, and a budget that forces
     evictions in both classes *)
  let steps =
    [
      touch 1 (-1) 50 0.0;
      touch 1 0 40 0.0;
      touch ~cls:2 1 1 40 0.0;
      touch 2 (-1) 50 0.0;
      touch ~cls:2 2 0 40 0.0;
      touch 2 1 40 0.0;
      touch 1 0 60 0.0;
      touch 1 0 60 0.0;
      touch 3 (-1) 50 1.0;
      touch ~cls:2 3 0 40 1.0;
      touch 3 1 70 2.0;
      touch 3 1 20 2.0;
      Remove { conn = 2; tpdu = -1 };
      touch 1 0 30 3.0;
      touch 4 (-1) 50 3.0;
      touch ~cls:2 4 7 30 3.0;
      touch ~cls:2 4 8 30 3.0;
      touch 4 9 30 3.0;
      touch ~cls:2 4 7 40 3.0;
      Remove_conn 3;
      touch 5 (-1) 50 4.0;
      touch 5 0 90 4.0;
      Sweep 12.5;
      touch 1 0 10 12.5;
      touch 6 (-1) 10 12.5;
      Sweep 14.0;
    ]
  in
  let log, stats = run_gov_script ~budget:300 ~ttl:10.0 steps in
  Alcotest.(check (list string))
    "victims in order"
    [
      "budget 2.0"; "budget 1.1"; "budget 3.0"; "budget 1.-1"; "budget 4.7";
      "budget 4.8"; "deadline 2.1"; "deadline 5.0"; "deadline 5.-1";
      "deadline 4.-1"; "deadline 4.9";
    ]
    log;
  (* accounted, high water, entries, deadline and budget evictions *)
  Alcotest.(check (list int)) "stats" [ 20; 290; 2; 5; 6 ] stats

(* A touch of a key whose entry has gone — removed, budget-evicted,
   swept, or dropped with its connection — re-adds it as a brand-new
   entry: the same account, and the same place in later victim order,
   as any first touch. *)
let test_governor_retouch_after_loss () =
  let check name steps exp_log exp_stats =
    let log, stats = run_gov_script ~budget:200 ~ttl:10.0 steps in
    Alcotest.(check (list string)) (name ^ ": victims") exp_log log;
    Alcotest.(check (list int)) (name ^ ": stats") exp_stats stats
  in
  let tail now =
    (* squeeze the re-added key against equal-deadline peers *)
    [ touch 2 0 60 now; touch 2 1 60 now; touch 2 2 60 now ]
  in
  check "removed"
    ([ touch 1 0 40 0.0; touch 1 0 40 0.0; Remove { conn = 1; tpdu = 0 };
       touch 1 0 40 5.0 ]
    @ tail 5.0)
    [ "budget 2.1" ] [ 160; 160; 3; 0; 1 ];
  check "budget-evicted"
    ([ touch 1 0 40 0.0; touch 1 0 40 0.0; touch 9 0 190 1.0;
       touch 1 0 40 5.0 ]
    @ tail 5.0)
    [ "budget 1.0"; "budget 9.0"; "budget 2.1" ]
    [ 160; 190; 3; 0; 3 ];
  check "swept"
    ([ touch 1 (-1) 40 0.0; touch 1 (-1) 40 0.0; Sweep 11.0;
       touch 1 (-1) 40 11.0 ]
    @ tail 11.0)
    [ "deadline 1.-1"; "budget 1.-1" ]
    [ 180; 180; 3; 1; 1 ];
  check "connection dropped"
    ([ touch 1 (-1) 40 0.0; touch 1 0 40 0.0; touch 1 0 40 0.0;
       Remove_conn 1; touch 1 0 40 5.0; touch 1 (-1) 40 5.0 ]
    @ tail 5.0)
    [ "budget 1.-1"; "budget 2.1" ]
    [ 160; 200; 3; 0; 2 ]

(* A touch that restates an entry exactly — same bytes and class at the
   same instant, so the same deadline — is a no-op: the account, its
   high water and the victim a later squeeze picks are all what they
   were without it.  Equal deadlines make the victim a tie, so a control
   governor without the repeats decides it. *)
let test_governor_noop_refresh () =
  let fill g =
    Gov.touch g ~key:{ Gov.conn = 1; tpdu = 0 } ~bytes:60 ~now:0.0;
    Gov.touch g ~key:{ Gov.conn = 1; tpdu = 1 } ~bytes:60 ~now:0.0
  in
  let squeeze g =
    let victims = ref [] in
    Gov.set_on_evict g (fun k -> victims := k.Gov.tpdu :: !victims);
    Gov.touch g ~key:{ Gov.conn = 2; tpdu = 0 } ~bytes:100 ~now:0.0;
    !victims
  in
  let control = Gov.create ~budget_bytes:200 ~ttl:10.0 () in
  fill control;
  let expected_victims = squeeze control in
  let g = Gov.create ~budget_bytes:200 ~ttl:10.0 () in
  fill g;
  let stats0 = Gov.stats g in
  fill g;
  Gov.touch g ~key:{ Gov.conn = 1; tpdu = 0 } ~bytes:60 ~now:0.0;
  Alcotest.(check bool) "stats unchanged" true (Gov.stats g = stats0);
  Alcotest.(check int) "high water unchanged" stats0.Gov.high_water
    (Gov.high_water g);
  Alcotest.(check int) "occupancy unchanged" stats0.Gov.accounted_bytes
    (Gov.total g);
  Alcotest.(check (list int)) "next victim unchanged" expected_victims
    (squeeze g);
  Alcotest.(check int) "the squeeze evicted one entry" 1
    (List.length expected_victims)

(* The same instant with more bytes is a real change: the budget is
   enforced and the oldest entry goes. *)
let test_governor_same_instant_growth_evicts () =
  let log, stats =
    run_gov_script ~budget:200 ~ttl:10.0
      [ touch 1 1 60 0.0; touch 1 0 60 1.0; touch 1 0 60 1.0; touch 1 0 150 1.0 ]
  in
  Alcotest.(check (list string)) "victims" [ "budget 1.1" ] log;
  Alcotest.(check (list int)) "stats" [ 150; 150; 1; 0; 1 ] stats

(* Random touch/remove storms with mixed classes; cls 3 encodes a
   removal of the key.  Invariants after every event: the account never
   exceeds the budget, and a fully-reliable (class 0) entry is never
   budget-evicted while any sheddable entry remains. *)
let gen_gov_events =
  let open QCheck2.Gen in
  list_size (int_range 1 80)
    (map
       (fun (((conn, tpdu), cls), bytes) -> (conn, tpdu, cls, bytes))
       (tup2
          (tup2 (tup2 (int_range 0 2) (int_range 0 9)) (int_range 0 3))
          (int_range 1 96)))

let prop_governor_budget_and_priority events =
  let budget = 256 in
  let g = Gov.create ~budget_bytes:budget ~ttl:1e9 () in
  let alive = Hashtbl.create 16 in
  let ok = ref true in
  Gov.set_on_evict g (fun k ->
      (match Hashtbl.find_opt alive k with
      | Some 0 ->
          if
            Hashtbl.fold
              (fun k' c acc -> acc || (k' <> k && c > 0))
              alive false
          then ok := false
      | _ -> ());
      Hashtbl.remove alive k);
  List.iteri
    (fun i (conn, tpdu, cls, bytes) ->
      let key = { Gov.conn; tpdu } in
      if cls > 2 then begin
        Gov.remove g ~key;
        Hashtbl.remove alive key
      end
      else begin
        Hashtbl.replace alive key cls;
        Gov.touch ~cls g ~key ~bytes ~now:(float_of_int i)
      end;
      if Gov.total g > budget then ok := false;
      if Hashtbl.length alive <> (Gov.stats g).Gov.entries then ok := false)
    events;
  !ok && (Gov.stats g).Gov.high_water <= budget

(* --- the interleave scheduler --- *)

let mk_stream name cls elems =
  {
    Il.is_name = name;
    is_cls = cls;
    is_data = Util.deterministic_bytes (elems * 4);
  }

let test_interleave_order_and_classify () =
  (* three 10-TPDU streams, tpdu_elems 8, stride 10 *)
  let streams =
    [
      mk_stream "crit" Significance.Critical 80;
      mk_stream "norm" Significance.Normal 80;
      mk_stream "enh" (Significance.Sheddable 1) 80;
    ]
  in
  let plan =
    Util.ok_or_fail (Il.plan ~elem_size:4 ~tpdu_elems:8 ~conn_id:5 streams)
  in
  let order = List.map fst plan.Il.tpdus in
  Alcotest.(check int) "all TPDUs scheduled" 30 (List.length order);
  Alcotest.(check int) "no duplicates" 30
    (List.length (List.sort_uniq Int.compare order));
  (* round 1 grants weight TPDUs per stream: 4 critical, 2 normal, 1
     sheddable *)
  Alcotest.(check (list int)) "round 1 is 4/2/1"
    [ 0; 1; 2; 3; 10; 11; 20 ]
    (List.filteri (fun i _ -> i < 7) order);
  Alcotest.(check (list int)) "round 2 repeats the weights"
    [ 4; 5; 6; 7; 12; 13; 21 ]
    (List.filteri (fun i _ -> i >= 7 && i < 14) order);
  (* classification follows the layout *)
  let cls = plan.Il.classify in
  Alcotest.(check string) "stream 0 critical" "critical"
    (Significance.to_string (cls 0));
  Alcotest.(check string) "stream 1 normal" "normal"
    (Significance.to_string (cls 14));
  Alcotest.(check string) "stream 2 sheddable" "shed:1"
    (Significance.to_string (cls 20));
  Alcotest.(check string) "final TPDU promoted off the sheddable rank"
    "normal"
    (Significance.to_string (cls 29));
  Alcotest.(check string) "out of range defaults to normal" "normal"
    (Significance.to_string (cls 30));
  Alcotest.(check string) "negative T.ID defaults to normal" "normal"
    (Significance.to_string (cls (-1)));
  (* layout concatenates the streams *)
  Alcotest.(check (list int)) "layer offsets" [ 0; 80; 160 ]
    (List.map (fun (l : Il.layer) -> l.l_first_elem) plan.Il.layout);
  Alcotest.(check int) "total elements" 240 plan.Il.total_elems

let test_interleave_clean_delivery () =
  (* uneven stream lengths exercise the whole-TPDU padding: 100 bytes
     pads to 128 (4 TPDUs of 32 bytes), the final 70-byte stream pads
     only to the element (72 bytes, 18 elements, 3 TPDUs) *)
  let elem_size = 4 and tpdu_elems = 8 in
  let streams =
    [
      {
        Il.is_name = "a";
        is_cls = Significance.Critical;
        is_data = Util.deterministic_bytes 100;
      };
      {
        Il.is_name = "b";
        is_cls = Significance.Sheddable 1;
        is_data = Bytes.init 70 (fun i -> Char.chr ((i * 7 + 3) land 0xFF));
      };
    ]
  in
  let plan =
    Util.ok_or_fail (Il.plan ~elem_size ~tpdu_elems ~conn_id:7 streams)
  in
  Alcotest.(check int) "padded total" (32 + 18) plan.Il.total_elems;
  let config =
    {
      CT.default_config with
      conn_id = 7;
      elem_size;
      tpdu_elems;
      classify = plan.Il.classify;
      shed_txs = 2;
    }
  in
  let engine = Netsim.Engine.create ~seed:3 () in
  let link name deliver =
    let l =
      Netsim.Link.create engine ~name ~rate_bps:1e9 ~delay:1e-3
        ~mtu:config.CT.mtu ~deliver ()
    in
    fun b -> ignore (Netsim.Link.send l b)
  in
  let w =
    Transport.Transfer.connect engine config ~quota_elems:plan.Il.total_elems
      ~forward:(link "fwd") ~reverse:(link "ack") (`Tpdus plan.Il.tpdus)
  in
  Netsim.Engine.run engine;
  let m = Transport.Transfer.endpoint w in
  let e = Util.only_epoch m ~conn_id:7 in
  Alcotest.(check bool) "complete" true e.Transport.Multi.complete;
  Alcotest.(check int) "nothing shed on a clean path" 0
    (Transport.Multi.counters m).sheds_received;
  Alcotest.check Util.bytes_testable "delivery matches Interleave.expected"
    (Il.expected ~elem_size ~tpdu_elems streams)
    e.Transport.Multi.delivered

let test_interleave_rejects_bad_input () =
  let fails = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "plan accepted invalid input"
  in
  fails (Il.plan ~conn_id:1 []);
  fails
    (Il.plan ~conn_id:1
       [ { Il.is_name = "x"; is_cls = Significance.Normal;
           is_data = Bytes.empty } ]);
  fails
    (Il.plan ~elem_size:4 ~tpdu_elems:8 ~tid_stride:2 ~conn_id:1
       [ mk_stream "big" Significance.Normal 80 ])

(* --- the degradation path in the conformance harness --- *)

let test_degrade_hostile_soak () =
  (* seed chosen so the 15-schedule smoke deterministically includes
     schedules whose loss actually drives the sender to shed *)
  let report =
    Check.Soak.run_profile ~schedules:15 ~seed:11
      Check.Schedule.Degrade_hostile
  in
  List.iter
    (fun (f : Check.Soak.finding) ->
      List.iter
        (fun v ->
          Alcotest.failf "schedule %s violates %s"
            (Check.Schedule.to_string f.Check.Soak.schedule)
            (Check.Oracle.violation_to_string v))
        f.Check.Soak.violations)
    report.Check.Soak.findings;
  Alcotest.(check bool) "the adversary actually provoked sheds" true
    (Check.Soak.total report "sheds_honoured" > 0);
  Alcotest.(check bool) "sheds signalled >= honoured" true
    (Check.Soak.total report "sheds_signalled"
    >= Check.Soak.total report "sheds_honoured")

let test_shed_clobber_caught () =
  (* both endpoints mis-configured to treat TPDU 0 (which carries no
     shed contract) as expendable: the oracle's shed-safety row must
     fire, and the shrunk schedule must still violate *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Shed_clobber ~schedules:12
      ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  let shed_safety vs =
    List.exists (fun v -> v.Check.Oracle.code = "shed-safety") vs
  in
  Alcotest.(check bool) "caught as a shed-safety violation" true
    (List.exists
       (fun (f : Check.Soak.finding) -> shed_safety f.Check.Soak.violations)
       report.Check.Soak.findings);
  Alcotest.(check bool) "shrunk replay still violates shed-safety" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         shed_safety f.Check.Soak.shrunk.Check.Shrink.violations)
       report.Check.Soak.findings)

(* --- the completion rule --- *)

(* [complete] walks the lock map and the shed spans from a forward-only
   frontier.  Whatever the path — TPDUs passing out of order, a shed, a
   snapshot restored mid-way whose image carries a verified span the
   window cannot hold — it must agree with a from-scratch reading: the
   first gap in the sorted merge of the verified and the shed spans.
   The final TPDU, which carries C.ST, passes first: the stream's end is
   confirmed from then on (the restore carries it over), so every later
   step compares the frontier against the stream's length. *)
let test_completion_rule () =
  let tpdu_elems = 8 and n_tpdus = 6 in
  let elems = tpdu_elems * n_tpdus in
  let config =
    {
      CT.default_config with
      conn_id = 4;
      tpdu_elems;
      classify =
        (fun t_id ->
          if t_id = 2 then Significance.Sheddable 1 else Significance.Normal);
    }
  in
  let data = Util.deterministic_bytes (config.CT.elem_size * elems) in
  let framer =
    Framer.create ~elem_size:config.CT.elem_size ~tpdu_elems
      ~conn_id:config.CT.conn_id ()
  in
  let sealed =
    Util.ok_or_fail
      (Edc.Encoder.seal_tpdus
         (Util.ok_or_fail (Framer.push_frame ~last:true framer data)))
  in
  let packets t =
    List.filter (fun c -> c.Chunk.header.Header.t.Ftuple.id = t) sealed
    |> Packet.pack ~mtu:config.CT.mtu
    |> Util.ok_or_fail |> List.map Packet.encode
  in
  let engine = Netsim.Engine.create ~seed:3 () in
  let send_ack _ = () and capacity = `Quota elems in
  (* the ACK ledger lives in the owner, so the restored receiver keeps
     the first one's *)
  let owner =
    {
      CT.Receiver.o_governor =
        Transport.Governor.create ~budget_bytes:config.CT.state_budget
          ~ttl:config.CT.state_ttl ();
      o_acked = Labelling.Int_map.set 8;
      o_counts = Transport.Counters.zero ();
      o_spare = CT.Receiver.spare ();
    }
  in
  let rx =
    ref (CT.Receiver.create engine config ~owner ~send_ack ~capacity ())
  in
  let verified = ref [] in
  let old_rule spans =
    let rec go expect = function
      | [] -> expect
      | (s, l) :: rest ->
          if s > expect then expect else go (Int.max expect (s + l)) rest
    in
    go 0 (List.sort compare spans) >= elems
  in
  let es = config.CT.elem_size in
  let check step =
    let want = Util.coalesce_spans !verified in
    Alcotest.(check (list (pair int int)))
      (step ^ ": exported verified spans")
      want
      (List.map
         (fun (sn, _, _, len) -> (sn, len / es))
         (CT.Receiver.verified_runs !rx));
    Alcotest.(check bool)
      (step ^ ": complete as the sorted merge says")
      (old_rule (want @ CT.Receiver.shed_spans !rx))
      (CT.Receiver.complete !rx)
  in
  let pass t =
    CT.Receiver.ingest_batch !rx (Array.of_list (packets t));
    verified := (t * tpdu_elems, tpdu_elems) :: !verified;
    check (Printf.sprintf "TPDU %d passed" t)
  in
  let shed () =
    CT.Receiver.shed_tpdu !rx ~t_id:2 ~first_elem:(2 * tpdu_elems)
      ~elems:tpdu_elems;
    check "TPDU 2 shed"
  in
  check "fresh";
  pass 5;
  pass 3;
  pass 0;
  pass 1;
  shed ();
  (* the records that rebuild it gain a verified run straddling the
     window's end: the restored receiver cannot lock it, so it neither
     exports it nor counts it toward completion *)
  let module P = Transport.Persist in
  let conn = config.CT.conn_id in
  let records =
    P.Acked
      {
        conn;
        t_id = 0;
        end_confirmed = CT.Receiver.end_confirmed !rx;
        runs =
          CT.Receiver.verified_runs !rx
          @ [ P.owned_run (elems - 4) (Bytes.make (8 * es) 'x') ];
        parity = None;
      }
    :: List.map
         (fun (first_elem, n) -> P.Shed { conn; t_id = 2; first_elem; elems = n })
         (CT.Receiver.shed_spans !rx)
  in
  rx := CT.Receiver.create engine config ~owner ~send_ack ~capacity ();
  List.iter (CT.Receiver.replay !rx) records;
  check "restored";
  pass 4;
  if CT.Receiver.shed_spans !rx = [] then shed ();
  Alcotest.(check bool) "complete at the end" true (CT.Receiver.complete !rx)

let suite =
  [
    Util.qtest ~count:200 "Shed_tpdu signal round-trips" gen_shed_signal
      prop_shed_signal_roundtrip;
    Alcotest.test_case "sender sheds under loss, reliable bytes intact"
      `Quick test_shed_under_loss;
    Alcotest.test_case "forged shed of a Normal TPDU is ignored" `Quick
      test_forged_shed_ignored;
    Alcotest.test_case "shed after verification is ignored" `Quick
      test_shed_after_verify_ignored;
    Alcotest.test_case "Multi: a late chunk of a shed TPDU opens no epoch"
      `Quick test_multi_late_chunk_of_shed_tpdu;
    Alcotest.test_case "completion matches the sorted merge of verified and shed spans"
      `Quick test_completion_rule;
    Alcotest.test_case "governor displaces sheddable state first" `Quick
      test_governor_evicts_sheddable_first;
    Alcotest.test_case "governor: scripted eviction order pinned" `Quick
      test_governor_eviction_order_pinned;
    Alcotest.test_case "governor: re-touch after loss re-adds the entry"
      `Quick test_governor_retouch_after_loss;
    Alcotest.test_case "governor: same-instant same-bytes touch is a no-op"
      `Quick test_governor_noop_refresh;
    Alcotest.test_case "governor: same-instant growth still evicts" `Quick
      test_governor_same_instant_growth_evicts;
    Util.qtest ~count:300 "governor: budget and priority invariants"
      gen_gov_events prop_governor_budget_and_priority;
    Alcotest.test_case "interleave: weighted round-robin and classify"
      `Quick test_interleave_order_and_classify;
    Alcotest.test_case "interleave: clean path delivers expected bytes"
      `Quick test_interleave_clean_delivery;
    Alcotest.test_case "interleave: invalid inputs rejected" `Quick
      test_interleave_rejects_bad_input;
    Alcotest.test_case "soak: degrade-hostile profile" `Quick
      test_degrade_hostile_soak;
    Alcotest.test_case "shed clobber caught and shrunk" `Quick
      test_shed_clobber_caught;
  ]
