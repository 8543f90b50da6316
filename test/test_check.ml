(* The conformance harness itself: model geometry, schedule
   serialisation, replay determinism, a small per-profile soak, and the
   mutation self-test (the oracle must catch an injected stack bug). *)

let test_model_geometry () =
  (* 102 bytes, elem 4, 40-byte frames: 40 + 40 + 22 -> 10 + 10 + 6
     elements (only the last frame pads); 26 elements over 8-element
     TPDUs -> 4 TPDUs; expected buffer = data zero-padded to 104. *)
  let s =
    {
      (Check.Schedule.generate ~profile:Check.Schedule.Clean ~seed:1) with
      Check.Schedule.data_len = 102;
      elem_size = 4;
      frame_bytes = 40;
      tpdu_elems = 8;
    }
  in
  let m = Check.Model.of_schedule s in
  Alcotest.(check int) "elems" 26 m.Check.Model.elems;
  Alcotest.(check int) "tpdus" 4 m.Check.Model.n_tpdus;
  Alcotest.(check int) "expected bytes" 104
    (Bytes.length m.Check.Model.expected);
  let data = Check.Schedule.data_of s in
  Alcotest.check Util.bytes_testable "data prefix" data
    (Bytes.sub m.Check.Model.expected 0 102);
  Alcotest.check Util.bytes_testable "zero tail" (Bytes.make 2 '\000')
    (Bytes.sub m.Check.Model.expected 102 2);
  (* the model's element count must agree with the transport's *)
  Alcotest.(check int) "matches transport"
    (Transport.Chunk_transport.expected_elements (Check.Schedule.config_of s)
       ~data_len:102)
    m.Check.Model.elems

let gen_profile = QCheck2.Gen.oneofl Check.Schedule.all_profiles

let prop_schedule_roundtrip (profile, seed) =
  let s = Check.Schedule.generate ~profile ~seed in
  match Check.Schedule.of_string (Check.Schedule.to_string s) with
  | Some s' -> s = s'
  | None -> false

let test_replay_determinism () =
  let s =
    Check.Schedule.generate ~profile:Check.Schedule.Hostile ~seed:0xD13E
  in
  let a = Check.Driver.run s in
  let b = Check.Driver.run s in
  Alcotest.(check bool) "same ok" a.Check.Driver.ok b.Check.Driver.ok;
  Alcotest.(check int) "same retrans" a.Check.Driver.tally.retransmissions
    b.Check.Driver.tally.retransmissions;
  Alcotest.(check int) "same packets" a.Check.Driver.packets_sent
    b.Check.Driver.packets_sent;
  Alcotest.(check int) "same nacks" a.Check.Driver.tally.counts.nacks_sent
    b.Check.Driver.tally.counts.nacks_sent;
  Alcotest.(check (float 0.0)) "same sim time" a.Check.Driver.sim_time
    b.Check.Driver.sim_time;
  Alcotest.check Util.bytes_testable "same delivery" a.Check.Driver.delivered
    b.Check.Driver.delivered

(* Two rows read the endpoint's own records: a doctored observation whose
   verifiers passed one TPDU more than was freshly acknowledged, or whose
   governor peaked above the schedule's budget, is reported under that
   row and no other. *)
let test_oracle_reads_records () =
  let schedule =
    Check.Schedule.generate ~profile:Check.Schedule.Hostile_flood ~seed:7
  in
  let model = Check.Model.of_schedule schedule in
  let o = Check.Driver.run schedule in
  let codes observation =
    List.map
      (fun (v : Check.Oracle.violation) -> v.Check.Oracle.code)
      (Check.Oracle.check ~schedule ~model ~observation)
  in
  let doctored tally = codes { o with Check.Driver.tally } in
  let t = o.Check.Driver.tally and budget = schedule.Check.Schedule.state_budget in
  Alcotest.(check bool) "the schedule has a budget" true (budget > 0);
  Alcotest.(check (list string)) "the run is clean" [] (codes o);
  Alcotest.(check (list string)) "a pass with no fresh ACK"
    [ "metrics-verify-count" ]
    (doctored
       {
         t with
         verifier =
           { t.verifier with tpdus_passed = t.verifier.tpdus_passed + 1 };
       });
  Alcotest.(check (list string)) "a high water above the budget"
    [ "state-budget" ]
    (doctored { t with governor = { t.governor with high_water = budget + 1 } })

let soak profile n =
  let report = Check.Soak.run_profile ~schedules:n ~seed:7 profile in
  Alcotest.(check int) "all schedules ran" n
    report.Check.Soak.schedules_run;
  List.iter
    (fun (f : Check.Soak.finding) ->
      List.iter
        (fun v ->
          Alcotest.failf "schedule %s violates %s"
            (Check.Schedule.to_string f.Check.Soak.schedule)
            (Check.Oracle.violation_to_string v))
        f.Check.Soak.violations)
    report.Check.Soak.findings;
  Alcotest.(check int) "no undetected injections" 0
    report.Check.Soak.detect_undetected;
  report

let test_overlap_hostile_soak () =
  (* the overlap adversary must actually provoke conflicts — and the
     first-verified-wins policy must reject every one of them without a
     single oracle violation *)
  let report = soak Check.Schedule.Overlap_hostile 15 in
  Alcotest.(check bool) "adversary fired" true
    (Check.Soak.total report "overlap_injected" > 0);
  Alcotest.(check bool) "conflicts provoked" true
    (Check.Soak.total report "overlap_conflicts_seen" > 0);
  Alcotest.(check bool) "conflicts rejected by first-verified-wins" true
    (Check.Soak.total report "overlap_conflicts_rejected" > 0);
  Alcotest.check_raises "unknown counter"
    (Invalid_argument "Soak.total: unknown counter overlap_typo") (fun () ->
      ignore (Check.Soak.total report "overlap_typo"))

let test_overlap_clobber_caught () =
  (* a validly-sealed forged TPDU clobbers the first data chunk's range:
     its run conflicts with the sender's unverified bytes and waits in
     quarantine, it verifies first, and its verified write takes the
     element and locks it — the oracle must see the divergent delivery,
     and the shrinker must keep the overlap conflict alive while
     minimising *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Overlap_clobber
      ~schedules:12 ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  match
    List.find_opt
      (fun (f : Check.Soak.finding) ->
        f.Check.Soak.shrunk.Check.Shrink.violations <> [])
      report.Check.Soak.findings
  with
  | None -> Alcotest.fail "no finding shrunk to a replayable schedule"
  | Some f ->
      (* replay the shrunk schedule: the placement conflict the clobber
         provokes must have survived minimisation *)
      let s = f.Check.Soak.shrunk.Check.Shrink.schedule in
      let o = Check.Driver.run ~mutation:Check.Driver.Overlap_clobber s in
      Alcotest.(check bool) "conflict preserved in shrunk replay" true
        (o.Check.Driver.overlap.os_conflicts_seen > 0);
      Alcotest.(check bool) "shrunk replay still violates" true
        (Check.Oracle.check ~schedule:s
           ~model:(Check.Model.of_schedule s)
           ~observation:o
         <> [])

let test_byzantine_hostile_soak () =
  (* the byzantine peer must actually fire — and the anomaly scoring
     must box it (quarantines observed) without ever boxing an honest
     connection or tripping a single oracle row, including the
     blast-radius re-run every byzantine schedule performs *)
  let report = soak Check.Schedule.Byzantine_hostile 15 in
  Alcotest.(check bool) "adversary fired" true
    (Check.Soak.total report "byz_injected" > 0);
  Alcotest.(check bool) "flap cycles ran" true
    (Check.Soak.total report "byz_flaps" > 0);
  Alcotest.(check bool) "quarantine fired" true
    (Check.Soak.total report "byz_quarantines" > 0);
  Alcotest.(check bool) "boxed connections refused events" true
    (Check.Soak.total report "byz_quarantine_drops" > 0);
  Alcotest.(check int) "no honest connection ever boxed" 0
    (Check.Soak.total report "byz_honest_quarantined")

let test_byz_clobber_caught () =
  (* switch the quarantine off (anomaly budget 0) and require the
     isolation-budget oracle row to notice the unbounded epoch churn,
     and the shrinker to keep the byzantine peer in the minimised
     counterexample (the violation needs it) *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Byz_clobber ~schedules:8
      ~seed:11 Check.Schedule.Byzantine_hostile
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  match
    List.find_opt
      (fun (f : Check.Soak.finding) ->
        f.Check.Soak.shrunk.Check.Shrink.violations <> [])
      report.Check.Soak.findings
  with
  | None -> Alcotest.fail "no finding shrunk to a replayable schedule"
  | Some f ->
      let s = f.Check.Soak.shrunk.Check.Shrink.schedule in
      Alcotest.(check bool) "shrunk schedule keeps the byzantine peer" true
        (s.Check.Schedule.byz <> None);
      let o = Check.Driver.run ~mutation:Check.Driver.Byz_clobber s in
      Alcotest.(check int) "defense really was off in the replay" 0
        o.Check.Driver.tally.counts.quarantines;
      Alcotest.(check bool) "shrunk replay still violates" true
        (List.exists
           (fun (v : Check.Oracle.violation) ->
             v.Check.Oracle.code = "isolation-budget")
           (Check.Oracle.check ~schedule:s
              ~model:(Check.Model.of_schedule s)
              ~observation:o))

let test_corrupt_restore_caught () =
  (* flip one verified byte in the image restored after a crash: its
     TPDU is already in the ACK ledger, so no retransmission can heal
     it — the oracle must notice the corruption, and the shrunk
     counterexample must still carry a crash (the bug only exists on
     the recovery path) *)
  let report =
    Check.Soak.run_profile ~mutation:Check.Driver.Corrupt_restore
      ~schedules:12 ~seed:11 Check.Schedule.Crash_restart
  in
  Alcotest.(check bool) "bug caught" true (report.Check.Soak.findings <> []);
  Alcotest.(check bool) "catch shrunk to a replayable schedule" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         f.Check.Soak.shrunk.Check.Shrink.violations <> []
         && f.Check.Soak.shrunk.Check.Shrink.schedule.Check.Schedule.crashes
            <> [])
       report.Check.Soak.findings)

let test_replay_rejects_invalid_schedule () =
  (* a hand-edited replay line can parse and still be semantically
     broken; Schedule.validate is the gate chunks-soak uses to turn
     that into a one-line error and exit 2 instead of an exception from
     deep inside the transport *)
  let base =
    Check.Schedule.generate ~profile:Check.Schedule.Crash_restart ~seed:3
  in
  Alcotest.(check (result unit string))
    "generated schedules validate" (Ok ())
    (Check.Schedule.validate base);
  let overlapping =
    {
      base with
      Check.Schedule.crashes =
        [
          { Check.Schedule.cr_time = 0.1; cr_restart = 0.2 };
          { Check.Schedule.cr_time = 0.15; cr_restart = 0.1 };
        ];
    }
  in
  (* the broken spec still round-trips the printer — exactly the
     parseable-but-invalid case the CLI guard exists for *)
  (match Check.Schedule.of_string (Check.Schedule.to_string overlapping) with
  | Some s -> Alcotest.(check bool) "broken spec parses" true (s = overlapping)
  | None -> Alcotest.fail "broken spec should still parse");
  Alcotest.(check bool) "overlapping crashes rejected" true
    (Result.is_error (Check.Schedule.validate overlapping));
  Alcotest.(check bool) "negative downtime rejected" true
    (Result.is_error
       (Check.Schedule.validate
          {
            base with
            Check.Schedule.crashes =
              [ { Check.Schedule.cr_time = 0.1; cr_restart = -0.2 } ];
          }));
  Alcotest.(check bool) "negative snap_period rejected" true
    (Result.is_error
       (Check.Schedule.validate
          { base with Check.Schedule.snap_period = -1.0 }));
  (* shed and overlap need a single-connection schedule: the model's
     shed contract and the overlap rows cover one connection, and a
     flood or a second connection makes a schedule multi-mode *)
  List.iter
    (fun seed ->
      let s =
        Check.Schedule.generate ~profile:Check.Schedule.Degrade_hostile ~seed
      in
      Alcotest.(check bool)
        (Printf.sprintf "shed under a flood rejected (seed %d)" seed)
        true
        (Result.is_error
           (Check.Schedule.validate
              {
                s with
                Check.Schedule.flood =
                  Some
                    {
                      Check.Schedule.flood_rate = 300.0;
                      flood_stop = 0.3;
                      flood_conns = 4;
                    };
              })))
    [ 1; 35; 36 ];
  Alcotest.(check bool) "overlap on two connections rejected" true
    (Result.is_error
       (Check.Schedule.validate
          {
            (Check.Schedule.generate ~profile:Check.Schedule.Overlap_hostile
               ~seed:7)
            with
            Check.Schedule.connections = 2;
          }));
  (* a spec with a field no release knows is refused outright, and the
     offender is reported by name for the CLI diagnostic *)
  let with_bogus = Check.Schedule.to_string base ^ " bogus=1" in
  Alcotest.(check (list string))
    "unknown fields reported" [ "bogus" ]
    (Check.Schedule.unknown_fields with_bogus);
  Alcotest.(check bool) "unknown-field spec rejected" true
    (Check.Schedule.of_string with_bogus = None)

(* A number written as nan or inf slips past every [x < 0.0]-style
   guard; the replay must refuse it, naming the field, rather than run
   it into a false stack finding. *)
let test_validate_rejects_non_finite () =
  let line =
    Check.Schedule.to_string
      (Check.Schedule.generate ~profile:Check.Schedule.Clean ~seed:1)
  in
  let set key v =
    String.concat " "
      (List.map
         (fun tok ->
           if String.starts_with ~prefix:(key ^ "=") tok then key ^ "=" ^ v
           else tok)
         (String.split_on_char ' ' line))
  in
  List.iter
    (fun key ->
      List.iter
        (fun v ->
          let spec = Printf.sprintf "%s=%s" key v in
          match Check.Schedule.of_string (set key v) with
          | None -> Alcotest.failf "%s should parse" spec
          | Some s -> (
              match Check.Schedule.validate s with
              | Ok () -> Alcotest.failf "%s accepted" spec
              | Error msg ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %S names the field" spec msg)
                    true
                    (String.starts_with ~prefix:(key ^ " ") msg)))
        [ "nan"; "inf"; "-inf" ])
    [
      "rto"; "nack_delay"; "state_ttl"; "skew"; "jitter"; "rate_bps";
      "delay"; "loss"; "corrupt"; "duplicate"; "snap_period";
    ];
  (* the two infinities the generator and the docs use stay valid: a
     permanently dead ACK path and a drop outage that never ends *)
  let base =
    Check.Schedule.generate ~profile:Check.Schedule.Outage_recover ~seed:1
  in
  Alcotest.(check (result unit string))
    "endless ack_blackhole" (Ok ())
    (Check.Schedule.validate
       { base with Check.Schedule.ack_blackhole = Some (0.01, infinity) });
  let endless hold =
    {
      base with
      Check.Schedule.outage =
        Some
          {
            Check.Schedule.out_hold = hold;
            out_start = 0.01;
            out_duration = infinity;
          };
    }
  in
  Alcotest.(check (result unit string))
    "endless drop outage" (Ok ())
    (Check.Schedule.validate (endless false));
  Alcotest.(check bool) "endless hold outage rejected" true
    (Result.is_error (Check.Schedule.validate (endless true)))

(* The replay lines EXPERIMENTS.md documents, verbatim. *)
let documented_replays =
  [
    "seed=42 profile=overlap-hostile data_len=5037 elem_size=8 \
     tpdu_elems=507 frame_bytes=656 mtu=660 window=8 \
     rto=0.12243262388669339 sack=true adaptive=false \
     nack_delay=0.030608155971673347 rto_adaptive=false give_up_txs=40 \
     state_budget=0 state_ttl=5 connections=1 reopen=false paths=6 \
     skew=0.00040185694657634012 jitter=0 spread=random \
     rate_bps=357289067.79785401 delay=0.00021239479775775715 \
     gateways=one:1045:4 loss=0.018752571147374327 \
     corrupt=0.0093092595643903681 duplicate=0.042079885140191578 dropper=- \
     ack_blackhole=- outage=- flood=- \
     overlap=120:0.59999999999999998:true:true:true shed=- crashes=- \
     snap_period=0 byz=-";
    "seed=1536806005072951514 profile=fastpath-hostile data_len=978 \
     elem_size=4 tpdu_elems=456 frame_bytes=740 mtu=1162 window=8 \
     rto=0.15263576704970339 sack=true adaptive=false \
     nack_delay=0.038158941762425846 rto_adaptive=true give_up_txs=40 \
     state_budget=0 state_ttl=5 connections=1 reopen=true paths=4 \
     skew=0.00022442247085443912 jitter=0 \
     spread=change:0.026558851562041803 rate_bps=112447099.378811 \
     delay=0.00051348559230668823 gateways=one:1008:3,combine:260:3 \
     loss=0.057154593614468202 corrupt=0.0082187233663428873 duplicate=0 \
     dropper=- ack_blackhole=- outage=- flood=- overlap=- shed=- crashes=- \
     snap_period=0 byz=-";
  ]

(* One generated schedule per profile, as committed text: a change to
   the replay format (or to what [generate] draws) shows up here. *)
let pinned_schedules =
  [
    ( Check.Schedule.Clean,
      117,
      "seed=117 profile=clean data_len=9851 elem_size=4 tpdu_elems=428 \
        frame_bytes=888 mtu=661 window=6 rto=0.17533114392659355 sack=true \
        adaptive=true nack_delay=0.17533114392659355 rto_adaptive=false \
        give_up_txs=40 state_budget=0 state_ttl=5.2599343177978062 \
        connections=1 reopen=false paths=2 skew=0.00015533409955854161 \
        jitter=0 spread=change:0.035440918821204995 \
        rate_bps=125036203.56537773 delay=0.0013473100176801993 \
        gateways=one:1011:2,one:469:1,reassemble:447:2 loss=0 corrupt=0 \
        duplicate=0 dropper=- ack_blackhole=- outage=- flood=- overlap=- \
        shed=- crashes=- snap_period=0 byz=-" );
    ( Check.Schedule.Lossy,
      191,
      "seed=191 profile=lossy data_len=15095 elem_size=4 tpdu_elems=46 \
        frame_bytes=488 mtu=1637 window=4 rto=0.13597676788991139 sack=true \
        adaptive=true nack_delay=0.033994191972477848 rto_adaptive=true \
        give_up_txs=40 state_budget=0 state_ttl=5 connections=1 \
        reopen=false paths=2 skew=0.00032073068897192511 \
        jitter=2.6885170198859808e-05 spread=change:0.082214138717485327 \
        rate_bps=521110705.73030192 delay=0.00048952447126536904 \
        gateways=one:707:2,reassemble:162:1 loss=0.015292151933072437 \
        corrupt=0 duplicate=0.019717455388954204 dropper=- ack_blackhole=- \
        outage=- flood=- overlap=- shed=- crashes=- snap_period=0 \
        byz=-" );
    ( Check.Schedule.Hostile,
      111,
      "seed=111 profile=hostile data_len=4947 elem_size=8 tpdu_elems=420 \
        frame_bytes=416 mtu=1858 window=7 rto=0.17186530653734738 sack=true \
        adaptive=false nack_delay=0.042966326634336846 rto_adaptive=true \
        give_up_txs=40 state_budget=0 state_ttl=5.1559591961204214 \
        connections=1 reopen=false paths=2 skew=0.00026185654608144496 \
        jitter=0.0001926442728598856 spread=change:0.057973715965183158 \
        rate_bps=219499675.57518858 delay=0.00079921055379632722 \
        gateways=combine:945:4,reassemble:296:2,one:326:4 \
        loss=0.050346617178427387 corrupt=0.016498813895902679 \
        duplicate=0.015176951800289541 dropper=- ack_blackhole=- outage=- \
        flood=- overlap=- shed=- crashes=- snap_period=0 \
        byz=-" );
    ( Check.Schedule.Hostile_flood,
      120,
      "seed=120 profile=hostile-flood data_len=6233 elem_size=4 \
        tpdu_elems=402 frame_bytes=836 mtu=860 window=4 \
        rto=0.16025715358330964 sack=true adaptive=false \
        nack_delay=0.040064288395827409 rto_adaptive=true give_up_txs=9 \
        state_budget=365168 state_ttl=5 connections=2 reopen=true paths=5 \
        skew=0.00049479364815244078 jitter=0 \
        spread=change:0.027908082532320164 rate_bps=182246562.26630837 \
        delay=0.00026476371689014458 \
        gateways=combine:338:1,reassemble:1600:3,reassemble:719:3 \
        loss=0.019980688715400943 corrupt=0.015380243291169878 \
        duplicate=0.015236485527047223 dropper=- \
        ack_blackhole=0.083040695945466647:inf outage=- \
        flood=1451.0882359857414:0.67256601421717921:19 overlap=- shed=- \
        crashes=- snap_period=0 byz=-" );
    ( Check.Schedule.Outage_recover,
      61,
      "seed=61 profile=outage-recover data_len=14194 elem_size=8 \
        tpdu_elems=428 frame_bytes=208 mtu=1248 window=1 \
        rto=0.16815576587363085 sack=true adaptive=false \
        nack_delay=0.042038941468407712 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=7.6890852302428874 connections=1 \
        reopen=false paths=6 skew=0.00035809365733365596 \
        jitter=0.00019691706461987091 spread=change:0.091005096108159197 \
        rate_bps=484867544.14813745 delay=0.0012921923546704117 \
        gateways=reassemble:971:2,combine:1450:1,one:772:2 \
        loss=0.015796115684058316 corrupt=0 duplicate=0.048298766475487642 \
        dropper=- ack_blackhole=- \
        outage=drop:0.10321049304830426:3.8445426151214437 flood=- \
        overlap=- shed=- crashes=- snap_period=0 byz=-" );
    ( Check.Schedule.Crash_restart,
      61,
      "seed=61 profile=crash-restart data_len=14194 elem_size=8 \
        tpdu_elems=428 frame_bytes=208 mtu=1209 window=6 \
        rto=0.16514868954860312 sack=false adaptive=true \
        nack_delay=0.041287172387150781 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=5 connections=1 reopen=false paths=6 \
        skew=0.00045265840056925896 jitter=0.00019691706461987091 \
        spread=change:0.060727374666985384 rate_bps=395108313.19406652 \
        delay=0.00047515774749638503 \
        gateways=reassemble:971:2,combine:1450:1,one:772:2 loss=0 corrupt=0 \
        duplicate=0.048298766475487642 dropper=- ack_blackhole=- outage=- \
        flood=- overlap=- shed=- \
        crashes=0.83588162932530929:0.71133408690806887 \
        snap_period=1.27906711750181 byz=-" );
    ( Check.Schedule.Crash_flood,
      0,
      "seed=0 profile=crash-flood data_len=1175 elem_size=8 tpdu_elems=242 \
        frame_bytes=72 mtu=1582 window=2 rto=0.16836889727439419 sack=false \
        adaptive=true nack_delay=0.042092224318598548 rto_adaptive=true \
        give_up_txs=40 state_budget=172384 state_ttl=5.0510669182318253 \
        connections=2 reopen=true paths=7 skew=0.00014106800864206826 \
        jitter=0.00023866053142007615 spread=change:0.038760677644735009 \
        rate_bps=515387419.86819553 delay=0.0013528041116528519 \
        gateways=reassemble:443:4,combine:320:1,combine:1197:4 \
        loss=0.018560270374973788 corrupt=0.017727735514138088 \
        duplicate=0.022018999316671645 dropper=- ack_blackhole=- outage=- \
        flood=925.66698870849041:0.43428852714376431:9 overlap=- shed=- \
        crashes=1.333941906169283:0.83677912257166776,3.1595212784833144:0.47403741746948314 \
        snap_period=1.8256619836111918 byz=-" );
    ( Check.Schedule.Overlap_hostile,
      23,
      "seed=23 profile=overlap-hostile data_len=13578 elem_size=4 \
        tpdu_elems=97 frame_bytes=80 mtu=353 window=5 \
        rto=0.16163964491214156 sack=true adaptive=true \
        nack_delay=0.040409911228035389 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=5 connections=1 reopen=false paths=3 \
        skew=0.00046299701778842339 jitter=0.00024438850795830726 \
        spread=change:0.070846730391572008 rate_bps=184355698.49134195 \
        delay=0.00030896440290913428 \
        gateways=combine:1372:3,reassemble:203:3,reassemble:1649:3 \
        loss=0.019873466534309738 corrupt=0.0045478870949173644 duplicate=0 \
        dropper=- ack_blackhole=- outage=- flood=- \
        overlap=190.95899363963298:0.41913811557423719:false:true:true \
        shed=- crashes=- snap_period=0 byz=-" );
    ( Check.Schedule.Degrade_hostile,
      111,
      "seed=111 profile=degrade-hostile data_len=10588 elem_size=8 \
        tpdu_elems=420 frame_bytes=416 mtu=1858 window=7 \
        rto=0.17186530653734738 sack=true adaptive=false \
        nack_delay=0.042966326634336846 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=5.1559591961204214 connections=1 \
        reopen=false paths=2 skew=0.00026185654608144496 \
        jitter=0.0001926442728598856 spread=change:0.057973715965183158 \
        rate_bps=219499675.57518858 delay=0.00079921055379632722 \
        gateways=combine:945:4,reassemble:296:2,one:326:4 loss=0 corrupt=0 \
        duplicate=0.033113069036471265 dropper=class:0.16068324630805023 \
        ack_blackhole=- outage=- flood=- overlap=- shed=3:2 crashes=- \
        snap_period=0 byz=-" );
    ( Check.Schedule.Fastpath_hostile,
      4,
      "seed=4 profile=fastpath-hostile data_len=261 elem_size=4 \
        tpdu_elems=331 frame_bytes=380 mtu=678 window=8 \
        rto=0.16159976168895412 sack=true adaptive=true \
        nack_delay=0.040399940422238531 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=5 connections=2 reopen=false paths=2 \
        skew=0.00047570176202143318 jitter=0 \
        spread=change:0.080754180489582134 rate_bps=421551928.96954101 \
        delay=0.00065528627315959633 \
        gateways=one:935:3,combine:650:1,one:1124:3 \
        loss=0.070577523857524166 corrupt=0.036191107382893467 \
        duplicate=0.04277307929154988 dropper=random:0.04725107347725914 \
        ack_blackhole=- outage=- flood=- overlap=- shed=- crashes=- \
        snap_period=0 byz=-" );
    ( Check.Schedule.Byzantine_hostile,
      147,
      "seed=147 profile=byzantine-hostile data_len=7888 elem_size=8 \
        tpdu_elems=198 frame_bytes=1976 mtu=653 window=4 \
        rto=0.17675438054145395 sack=true adaptive=false \
        nack_delay=0.044188595135363488 rto_adaptive=true give_up_txs=40 \
        state_budget=0 state_ttl=5.302631416243619 connections=1 \
        reopen=false paths=2 skew=0.00031520785825636622 \
        jitter=1.8307345699758779e-06 spread=change:0.024559713053955469 \
        rate_bps=53966886.002159923 delay=0.00088730604742844705 \
        gateways=combine:187:2,combine:531:2,combine:1440:1 \
        loss=0.0038714384340844143 corrupt=0 duplicate=0.009187838047838931 \
        dropper=- ack_blackhole=- outage=- flood=- overlap=- shed=- \
        crashes=0.59757981128719062:0.41169781052459586 \
        snap_period=2.3937029653265776 \
        byz=199.60410386787814:0.75454909783551971:1:false:false:true:false" );
  ]

let test_replay_format_pinned () =
  List.iter
    (fun line ->
      match Check.Schedule.of_string line with
      | None -> Alcotest.failf "documented replay unparseable: %s" line
      | Some s ->
          Alcotest.(check string)
            "documented replay reprints byte for byte" line
            (Check.Schedule.to_string s);
          (* every field is required: drop any one token and the line
             no longer parses *)
          let toks = String.split_on_char ' ' line in
          List.iteri
            (fun i tok ->
              let without =
                String.concat " " (List.filteri (fun j _ -> j <> i) toks)
              in
              Alcotest.(check bool) ("missing " ^ tok) true
                (Check.Schedule.of_string without = None))
            toks)
    documented_replays;
  Alcotest.(check (list string))
    "one pinned schedule per profile"
    (List.map Check.Schedule.profile_name Check.Schedule.all_profiles)
    (List.map
       (fun (p, _, _) -> Check.Schedule.profile_name p)
       pinned_schedules);
  List.iter
    (fun (profile, seed, expected) ->
      Alcotest.(check string)
        (Check.Schedule.profile_name profile ^ " schedule text")
        expected
        (Check.Schedule.to_string (Check.Schedule.generate ~profile ~seed)))
    pinned_schedules

(* Regression: a snapshot taken while a TPDU held quarantined runs
   restored a verifier whose parity already counted those runs, so
   their retransmission was dropped as a duplicate and the epoch
   delivered the squatter's bytes ([epoch-mismatch]). *)
let quarantine_snapshot_line =
  "seed=689562339263405287 profile=crash-flood data_len=5264 elem_size=8 \
   tpdu_elems=379 frame_bytes=688 mtu=618 window=3 rto=0.14175528964411566 \
   sack=false adaptive=false nack_delay=0.035438822411028914 \
   rto_adaptive=false give_up_txs=40 state_budget=0 state_ttl=5 \
   connections=2 reopen=false paths=8 skew=0.00031616100835084445 jitter=0 \
   spread=rr rate_bps=528044993.70458406 delay=0.00092236078157678853 \
   gateways=one:1159:1,combine:1378:1 loss=0 corrupt=0.016638631983681137 \
   duplicate=0 dropper=- ack_blackhole=- outage=- flood=- overlap=- shed=- \
   crashes=0.94240336828574622:0.43379332389094727 \
   snap_period=0.83083276366275816 byz=-"

let test_quarantine_snapshot_restore () =
  match Check.Schedule.of_string quarantine_snapshot_line with
  | None -> Alcotest.fail "regression line does not parse"
  | Some s ->
      let o = Check.Driver.run s in
      Alcotest.(check int) "one restore" 1 o.Check.Driver.restores;
      Alcotest.(check (list string))
        "no oracle violations" []
        (List.map
           Check.Oracle.violation_to_string
           (Check.Oracle.check ~schedule:s ~model:(Check.Model.of_schedule s)
              ~observation:o))

(* Regression: the deadline GC closed a connection during a quiet spell
   while its sender was still retransmitting; its retransmissions carry
   no Open once a TPDU verified, so they were scored late until the
   sender gave up ([gave-up], conn_gcs=1). *)
let idle_gc_line =
  "seed=1664567534376425684 profile=outage-recover data_len=9690 \
   elem_size=4 tpdu_elems=180 frame_bytes=56 mtu=2043 window=6 \
   rto=0.14472852185945542 sack=false adaptive=false \
   nack_delay=0.036182130464863856 rto_adaptive=false give_up_txs=40 \
   state_budget=0 state_ttl=5 connections=1 reopen=false paths=6 skew=0 \
   jitter=0 spread=random rate_bps=366832726.45933968 \
   delay=0.0014113318390279168 gateways=combine:2029:1,reassemble:1340:1 \
   loss=0.055717918202313782 corrupt=0 duplicate=0 dropper=- \
   ack_blackhole=- outage=drop:0.048790889184831827:2.3891098340141479 \
   flood=- overlap=- shed=- crashes=- snap_period=0 byz=-"

(* A regression schedule line parses and replays with no oracle
   violation. *)
let replays_clean line () =
  match Check.Schedule.of_string line with
  | None -> Alcotest.fail "regression line does not parse"
  | Some s ->
      let o = Check.Driver.run s in
      Alcotest.(check (list string))
        "no oracle violations" []
        (List.map
           Check.Oracle.violation_to_string
           (Check.Oracle.check ~schedule:s ~model:(Check.Model.of_schedule s)
              ~observation:o))

(* Regression: a Close signal whose header was damaged in flight (its
   T.ID read 32, where a signal carries 0) passed the payload parity and
   closed connection 1 while its sender was still sending; the
   connection was then scored late, quarantined 9 times, and its sender
   gave up ([gave-up]). *)
let damaged_signal_line =
  "seed=111812214452086305 profile=crash-flood data_len=6713 elem_size=4 \
   tpdu_elems=260 frame_bytes=80 mtu=303 window=1 rto=0.11827294179718628 \
   sack=false adaptive=false nack_delay=0.02956823544929657 \
   rto_adaptive=false give_up_txs=40 state_budget=0 state_ttl=5 \
   connections=3 reopen=false paths=5 skew=0 \
   jitter=0.00029640215029551553 spread=random \
   rate_bps=345896982.58509457 delay=0.00058494892932143899 \
   gateways=reassemble:1838:1 loss=0.014572803276502818 \
   corrupt=0.0097237204284185939 duplicate=0.023197886758469191 dropper=- \
   ack_blackhole=- outage=- flood=- overlap=- shed=- crashes=- \
   snap_period=0 byz=-"

let test_mutation_caught () =
  (* inject a bug (flip a byte of every 2nd packet at the receiver door)
     and require the oracle to catch it AND the shrinker to keep a
     replayable violating schedule *)
  let report =
    Check.Soak.run_profile ~mutation:(Check.Driver.Flip_every 2)
      ~schedules:12 ~seed:11 Check.Schedule.Clean
  in
  Alcotest.(check bool) "bug caught" true
    (report.Check.Soak.findings <> []);
  Alcotest.(check bool) "catch shrunk to a replayable schedule" true
    (List.exists
       (fun (f : Check.Soak.finding) ->
         f.Check.Soak.shrunk.Check.Shrink.violations <> [])
       report.Check.Soak.findings)

(* Counterfactual sensitivity.  No mutation self-test needs these rows
   (other rows catch every planted bug first), so each is exercised
   directly: take a real run of a schedule that uses the row, tamper
   with that row's re-run outcome, and require the oracle to name
   exactly that row. *)
let counterfactual_run ~profile ~row =
  let cf =
    List.find
      (fun (cf : Check.Driver.counterfactual) -> cf.Check.Driver.row = row)
      Check.Driver.counterfactuals
  in
  let rec find seed =
    let s = Check.Schedule.generate ~profile ~seed in
    if cf.Check.Driver.applies s then s else find (seed + 1)
  in
  let s = find 1 in
  (s, Check.Driver.run s)

let oracle_codes s o =
  List.sort_uniq compare
    (List.map
       (fun (v : Check.Oracle.violation) -> v.Check.Oracle.code)
       (Check.Oracle.check ~schedule:s ~model:(Check.Model.of_schedule s)
          ~observation:o))

(* Rewrite one settled epoch of [row]'s re-run outcome with [f]
   ([None] drops it) and return the oracle's row names. *)
let tampered_codes ~row s (o : Check.Driver.observation) f =
  let rerun = List.assoc row o.Check.Driver.counterfactuals in
  let target =
    List.find
      (fun (e : Check.Driver.epoch_obs) ->
        e.Check.Driver.e_complete && (not e.Check.Driver.e_gave_up)
        &&
        match e.Check.Driver.e_delivered with
        | Some d -> Bytes.length d > 0
        | None -> false)
      rerun
  in
  let rerun' =
    List.filter_map (fun e -> if e == target then f e else Some e) rerun
  in
  oracle_codes s
    {
      o with
      Check.Driver.counterfactuals =
        List.map
          (fun (r, out) -> if r = row then (r, rerun') else (r, out))
          o.Check.Driver.counterfactuals;
    }

let flip_byte (e : Check.Driver.epoch_obs) =
  Some
    {
      e with
      Check.Driver.e_delivered =
        Option.map
          (fun d ->
            let d = Bytes.copy d in
            Bytes.set d 0 (Char.chr (Char.code (Bytes.get d 0) lxor 1));
            d)
          e.Check.Driver.e_delivered;
    }

let toggle_complete (e : Check.Driver.epoch_obs) =
  Some { e with Check.Driver.e_complete = not e.Check.Driver.e_complete }

let test_counterfactual_sensitivity ~profile ~row () =
  let s, o = counterfactual_run ~profile ~row in
  Alcotest.(check (list string))
    "untampered run is clean" [] (oracle_codes s o);
  Alcotest.(check (list string)) "flipped byte" [ row ]
    (tampered_codes ~row s o flip_byte);
  Alcotest.(check (list string)) "toggled complete" [ row ]
    (tampered_codes ~row s o toggle_complete);
  Alcotest.(check (list string)) "dropped epoch" [ row ]
    (tampered_codes ~row s o (fun _ -> None));
  Alcotest.(check (list string)) "missing re-run" [ row ]
    (oracle_codes s
       {
         o with
         Check.Driver.counterfactuals =
           List.remove_assoc row o.Check.Driver.counterfactuals;
       })

let test_exact_one_sided_delivery () =
  (* exact equality counts bytes delivered on one side only, per epoch
     of a demultiplexed run *)
  let row = "blast-radius" in
  let s, o =
    counterfactual_run ~profile:Check.Schedule.Byzantine_hostile ~row
  in
  Alcotest.(check (list string)) "one-sided delivery" [ row ]
    (tampered_codes ~row s o (fun e ->
         Some { e with Check.Driver.e_delivered = None }))

let suite =
  [
    Alcotest.test_case "model geometry" `Quick test_model_geometry;
    Util.qtest ~count:150 "schedule round-trips through to_string"
      QCheck2.Gen.(tup2 gen_profile (int_range 0 1_000_000))
      prop_schedule_roundtrip;
    Alcotest.test_case "oracle rows read the endpoint's records" `Quick
      test_oracle_reads_records;
    Alcotest.test_case "replay is deterministic" `Quick
      test_replay_determinism;
    Alcotest.test_case "soak: clean profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Clean 40));
    Alcotest.test_case "soak: lossy profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Lossy 25));
    Alcotest.test_case "soak: hostile profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Hostile 25));
    Alcotest.test_case "soak: hostile-flood profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Hostile_flood 15));
    Alcotest.test_case "soak: outage-recover profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Outage_recover 15));
    Alcotest.test_case "soak: crash-restart profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Crash_restart 15));
    Alcotest.test_case "soak: crash-flood profile" `Quick (fun () ->
        ignore (soak Check.Schedule.Crash_flood 10));
    Alcotest.test_case "soak: overlap-hostile profile" `Quick
      test_overlap_hostile_soak;
    Alcotest.test_case "soak: byzantine-hostile profile" `Quick
      test_byzantine_hostile_soak;
    Alcotest.test_case "byz clobber caught, shrunk, peer preserved" `Quick
      test_byz_clobber_caught;
    Alcotest.test_case "snapshot with quarantined runs restores exact bytes"
      `Quick test_quarantine_snapshot_restore;
    Alcotest.test_case "injected mutation caught and shrunk" `Quick
      test_mutation_caught;
    Alcotest.test_case "corrupted restore caught and shrunk" `Quick
      test_corrupt_restore_caught;
    Alcotest.test_case "overlap clobber caught, shrunk, conflict preserved"
      `Quick test_overlap_clobber_caught;
    Alcotest.test_case "replay rejects parseable-but-invalid schedules"
      `Quick test_replay_rejects_invalid_schedule;
    Alcotest.test_case "replay rejects non-finite numbers" `Quick
      test_validate_rejects_non_finite;
    Alcotest.test_case "replay format pinned" `Quick test_replay_format_pinned;
    Alcotest.test_case "counterfactual sensitivity: overlap-determinism"
      `Quick
      (test_counterfactual_sensitivity ~profile:Check.Schedule.Overlap_hostile
         ~row:"overlap-determinism");
    Alcotest.test_case "counterfactual sensitivity: blast-radius" `Quick
      (test_counterfactual_sensitivity
         ~profile:Check.Schedule.Byzantine_hostile ~row:"blast-radius");
    Alcotest.test_case "counterfactual: exact counts one-sided delivery"
      `Quick test_exact_one_sided_delivery;
    Alcotest.test_case "idle GC spares a retransmitting sender" `Quick
      (replays_clean idle_gc_line);
    Alcotest.test_case "a signal with damaged labels is refused" `Quick
      (replays_clean damaged_signal_line);
  ]
