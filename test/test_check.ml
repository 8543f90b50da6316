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
  Alcotest.(check int) "same retrans" a.Check.Driver.retransmissions
    b.Check.Driver.retransmissions;
  Alcotest.(check int) "same packets" a.Check.Driver.packets_sent
    b.Check.Driver.packets_sent;
  Alcotest.(check int) "same nacks" a.Check.Driver.nacks_sent
    b.Check.Driver.nacks_sent;
  Alcotest.(check (float 0.0)) "same sim time" a.Check.Driver.sim_time
    b.Check.Driver.sim_time;
  Alcotest.check Util.bytes_testable "same delivery" a.Check.Driver.delivered
    b.Check.Driver.delivered

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
    (report.Check.Soak.ov_injected > 0);
  Alcotest.(check bool) "conflicts provoked" true
    (report.Check.Soak.ov_conflicts_seen > 0);
  Alcotest.(check bool) "conflicts rejected by first-verified-wins" true
    (report.Check.Soak.ov_conflicts_rejected > 0)

let test_overlap_clobber_caught () =
  (* a validly-sealed forged TPDU clobbers the first data chunk's range:
     it verifies first, locks the bytes, and the sender's real data is
     rejected — the oracle must see the divergent delivery, and the
     shrinker must keep the overlap conflict alive while minimising *)
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
        (o.Check.Driver.overlap_conflicts_rejected > 0);
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
    (report.Check.Soak.bz_injected > 0);
  Alcotest.(check bool) "flap cycles ran" true
    (report.Check.Soak.bz_flaps > 0);
  Alcotest.(check bool) "quarantine fired" true
    (report.Check.Soak.bz_quarantines > 0);
  Alcotest.(check bool) "boxed connections refused events" true
    (report.Check.Soak.bz_quarantine_drops > 0);
  Alcotest.(check int) "no honest connection ever boxed" 0
    report.Check.Soak.bz_honest_quarantined

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
        o.Check.Driver.quarantines;
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
  (* a spec with a field no release knows is refused outright, and the
     offender is reported by name for the CLI diagnostic *)
  let with_bogus = Check.Schedule.to_string base ^ " bogus=1" in
  Alcotest.(check (list string))
    "unknown fields reported" [ "bogus" ]
    (Check.Schedule.unknown_fields with_bogus);
  Alcotest.(check bool) "unknown-field spec rejected" true
    (Check.Schedule.of_string with_bogus = None)

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
let counterfactual_run ~profile ~row ?(where = fun _ -> true) () =
  let cf =
    List.find
      (fun (cf : Check.Driver.counterfactual) -> cf.Check.Driver.row = row)
      Check.Driver.counterfactuals
  in
  let rec find seed =
    let s = Check.Schedule.generate ~profile ~seed in
    if cf.Check.Driver.applies s && where s then s else find (seed + 1)
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

let test_counterfactual_sensitivity ~profile ~row ?where () =
  let s, o = counterfactual_run ~profile ~row ?where () in
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
  let row = "fastpath-coherence" in
  let s, o =
    counterfactual_run ~profile:Check.Schedule.Fastpath_hostile ~row
      ~where:Check.Schedule.multi_mode ()
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
    Alcotest.test_case "injected mutation caught and shrunk" `Quick
      test_mutation_caught;
    Alcotest.test_case "corrupted restore caught and shrunk" `Quick
      test_corrupt_restore_caught;
    Alcotest.test_case "overlap clobber caught, shrunk, conflict preserved"
      `Quick test_overlap_clobber_caught;
    Alcotest.test_case "replay rejects parseable-but-invalid schedules"
      `Quick test_replay_rejects_invalid_schedule;
    Alcotest.test_case "counterfactual sensitivity: overlap-determinism"
      `Quick
      (test_counterfactual_sensitivity ~profile:Check.Schedule.Overlap_hostile
         ~row:"overlap-determinism");
    Alcotest.test_case "counterfactual sensitivity: fastpath-coherence"
      `Quick
      (test_counterfactual_sensitivity
         ~profile:Check.Schedule.Fastpath_hostile ~row:"fastpath-coherence"
         ~where:Check.Schedule.multi_mode);
    Alcotest.test_case "counterfactual sensitivity: blast-radius" `Quick
      (test_counterfactual_sensitivity
         ~profile:Check.Schedule.Byzantine_hostile ~row:"blast-radius");
    Alcotest.test_case "counterfactual: exact counts one-sided delivery"
      `Quick test_exact_one_sided_delivery;
  ]
