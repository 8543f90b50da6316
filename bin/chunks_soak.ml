(* chunks-soak: the adversarial conformance harness as a command.

   chunks-soak --profile hostile --schedules 2000
   chunks-soak --seconds 300 --profile hostile --json soak.json
   chunks-soak --profile hostile-flood --seconds 5 --metrics m.json
   chunks-soak --mutate flip:3 --profile clean        (harness self-test)
   chunks-soak --replay 'seed=42 profile=clean ...'   (one schedule, verbose)

   Exit status: 0 when every profile ran clean (or, under --mutate, when
   the injected bug WAS caught); 1 otherwise; 2 on usage errors,
   including unwritable --json/--metrics paths. *)

open Cmdliner

let profile_names () =
  List.map Check.Schedule.profile_name Check.Schedule.all_profiles

let profiles_of = function
  | "all" -> Ok Check.Schedule.all_profiles
  | name -> (
      match Check.Schedule.profile_of_name name with
      | Some p -> Ok [ p ]
      | None ->
          Error
            (Printf.sprintf "unknown profile %S (known: %s, all)" name
               (String.concat ", " (profile_names ()))))

let print_finding i (f : Check.Soak.finding) =
  Printf.printf "finding %d (schedule seed %d):\n" i
    f.Check.Soak.schedule.Check.Schedule.seed;
  List.iter
    (fun v -> Printf.printf "  %s\n" (Check.Oracle.violation_to_string v))
    f.Check.Soak.violations;
  Printf.printf "  schedule: %s\n" (Check.Schedule.to_string f.Check.Soak.schedule);
  Printf.printf "  shrunk (%d runs): %s\n" f.Check.Soak.shrunk.Check.Shrink.runs
    (Check.Schedule.to_string f.Check.Soak.shrunk.Check.Shrink.schedule);
  List.iter
    (fun v -> Printf.printf "    still violates %s\n" (Check.Oracle.violation_to_string v))
    f.Check.Soak.shrunk.Check.Shrink.violations

let write_artifacts dir reports =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (r : Check.Soak.report) ->
      List.iteri
        (fun i (f : Check.Soak.finding) ->
          let path =
            Filename.concat dir
              (Printf.sprintf "counterexample-%s-%d.txt"
                 (Check.Schedule.profile_name r.Check.Soak.profile) i)
          in
          let oc = open_out path in
          Printf.fprintf oc "# violations:\n";
          List.iter
            (fun v ->
              Printf.fprintf oc "#   %s\n" (Check.Oracle.violation_to_string v))
            f.Check.Soak.shrunk.Check.Shrink.violations;
          Printf.fprintf oc "%s\n"
            (Check.Schedule.to_string f.Check.Soak.shrunk.Check.Shrink.schedule);
          close_out oc)
        r.Check.Soak.findings)
    reports

(* Report files land wherever the user pointed, including not-yet-created
   result directories: create the parents, and turn the raw Sys_error a
   bad path used to raise into a clear message and exit 2. *)
let write_report ~what path data =
  match Obs.Report.write path data with
  | () -> ()
  | exception Failure msg ->
      Printf.eprintf "error: --%s: %s\n" what msg;
      exit 2

let run_replay spec mutate =
  match Check.Schedule.of_string spec with
  | None ->
      (match Check.Schedule.unknown_fields spec with
      | [] -> Printf.eprintf "error: unparseable schedule\n"
      | fs ->
          Printf.eprintf "error: unknown schedule field(s): %s\n"
            (String.concat ", " fs));
      2
  (* A parseable but semantically broken spec (hand-edited replay line)
     gets one readable diagnostic and exit 2, not an exception from deep
     inside the transport. *)
  | Some schedule when Check.Schedule.validate schedule <> Ok () ->
      (match Check.Schedule.validate schedule with
      | Error msg -> Printf.eprintf "error: invalid schedule: %s\n" msg
      | Ok () -> ());
      2
  | Some schedule ->
      let trace = Obs.Trace.ring ~capacity:2048 in
      let model = Check.Model.of_schedule schedule in
      let observation = Check.Driver.run ~mutation:mutate ~trace schedule in
      let t = observation.Check.Driver.tally in
      let c = t.Transport.Tally.counts
      and ov = observation.Check.Driver.overlap in
      let dropped = Obs.Trace.ring_dropped trace in
      if dropped > 0 then
        Printf.printf "... %d earlier events dropped ...\n" dropped;
      List.iter
        (fun (time, ev) ->
          Printf.printf "%12.6f  %s\n" time
            (match ev with
            | Obs.Trace.Note text -> text
            | ev -> Obs.Trace.event_name ev))
        (Obs.Trace.ring_contents trace);
      Printf.printf
        "ok=%b complete=%b gave_up=%b retrans=%d sack=%d nacks=%d\n\
         tpdus passed=%d failed=%d dups=%d in_flight=%d stashed=%d pending=%d\n\
         evictions=%d conn_gcs=%d aborts tx=%d rx=%d reacks=%d \
         state_high=%d flood=%d rtt_samples=%d final_rto=%.4f\n\
         crashes=%d restores=%d recovery_bad=%d over_budget=%d \
         roundtrip_fail=%d snapshots=%d journal_records=%d journal_bytes=%d\n\
         overlap injected=%d conflicts_seen=%d rejected=%d quarantined=%d \
         verified_overwrites=%d\n\
         fp hits=%d misses=%d inserts=%d evictions=%d\n\
         sheds tx=%d rx=%d shed_elems=%d shed_spans=%s\n\
         anomalies=%d quarantines=%d qdrops=%d poisoned=%d \
         sheds_refused=%d byz=%s\n\
         counterfactuals%s\n"
        observation.Check.Driver.ok observation.complete observation.gave_up
        t.retransmissions observation.sack_retransmissions
        c.nacks_sent observation.passes t.verifier.Edc.Verifier.tpdus_failed
        t.verifier.Edc.Verifier.duplicates
        observation.verifier_in_flight observation.stashed_tpdus
        observation.engine_pending c.evictions c.conn_gcs
        t.aborts_sent c.aborts_received c.reacks_sent
        t.governor.Transport.Governor.high_water observation.flood_injected
        observation.rtt_samples observation.final_rto
        observation.crashes_injected observation.restores
        observation.recovery_bad observation.restore_over_budget
        observation.roundtrip_failures observation.snapshots_taken
        observation.journal_records observation.journal_bytes
        observation.overlap_injected
        ov.os_conflicts_seen ov.os_conflicts_rejected ov.os_quarantined
        ov.os_verified_overwrites
        observation.fastpath_stats.Transport.Flowcache.s_hits
        observation.fastpath_stats.Transport.Flowcache.s_misses
        observation.fastpath_stats.Transport.Flowcache.s_insertions
        observation.fastpath_stats.Transport.Flowcache.s_evictions
        t.sheds_sent c.sheds_received c.shed_elems
        (match observation.shed_spans with
        | [] -> "-"
        | spans ->
            String.concat ","
              (List.map (fun (f, n) -> Printf.sprintf "%d+%d" f n) spans))
        c.anomalies c.quarantines c.quarantine_drops c.conns_poisoned
        c.sheds_refused
        (match observation.byz with
        | None -> "n/a"
        | Some b ->
            Printf.sprintf "%d injected/%d flaps/%d honest-boxed"
              b.Check.Driver.bo_stats.Netsim.Byzantine.injected
              b.Check.Driver.bo_stats.Netsim.Byzantine.flaps
              b.Check.Driver.bo_honest_quarantined)
        (match observation.counterfactuals with
        | [] -> " n/a"
        | rows ->
            let primary = observation.Check.Driver.epochs in
            String.concat ""
              (List.map
                 (fun (row, rerun) ->
                   Printf.sprintf " %s=%s" row
                     (if rerun = primary then "identical" else "DIVERGENT"))
                 rows));
      let violations = Check.Oracle.check ~schedule ~model ~observation in
      List.iter
        (fun v -> Printf.printf "VIOLATION %s\n" (Check.Oracle.violation_to_string v))
        violations;
      if violations = [] then begin
        Printf.printf "no oracle violations\n";
        0
      end
      else 1

let run_soak list_profiles profile schedules seconds seed json metrics mutate
    replay artifacts_dir =
  if list_profiles then begin
    List.iter print_endline (profile_names ());
    exit 0
  end;
  let mutation =
    match Check.Driver.mutation_of_string mutate with
    | Some m -> m
    | None ->
        Printf.eprintf
          "error: bad --mutate %S \
           (none|flip:N|dup:N|drop:N|corrupt-restore|overlap-clobber|shed-clobber|byz-clobber)\n"
          mutate;
        exit 2
  in
  match replay with
  | Some spec -> run_replay spec mutation
  | None -> (
      match profiles_of profile with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          2
      | Ok profiles ->
          (* 0 = auto: the usual 1000, or as many as the time budget
             allows when one is given *)
          let schedules =
            if schedules > 0 then schedules
            else if seconds = None then 1000
            else max_int
          in
          let t0 = Unix.gettimeofday () in
          let reports =
            List.map
              (fun p ->
                let seconds =
                  Option.map
                    (fun total ->
                      Float.max 1.0 (total -. (Unix.gettimeofday () -. t0)))
                    seconds
                in
                let report =
                  Check.Soak.run_profile ~mutation ~schedules ?seconds
                    ~progress:(fun i ->
                      if i mod 200 = 0 then
                        Printf.eprintf "[%s] %d schedules...\n%!"
                          (Check.Schedule.profile_name p) i)
                    ~seed p
                in
                Printf.printf
                  "%-8s %5d schedules  %d violations  %d/%d injections \
                   undetected  %s  %.1fs\n%!"
                  (Check.Schedule.profile_name p) report.Check.Soak.schedules_run
                  (List.length report.Check.Soak.findings)
                  report.Check.Soak.detect_undetected
                  report.Check.Soak.detect_trials
                  (String.concat " "
                     (List.map
                        (fun (key, n) -> Printf.sprintf "%s=%d" key n)
                        report.Check.Soak.totals))
                  report.Check.Soak.wall_seconds;
                List.iteri print_finding report.Check.Soak.findings;
                report)
              profiles
          in
          (match json with
          | Some path ->
              write_report ~what:"json" path
                (Check.Soak.json_of_reports reports ^ "\n")
          | None -> ());
          (match metrics with
          | Some path ->
              let tally =
                List.fold_left
                  (fun acc r -> Transport.Tally.add acc r.Check.Soak.tally)
                  (Transport.Tally.zero ()) reports
              in
              write_report ~what:"metrics" path
                (Obs.Report.json
                   (Transport.Tally.report tally (Obs.Metrics.snapshot ()))
                ^ "\n")
          | None -> ());
          (match artifacts_dir with
          | Some dir -> write_artifacts dir reports
          | None -> ());
          let all_clean = List.for_all Check.Soak.clean reports in
          if mutation = Check.Driver.No_mutation then
            if all_clean then 0 else 1
          else if
            (* mutation mode is a self-test: the injected bug must be
               caught and the catch must shrink to a replayable pair *)
            List.exists
              (fun r ->
                List.exists
                  (fun f ->
                    f.Check.Soak.shrunk.Check.Shrink.violations <> [])
                  r.Check.Soak.findings)
              reports
          then begin
            Printf.printf "mutation %s: caught and shrunk\n"
              (Check.Driver.mutation_to_string mutation);
            0
          end
          else begin
            Printf.printf "mutation %s: NOT caught — the oracle is blind\n"
              (Check.Driver.mutation_to_string mutation);
            1
          end)

let cmd =
  let list_profiles =
    Arg.(
      value & flag
      & info [ "list-profiles" ]
          ~doc:"Print the known fault profile names and exit.")
  in
  let profile =
    Arg.(
      value & opt string "all"
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Fault profile ($(b,--list-profiles) prints the known names) \
             or $(b,all).")
  in
  let schedules =
    Arg.(
      value & opt int 0
      & info [ "schedules" ] ~docv:"N"
          ~doc:
            "Schedules per profile; 0 (the default) means 1000, or \
             unlimited when $(b,--seconds) bounds the run.")
  in
  let seconds =
    Arg.(
      value & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Wall-clock budget for the whole invocation.")
  in
  let seed =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a JSON report (parent directories are created).")
  in
  let metrics =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Dump the observability metric registry (counters, gauges, \
             latency/size histograms) as JSON after the soak (parent \
             directories are created).")
  in
  let mutate =
    Arg.(
      value & opt string "none"
      & info [ "mutate" ] ~docv:"MODE"
          ~doc:
            "Inject a stack bug (flip:N, dup:N, drop:N, corrupt-restore \
             for a corrupted crash snapshot, overlap-clobber for a \
             validly-sealed forged TPDU that clobbers verified bytes, \
             shed-clobber for a stack that sheds a TPDU the schedule \
             declares mandatory, or byz-clobber for a stack whose \
             byzantine quarantine is disabled) and require the oracle to \
             catch it.")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:"Replay one schedule (as printed by a finding) with a trace.")
  in
  let artifacts_dir =
    Arg.(
      value & opt (some string) None
      & info [ "artifacts-dir" ] ~docv:"DIR"
          ~doc:"Write shrunk counterexample schedules here.")
  in
  Cmd.v
    (Cmd.info "chunks-soak" ~version:"1.0"
       ~doc:"Differential conformance soak for the chunk pipeline")
    Term.(
      const run_soak $ list_profiles $ profile $ schedules $ seconds $ seed
      $ json $ metrics $ mutate $ replay $ artifacts_dir)

let () = exit (Cmd.eval' cmd)
