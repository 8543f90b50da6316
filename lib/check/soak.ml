type finding = {
  schedule : Schedule.t;
  violations : Oracle.violation list;
  shrunk : Shrink.result;
}

type report = {
  profile : Schedule.profile;
  mutation : Driver.mutation;
  schedules_run : int;
  findings : finding list;
  detect_trials : int;
  detect_undetected : int;
  ov_injected : int;
  ov_conflicts_seen : int;
  ov_conflicts_rejected : int;
  sheds_signalled : int;
  sheds_honoured : int;
  shed_elems : int;
  fp_runs : int;
  fp_hits : int;
  fp_misses : int;
  bz_injected : int;
  bz_flaps : int;
  bz_anomalies : int;
  bz_quarantines : int;
  bz_quarantine_drops : int;
  bz_honest_quarantined : int;
  wall_seconds : float;
}

let clean r = r.findings = [] && r.detect_undetected = 0

(* Only the first few findings are worth the shrinking budget; a broken
   stack fails every schedule and we just need a counterexample. *)
let max_shrunk = 5

let run_profile ?(mutation = Driver.No_mutation) ?(schedules = 1000) ?seconds
    ?(detect_every = 97) ?progress ~seed profile =
  let t0 = Unix.gettimeofday () in
  let out_of_time () =
    match seconds with
    | None -> false
    | Some budget -> Unix.gettimeofday () -. t0 >= budget
  in
  let rng = Netsim.Rng.create ~seed in
  let findings = ref [] in
  let n_findings = ref 0 in
  let detect_trials = ref 0 in
  let detect_undetected = ref 0 in
  let ov_injected = ref 0 in
  let ov_seen = ref 0 in
  let ov_rejected = ref 0 in
  let sheds_signalled = ref 0 in
  let sheds_honoured = ref 0 in
  let shed_elems = ref 0 in
  let fp_runs = ref 0 in
  let fp = ref Transport.Flowcache.zero_stats in
  let bz_injected = ref 0 in
  let bz_flaps = ref 0 in
  let bz_anomalies = ref 0 in
  let bz_quarantines = ref 0 in
  let bz_quarantine_drops = ref 0 in
  let bz_honest_quarantined = ref 0 in
  let i = ref 0 in
  while !i < schedules && not (out_of_time ()) do
    let sched_seed = Netsim.Rng.next rng in
    let schedule = Schedule.generate ~profile ~seed:sched_seed in
    let model = Model.of_schedule schedule in
    let observation = Driver.run ~mutation schedule in
    ov_injected := !ov_injected + observation.Driver.overlap_injected;
    ov_seen := !ov_seen + observation.Driver.overlap_conflicts_seen;
    ov_rejected := !ov_rejected + observation.Driver.overlap_conflicts_rejected;
    sheds_signalled := !sheds_signalled + observation.Driver.sheds_sent;
    sheds_honoured := !sheds_honoured + observation.Driver.sheds_received;
    shed_elems := !shed_elems + observation.Driver.shed_elems;
    if schedule.Schedule.fastpath then incr fp_runs;
    fp := Transport.Flowcache.add_stats !fp observation.Driver.fastpath_stats;
    bz_anomalies := !bz_anomalies + observation.Driver.anomalies;
    bz_quarantines := !bz_quarantines + observation.Driver.quarantines;
    bz_quarantine_drops :=
      !bz_quarantine_drops + observation.Driver.quarantine_drops;
    (match observation.Driver.byz with
    | None -> ()
    | Some b ->
        bz_injected := !bz_injected + b.Driver.bo_stats.Netsim.Byzantine.injected;
        bz_flaps := !bz_flaps + b.Driver.bo_stats.Netsim.Byzantine.flaps;
        bz_honest_quarantined :=
          !bz_honest_quarantined + b.Driver.bo_honest_quarantined);
    (match Oracle.check ~schedule ~model ~observation with
    | [] -> ()
    | violations ->
        incr n_findings;
        let shrunk =
          if !n_findings <= max_shrunk then
            Shrink.shrink ~mutation schedule violations
          else { Shrink.schedule; violations; runs = 0 }
        in
        findings := { schedule; violations; shrunk } :: !findings);
    (* Sample the Table 1 fault-injection harness alongside: every
       corrupted field must be detected (or be semantically harmless) —
       [Undetected] means wrong data got through. *)
    if !i mod detect_every = 0 then
      List.iter
        (fun field ->
          incr detect_trials;
          let trial =
            Edc.Detect.run_trial ~seed:(Netsim.Rng.next rng) field
          in
          if trial.Edc.Detect.detection = Edc.Detect.Undetected then
            incr detect_undetected)
        Edc.Detect.all_fields;
    incr i;
    match progress with Some f -> f !i | None -> ()
  done;
  {
    profile;
    mutation;
    schedules_run = !i;
    findings = List.rev !findings;
    detect_trials = !detect_trials;
    detect_undetected = !detect_undetected;
    ov_injected = !ov_injected;
    ov_conflicts_seen = !ov_seen;
    ov_conflicts_rejected = !ov_rejected;
    sheds_signalled = !sheds_signalled;
    sheds_honoured = !sheds_honoured;
    shed_elems = !shed_elems;
    fp_runs = !fp_runs;
    fp_hits = !fp.Transport.Flowcache.s_hits;
    fp_misses = !fp.Transport.Flowcache.s_misses;
    bz_injected = !bz_injected;
    bz_flaps = !bz_flaps;
    bz_anomalies = !bz_anomalies;
    bz_quarantines = !bz_quarantines;
    bz_quarantine_drops = !bz_quarantine_drops;
    bz_honest_quarantined = !bz_honest_quarantined;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

(* {2 JSON rendering} — hand-rolled; the report shape is small and the
   container has no JSON library to lean on. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = Printf.sprintf "\"%s\"" (json_escape s)

let json_of_violations vs =
  Printf.sprintf "[%s]"
    (String.concat ","
       (List.map
          (fun (v : Oracle.violation) ->
            Printf.sprintf "{\"code\":%s,\"detail\":%s}" (json_str v.code)
              (json_str v.detail))
          vs))

let json_of_finding f =
  Printf.sprintf
    "{\"schedule\":%s,\"violations\":%s,\"shrunk_schedule\":%s,\"shrunk_violations\":%s,\"shrink_runs\":%d}"
    (json_str (Schedule.to_string f.schedule))
    (json_of_violations f.violations)
    (json_str (Schedule.to_string f.shrunk.Shrink.schedule))
    (json_of_violations f.shrunk.Shrink.violations)
    f.shrunk.Shrink.runs

let json_of_report r =
  Printf.sprintf
    "{\"profile\":%s,\"mutation\":%s,\"schedules_run\":%d,\"findings\":[%s],\"detect_trials\":%d,\"detect_undetected\":%d,\"overlap_injected\":%d,\"overlap_conflicts_seen\":%d,\"overlap_conflicts_rejected\":%d,\"sheds_signalled\":%d,\"sheds_honoured\":%d,\"shed_elems\":%d,\"fastpath_runs\":%d,\"fastpath_hits\":%d,\"fastpath_misses\":%d,\"byz_injected\":%d,\"byz_flaps\":%d,\"byz_anomalies\":%d,\"byz_quarantines\":%d,\"byz_quarantine_drops\":%d,\"byz_honest_quarantined\":%d,\"wall_seconds\":%.3f}"
    (json_str (Schedule.profile_name r.profile))
    (json_str (Driver.mutation_to_string r.mutation))
    r.schedules_run
    (String.concat "," (List.map json_of_finding r.findings))
    r.detect_trials r.detect_undetected r.ov_injected r.ov_conflicts_seen
    r.ov_conflicts_rejected r.sheds_signalled r.sheds_honoured r.shed_elems
    r.fp_runs r.fp_hits r.fp_misses r.bz_injected
    r.bz_flaps r.bz_anomalies r.bz_quarantines r.bz_quarantine_drops
    r.bz_honest_quarantined r.wall_seconds

let json_of_reports reports =
  Printf.sprintf "{\"reports\":[%s]}"
    (String.concat "," (List.map json_of_report reports))
