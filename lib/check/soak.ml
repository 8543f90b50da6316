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
  totals : (string * int) list;
  tally : Transport.Tally.t;
  wall_seconds : float;
}

let byz_stat f (o : Driver.observation) =
  match o.Driver.byz with Some b -> f b | None -> 0

(* Listed in JSON key order. *)
let counters : (string * (Driver.observation -> int)) list =
  [
    ("overlap_injected", fun o -> o.Driver.overlap_injected);
    ("overlap_conflicts_seen", fun o -> o.Driver.overlap.os_conflicts_seen);
    ( "overlap_conflicts_rejected",
      fun o -> o.Driver.overlap.os_conflicts_rejected );
    ("sheds_signalled", fun o -> o.Driver.tally.sheds_sent);
    ("sheds_honoured", fun o -> o.Driver.tally.counts.sheds_received);
    ("shed_elems", fun o -> o.Driver.tally.counts.shed_elems);
    ( "fastpath_hits",
      fun o -> o.Driver.fastpath_stats.Transport.Flowcache.s_hits );
    ( "fastpath_misses",
      fun o -> o.Driver.fastpath_stats.Transport.Flowcache.s_misses );
    ( "byz_injected",
      byz_stat (fun b -> b.Driver.bo_stats.Netsim.Byzantine.injected) );
    ("byz_flaps", byz_stat (fun b -> b.Driver.bo_stats.Netsim.Byzantine.flaps));
    ("byz_anomalies", fun o -> o.Driver.tally.counts.anomalies);
    ("byz_quarantines", fun o -> o.Driver.tally.counts.quarantines);
    ("byz_quarantine_drops", fun o -> o.Driver.tally.counts.quarantine_drops);
    ("byz_honest_quarantined", byz_stat (fun b -> b.Driver.bo_honest_quarantined));
  ]

let total r key =
  match List.assoc_opt key r.totals with
  | Some n -> n
  | None -> invalid_arg ("Soak.total: unknown counter " ^ key)

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
  let totals = Array.make (List.length counters) 0 in
  let tally = ref (Transport.Tally.zero ()) in
  let i = ref 0 in
  while !i < schedules && not (out_of_time ()) do
    let sched_seed = Netsim.Rng.next rng in
    let schedule = Schedule.generate ~profile ~seed:sched_seed in
    let model = Model.of_schedule schedule in
    let observation = Driver.run ~mutation schedule in
    List.iteri
      (fun k (_, get) -> totals.(k) <- totals.(k) + get observation)
      counters;
    tally := Transport.Tally.add !tally observation.Driver.tally;
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
    totals = List.mapi (fun k (key, _) -> (key, totals.(k))) counters;
    tally = !tally;
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
    "{\"profile\":%s,\"mutation\":%s,\"schedules_run\":%d,\"findings\":[%s],\"detect_trials\":%d,\"detect_undetected\":%d%s,\"wall_seconds\":%.3f}"
    (json_str (Schedule.profile_name r.profile))
    (json_str (Driver.mutation_to_string r.mutation))
    r.schedules_run
    (String.concat "," (List.map json_of_finding r.findings))
    r.detect_trials r.detect_undetected
    (String.concat ""
       (List.map (fun (key, n) -> Printf.sprintf ",\"%s\":%d" key n) r.totals))
    r.wall_seconds

let json_of_reports reports =
  Printf.sprintf "{\"reports\":[%s]}"
    (String.concat "," (List.map json_of_report reports))
