(* Prints the soak JSON report for every profile at a fixed seed, with
   the wall-clock field zeroed, so any change in harness or stack
   behaviour shows up as a diff against soak_golden.expected.  After an
   intended behaviour change, accept the new output with
   [dune promote]. *)

let () =
  let reports =
    List.map
      (fun p ->
        let r = Check.Soak.run_profile ~schedules:40 ~seed:0xC0FFEE p in
        { r with Check.Soak.wall_seconds = 0.0 })
      Check.Schedule.all_profiles
  in
  print_endline (Check.Soak.json_of_reports reports)
