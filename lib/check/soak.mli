(** Soak loop: generate schedules for a profile, drive the real stack,
    diff against the model, shrink whatever violates.  One call powers
    the tier-1 qcheck-sized budget, the CLI, and the CI nightly run. *)

type finding = {
  schedule : Schedule.t;  (** as generated *)
  violations : Oracle.violation list;
  shrunk : Shrink.result;  (** minimised replayable counterexample *)
}

type report = {
  profile : Schedule.profile;
  mutation : Driver.mutation;
  schedules_run : int;
  findings : finding list;
  detect_trials : int;
      (** Table 1 fault-injection samples interleaved with the soak *)
  detect_undetected : int;  (** trials where wrong data got through *)
  totals : (string * int) list;
      (** per-run counters summed over all runs, keyed and ordered as in
          the JSON report: overlap-adversary injections and placement
          conflicts, shed decisions signalled and honoured with the
          elements they cover, connection-memo hits and misses (multi
          path), and byzantine injections, flaps, anomalies,
          quarantines, refused events and honest connections ever
          boxed — the [honest-immunity] row demands that last one
          stays 0 *)
  tally : Transport.Tally.t;
      (** the runs' endpoint counts, added up over the same
          observations as [totals] ({!Transport.Tally.add}) *)
  wall_seconds : float;
}

val total : report -> string -> int
(** [total r key] is [r]'s sum for the counter [key] of [r.totals].
    @raise Invalid_argument on an unknown key. *)

val clean : report -> bool
(** No oracle violation and no undetected injection. *)

val run_profile :
  ?mutation:Driver.mutation ->
  ?schedules:int ->
  ?seconds:float ->
  ?detect_every:int ->
  ?progress:(int -> unit) ->
  seed:int ->
  Schedule.profile ->
  report
(** Run up to [schedules] (default 1000) schedules, stopping early when
    the optional wall-clock budget [seconds] runs out.  Deterministic
    for a given [seed] (modulo which schedules fit in the budget).  The
    first few findings are shrunk; later ones are recorded as-is. *)

val json_of_reports : report list -> string
