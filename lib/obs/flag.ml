(* The observability master switch and the global clock, in a leaf
   module so that [Metrics]/[Trace]/[Report] and the [Obs] entry module
   can all see them without a cycle.  See obs.ml for the contract. *)

(* Flip to [false] and rebuild to switch the observability layer off:
   every instrumentation site is guarded by [if Obs.enabled then ...] on
   this immutable constant.  Whether the guard itself disappears depends
   on the build.  The repository's [dune-workspace] selects dune's
   release profile for every build in it ([dune runtest] and
   [perfbench/run.sh] included), where the compiler may inline across
   modules: the constant propagates and each guard folds away, so with
   [false] the guarded branch is dead code.  A build in dune's dev
   profile ([--profile dev]) passes [-opaque], which hides the value
   from every other module, so there each guard is a load and a test at
   run time, and [false] only skips the guarded work. *)
let enabled = true

(* Wall of the simulation, not of the host: [Netsim.Engine.step] stamps
   the current simulated time here before dispatching each event, so
   instrumentation deep inside the stack (e.g. the verifier's latency
   histogram) can read a clock without threading an engine handle
   through every layer.  Outside a simulation it stays at its last
   value (initially 0). *)
let now = ref 0.0
