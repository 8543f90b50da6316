(** Entry point of the observability layer.

    The library is zero-dependency (standard library only) and is wired
    into the pipeline behind a single compile-time switch: every
    instrumentation site in the producing libraries reads

    {[ if Obs.enabled then Obs.Metrics.incr c ]}

    where {!enabled} is an immutable [true]/[false] constant.  Setting
    it to [false] in [lib/obs/flag.ml] and rebuilding removes the
    guarded work from the hot paths (the WSC-2 accumulate kernel, the
    per-chunk verifier steps) without any source change elsewhere.  The
    guards themselves compile out only where the compiler sees the
    constant across modules: in the release profile that the
    repository's [dune-workspace] selects for every build, [dune runtest]
    and the receive-path benchmark included, they do.  Under dune's dev
    profile ([--profile dev]), [-opaque] hides the constant, so every
    guard remains a load and a test at run time.

    {!Metrics} holds the process-wide registry of log2 histograms and
    of the gauges and counters no instance record keeps (an endpoint's
    own counts are fields of its records, not registry entries);
    {!Trace} the typed event tracer and its sinks; {!Report} the JSON /
    Prometheus renderers and file helpers. *)

let enabled = Flag.enabled
(** The master switch — an immutable constant, not a ref.  Guard every
    instrumentation site with it. *)

let now = Flag.now
(** The global simulation clock, in simulated seconds.  Stamped by
    [Netsim.Engine.step] before dispatching each event; read by
    instrumentation that needs a timestamp without holding an engine
    handle (e.g. the verifier's latency histogram, [Trace.record]'s
    default timestamp).  Outside a simulation it keeps its last value
    (initially [0.]). *)

let stamp t = Int64.to_int (Int64.bits_of_float t)
(** A clock reading as an immediate [int], its IEEE bits, for records
    that hold no pointer: {!unstamp} gives the reading back exactly
    whenever it is [>= 0.], as every reading of the simulated clock
    is. *)

let unstamp s =
  Int64.float_of_bits (Int64.logand (Int64.of_int s) Int64.max_int)
(** The clock reading of a {!stamp}. *)

module Metrics = Metrics
module Trace = Trace
module Report = Report
