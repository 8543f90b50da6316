(** Process-wide metric registry: monotonic counters, gauges and
    log2-bucketed histograms, with no dependencies outside the standard
    library.

    It holds only what no instance record counts: histograms, a few
    gauges and counters with no backing field.  An event that updates a
    field of an endpoint's records is not pushed here as well; the
    reports read that field ([Transport.Tally]).

    Metrics are {e interned by name}: the first call to {!counter},
    {!gauge} or {!histogram} with a given name creates the metric, every
    later call returns the same instance, so instrumented modules bind
    their metrics once at module-initialisation time and the hot path
    pays only the update.  Asking for an existing name with a different
    kind raises [Invalid_argument].

    Updates are lock-free ([Atomic]) and safe to issue from any domain
    (the parallel verifier's workers included); snapshots taken while
    another domain updates are internally consistent per metric but not
    across metrics. *)

(** {1 Counters}

    Monotonic: they only grow.  On overflow a counter {e saturates} at
    [max_int] instead of wrapping negative. *)

type counter

val counter : string -> counter
(** Intern (create or look up) the counter [name]. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Add [n] to the counter; [n <= 0] is ignored (counters are
    monotonic). *)

val value : counter -> int

(** {1 Gauges}

    A gauge holds the latest [set] value plus a high-water mark, the
    largest value set since creation. *)

type gauge

val gauge : string -> gauge
(** Intern (create or look up) the gauge [name]. *)

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val gauge_max : gauge -> int
(** Largest value {!set} since creation. *)

(** {1 Histograms}

    Fixed log2 bucketing over non-negative integers: bucket 0 counts
    values [<= 0]; bucket [b >= 1] counts values in
    [[2{^b-1}, 2{^b} - 1]]; the last bucket ({!buckets}[ - 1]) is the
    overflow bucket and counts everything at or above its lower bound.
    Latencies are recorded in microseconds ({!observe_s} converts from
    seconds), sizes in bytes. *)

type histogram

val histogram : string -> histogram
(** Intern (create or look up) the histogram [name]. *)

val observe : histogram -> int -> unit

val observe_s : histogram -> float -> unit
(** Record a duration given in seconds as whole microseconds. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int
(** Sum of observed values, clamped at 0 per observation and saturating
    at [max_int]. *)

val hist_max : histogram -> int
(** Largest value observed; [min_int] when empty. *)

val buckets : int
(** Number of buckets (64). *)

val bucket_index : int -> int
(** The bucket a value falls into. *)

val bucket_lower : int -> int
(** Inclusive lower bound of a bucket ([min_int] for bucket 0). *)

val bucket_upper : int -> int
(** Inclusive upper bound of a bucket ([max_int] for the overflow
    bucket). *)

val bucket_count : histogram -> int -> int
(** Occupancy of one bucket by index. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;  (** [min_int] when the histogram is empty *)
  h_buckets : (int * int) list;
      (** (bucket index, occupancy), non-empty buckets only, ascending *)
}

type snapshot = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * int * int) list;  (** (name, value, high-water) *)
  s_histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
