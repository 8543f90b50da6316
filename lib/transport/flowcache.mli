(** Direct-mapped flow cache over a pair of integer keys.

    {!Multi} keys one instance on [(C.ID, 0)] as a lookup memo of its
    connection table (DESIGN §7).  A probe is O(1) and allocation-free;
    on a miss the caller probes the table and inserts what it finds.
    The memoised table only grows and never replaces a value, so an
    entry can never go stale and nothing is ever invalidated.

    The cache is direct-mapped: each key pair hashes to exactly one
    slot, and {!insert} displaces whatever lives there.  Conflict misses
    on cold flows cost a table probe, nothing more.

    Counters are mirrored into {!Obs.Metrics} (as
    [flowcache_<name>_{hits,misses,insertions,evictions}_total])
    when observability is compiled in.  The mirrors are refreshed
    {e lazily}, whenever {!stats} is read — a per-probe atomic increment
    would cost more than the probe it measures.  The per-instance
    {!stats} are always exact and are what the harness and benches
    read. *)

type 'a t
(** A cache holding values of type ['a]. *)

type stats = {
  s_hits : int;  (** probes that returned an entry *)
  s_misses : int;  (** probes that found nothing (or a key conflict) *)
  s_insertions : int;  (** entries written by {!insert} *)
  s_evictions : int;  (** live entries displaced by a conflicting insert *)
}
(** Monotonic lifetime counters of one cache instance. *)

val create : name:string -> slots:int -> unit -> 'a t
(** [create ~name ~slots ()] makes an empty cache with at least [slots]
    slots (rounded up to a power of two).  [name] tags the mirrored
    {!Obs.Metrics} counters; instances sharing a [name] share those
    global counters (their own {!stats} stay separate).

    @raise Invalid_argument if [slots < 1]. *)

val slots : 'a t -> int
(** Actual slot count (the requested size rounded up). *)

val find : 'a t -> k1:int -> k2:int -> 'a option
(** Probe for the entry keyed [(k1, k2)].  Counts a hit or a miss.
    Allocation-free apart from the returned [option].

    Keys must be non-negative: the empty slot is encoded with a
    negative sentinel key, so probing with a negative key never hits
    (wire labels are non-negative, so callers passing parsed labels
    satisfy this for free). *)

val insert : 'a t -> k1:int -> k2:int -> 'a -> unit
(** Install (or overwrite) the entry for [(k1, k2)], displacing any
    conflicting entry in the same slot (counted as an eviction).

    @raise Invalid_argument if [k1] or [k2] is negative — a negative
    key is the empty-slot sentinel and could never be found again. *)

val stats : 'a t -> stats
(** Current counter values; also flushes them into the global
    {!Obs.Metrics} mirrors. *)

val zero_stats : stats
(** All-zero {!stats}, the identity of {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum — used to aggregate across crash incarnations and
    soak runs. *)

val hit_rate : stats -> float
(** [s_hits / (s_hits + s_misses)], or [0.] before any probe. *)
