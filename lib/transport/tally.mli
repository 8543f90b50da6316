(** An endpoint's counts under the names the metric reports give them.

    Every count here is a field some record already keeps: the
    endpoint's {!Counters}, its verifiers' and governor's statistics,
    its live-connection level, and the counts of the senders that fed
    it.  Nothing is counted a second time; {!table} only names the
    fields, and {!report} adds them to a registry snapshot. *)

type t = {
  counts : Counters.t;
  verifier : Edc.Verifier.stats;  (** over every epoch *)
  governor : Governor.stats;
  live_conns : int;
  peak_live_conns : int;
  shed_bytes : int;  (** [counts.shed_elems] in bytes *)
  retransmissions : int;  (** the senders' timeout retransmissions *)
  aborts_sent : int;
  sheds_sent : int;
}

val zero : unit -> t

val add : t -> t -> t
(** [add a b] is [a] followed by [b]: counts add, and a level is [b]'s
    with the larger high-water of the two (the budget is the larger
    one).  So it folds an endpoint's crash incarnations, and the runs
    a report covers. *)

type reading = Count of int | Level of int * int  (** value, high-water *)

val table : (string * (t -> reading)) list
(** Each reported name and the field it reads, by name: a [Count] is
    reported as a counter, a [Level] as a gauge. *)

val report : t -> Obs.Metrics.snapshot -> Obs.Metrics.snapshot
(** The snapshot with every name of {!table} added, read off [t]. *)
