(** A set of [int]s in one flat array: open addressing with linear
    probing, at most half full, doubled when it would pass that.  An
    element costs no heap block of its own, so a set that only grows
    (an ACK ledger) adds nothing for a minor collection to copy; only a
    doubling allocates, and a large table goes straight to the major
    heap. *)

type t

val create : int -> t
(** An empty set with room for about [n] elements before it grows. *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** Add an element; adding one already there changes nothing. *)

val length : t -> int

val elements : t -> int list
(** Every element, ascending. *)
