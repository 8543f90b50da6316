(** Tables keyed by [int] in flat arrays: open addressing with linear
    probing, at most half full, doubled when it would pass that, and
    removal by shifting the rest of the probe chain back, so no
    tombstone is ever left.  A binding costs no heap block of its own:
    adding, replacing or removing one allocates nothing short of a
    doubling, so a table that has outlived a minor collection takes no
    young block from its own bookkeeping (only from a young value the
    caller stores), and a large table goes straight to the major heap.

    Each table has an [absent] value, which {!find} answers for a key
    it does not hold, as the receive path's sentinels do. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** An empty table with room for [n] bindings before it grows, its
    values' room included, so that binding up to [n] keys allocates
    nothing: [0] for one that is seldom used, which then costs four
    words until it is. *)

val set : int -> unit t
(** An empty set with room for [n] keys: a table of keys alone, one
    array (an ACK ledger). *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** The value bound to the key, or [absent]. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any binding it had. *)

val remove : 'a t -> int -> unit
(** Unbind the key; a key not held changes nothing. *)

val length : 'a t -> int

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Every binding, in no particular order: a caller whose result
    depends on the order sorts. *)

val sorted_keys : 'a t -> int list
(** Every key, ascending. *)
