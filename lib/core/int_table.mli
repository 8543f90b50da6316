(** Hash tables keyed by [int]: the T.ID- and C.ID-keyed tables of the
    per-chunk and per-ACK paths.

    A monomorphic instance of [Hashtbl.Make]: a probe compares keys
    with integer equality instead of the runtime's polymorphic
    comparison, and hashes with [Int.hash], which is [Hashtbl.hash] on
    an [int].  A table fed the same sequence of [add], [replace] and
    [remove] calls as a polymorphic [(int, _) Hashtbl.t] therefore has
    the same buckets and iterates and folds in the same order — which
    is what keeps snapshot images, journal bytes and soak outcomes
    independent of the choice of table. *)

include Hashtbl.S with type key = int
