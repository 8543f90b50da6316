(** Rows of a few ints in one flat [int array], for the per-TPDU records
    and per-call results of the receive path that must hold no list.
    A buffer is filled in place: a push stores a new array only when
    the old one was full, so its holder never writes the field that
    keeps it, and a buffer that has outlived a minor collection takes
    no young block from a row. *)

type t

val create : width:int -> t
(** No rows, with room for four of [width] ints: a TPDU seldom arrives
    in more pieces. *)

val empty : unit -> t
(** No rows and no room yet, for a holder that seldom has rows: the
    first push makes the room {!create} makes. *)

val count : t -> int
(** Rows held. *)

val clear : t -> width:int -> unit
(** No rows; a buffer grown past room for 16 rows goes back to the
    room {!create} makes, so a record kept for reuse does not keep a
    large buffer alive. *)

val get : t -> width:int -> int -> int -> int
(** [get a ~width k j] is cell [j] of row [k]. *)

val set : t -> width:int -> int -> int -> int -> unit
(** [set a ~width k j x] makes cell [j] of row [k] [x]. *)

val push2 : t -> int -> int -> unit
val push3 : t -> int -> int -> int -> unit
val push4 : t -> int -> int -> int -> int -> unit

val append : t -> t -> width:int -> unit
(** [append a b ~width] pushes every row of [b] onto [a], in order. *)

val sort : t -> width:int -> unit
(** Order the rows by their first cell, in place. *)

val coalesce : t -> limit:int -> unit
(** The [(sn, len)] rows of a width-2 buffer as the spans they cover,
    in place: rows with [sn < 0], [len <= 0] or [sn + len > limit] are
    dropped, the rest ordered by [sn] and merged wherever they overlap
    or touch. *)

val pairs : t -> (int * int) list
(** The rows of a width-2 buffer, in order. *)
