(** Rows of two or four ints in one flat [int array], for the per-TPDU
    records of the receive path that must hold no list: slot 0 counts
    the rows, and row [k] of width [w] fills slots [1 + w*k .. w*(k+1)].
    A record keeps the array in a mutable field and replaces it with
    what {!push2} or {!push4} returns, which is a new array only when
    the old one was full. *)

type t = int array

val create : width:int -> t
(** No rows, with room for four of [width] ints: a TPDU seldom arrives
    in more pieces. *)

val count : t -> int
(** Rows held. *)

val clear : t -> width:int -> t
(** No rows: [a] emptied in place, or, when it has grown past room for
    16 rows, a new buffer as {!create} makes, so a record kept for reuse
    does not keep a large buffer alive. *)

val get : t -> width:int -> int -> int -> int
(** [get a ~width k j] is cell [j] of row [k]. *)

val push2 : t -> int -> int -> t
val push4 : t -> int -> int -> int -> int -> t

val pairs : t -> (int * int) list
(** The rows of a width-2 array, in the order they were pushed. *)

val quads : t -> (int * int * int * int) list
(** The rows of a width-4 array, in the order they were pushed. *)

val of_pairs : (int * int) list -> t
val of_quads : (int * int * int * int) list -> t
