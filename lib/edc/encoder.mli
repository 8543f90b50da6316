(** Transmitter side of end-to-end error detection (paper §4).

    The parity is computed over the Fig. 5 {!Invariant}, so its value is
    identical for {e any} chunk set equivalent under fragmentation /
    reassembly — the transmitter typically uses the framer's output.

    Per-chunk contributions (mirrored exactly by the {!Verifier}):
    - every data element's words at their {!Invariant.data_position};
    - from the chunk with T.ST set: T.ID, C.ID and the C.ST value at
      their fixed positions;
    - from every chunk with X.ST or T.ST set: the (X.ID, X.ST-value)
      pair at the boundary element's {!Invariant.xpair_position}. *)

val xpair_second_symbol : boundary_t_sn:int -> x_st:bool -> int
(** The second symbol of a boundary pair: the X.ST value with the
    boundary element's T.SN folded in ([(t_sn << 1) | st]).  Binding the
    position into the value guarantees a relocated pair always changes
    the parity (with pure alpha-power weights, a pair with
    [X.ID = alpha * X.ST] would otherwise contribute zero and move
    invisibly). *)

val add_xpair :
  Wsc2.acc -> boundary_t_sn:int -> x_id:int -> x_st:bool -> unit
(** Absorb the boundary pair at [boundary_t_sn] — X.ID and
    {!xpair_second_symbol} at {!Invariant.xpair_position} and the next
    position — with one field multiplication. *)

val add_labels : Wsc2.acc -> t_id:int -> c_id:int -> c_st:bool -> unit
(** Absorb T.ID, C.ID and the C.ST value at their consecutive positions
    ({!Invariant.tid_position} on), with one field multiplication. *)

val contribute : Wsc2.acc -> Labelling.Chunk.t -> (unit, string) result
(** Fold one data chunk of a TPDU into an accumulator according to the
    invariant.  Fails on control chunks, terminators, invalid element
    sizes, or data beyond the 16384-symbol region. *)

val parity_of_tpdu : Labelling.Chunk.t list -> (Wsc2.parity, string) result
(** Parity over a complete TPDU given as chunks in any order and any
    fragmentation state. *)

val seal : Labelling.Chunk.t list -> (Labelling.Chunk.t, string) result
(** Build the TPDU's ED control chunk (Fig. 3's "TYPE = ED" chunk),
    labelled with the TPDU's connection and T IDs.  The 12-byte payload
    is the WSC-2 parity followed by the TPDU's element count (so a
    receiver can name a missing tail in its gap report even before any
    ST-bearing fragment arrives).  The chunk list must be the complete
    TPDU. *)

val seal_tpdus : Labelling.Chunk.t list -> (Labelling.Chunk.t list, string) result
(** Group a framer output by T.ID and interleave each TPDU's chunks with
    its ED chunk (the ED chunk immediately follows its TPDU's data, as
    in Fig. 3's packet 2). *)
