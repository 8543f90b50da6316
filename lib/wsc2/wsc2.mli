(** WSC-2: a weighted-sum error detection code over GF(2{^32}) that can be
    computed on {e disordered} data.

    A WSC-2 encoder takes 32-bit data symbols [d_i], each at an explicit
    position [i], and produces two 32-bit parity symbols

    {[ P0 = sum_i d_i           P1 = sum_i (alpha^i (x) d_i) ]}

    with sums and products in GF(2{^32}).  Because addition is XOR
    (commutative, associative), symbols may be accumulated in {e any}
    order — the property Feldmeier's chunk error-detection system relies
    on, and which a CRC lacks.  Positions left unused are equivalent to
    encoding a zero symbol, so sparse position spaces (Fig. 5 of the
    paper) are free.  Valid positions are [0 <= i < 2^29 - 2].

    The code detects all single- and double-symbol errors and has
    residual error probability comparable to a 64-bit checksum for random
    corruption (two independent 32-bit parities); see McAuley, "Weighted
    Sum Codes for Error Detection" [MCAU 93a]. *)

type parity = {
  p0 : Gf232.t;  (** unweighted sum of all symbols *)
  p1 : Gf232.t;  (** position-weighted sum of all symbols *)
}
(** The pair of parity symbols carried in an error-detection chunk. *)

val parity_zero : parity
(** The parity of the empty symbol set. *)

val parity_equal : parity -> parity -> bool
val pp_parity : Format.formatter -> parity -> unit

val parity_to_bytes : parity -> bytes
(** 8-byte big-endian wire image: P0 then P1. *)

val parity_blit : parity -> bytes -> int -> unit
(** [parity_blit p b off] writes the 8-byte wire image of [p] into [b]
    at offset [off] — the zero-copy variant of {!parity_to_bytes} used
    when sealing ED chunks.

    @raise Invalid_argument if fewer than 8 bytes are available. *)

val parity_of_bytes : bytes -> int -> parity
(** [parity_of_bytes b off] reads the 8-byte image at offset [off].

    @raise Invalid_argument if fewer than 8 bytes are available. *)

val max_position : int
(** Largest admissible symbol position, [2^29 - 3]. *)

(** {1 Incremental accumulation}

    An accumulator absorbs [(position, symbol)] pairs in arbitrary order.
    Accumulators over disjoint symbol sets can be {!combine}d, enabling
    parallel and per-chunk accumulation.  Absorbing the same
    [(position, symbol)] pair twice cancels it (XOR), which is why
    duplicate suppression (virtual reassembly) must sit in front of the
    verifier. *)

type acc
(** Mutable parity accumulator. *)

val create : unit -> acc

val reset : acc -> unit
(** Return the accumulator to the empty state. *)

val add_symbol : acc -> pos:int -> Gf232.t -> unit
(** Absorb one 32-bit symbol at position [pos].

    @raise Invalid_argument if [pos] is outside [0, max_position]. *)

val add_pair : acc -> pos:int -> Gf232.t -> Gf232.t -> unit
(** [add_pair acc ~pos a b] absorbs [a] at [pos] and [b] at [pos + 1],
    exactly as two {!add_symbol} calls would, with one field
    multiplication instead of two:
    [alpha^pos a + alpha^(pos+1) b = alpha^pos (a + alpha b)].

    @raise Invalid_argument if [pos] or [pos + 1] is outside
    [0, max_position]. *)

val add_triple : acc -> pos:int -> Gf232.t -> Gf232.t -> Gf232.t -> unit
(** [add_triple acc ~pos a b c] absorbs [a], [b] and [c] at [pos],
    [pos + 1] and [pos + 2] with one field multiplication, as
    {!add_pair} does.

    @raise Invalid_argument if [pos] or [pos + 2] is outside
    [0, max_position]. *)

val add_bytes : acc -> pos:int -> bytes -> int -> int -> unit
(** [add_bytes acc ~pos b off len] absorbs [len] bytes of [b] starting at
    [off] as consecutive big-endian 32-bit symbols at positions [pos],
    [pos+1], ...  A trailing partial word is zero-padded on the right.

    Runs a table-free kernel: each step folds 64 bytes (sixteen
    symbols) from eight 64-bit loads into Horner's accumulator.  Each
    symbol is shifted left by its weight [k <= 15] within the step and
    XORed into one unreduced word of at most 48 bits, which a single
    carry-less fold by [x^32 = 0x8d] reduces; P0 is the XOR of the same
    words.  One windowed multiplication by the cached weight
    [alpha^pos] anchors the whole run — no per-symbol field
    multiplication, no table lookup in the loop, and no allocation
    beyond that multiplication's 16-word window.

    @raise Invalid_argument if the slice is outside [b] or a position is
    outside [0, max_position]. *)

val add_subbytes_exn : acc -> pos:int -> bytes -> int -> int -> unit
(** Unsafe-fast {!add_bytes}: identical accumulation, no validation.
    The caller must guarantee [0 <= off], [0 <= len],
    [off + len <= Bytes.length b] and
    [pos + symbols_of_bytes len - 1 <= max_position]; violating this is
    undefined behaviour (out-of-bounds reads).  Used on the per-chunk
    verify path ([Edc.Verifier], [Parverify] workers) where the slice
    was already validated by the fragmentation invariant. *)

val symbols_of_bytes : int -> int
(** [symbols_of_bytes n] is the number of 32-bit symbols spanned by [n]
    bytes, i.e. [ceil (n / 4)]. *)

val combine : acc -> acc -> unit
(** [combine dst src] folds [src]'s parity into [dst] ([src] is left
    unchanged).  Correct only if the two accumulators cover disjoint
    position sets (or intentionally cancelling duplicates). *)

val snapshot : acc -> parity
(** The parity of everything absorbed so far; the accumulator remains
    usable. *)

val p0 : acc -> Gf232.t
val p1 : acc -> Gf232.t
(** The two symbols {!snapshot} would return, read without building a
    {!parity}. *)

val of_parity : parity -> acc
(** An accumulator whose state is exactly [parity] — the inverse of
    {!snapshot}, used to resume incremental accumulation from a
    persisted image (crash recovery).  Because addition is XOR, resuming
    from a snapshot and replaying the remaining symbols is
    indistinguishable from never having stopped. *)

(** {1 One-shot encoding} *)

val encode_bytes : pos:int -> bytes -> parity
(** Parity of a whole buffer laid out from position [pos]. *)

val verify : expected:parity -> acc -> bool
(** [verify ~expected acc] checks the receiver-side accumulation against
    the parity transmitted by the sender. *)
