(** Virtual reassembly (paper §3.3): tracking received fragments to know
    when all pieces of a PDU have arrived — without physically
    reassembling anything.

    With immediate packet processing, virtual-reassembly completion is
    the signal that a PDU's incremental computations (checksum,
    placement) are finished; it also rejects duplicate data, which would
    otherwise corrupt an incremental checksum and could let a corrupted
    duplicate overwrite good data.  This is the software equivalent of
    the VLSI reassembly unit of [MCAU 93b]. *)

type insert_result =
  | Fresh  (** new data; process it *)
  | Duplicate  (** exact or subsumed re-receipt; drop it *)
  | Overlap
      (** partially overlaps previously received data with different
          extents — never produced by a correct sender/network
          (retransmissions reuse identical labels), so it indicates
          corruption; drop and flag *)
  | Inconsistent
      (** contradicts the PDU's known end: an element beyond a seen ST,
          or a second, different ST position *)

(** {1 Single-PDU tracker} *)

type t
(** Gap tracker for one PDU: the set of received [(sn, len)] runs plus
    the PDU end once an ST has been seen — reassembly bookkeeping
    without reassembly buffers (paper §3.1).  The runs live in one
    growable int array, updated in place. *)

val create : unit -> t
(** An empty tracker: nothing received, end unknown. *)

val insert : t -> sn:int -> len:int -> st:bool -> insert_result
(** Record a fragment covering elements [sn .. sn+len-1]; [st] means the
    fragment contains the PDU's last element.  Never raises: a malformed
    span ([sn < 0], [len <= 0], or [sn + len] overflowing) can only come
    from a corrupted label and is reported as [Inconsistent]. *)

val insert_new : t -> sn:int -> len:int -> st:bool ->
  ((int * int) list, [ `Inconsistent ]) result
(** Like {!insert}, but tolerant of partial overlap: a retransmission
    may have been fragmented differently in the network, so a chunk can
    cover both seen and unseen elements.  Records the span and returns
    the {e fresh} sub-runs as [(sn, len)] pairs (empty when everything
    was a duplicate) so the caller processes new data exactly once —
    the property the incremental checksum needs.  [Error `Inconsistent]
    is as for {!insert}, including malformed spans (never raises). *)

val insert_runs : t -> Int_rows.t -> sn:int -> len:int -> st:bool -> bool
(** {!insert_new} into a buffer the caller owns and reuses, so that no
    list is built: records the span as it does and replaces the
    buffer's rows with the fresh [(sn, len)] sub-runs, ascending, as
    width-2 rows; or returns [false] where it returns
    [Error `Inconsistent], changing nothing. *)

val append_new : t -> sn:int -> len:int -> st:bool -> bool
(** {!insert_new}'s in-order case without its result list: when the
    span lies wholly past every received run and agrees with a known
    PDU end, records it exactly as {!insert_new} would and returns
    [true] — every element is fresh.  Otherwise changes nothing and
    returns [false], leaving the span to {!insert_new}.  It reads only the
    last run and allocates nothing unless the run buffer grows, so a
    caller on the hot path tries this first. *)

val set_total : t -> int -> (unit, [ `Inconsistent ]) result
(** Announce the PDU's total element count out of band (e.g. from its
    ED control chunk), as if an ST had been seen at element
    [total - 1]; lets gap reports include the missing tail before any
    ST-bearing fragment arrives.  Fails if [total < 1] or if it
    contradicts received data or a previously known end. *)

val complete : t -> bool
(** The PDU end is known (some ST arrived) and [0 .. last] is fully
    covered. *)

val total : t -> int option
(** Number of elements in the PDU, once the ST has been seen. *)

val received_elems : t -> int
(** Elements received so far (duplicates counted once). *)

val missing : t -> (int * int) list
(** Current gaps as [(sn, len)] runs, in ascending order.  If the end is
    unknown, the list describes only internal gaps. *)

val spans : t -> (int * int) list
(** Received runs as [(sn, len)], ascending. *)

val run_count : t -> int
(** [List.length (spans t)], without building the list. *)

val clear : t -> unit
(** Forget every run and the PDU end: the tracker is then as {!create}
    made it, and keeps its buffer's room up to 16 runs. *)

(** {1 Many-PDU table}

    Tracks every in-flight PDU of one level (keyed by ID), driving
    per-TPDU completion for the error-detection verifier and the
    transport's acknowledgements. *)

(** A collection of {!t} trackers keyed by PDU ID. *)
module Table : sig
  type tracker = t
  type t

  val create : unit -> t

  val insert : t -> id:int -> sn:int -> len:int -> st:bool -> insert_result
  (** Record a fragment of PDU [id], creating its tracker on first
      sight. *)

  val insert_chunk : t -> Chunk.t -> insert_result
  (** Tracks the T level of a data chunk. *)

  val find : t -> id:int -> tracker option
  (** The tracker for PDU [id], if any fragment has been seen. *)

  val complete : t -> id:int -> bool
  (** Whether PDU [id] is fully received ([false] if unknown). *)

  val drop : t -> id:int -> unit
  (** Forget PDU [id] (after delivery or eviction). *)

  val in_flight : t -> int
  (** Number of PDUs currently tracked. *)

  val completed_ids : t -> int list
  (** IDs whose PDUs are currently complete (ascending). *)
end
