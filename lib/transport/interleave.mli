(** Priority-aware stream interleaving: the sender-side scheduler that
    turns several X-level streams of one connection into a single
    significance-ordered TPDU transmission plan.

    The paper's labelling makes this almost free: every chunk carries
    its full (C, T, X) label, so TPDUs of different streams can be
    transmitted in {e any} order and the receiver's placement-by-label
    still reconstructs each stream in place.  The scheduler exploits
    that freedom: a weighted round-robin over the streams emits
    {!Labelling.Significance.weight} TPDUs per stream per round
    (Critical 4, Normal 2, Sheddable 1), so high-significance data
    takes the wire first without starving the enhancement layers —
    and when congestion forces shedding, the sheddable streams are the
    ones still in the queue.

    A plan feeds {!Chunk_transport.Sender.of_tpdus} directly: each
    entry is a sealed TPDU (data chunks plus ED chunk) with the full
    retransmission/shed machinery behind it.  The receiving endpoint
    needs only the plan's [classify] (so both endpoints agree on what
    is sheddable) and a quota of [total_elems]; the plan's last TPDU
    carries C.ST and is never sheddable. *)

type stream = {
  is_name : string;  (** for traces and the layout report *)
  is_cls : Labelling.Significance.t;
  is_data : bytes;  (** the stream payload; must be non-empty *)
}

type layer = {
  l_name : string;
  l_cls : Labelling.Significance.t;
  l_first_tid : int;
  l_n_tpdus : int;
  l_first_elem : int;  (** offset of the layer in the delivered buffer *)
  l_elems : int;  (** elements including whole-TPDU padding *)
}

type t = {
  tpdus : (int * Labelling.Chunk.t list) list;
      (** sealed TPDUs in weighted-round-robin transmission order —
          feed to {!Chunk_transport.Sender.of_tpdus} *)
  classify : int -> Labelling.Significance.t;
      (** T.ID to owning stream's class; the connection-final TPDU (the
          C.ST carrier) is promoted to [Normal] if its stream is
          sheddable — shedding the stream-end marker would leave a
          [`Quota] receiver unable to learn the stream ended *)
  total_elems : int;
      (** receiver capacity: the delivered buffer is the streams
          concatenated in declaration order, each padded to whole
          TPDUs (except the last, whose final TPDU may be short) *)
  layout : layer list;  (** per-stream placement, declaration order *)
}

val plan :
  ?elem_size:int ->
  ?tpdu_elems:int ->
  ?tid_stride:int ->
  conn_id:int ->
  stream list ->
  (t, string) result
(** Frame each stream as one X-level PDU on its own framer (disjoint
    T.ID / X.ID bases [tid_stride] apart, connection SNs laid out
    sequentially), seal every TPDU, and interleave them by weighted
    round-robin.  Streams before the last are zero-padded to whole
    TPDUs so only the final stream's final element carries C.ST.

    [tid_stride] defaults to the largest per-stream TPDU count (so the
    bases are disjoint by construction); passing one that any stream
    overflows is an error, as are an empty stream list and empty
    stream payloads.  Emits one [Interleave] trace event and counter
    tick per scheduled TPDU when the observability layer is on. *)

val expected : ?elem_size:int -> ?tpdu_elems:int -> stream list -> bytes
(** The delivered buffer a complete (unshed) transfer of these streams
    must equal: the payloads concatenated with the same whole-TPDU
    padding {!plan} applies. *)
