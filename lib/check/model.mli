(** The pure reference model: the idealised map from a schedule (which
    fixes the byte stream being sent and how it is framed) to the
    outcome a correct stack must produce, computed without running any
    of the stack.

    The model abstracts {e all} of the machinery under test — framing,
    packing, gateways, reassembly, verification, retransmission — down
    to three numbers and a buffer:

    - [elems]: how many elements the receiver's connection buffer holds
      once the stream is framed (only the final frame pads to a whole
      element);
    - [n_tpdus]: how many TPDUs a fixed-size framer cuts the stream
      into (the count a non-adaptive sender must get verified, exactly);
    - [expected]: the delivered buffer a complete transfer must equal —
      the sent bytes, zero-padded to [elems * elem_size].

    Multi-connection schedules add [streams]: the per-connection,
    per-epoch expected buffers (every legitimate connection carries one
    stream per epoch; connection 1 gets a second epoch when the schedule
    re-opens it after close). *)

type t = {
  elems : int;
  elem_size : int;
  n_tpdus : int;
  expected : bytes;
  streams : (int * bytes list) list;
      (** (connection id, expected buffer per epoch, oldest first) *)
}

val of_schedule : Schedule.t -> t

val sheddable_spans : t -> Schedule.t -> (int * int) list
(** The element runs the shed contract permits to be missing (the spans
    of every {!Schedule.sheddable_tid} T.ID, ascending).  A conforming
    stack may shed any subset of these and nothing else. *)
