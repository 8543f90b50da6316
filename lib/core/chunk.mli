(** A chunk: a completely self-describing data unit — a header plus the
    run of data elements it labels (paper §2).

    Because the header contains everything needed to process the
    payload (TYPE, SIZE and a full [(ID, SN, ST)] tuple per framing
    level), a chunk can be processed by the entire protocol stack
    without waiting for any other chunk, in any arrival order.  Packets
    are mere envelopes carrying integral numbers of chunks. *)

type view = { header : Header.t; src : bytes; off : int }
(** A chunk read in place: its header record and the buffer its payload
    lies in, starting at [off]; the payload length is
    [Header.payload_bytes header].  The receive path hands views of
    packet buffers to the per-chunk dispatch instead of copying every
    payload out ({!Wire.Scan.view}).  A view borrows [src]: whoever made
    it must not mutate those bytes while the view is held.

    Declared before {!t} so that an unannotated [x.Chunk.header] still
    means a {!t}. *)

type t = private { header : Header.t; payload : bytes }
(** The payload length always equals [Header.payload_bytes header]; use
    {!make} to construct.  The payload is owned by the chunk: callers
    must not mutate it after construction. *)

val make : Header.t -> bytes -> (t, string) result
(** [make h payload] checks that the payload length matches the header's
    announced [size]/[len]. *)

val make_exn : Header.t -> bytes -> t
(** Like {!make} but raises [Invalid_argument]; for internal call sites
    where the invariant is established by construction. *)

val data :
  size:int -> c:Ftuple.t -> t:Ftuple.t -> x:Ftuple.t -> bytes ->
  (t, string) result
(** Build a data chunk from a payload whose length must be a multiple of
    [size]; LEN is derived. *)

val control :
  kind:Ctype.t -> c:Ftuple.t -> t:Ftuple.t -> x:Ftuple.t -> bytes ->
  (t, string) result
(** Build an (indivisible) control chunk; [kind] must not be [Data]. *)

val terminator : t
(** The LEN = 0 end-of-valid-chunks marker. *)

val is_terminator : t -> bool
(** Recognise the padding terminator ({!terminator}): LEN = 0, so it
    labels no elements and ends packet parsing (paper §2.1). *)

val is_data : t -> bool
(** TYPE = data: the chunk carries PDU payload elements. *)

val is_control : t -> bool
(** TYPE is a control kind (ED code, ACK, signal, NACK — see
    {!Ctype}); control information is indivisible (paper §2). *)

val elements : t -> int
(** Number of data elements ([Header.len]; 1 for control chunks viewed
    as an indivisible unit). *)

val payload_bytes : t -> int

val element : t -> int -> bytes
(** [element c k] copies out the [k]-th data element ([size] bytes).

    @raise Invalid_argument on control chunks or out-of-range [k]. *)

val last_t_sn : t -> int
(** T-level SN of the chunk's last element ([t.sn + len - 1]); the
    element whose ST bits the header carries.

    @raise Invalid_argument on terminators. *)

val view : t -> view
(** The chunk as a view of its own payload ([off = 0]); no copy. *)

val of_view : view -> t
(** Materialise a view: copies its payload out of [src]. *)

val view_is_data : view -> bool
(** {!is_data} of the viewed chunk. *)

val view_payload_bytes : view -> int
(** {!payload_bytes} of the viewed chunk. *)

val equal : t -> t -> bool
(** Structural equality: header fields and payload bytes. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering (header plus payload length), for
    diagnostics and test failure output. *)
