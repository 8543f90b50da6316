(** Binary wire format for chunks and chunk-carrying packets.

    This is the "simple version of chunks ... easy to parse because of
    their fixed-field format" of Appendix A — every field explicit.  A
    chunk header occupies {!header_size} bytes:

    {v
    offset  field
    0       TYPE   (u8;  0 = data, >=1 = control kind)
    1       SIZE   (u16 be)
    3       LEN    (u32 be; 0 = terminator)
    7       C.ID   (u32 be)   C.SN (u64 be)   C.ST (u8)
    20      T.ID   (u32 be)   T.SN (u64 be)   T.ST (u8)
    33      X.ID   (u32 be)   X.SN (u64 be)   X.ST (u8)
    46      payload (SIZE*LEN bytes for data, LEN bytes for control)
    v}

    A packet is a fixed-capacity envelope: chunks back to back, then —
    if at least one header of slack remains — a terminator (an all-zero
    header, i.e. LEN = 0) marking the end of the valid-chunk region
    (paper §2), then zero padding.  Bandwidth-efficient variants of this
    encoding live in {!Compress}. *)

val header_size : int
(** 46 bytes. *)

type tuple = C | T | X
(** The three label tuples of a header: connection, TPDU and external
    PDU. *)

type field = Type | Size | Len | Id of tuple | Sn of tuple | St of tuple

val layout : (field * int * int) list
(** Every header field with its byte offset and width in bytes, in
    header order: the table above, as the one declaration the header
    writer, the decoders, {!Scan} and {!with_ids} take their offsets
    from.  Multi-byte fields are big-endian. *)

val chunk_size : Chunk.t -> int
(** On-wire bytes of one chunk: header + payload ({!header_size} for a
    terminator). *)

val chunks_size : Chunk.t list -> int
(** Total on-wire bytes of a chunk sequence (no terminator). *)

val encode_chunk : Buffer.t -> Chunk.t -> unit
(** Append one chunk's wire image. *)

val encode_header : Buffer.t -> Header.t -> unit
(** Append just the {!header_size}-byte header image. *)

val decode_header : bytes -> int -> (Header.t, string) result
(** Parse one header image (no payload expected after it). *)

val decode_chunk : bytes -> int -> (Chunk.t * int, string) result
(** [decode_chunk b off] parses one chunk at [off] and returns it with
    the offset just past it.  A terminator decodes as
    [Chunk.terminator]. *)

val encode_packet : ?capacity:int -> Chunk.t list -> (bytes, string) result
(** [encode_packet ~capacity cs] builds one packet.  Fails if the chunks
    exceed [capacity].  Without [capacity] the packet is exactly the
    chunks' size (no terminator needed: end-of-packet delimits).  With
    [capacity], the packet is padded to exactly [capacity] bytes with a
    terminator before the padding whenever slack remains (if the slack
    is smaller than a header it is zero-filled, which decodes as
    end-of-packet). *)

val with_ids : bytes -> c_id:int -> t_id:int -> bytes
(** [with_ids template ~c_id ~t_id] is a copy of the packet image
    [template] with its first chunk's C.ID and T.ID replaced: a packet
    that differs from a pre-encoded one only in those IDs costs one
    copy, not an encoding.

    @raise Invalid_argument as {!Ftuple.v} for an ID out of range. *)

val decode_packet : bytes -> (Chunk.t list, string) result
(** Parse all chunks of a packet, stopping at a terminator, at
    end-of-buffer, or at a residue smaller than one header (treated as
    padding only if all-zero).  The decoder of the network elements
    that rewrite packets, of {!Repack} and [Edc.Detect], and the
    reference {!Scan} is tested against; the endpoint itself uses
    {!Scan}. *)

(** {1 Zero-allocation packet scanning}

    The endpoint's only decoder, in both directions: the packet entry
    of the endpoint ([Transport.Multi.ingest]) and of a receiver used
    alone ([Transport.Chunk_transport.Receiver.ingest_batch]), of the
    reverse path ([Transport.Chunk_transport.Sender.demux]) and of a
    restored receiver's persisted chunks.  It walks a packet image once,
    validating its structure and recording chunk start offsets,
    without building [Chunk.t] values or copying payload bytes.  Label
    fields can then be read straight out of the buffer at those
    offsets, and {!Scan.view} hands each chunk to the receivers' one
    per-chunk dispatch as a header record over its payload where it
    lies; {!Scan.chunk} is the copying variant.

    {b Ownership.}  The receive path never writes into a packet it was
    handed, but it may keep a view into it until that chunk's TPDU is
    decided (a chunk waiting for its TPDU's ED chunk).  A caller must
    therefore not mutate a packet after handing it to an ingest entry;
    a network element that damages or rewrites packets copies first.

    The scanner is {e exactly} as strict as {!decode_packet}:
    [Scan.packet] accepts a buffer iff [decode_packet] returns [Ok] on
    it, and on acceptance the recorded offsets are precisely where the
    chunks of that [Ok] list start, in order (terminator and padding
    excluded).  This equivalence is what lets the scan entry keep the
    decoder's all-or-nothing packet-drop semantics; it is pinned down
    by a fuzz property in the test suite. *)

module Scan : sig
  type t
  (** Reusable scan scratch: a growable offset array.  Create once per
      ingest loop and pass to every {!packet} call — steady-state
      scanning then allocates nothing. *)

  val create : unit -> t
  (** Fresh scratch (initial capacity 16 chunks, grows as needed). *)

  val packet : t -> bytes -> bool
  (** [packet s b] validates the whole packet image [b], recording the
      start offset of each non-terminator chunk in [s].  Returns [false]
      — and the packet must be dropped whole, exactly like a
      {!decode_packet} error — on any malformed chunk or non-zero
      trailing residue.  Resets [s] first, so a scratch can be reused
      freely. *)

  val count : t -> int
  (** Number of chunk offsets recorded by the last {!packet} call. *)

  val offset : t -> int -> int
  (** [offset s i] is the start of the [i]th chunk ([0 <= i <
      count s]).  Unchecked array access. *)

  val c_id_at : t -> int -> int
  (** [c_id_at s i] is the [i]th chunk's C.ID, recorded during the
      validation pass — the demultiplexing key, readable without
      touching the packet again. *)

  val ctype_code_at : t -> int -> int
  (** [ctype_code_at s i] is the [i]th chunk's TYPE code (0 = data),
      recorded during the validation pass. *)

  (** {2 Field readers}

      Each reader takes the packet buffer and a chunk offset produced by
      a successful {!packet} call; no bounds or validity checks are
      performed.  Offsets within the 46-byte header are as documented at
      the top of this file. *)

  val size : bytes -> int -> int
  (** SIZE field (bytes per element). *)

  val len : bytes -> int -> int
  (** LEN field (element count; payload byte count for control). *)

  val c_id : bytes -> int -> int
  (** Connection-level ID (C.ID). *)

  val t_id : bytes -> int -> int
  (** TPDU-level ID (T.ID). *)

  val view : bytes -> int -> Chunk.view
  (** The chunk at a scanned offset, read in place: its decoded header
      and the packet itself as the view's buffer, so the payload is
      never copied.  [Chunk.of_view (view b off)] equals (by
      {!Chunk.equal}) what {!decode_chunk} returns there.  Allocates
      the header and view records; copies nothing. *)

  val chunk : bytes -> int -> Chunk.t
  (** Materialise the chunk at a scanned offset: like {!view}, but the
      payload is copied out of the packet.  Equal (by {!Chunk.equal})
      to what {!decode_chunk} returns there.  Allocates. *)

  val warm : bytes -> unit
  (** [warm b] reads one byte of every 64-byte cache line [b] spans,
      its last byte's line included, and nothing else: independent,
      bounds-checked loads whose misses overlap one another and
      whatever the caller does next, so a packet read soon after (by
      {!packet} and the WSC-2 pass over its payloads) finds its lines
      already fetched.  Never writes into [b]; allocates nothing; does
      nothing on an empty buffer. *)
end

(** {1 Checksummed record framing}

    Length-prefixed, WSC-2-checksummed records for persisted endpoint
    state (crash-recovery snapshots and their append-only journals):
    [LEN (u32 be) | TAG (u8) | payload | parity (8 bytes)], with the
    parity computed over TAG and payload together.  Decoding never
    raises on malformed input. *)

val record_overhead : int
(** Framing bytes per record beyond the payload (13). *)

type scratch
(** A reusable buffer and checksum accumulator for record bodies: grows
    to the largest record encoded with it, and is never shared between
    threads of control. *)

val scratch : unit -> scratch
(** A fresh, empty scratch buffer. *)

val encode_record : ?scratch:scratch -> Buffer.t -> tag:int -> Buffer.t -> unit
(** [encode_record ?scratch buf ~tag payload] appends one record
    carrying the contents of [payload] to [buf].  The body (TAG and
    payload) is assembled and checksummed in [scratch] — pass one kept
    across calls and a record allocates nothing on the major heap; by
    default a fresh one is used.
    @raise Invalid_argument if [tag] is outside [0, 255]. *)

val decode_record : bytes -> int -> (int * bytes * int, string) result
(** [decode_record b off] parses one record at [off] and returns
    [(tag, payload, next_off)].  The checksum is computed over the
    record where it lies in [b]; only the payload is copied.  Fails —
    never raises — on truncation, a length prefix that overruns the
    buffer, or a checksum mismatch. *)

