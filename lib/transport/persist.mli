(** Crash-recovery images of transport endpoints: versioned snapshot
    codec and append-only journal.  Recovery restores the snapshot with
    [Multi.restore], which replays the journal through the endpoint's
    own primitives; this module only decodes.

    The paper's receiver believes nothing until a TPDU's error check
    passes, so what it must make durable is what it acknowledged: the
    ledger and the verified, labelled runs.  Everything in flight is
    soft state that the sender's retransmission rebuilds, and is not
    kept.  A snapshot is therefore the verified bytes plus a few words
    per connection, and each acknowledgement appends one journal record
    carrying exactly the bytes that ACK promised to keep.  Recovery is
    {e write-ahead}: the receiver journals the promise before
    the ACK leaves, so a restored endpoint never claims data it cannot
    produce.

    On-wire framing is {!Labelling.Wire.encode_record}: length-prefixed,
    WSC-2-checksummed records.  A snapshot is one record prefixed by the
    magic ["CSNP"] and a version number; a journal is a plain
    concatenation of event records.  An [Acked] record (tag 20) carries
    its run bytes after the framed record: the record checksum covers
    the header only, and the run bytes are checked against the WSC-2
    parity the header carries.  Decoding never raises — corruption
    surfaces as [Error], and journal decoding stops at the first
    damaged record (torn-write tolerance). *)

(** {1 Images}

    Plain values mirroring the recoverable parts of the live endpoint
    state, with every list in canonical sorted order so that
    [export (restore image) = image] holds structurally. *)

type receiver_image = {
  ri_conn : int;  (** connection id the receiver serves *)
  ri_placed : (int * bytes) list;
      (** the verified runs as (C.SN, bytes), sorted and coalesced
          exactly as [Labelling.Placement.locked_spans] reports: their
          cover is the verified cover.  Bytes placed by a TPDU not yet
          verified are not kept. *)
  ri_end_confirmed : int option;  (** last element's C.SN, once ACKed *)
  ri_passed : int;
      (** TPDUs verified over the whole epoch, across restarts — the
          archive gate ([Multi] keeps an epoch only if it delivered) *)
  ri_shed_spans : (int * int) list;
      (** element spans the sender shed and the receiver honoured, as
          (C.SN, elements), sorted and coalesced: they count toward
          completion, never toward verified delivery *)
  ri_shed_tids : int list;  (** T.IDs of the honoured sheds, ascending *)
}
(** What a [Chunk_transport.Receiver] promised and cannot re-derive
    after a crash.  Nothing in flight is here — verifier accumulators,
    corroboration records and their stashed chunks, end claims not yet
    verified, re-ACK clocks: it is soft state the sender's
    retransmission rebuilds, so a restored receiver holds no in-flight
    TPDU and its governor accounts nothing. *)

type sender_image = {
  si_first_tid : int;  (** T.ID of the transfer's first TPDU *)
  si_acked : int list;  (** T.IDs already acknowledged, ascending *)
  si_srtt : float option;  (** smoothed RTT, if any sample was taken *)
  si_rttvar : float;  (** RTT variance estimate *)
  si_rto_cur : float;  (** current retransmission timeout *)
  si_tpdu_elems : int;  (** TPDU size in force (adaptive sizing) *)
}
(** The sender state worth keeping: which TPDUs are done and the RTT
    estimator.  Unsent data is the application's to re-offer; unacked
    TPDUs are rebuilt from the data and retransmitted with identical
    labels, which the receiver absorbs as duplicates. *)

type epoch_image = {
  ei_delivered : bytes;  (** the epoch's placement buffer *)
  ei_complete : bool;
  ei_open_csn : int option;
      (** announced Open C.SN; [None] for an epoch that was only ever
          established implicitly *)
  ei_elems : int;  (** elements placed *)
  ei_passes : int;  (** TPDUs verified over the epoch's whole life *)
}
(** One archived epoch of a [Multi] connection. *)

type conn_image = {
  ci_id : int;  (** connection id *)
  ci_acked : int list;  (** per-connection ACK ledger, ascending *)
  ci_hist : epoch_image list;  (** archived epochs, oldest first *)
  ci_live : receiver_image option;  (** the live epoch, if any *)
  ci_live_open : int option;
      (** the live epoch's announced Open C.SN, when one was seen *)
  ci_quar_until : float;
      (** the connection's quarantine deadline (simulated time); [0.]
          when it was never boxed — containment must survive a crash,
          or a boxed peer could earn a fresh admission by forcing a
          restart *)
  ci_quar_count : int;  (** admissions revoked so far (backoff input) *)
  ci_poisoned : bool;  (** torn down by an exception bulkhead: permanent *)
}
(** One connection of a [Multi] endpoint. *)

type endpoint_image =
  | Multi of conn_image list
      (** a [Multi] endpoint's connections, ascending by id *)

type run_view = int * bytes * int * int
(** [(sn, src, off, len)]: the [len] bytes of [src] from [off] on,
    holding the elements from C.SN [sn] on.  The bytes are not copied
    into the view: it is only as durable as [src] is. *)

val owned_run : int -> bytes -> run_view
(** [owned_run sn b] is the view of the whole of [b] — the form decoded
    journal events carry, and a safe way to build events by hand. *)

val run_bytes : run_view -> int * bytes
(** The (C.SN, bytes) run a view denotes: the source itself when the
    view covers all of it, else a copy. *)

type event =
  | Acked of {
      conn : int;  (** connection id *)
      t_id : int;  (** the TPDU being acknowledged *)
      end_confirmed : int option;  (** end-of-stream C.SN, if confirmed *)
      runs : run_view list;
          (** the (C.SN, bytes) runs this ACK promises to keep.  The live
              receiver emits {e borrowed} views into its placement
              buffer, valid only for the duration of the persist
              callback: a consumer that keeps the event must copy the
              runs out ({!Store.append} copies each promised byte once,
              straight into the journal).  Decoded events carry owned
              views. *)
      parity : Wsc2.parity option;
          (** the WSC-2 parity of the runs' bytes laid out back to back
              from symbol position 0, when the writer already holds it:
              the live receiver passes the verifier's data parity
              ({!Edc.Verifier.take_data_parity}) when the runs are
              exactly the TPDU's data span, whose data starts at
              position 0.  [None] makes {!Store.append} compute it.
              Decoded events carry [None]: their parity was checked
              against their bytes. *)
    }
      (** Written {e before} the ACK packet leaves: the durable record
          of what the receiver told the sender it may forget. *)
  | Opened of { conn : int; open_csn : int option }
      (** a fresh epoch started on this connection, with the Open
          chunk's announced first C.SN when the epoch was established
          explicitly *)
  | Shed of { conn : int; t_id : int; first_elem : int; elems : int }
      (** an honoured shed of TPDU [t_id], whose [elems] elements from
          C.SN [first_elem] on are settled without their bytes.  Written,
          like [Acked], {e before} the shed's ACK leaves. *)
  | Archived of int  (** the live epoch was archived on this connection *)
  | Closed of int  (** the connection was closed *)

val empty_receiver : conn:int -> receiver_image
(** A blank receiver image for connection [conn]. *)

val event_conn : event -> int
(** The connection an event names. *)

(** {1 Codec} *)

val version : int
(** Snapshot format version (5).  The rule: any change to the field
    layout bumps this, and a decoder rejects images whose version it
    does not know — there is no cross-version repair.  Every decoder
    also refuses a record whose payload holds bytes past its last field,
    so a longer layout's record is never mis-read as this one's. *)

val encode_endpoint : endpoint_image -> bytes
(** Serialize a snapshot: magic, version, one checksummed record. *)

val decode_endpoint : bytes -> (endpoint_image, string) result
(** Parse a snapshot.  [Error] — never an exception — on bad magic,
    unknown version, checksum mismatch, truncation, or trailing
    bytes. *)

val encode_sender : sender_image -> bytes
(** Serialize a sender image (same framing as {!encode_endpoint}). *)

val decode_sender : bytes -> (sender_image, string) result
(** Parse a sender image.  [Error] — never an exception — on bad magic,
    unknown version, checksum mismatch, truncation, or trailing
    bytes. *)

val decode_journal : bytes -> event list * bool
(** Parse a journal: the trusted prefix of events, and whether decoding
    stopped early at a torn or unparseable record ([true] = the tail
    was discarded).  A record whose payload is longer than its event's
    fields is unparseable, and so is an [Acked] record whose run bytes
    do not match its parity: it and everything after it are discarded.
    Reads the v2 [Acked] record (tag 16, run bytes under the record
    checksum) as well as the tag-20 one writers emit. *)

(** {1 In-memory store}

    The simulator's stand-in for stable storage: holds the latest
    snapshot and the journal written since.  Taking a snapshot truncates
    the journal (the snapshot subsumes it). *)

module Store : sig
  type t

  val create : unit -> t
  (** An empty store: no snapshot, no journal. *)

  val snapshot : t -> endpoint_image -> unit
  (** Replace the stored snapshot with [image] and truncate the
      journal.  Records the encoded size in the
      [persist_snapshot_bytes] histogram. *)

  val append : t -> event -> unit
  (** Append one journal record ([persist_journal_records_total]):
      self-delimiting, so the journal is a plain concatenation of
      records.  An [Acked] event's run bytes are copied once, from its
      views straight into the journal, and only its small header is
      checksummed (in a scratch buffer the store keeps); the run bytes
      are covered by the event's parity, computed here when the event
      carries none.  Appending makes no per-record major-heap
      allocation beyond the journal's own growth, and the event's views
      need not outlive the call. *)

  val journal : t -> bytes
  (** A copy of the journal written since the last snapshot. *)

  val recover : t -> (endpoint_image * event list * bool, string) result
  (** What recovery starts from: the decoded snapshot ([Multi []] if
      none was ever taken), the journal's trusted events since, and
      whether the journal was torn.  [Multi.restore] rebuilds the
      endpoint from the first two.  Counts [persist_restores_total]
      and, on a torn journal, [persist_journal_truncations_total].
      [Error] only when the snapshot itself is unreadable. *)

  val corrupt_tail : t -> unit
  (** Damage the journal's last byte (four of its bits): a test hook,
      proving a damaged record is dropped as a torn tail, never
      recovered. *)

  val snapshots_taken : t -> int
  (** Snapshots stored so far. *)

  val journal_records : t -> int
  (** Journal records appended since creation (not reset by
      {!snapshot}). *)

  val journal_bytes : t -> int
  (** Bytes currently in the journal. *)
end

(** {1 Metrics} *)

val m_recovery : Obs.Metrics.histogram
(** [persist_recovery_wall_us] — wall-clock microseconds spent
    rebuilding a live endpoint from its persisted image; observed by
    the harness around each restore. *)
