(** Crash-recovery state of transport endpoints: one record vocabulary,
    its codec, and an in-memory store.

    The paper's receiver believes nothing until a TPDU's error check
    passes, so what it must make durable is what it acknowledged: the
    ledger and the verified, labelled runs.  Everything in flight is
    soft state that the sender's retransmission rebuilds, and is not
    kept.  Each acknowledgement appends one journal record naming
    exactly the bytes that ACK promised to keep — by their labels, where
    placement put them, and the WSC-2 parity that vouches for them — and
    copying none of them.  Recovery is {e write-ahead}: the receiver
    journals the promise before the ACK leaves, so a restored endpoint
    never claims data it cannot produce.

    {b The region rule.}  A journal record's runs are views of a
    {e region}: the epoch's placement buffer, which the store holds by
    reference from the first record that names it until the next
    snapshot.  The receiver writes in the order place → lock → journal →
    ACK, and placement never rewrites a locked span while its buffer
    lives, so the acknowledged bytes stay where the record says they
    are.  Recovery checks each record's runs against its parity where
    they lie; a record whose bytes no longer match is refused like a
    damaged one.  A snapshot, by contrast, carries its runs' bytes: it
    is self-contained, and taking one lets the store drop every region.

    A snapshot is the endpoint's {e compacted journal}: the same
    records, as few as rebuild the same state ([Multi.export]).  There
    is one replay path.  [Multi.restore] replays the snapshot's records
    and then the journal's from an empty endpoint, so every durable fact
    has one writer per side and one reader.

    On-wire framing is {!Labelling.Wire.encode_record}: length-prefixed,
    WSC-2-checksummed records.  A journal is a plain concatenation of
    event records.  A snapshot is the magic ["CSNP"], a version number,
    a record count and that many records, framed as the journal frames
    them.  A snapshot's [Acked] record (tag 20) carries its run bytes
    after the framed record: the record checksum covers the header only,
    and the run bytes are checked against the WSC-2 parity the header
    carries.  A journal's [Acked] record (tag 26) carries labels only:
    the connection, T.ID and end claim, each run's region, C.SN, offset
    and length, and the runs' parity, its integers as varints — a few
    dozen bytes for a one-run ACK.  Decoding never raises — corruption surfaces as [Error] in a
    snapshot, and journal decoding stops at the first damaged record
    (torn-write tolerance). *)

type run_view = int * bytes * int * int
(** [(sn, src, off, len)]: the [len] bytes of [src] from [off] on,
    holding the elements from C.SN [sn] on.  The bytes are not copied
    into the view: it is only as durable as [src] is, and a journal
    relies on that — {!Store.append} keeps [src] as the run's region. *)

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
              receiver emits views into its placement buffer, of spans
              it has locked: they are never rewritten while the buffer
              lives, so {!Store.append} keeps the views, not the bytes.
              Events decoded from a snapshot or a tag-16/20 record carry
              owned views; events a store recovers from its journal
              carry views of its regions. *)
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
      (** an honoured shed of TPDU [t_id], whose [elems] elements (none:
          the T.ID alone) from C.SN [first_elem] on are settled without
          their bytes.  Written, like [Acked], before its ACK leaves. *)
  | Archived of { conn : int; complete : bool; elems : int; passes : int }
      (** the live epoch was archived on this connection, with its
          closing counts: whether it was complete, the elements it
          placed and the TPDUs it verified over its whole life *)
  | Closed of int  (** the connection closed; in a snapshot, holds nothing *)
  | Passes of { conn : int; passes : int }
      (** the live epoch's TPDUs verified over its whole life, which one
          compacted [Acked] cannot count; [Multi.export]'s only *)
  | Ledger of { conn : int; tids : (int * int) list }
      (** the ACK ledger as ascending runs [(first T.ID, count)];
          [Multi.export]'s only, the live ledger grows by [Acked] *)
  | Quarantined of { conn : int; until : float; count : int; poisoned : bool }
      (** containment, written when the connection is boxed or
          poisoned: its quarantine deadline (simulated time), the
          admissions revoked so far, and the bulkhead's poison.  A boxed
          peer cannot earn a fresh admission by forcing a restart. *)

type endpoint_image =
  | Multi of event list
      (** a [Multi] endpoint's compacted journal, as [Multi.export]
          writes it *)

val event_conn : event -> int
(** The connection an event names. *)

(** {1 Codec} *)

val version : int
(** Snapshot format version (6).  The rule: any change to the field
    layout bumps this, and a decoder rejects images whose version it
    does not know — there is no cross-version repair.  Every decoder
    also refuses a record whose payload holds bytes past its last field,
    so a longer layout's record is never mis-read as this one's. *)

val encode_endpoint : endpoint_image -> bytes
(** Serialize a snapshot: magic, version, record count, then each event
    as {!Store.append} frames it, but for an [Acked], written with its
    run bytes (tag 20). *)

val decode_endpoint : bytes -> (endpoint_image, string) result
(** Parse a snapshot with the journal's own record decoder.  [Error] —
    never an exception — on bad magic, unknown version, truncation,
    trailing bytes, or any record a journal decode would stop at: a
    snapshot is trusted whole, never as a prefix. *)

val decode_journal : bytes -> event list * bool
(** Parse a journal: the trusted prefix of events, and whether decoding
    stopped early at a torn or unparseable record ([true] = the tail
    was discarded).  A record whose payload is longer than its event's
    fields is unparseable, and so is an [Acked] record whose run bytes
    do not match its parity: it and everything after it are discarded.
    Reads the v2 [Acked] record (tag 16, run bytes under the record
    checksum) and the tag-20 one snapshots write.  No region is held
    outside a store, so decoding also stops at a labels-only record
    (tag 26) that names a run ({!Store.decode_journal} resolves it). *)

(** {1 In-memory store}

    The simulator's stand-in for stable storage: holds the latest
    snapshot, the journal written since, and the regions that journal's
    records name.  Taking a snapshot truncates the journal and drops the
    regions (the snapshot subsumes them). *)

module Store : sig
  type t

  val create : unit -> t
  (** An empty store: no snapshot, no journal. *)

  val snapshot : t -> endpoint_image -> unit
  (** Replace the stored snapshot with [image], which carries its runs'
      bytes, truncate the journal and drop every region.  Records the
      encoded size in the [persist_snapshot_bytes] histogram. *)

  val append : t -> event -> unit
  (** Append one journal record ([persist_journal_records_total]):
      self-delimiting, so the journal is a plain concatenation of
      records.  An [Acked] event becomes a labels-only record: each
      run's source buffer becomes a region, registered by physical
      identity the first time a record names it (in O(1), touching no
      byte) and held until the next {!snapshot}, and no run byte is
      copied.  The runs are covered by the event's parity, computed
      here — the one case that reads them — when the event carries
      none.  The caller keeps the region rule: a run's bytes are not
      rewritten while the store holds their buffer.  Appending makes no
      per-record major-heap allocation beyond the journal's own
      growth. *)

  val journal : t -> bytes
  (** A copy of the journal written since the last snapshot. *)

  val recover : t -> (event list * bool, string) result
  (** What recovery replays: the snapshot's events (none if no snapshot
      was ever taken) followed by the journal's trusted events since,
      and whether the journal was torn.  A journal [Acked] comes back
      with its runs as views of its regions, checked against its
      parity where they lie: a record whose bytes do not match, or
      that names a region the store does not hold, stops replay as a
      damaged record does.  [Multi.restore] rebuilds the
      endpoint from the list.  Counts [persist_restores_total]
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

  val bytes_appended : t -> int
  (** Journal bytes appended since creation (not reset by
      {!snapshot}). *)

  val decode_journal : t -> bytes -> event list * bool
  (** {!Persist.decode_journal} of [b] with this store's regions, as
      {!recover} reads its own journal. *)
end

(** {1 Metrics} *)

val m_recovery : Obs.Metrics.histogram
(** [persist_recovery_wall_us] — wall-clock microseconds spent
    rebuilding a live endpoint from its persisted image; observed by
    the harness around each restore. *)
