(** One receiver endpoint demultiplexing many connections (paper §2:
    the C.ID names an unmultiplexed conversation; TYPE-based dispatch
    makes the demultiplexer a table lookup per chunk).

    The endpoint's own connection records are the lifecycle state: a
    connection exists only after its [Open] signal is processed (data
    for unknown connections is dropped — establishment precedes data),
    [Close] tears it down, and a new [Open] after close re-establishes
    it under the {e same C.ID} with a fresh epoch.  Records are never
    removed, so the per-chunk lookup is memoised without any
    invalidation (DESIGN §7).  The
    per-connection ACK ledger survives epochs, so stale retransmissions
    from a closed epoch are re-acknowledged instead of re-processed —
    the guard that makes C.ID reuse safe (epoch T.ID spaces must be
    disjoint, which the sender's [first_tid] offset provides).

    All per-TPDU and per-connection state shares one {!Governor}:
    per-TPDU soft state is charged by footprint, each live connection is
    charged its placement quota, and both are evicted by deadline
    (stale-connection GC, abandoned-TPDU reclamation) or by budget
    pressure (admission under flood).  When the budget would still be
    exceeded, or the live-connection cap is hit, the {e stalest} live
    connection is displaced — never the freshest, so an Open flood
    displaces its own connections, not refreshing legitimate ones.

    {b Containment} (DESIGN §10): a byzantine peer speaks valid wire
    format, so per-chunk validation passes everything it sends; the
    demultiplexer therefore scores {e patterns} per connection.  Only
    anomalies a connection provably authored are scored — explicit
    re-establishment churn (a fresh Open C.SN above the watermark,
    which a replay cannot produce) and late traffic with unledgered
    T.IDs — while spoofable events (stale Opens, forged sheds naming
    the connection, parity-damaged signals) are counted but never
    scored, so no attacker can talk an honest connection into the
    penalty box.  A connection whose score exhausts the error budget
    has its admission revoked: its live epoch's state is reclaimed and
    every event it sources is refused until an exponentially growing
    re-admission backoff expires.  Exceptions thrown while processing
    one connection's traffic are bulkheaded: the connection is torn
    down and permanently boxed ({!poison}) instead of killing the
    endpoint. *)

type epoch_report = {
  delivered : bytes;
  complete : bool;
  closed : bool;
  open_csn : int option;
  placed_elems : int;
  shed_spans : (int * int) list;
  passes : int;
}
(** One epoch's outcome at the receiver: the placed bytes, whether
    every expected element arrived, whether the epoch was archived, the
    first C.SN its Open announced — the epoch's identity under the
    monotone-label discipline, [None] only when the epoch was
    established implicitly and its Open never arrived — the elements
    placed, the honoured shed spans [(first_elem, elems)] ascending, and
    the TPDUs verified over the epoch's whole life (across crash
    restores).  An epoch restored from an archived image reports no
    shed spans (a shed contract and crashes do not combine).  This is
    the unit the conformance oracle checks. *)

type t
(** A multi-connection receiving endpoint: the connection table, one
    receiver per live epoch, the shared governor and the lifecycle
    counters. *)

val create :
  Netsim.Engine.t ->
  config:Chunk_transport.config ->
  quota_elems:int ->
  max_conns:int ->
  ?bus:Busmodel.t ->
  ?persist:(Persist.event -> unit) ->
  ?fastpath_slots:int ->
  ?anomaly_budget:int ->
  send_ack:(bytes -> unit) ->
  unit ->
  t
(** [quota_elems] sizes each connection epoch's placement buffer (the
    stream end is signalled in-band by C.ST, so no per-transfer length
    is declared up front); [max_conns] caps simultaneously live
    connections.  [config.state_budget] and [config.state_ttl] govern
    the shared account.  The deadline sweep does not close a connection
    whose live epoch is incomplete but has verified a TPDU until its
    sender's {!Chunk_transport.retransmit_horizon} has passed since it
    was last heard from: that sender no longer announces the Open, so
    a closed epoch could not be re-established.

    [?persist] is the write-ahead journal hook, forwarded into every
    epoch receiver: it sees one {!Persist.Acked} record per fresh
    acknowledgement (before the ACK leaves; its runs are views of the
    epoch's placement buffer, of spans already locked, which stay valid
    while the buffer lives — {!Persist.Store.append} keeps them, not
    their bytes) and one {!Persist.Shed} per honoured shed (before its
    ACK leaves), plus {!Persist.Opened} / {!Persist.Archived} /
    {!Persist.Closed} lifecycle records.

    [?fastpath_slots] sizes the memo in front of the connection table
    (rounded up to a power of two; default derived from [max_conns]).
    A conflict miss costs one table probe; no size changes behaviour.

    [?anomaly_budget] (default 32) is the scored-anomaly threshold at
    which a connection's admission is revoked; [0] disables quarantine
    entirely (the [byz-clobber] mutation uses this to prove the
    defense is what contains a byzantine peer).  The penalty-box and
    score-decay clocks derive from [config.rto]:
    [max 0.25 (4 * rto)] seconds for the first box (doubling per
    revocation, capped at 2{^8}) and [max 1.0 (8 * rto)] for the quiet
    time that forgives an accumulated score.
    @raise Invalid_argument if [anomaly_budget < 0]. *)

val ingest : t -> bytes -> unit
(** Feed one wire packet — the endpoint's only packet entry.  One
    zero-allocation structural scan ({!Labelling.Wire.Scan}) validates
    it (malformed packets are dropped whole, exactly as
    {!Labelling.Wire.decode_packet} would refuse them), then every chunk
    takes the one dispatch path (DESIGN §7) — signals to their handlers,
    everything else to the owning epoch's receiver, the connection found
    through the memoised table.  Data and ED chunks travel as views of
    the packet ({!Labelling.Wire.Scan.view}): their payloads are read in
    place, never copied on the way in.  [test/test_flowcache.ml]'s
    properties hold it to a reference that decodes each packet and
    feeds every chunk back in its own one-chunk packet.

    Ownership: the endpoint never writes into the packet, but it may
    hold a quarantined run of it until that run's TPDU is decided (see
    {!Chunk_transport.Receiver.on_view} for the copybreak that bounds
    this), so the caller must not mutate a packet after handing it
    over. *)

val ingest_batch : t -> bytes array -> unit
(** {!ingest} over a batch of packets, in order, through
    {!Chunk_transport.ingest_each}.  What the batch adds is one warm
    read: before the first packet is ingested, one byte of every cache
    line of every packet is read, so the batch's first-touch misses
    overlap instead of stalling the scan and WSC-2 one line at a time.
    It never writes, and {!Busmodel} charges nothing for it.  Delivery
    is byte-identical to {!ingest} of each packet at any batch size. *)

type fastpath_stats = {
  fp_conn : Flowcache.stats;  (** the connection (C.ID) cache *)
  fp_tpdu : Flowcache.stats;
      (** always {!Flowcache.zero_stats}: the per-TPDU cache it counted
          is gone, and the field stays only because the receive-path
          benchmark still reads it *)
}
(** Counters of the connection-lookup memo. *)

val fastpath_stats : t -> fastpath_stats
(** Memo counters accumulated since creation.  Every chunk's connection
    lookup probes the memo; a miss that finds a record inserts it, a
    never-opened C.ID inserts nothing. *)

val epochs : t -> conn_id:int -> epoch_report list
(** Delivered buffers of the connection's epochs, oldest first; the last
    entry is the live epoch if the connection is open. *)

val known_conns : t -> int list
(** Connections ever admitted, ascending. *)

val governor_stats : t -> Governor.stats

val receivers : t -> Chunk_transport.Receiver.t list
(** The live epochs' receivers, by ascending C.ID. *)

val governor : t -> Governor.t
(** The one governor every connection and live epoch charges. *)

val governor_handles : t -> Governor.entry list
(** The governor handles the connection records hold; with each
    receiver's {!Chunk_transport.Receiver.governor_handles}, every handle
    on {!governor}. *)

val live_conns : t -> int
(** Connections currently open (admitted, not closed/GCed/displaced). *)

val live_in_flight : t -> int
(** Verifier state held across all live epochs (quiescence probe). *)

val live_stashed : t -> int
(** TPDUs holding quarantined runs across all live epochs (quiescence
    probe; {!Chunk_transport.Receiver.stashed_tpdus}). *)

val counters : t -> Counters.t
(** The endpoint's counts since creation (or restore), over every epoch
    of every connection: each epoch receiver counts straight into this
    record, so nothing is folded at archive time. *)

val reacks_sent : t -> int
(** The [reacks_sent] field of {!counters}. *)

val unknown_drops : t -> int
(** The [unknown_drops] field of {!counters}. *)

(** {1 Containment} *)

val poison : t -> conn_id:int -> unit
(** Tear the connection down (reclaiming its live epoch's state) and
    permanently refuse its traffic.  Called by the internal exception
    bulkheads; public so operators and tests can isolate a connection
    by hand.  Unknown connections are ignored; poisoning is
    idempotent. *)

type conn_stats = {
  cs_epochs : int;  (** epochs ever started (including the live one) *)
  cs_hist_bytes : int;  (** archived-epoch buffer bytes parked *)
  cs_anomalies : int;  (** anomalies attributed, scored and unscored *)
  cs_quarantines : int;  (** admissions revoked so far *)
  cs_quarantined : bool;  (** currently boxed (or poisoned) *)
  cs_poisoned : bool;
}
(** Per-connection containment accounting — what the isolation-budget
    oracle row bounds for byzantine connections. *)

val conn_stats : t -> conn_id:int -> conn_stats option

val overlap_stats : t -> Labelling.Placement.overlap_stats
(** Overlap-conflict counters summed over every epoch of every
    connection, live and archived (see {!Labelling.Placement} for the
    first-verified-wins policy they account). *)

val verifier_stats : t -> Edc.Verifier.stats
(** Verifier counters summed over every epoch of every connection since
    creation (or restore), live and archived. *)

val tally : t -> Chunk_transport.Sender.t list -> Tally.t
(** The endpoint's records now, with the counts of [senders], the
    senders that fed it. *)

(** {1 Crash recovery} *)

val export : t -> Persist.event list
(** The endpoint's compacted journal: the fewest records that rebuild
    its durable state through {!restore}, ascending by connection.  Per
    connection: its [Ledger]; each archived epoch, oldest first, then
    the live one, as one [Acked] of its bytes, its [Shed]s and its
    [Opened] identity, closed by an [Archived] with its counts or, for
    the live epoch, a [Passes]; then a [Quarantined] if it was ever
    boxed or poisoned.  A connection whose Open watermark is above
    every identity those epochs carry (an epoch the archive gate
    dropped raised it) first exports that identity as an epoch opened
    and archived with no pass, which a restore drops again, keeping the
    watermark.  Nothing in flight is exported.  Canonical:
    [export (restore (export m)) = export m]. *)

val restore :
  Netsim.Engine.t ->
  config:Chunk_transport.config ->
  quota_elems:int ->
  max_conns:int ->
  ?bus:Busmodel.t ->
  ?persist:(Persist.event -> unit) ->
  ?anomaly_budget:int ->
  send_ack:(bytes -> unit) ->
  Persist.event list ->
  t
(** [restore ... events] rebuilds a demultiplexer from nothing by
    replaying [events] — a snapshot's, then the journal written since —
    through the endpoint's own primitives, the live side's for each
    record: an [Acked] joins the ledger, places and locks its runs,
    believes its end claim, counts its pass and bounds the epoch's
    identity; an [Archived] archives with the record's counts.  A record
    naming an unknown connection creates it.  The endpoint holds no
    in-flight TPDU (the sender's retransmission rebuilds it), and once
    the last record is replayed every connection re-accounts its slot
    against a fresh governor — the budget, not the snapshot, decides
    what survives.  Journals, sends and schedules nothing beyond the
    governor's sweep; call {!reannounce} to re-enter service. *)

val reannounce : t -> unit
(** Re-ACK every TPDU in every restored ledger (live or closed epoch),
    counted in [reacks_sent] — any ACK from the pre-crash life may have
    died with the crash, and a sender retransmitting into a silent
    restored endpoint would probe until give-up. *)

val teardown : t -> unit
(** Crash the endpoint: release all soft state and governor accounts at
    once (so a dead endpoint's sweep timer cannot keep the simulation
    alive) without archiving epochs or journalling lifecycle events — a
    crash is not a graceful close — and without a verdict: in-flight
    TPDUs are dropped, not counted as failed, and the verify-latency
    histogram sees none of them. *)
