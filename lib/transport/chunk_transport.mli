(** A reliable transport built on chunks: the paper's architecture
    assembled end to end.

    Sender: frame the application stream three ways at once
    ({!Labelling.Framer}), seal each TPDU with a WSC-2 ED chunk
    ({!Edc.Encoder}), pack chunks into MTU-sized envelopes
    ({!Labelling.Packet}), retransmit unacknowledged TPDUs with
    {e identical labels} (§3.3) under a fixed window and an RTO that is
    either fixed or estimated (Jacobson SRTT/RTTVAR under Karn's rule —
    mandatory here, since a retransmission is indistinguishable from the
    original on the wire).

    Receiver (one connection epoch's, which {!Multi} runs per live
    epoch): process every chunk {e immediately on arrival} — no
    reordering, no reassembly buffer: place fresh elements straight into
    the application buffer by connection SN (spatial reordering,
    {!Labelling.Placement}), accumulate the error-detection parity
    incrementally ({!Edc.Verifier}), and acknowledge a TPDU the moment
    its virtual reassembly completes and its parity verifies.  Data
    crosses the bus once.  All per-TPDU soft state is accounted to a
    {!Governor} so a sender that vanishes (or floods) cannot leak or
    exhaust receiver memory. *)

type config = {
  conn_id : int;
  elem_size : int;  (** bytes per element; multiple of 4 *)
  tpdu_elems : int;  (** elements per TPDU *)
  frame_bytes : int;  (** external-PDU (ALF) size *)
  mtu : int;  (** outgoing packet capacity *)
  window : int;  (** TPDUs in flight *)
  rto : float;
      (** retransmission timeout, seconds; with [rto_adaptive] this is
          the ceiling and initial value of the estimator *)
  rto_adaptive : bool;
      (** estimate the RTO from ACK round-trips (Jacobson SRTT/RTTVAR);
          samples are taken only from TPDUs transmitted exactly once
          (Karn's rule — retransmissions reuse identical labels, §3.3,
          so their ACKs are inherently ambiguous) *)
  adaptive : bool;
      (** shrink the TPDU size on timeout and grow it on clean ACKs —
          the §3 response to Kent & Mogul's fragment-loss argument (the
          sender needs no knowledge of whether fragmentation occurs) *)
  sack : bool;
      (** selective retransmission: the receiver reports virtual
          reassembly's gap list in NACK chunks and the sender re-sends
          exactly those element runs (self-describing chunks make any
          sub-run a first-class retransmission unit); the full-TPDU RTO
          remains the fallback *)
  nack_delay : float;
      (** how long a TPDU may stay incomplete before the receiver
          NACKs its gaps (seconds) *)
  give_up_txs : int;
      (** transmissions of one TPDU before the sender abandons it and
          signals {!Labelling.Connection.Abort_tpdu} to the receiver *)
  state_budget : int;
      (** receiver soft-state budget in bytes ([<= 0]: unlimited); see
          {!Governor} *)
  state_ttl : float;
      (** idle deadline for receiver soft state, seconds (delta-t style:
          state not refreshed within the TTL is evicted) *)
  classify : int -> Labelling.Significance.t;
      (** significance class of each TPDU by T.ID (partial reliability).
          Both endpoints must use the same classifier — the class is
          part of the transfer contract, like the framing: the sender
          consults it before shedding, the receiver before {e honouring}
          a shed (a Shed_tpdu for a TPDU the receiver classifies as
          Critical/Normal is ignored, so a forged shed cannot truncate
          the stream), and the governor charges sheddable state at its
          rank so budget pressure displaces it first.  Default: every
          TPDU is [Normal] (fully reliable). *)
  shed_txs : int;
      (** congestion shed policy: after this many transmissions of a
          {e sheddable} TPDU the sender deliberately abandons it with a
          {!Labelling.Connection.Shed_tpdu} signal instead of
          retransmitting it to give-up — RTO backoff is the congestion
          signal.  [0] (default) disables shedding; must be
          [< give_up_txs] otherwise. *)
}

val default_config : config
(** 4-byte elements, 512-element TPDUs, 1500-byte MTU, window 8,
    fixed 50 ms RTO, SACK/adaptive off, state unlimited — the baseline
    every CLI flag and soak profile perturbs from. *)

val retransmit_horizon : config -> float
(** How long a sender may keep retransmitting one TPDU into silence
    before it gives up: [give_up_txs] waits, each at most the backoff
    cap of 8 x [rto].  An endpoint that closes a connection sooner can
    strand a sender that is still retransmitting. *)

val expected_elements : config -> data_len:int -> int
(** Elements the receiver will hold once a stream of [data_len] bytes is
    framed (only the final frame is padded to a whole element). *)

val ack_packet : conn_id:int -> t_id:int -> bytes
(** One encoded packet carrying the ACK control chunk for a TPDU. *)

type throttle
(** A re-ACK throttle table: each T.ID's last re-ACK time, in one flat
    table, so that a re-ACK stores nothing a minor collection must
    copy. *)

val throttle : room:int -> throttle
(** An empty throttle table with room for [room] T.IDs before it
    grows. *)

val reack :
  counts:Counters.t ->
  send_ack:(bytes -> unit) ->
  last_reack:throttle ->
  gap:float ->
  now:float ->
  conn_id:int ->
  int ->
  unit
(** The one re-ACK path, of a live epoch and of {!Multi}'s closed ones:
    unless the caller's throttle table [last_reack] holds a re-ACK of
    [t_id] less than [gap] seconds before [now], note [now] there, count it in [counts.reacks_sent] and
    [transport_reacks_total], and send its {!ack_packet}.
    [gap = neg_infinity] never throttles. *)

val ingest_each : ('a -> bytes -> unit) -> 'a -> bytes array -> unit
(** The batch loop behind {!Receiver.ingest_batch} and
    {!Multi.ingest_batch}: records the batch's occupancy in the
    [transport_ingest_batch_packets] histogram, warms every packet
    ({!Labelling.Wire.Scan.warm}) so their first-touch misses overlap,
    then runs [ingest x] on each packet in order.  The warm read never
    writes into a packet and is no bus crossing. *)

(** {1 Receiver} *)

module Receiver : sig
  type t

  type spare
  (** Released per-TPDU records and verifier states kept for reuse (at
      most 32 of each; see {!Edc.Verifier.pool}), which receivers may
      share: a TPDU opened from spares allocates neither. *)

  val spare : unit -> spare
  (** No spares yet. *)

  type owner = {
    o_governor : Governor.t;
        (** the one account every receiver of the owner charges; the
            owner holds its eviction callback and routes per-TPDU
            evictions to {!evict} *)
    o_acked : unit Labelling.Int_map.t;
        (** the ACK ledger, outliving any one receiver *)
    o_counts : Counters.t;  (** the record the receiver counts into *)
    o_spare : spare;  (** released per-TPDU records, for reuse *)
  }
  (** What an owner of several receivers (a demultiplexer) shares with
      each of them. *)

  val create :
    Netsim.Engine.t ->
    config ->
    ?bus:Busmodel.t ->
    ?owner:owner ->
    ?persist:(Persist.event -> unit) ->
    send_ack:(bytes -> unit) ->
    capacity:[ `Quota of int ] ->
    unit ->
    t
  (** [`Quota n] grants the placement buffer up to [n] elements without
      foreknowledge of the stream's length: its end is signalled in-band
      by the C.ST bit on the final element, believed once the TPDU
      carrying it verifies.

      Without [?owner] (as the receive-path benchmark's shadow replay
      runs it) the receiver has its own governor (budget and TTL from
      [config]), ACK ledger and counts.

      [?persist] is the write-ahead journal hook: it receives one
      {!Persist.Acked} event per fresh acknowledgement and one
      {!Persist.Shed} per honoured shed, each {e before} its ACK packet
      is handed to [send_ack].  An [Acked] event carries exactly the
      placed bytes that ACK promises to keep, as views of the placement
      buffer.  The views stay valid after the hook returns: their spans
      are locked before the hook runs, and a locked span is never
      rewritten while its buffer lives, so a journal may keep the views
      instead of the bytes ({!Persist.Store.append}). *)

  val on_view : t -> Labelling.Chunk.view -> unit
  (** Feed one chunk read in place, such as {!Labelling.Wire.Scan.view}
      makes of a packet or {!Labelling.Chunk.view} of a materialised
      chunk (demultiplexer path; no bus accounting) — the receiver's one
      per-chunk dispatch.  Its payload is read where it lies: verified,
      and its fresh elements placed the moment it arrives.  Placement's
      first-verified-wins policy settles a conflict: a run whose bytes
      differ from verified ones is refused, and one whose bytes differ
      from unverified ones is quarantined until its TPDU's verdict,
      held as its buffer and offset.  A quarantined run whose payload is
      less than half of its buffer is copied out first (a fixed
      copybreak), so retained memory stays within twice the bytes the
      state governor charges for it.  Signals are materialised. *)

  val ingest_batch : t -> bytes array -> unit
  (** Feed a batch of packets from the network — the receiver's only
      packet entry, through {!ingest_each}, which reads (never writes)
      every packet's cache lines before the first is processed.  One
      zero-allocation structural scan ({!Labelling.Wire.Scan}) per
      packet validates it, dropping a malformed one whole exactly as
      {!Labelling.Wire.decode_packet} would; each scanned chunk is then
      handed to {!on_view} as a view of the packet, so no payload is
      copied.  The qcheck property in [test_flowcache] holds it
      byte-identical to [decode_packet] followed by {!on_view} of each
      chunk over its own payload.

      Ownership: the receiver never writes into a packet, but it may
      hold a quarantined run of it until the run's TPDU is decided, so
      the caller must not mutate a packet afterwards. *)

  val contents : t -> bytes
  (** The application buffer ({!Labelling.Placement.contents}): placed
      elements hold their bytes and every hole reads 0. *)

  val delivered_elems : t -> int

  val complete : t -> bool
  (** A verified TPDU carried the C.ST end-of-connection bit and every
      element up to it is covered by {e verified or shed} TPDUs — bytes
      placed by a TPDU that later failed parity do not count (its
      identical-label retransmission re-places them), while a
      deliberately shed span counts as settled without its bytes
      (partial reliability). *)

  val tracks_tpdu : t -> t_id:int -> bool
  (** Whether the receiver holds any soft state (verifier accumulator or
      per-TPDU record) for [t_id], or honoured a shed of it. *)

  val abort_tpdu : t -> t_id:int -> unit
  (** Evict all partial state for [t_id] (the sender abandoned it);
      counted in [aborts_received] if any state existed. *)

  val shed_tpdu : t -> t_id:int -> first_elem:int -> elems:int -> unit
  (** The sender deliberately abandoned a sheddable TPDU (partial
      reliability).  Honoured only if this receiver's own [classify]
      agrees the TPDU is sheddable — a forged shed of a Critical/Normal
      TPDU is ignored — and only if the TPDU is not already verified.
      On honour: partial state is dropped, the element span joins the
      shed cover (so {!complete} can be reached without those bytes),
      and the shed is acknowledged like a verified TPDU so the sender
      stops resending the signal.  Duplicates and shed-after-ACK races
      get a throttled re-ACK. *)

  val evict : t -> t_id:int -> unit
  (** Dispose of [t_id]'s soft state after the governor already dropped
      its account (demultiplexer eviction routing). *)

  val quiesce : t -> unit
  (** Release every piece of soft state (and its governor account) at
      once — connection close.  Not counted as evictions.  Bytes placed
      by a TPDU that never verified are un-placed with it, so the
      closed epoch delivers only verified data. *)

  val element_delay : t -> Netsim.Stats.t
  (** Per-element application-availability delay relative to the packet
      carrying it (0 for immediate processing; the comparison series
      for CLM-LAT). *)

  val tpdu_latency : t -> Netsim.Stats.t
  (** Per-TPDU time from first fragment arrival to verification. *)

  val overlap_stats : t -> Labelling.Placement.overlap_stats
  (** The placement buffer's conflict counters under the
      first-verified-wins overlap policy (see
      {!Labelling.Placement}). *)

  val verifier_stats : t -> Edc.Verifier.stats

  val verifier_in_flight : t -> int
  (** TPDUs the verifier currently holds state for (leak probe: 0 once
      an undamaged transfer completes, and 0 after quiescence even for
      abandoned transfers — give-up signalling plus the governor's
      deadline sweep guarantee it). *)

  val stashed_tpdus : t -> int
  (** TPDUs holding quarantined runs: data whose bytes conflicted with
      unverified bytes already placed, held back until its TPDU's
      verdict.  0 once an undamaged transfer completes. *)

  (** {2 The dispatch invariants}

      [on_view] trusts two facts rather than re-probing for them on
      every chunk: no T.ID holding a per-TPDU record is in the
      ledger or shed, and every governor handle a record holds is dead
      or the governor's own entry for its key.  These expose what a
      check of both needs. *)

  val record_tids : t -> int list
  (** T.IDs holding a per-TPDU record, ascending. *)

  val acked_tids : t -> int list
  (** The ACK ledger (the owner's, when there is one), ascending. *)

  val shed_tids : t -> int list
  (** T.IDs whose shed this receiver honoured, ascending. *)

  val governor_handles : t -> Governor.entry list
  (** The handles the per-TPDU records hold. *)

  val shed_spans : t -> (int * int) list
  (** The honoured shed cover as [(first_elem, elems)] runs in
      connection-SN space, ascending — the mask under which delivered
      bytes are exempt from byte-exactness. *)

  (** {2 Crash recovery} *)

  val epoch_passes : t -> int
  (** TPDUs verified over the epoch's whole life, {e including} those
      verified before a crash and carried over by {!replay} — the
      archive gate [Multi] uses (the raw {!verifier_stats} counter
      restarts at zero on restore). *)

  val ident_tid : t -> int option
  (** The lowest T.ID this epoch freshly acknowledged (verified or
      shed-honoured), [None] before the first.  Under the monotone-label
      discipline this equals the epoch's first C.SN once the stream head
      is acknowledged: the epoch's identity, recovered from the data
      labels alone.  {!Multi} falls back to it when the epoch's Open
      died in flight and the epoch was established implicitly — the
      labelling discipline makes explicit establishment an accelerator,
      not a prerequisite, for identifying the conversation. *)

  val end_confirmed : t -> int option
  (** The stream's last element, once a verified TPDU confirmed it. *)

  val verified_runs : t -> Persist.run_view list
  (** The verified runs, copied out as owned views, as
      {!Labelling.Placement.locked_spans} sorts and coalesces them. *)

  val replay : t -> Persist.event -> unit
  (** Apply one record to a restored receiver, through the primitives
      the live path uses.  [Acked] places and locks the acknowledged
      runs (a run outside the window is dropped), believes the end claim
      and counts the pass; [Shed] joins the shed cover; [Passes] sets
      the pass count; the others concern the connection
      ({!Multi.restore}).  A restored receiver holds nothing in flight,
      so no record has soft state to settle.  Journals, sends and
      accounts nothing. *)

  val forget_in_flight : t -> unit
  (** Drop every in-flight TPDU's state without a verdict, as a crash
      drops it: nothing is counted as failed or traced.  The governor
      account is the caller's to clear. *)

  val reannounce : t -> unit
  (** Conservative re-entry into service after a restore: re-ACK every
      TPDU in the restored ledger (counted as re-ACKs), because any ACK
      sent before the crash may have died with it. *)
end

(** {1 Sender} *)

module Sender : sig
  type t

  val create :
    Netsim.Engine.t ->
    config ->
    ?first_tid:int ->
    ?announce_open:bool ->
    send:(bytes -> unit) ->
    data:bytes ->
    unit ->
    t
  (** Builds all TPDUs from [data] up front and starts transmitting
      within the window as soon as the engine runs.  [?first_tid] offsets
      the T.ID space (re-established connections must not reuse live
      T.IDs).  [?announce_open] piggybacks a {!Labelling.Connection.Open}
      signal on every transmission of the first TPDU, so a lost Open is
      re-announced by the retransmission machinery for free. *)

  val demux : (int -> t option) -> bytes -> unit
  (** [demux find b] feeds one reverse-path packet to the senders it
      names — the sender side's only packet entry.  One structural scan
      ({!Labelling.Wire.Scan}) validates [b], dropping a malformed packet
      whole; each ACK or NACK chunk then goes to [find] of its C.ID (and
      is ignored on [None]), a NACK's payload read where it lies in [b].
      Other chunk types are ignored. *)

  val on_packet : t -> bytes -> unit
  (** {!demux} with every C.ID naming this sender: the reverse path of a
      single connection. *)

  val start : t -> unit
  (** Schedule the initial window at the current simulated time. *)

  val finished : t -> bool

  val gave_up : t -> bool
  (** The sender abandoned at least one TPDU after repeated
      retransmission failures (a black-hole path); the transfer cannot
      report [ok]. *)

  val aborts_sent : t -> int
  (** [Abort_tpdu] signals put on the wire (one per abandoned TPDU). *)

  val retransmissions : t -> int

  val sack_retransmissions : t -> int
  (** Selective (gap-only) retransmissions triggered by NACKs. *)

  val packets_sent : t -> int
  val bytes_sent : t -> int

  val current_tpdu_elems : t -> int
  (** instantaneous (adaptive) TPDU size *)

  val current_rto : t -> float
  (** The RTO currently governing retransmission timers (equals
      [config.rto] unless [rto_adaptive] has taken samples). *)

  val rtt_samples : t -> int
  (** RTT samples accepted by Karn's rule. *)

  val max_txs_at_rtt_sample : t -> int
  (** The largest transmission count any sampled TPDU had at sampling
      time — Karn's rule holds iff this never exceeds 1. *)

  val of_tpdus :
    Netsim.Engine.t ->
    config ->
    ?announce_open:bool ->
    send:(bytes -> unit) ->
    (int * Labelling.Chunk.t list) list ->
    t
  (** A sender over pre-cut, pre-sealed TPDUs (each [(t_id, chunks)]
      entry is the data chunks followed by their ED chunk), transmitted
      in list order — the hook for {!Interleave}: a priority scheduler
      decides the order across many X streams and this sender gives
      every TPDU the full retransmission/shed machinery without
      re-framing anything.  The first entry's [t_id] anchors the T.ID
      space (as [?first_tid] does for {!create}).
      @raise Invalid_argument on an empty list or an empty TPDU. *)

  val sheds_sent : t -> int
  (** TPDUs deliberately abandoned under the congestion shed policy
      ([config.shed_txs]); each is counted once, however many times its
      shed signal is retried. *)

  val bogus_acks : t -> int
  (** ACK or NACK traffic naming a T.ID this sender never transmitted
      (not in flight, never finished): fabricated acknowledgements,
      ignored on receipt but counted. *)
end
