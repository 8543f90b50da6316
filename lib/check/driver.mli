(** Runs the real stack — Framer → packing → multipath wire → gateway
    refragmentation chain → congestion dropper → the {!Transport.Multi}
    endpoint (demultiplexing, virtual reassembly, WSC-2 verification,
    immediate placement) — under one {!Schedule}, and reports everything
    the {!Oracle} observes.

    Every schedule runs through the one endpoint, fed by one sender per
    planned (connection, epoch): a single-connection schedule is
    connection 1's epoch 0; others add connections, a close-and-reopen
    of connection 1, an {!Adversary} flood or a byzantine peer at the
    receiver door.  The scheduled forward outage and ACK black hole wrap
    the respective directions.

    Deterministic: the same (seed, schedule, mutation) triple replays
    the same execution event for event. *)

type mutation =
  | No_mutation
  | Flip_every of int
      (** XOR one byte of every [n]th packet at the receiver door — an
          injected stack bug the oracle must catch *)
  | Dup_every of int
  | Drop_every of int
  | Corrupt_restore
      (** flip the first byte of the first [Acked] run in the first
          snapshot restored after a crash — a corrupted verified byte
          the oracle must catch (its TPDU is in the ledger, so no
          retransmission can heal it) *)
  | Overlap_clobber
      (** forge a {e validly sealed} TPDU with divergent bytes over the
          first observed data chunk's range and inject it right after
          that packet (once the endpoint has admitted the connection) —
          it verifies first, locks the range, and the first-verified-wins
          policy then rejects the sender's real bytes, so the delivered
          data diverges from the sent data: the overlap-consistency /
          data-mismatch checks must catch it.  (No honest network
          element can author a valid seal, which is why this is a
          mutation rather than an {!Netsim.Overlapper} mode.) *)
  | Shed_clobber
      (** mis-configure {e both} endpoints to treat TPDU 0 as expendable
          (classify it [Sheddable 1] and arm the sender's shed policy)
          and swallow every packet carrying TPDU-0 data at the receiver
          door, so the stack sheds a TPDU the schedule's shed contract
          declares Critical/Normal — the shed-safety check must catch
          the missing bytes.  Forced directly into the endpoint configs,
          so it survives the [shed=none] shrink. *)
  | Byz_clobber
      (** disable the anomaly-scoring quarantine ([anomaly_budget = 0]
          at creation {e and} at every restore) so the byzantine peer
          runs unboxed: its Open/Close flapping accumulates
          per-connection epochs without bound, the isolation-budget
          violation the oracle must catch.  Proves the containment is
          the defense's doing, not an accident of the schedule. *)

val mutation_to_string : mutation -> string
val mutation_of_string : string -> mutation option

type epoch_obs = {
  e_conn : int;
  e_epoch : int;
  e_gave_up : bool;  (** the sender abandoned TPDUs in this epoch *)
  e_complete : bool;
  e_delivered : bytes option;
      (** the epoch's receiver buffer; [None] if the receiver never saw
          the epoch *)
}

(** The endpoint-side containment view of one byzantine connection at
    quiescence (containment is journalled, so this is the whole run's
    story even across crashes). *)
type byz_conn_obs = {
  bc_conn : int;
  bc_epochs : int;  (** epochs the peer ever started on this C.ID *)
  bc_hist_bytes : int;  (** archived-epoch bytes parked on the endpoint *)
  bc_quarantines : int;  (** admissions revoked *)
  bc_boxed : bool;  (** still boxed (or poisoned) at quiescence *)
}

(** What the byzantine adversary did and what it cost the endpoint —
    the [isolation-budget] oracle row bounds {!byz_conn_obs} and the
    [honest-immunity] row demands [bo_honest_quarantined = 0]. *)
type byz_obs = {
  bo_stats : Netsim.Byzantine.stats;
  bo_conns : byz_conn_obs list;
  bo_honest_quarantined : int;
      (** honest connections ever boxed or poisoned — must stay 0:
          only provably-authored anomalies are scored *)
  bo_sender_bogus_acks : int;
      (** fabricated ACK/NACKs the honest senders detected and
          ignored *)
}

type observation = {
  ok : bool;
      (** every epoch's sender gave up, or the epoch is complete and its
          delivered prefix equals the sent data outside its honoured
          shed spans *)
  complete : bool;  (** every epoch complete or given up *)
  gave_up : bool;  (** some epoch's sender gave up *)
  finished : bool;
  delivered : bytes;  (** connection 1 epoch 0's placement buffer *)
  delivered_elems : int;  (** connection 1 epoch 0's placed elements *)
  sack_retransmissions : int;
  packets_sent : int;
  passes : int;
      (** TPDUs connection 1 epoch 0 verified, over its whole life *)
  tally : Transport.Tally.t;
      (** the endpoint's counts and levels, folded over every endpoint
          instance the run went through (one per crash, plus the last),
          with every sender's counts: a level and its high-water are
          the last instance's and the largest *)
  verifier_in_flight : int;  (** leak probe *)
  stashed_tpdus : int;  (** leak probe *)
  engine_pending : int;  (** > 0 after the horizon means lockup *)
  sim_time : float;
  gateways_malformed : int;
  shed_spans : (int * int) list;
      (** connection 1 epoch 0's honoured shed spans
          [(first_elem, elems)], ascending *)
  flood_injected : int;  (** adversary packets injected *)
  rtt_samples : int;  (** RTT samples taken (Karn-filtered) *)
  max_txs_at_rtt_sample : int;
      (** highest transmission count of any sampled TPDU; > 1 breaks
          Karn's rule *)
  final_rto : float;
      (** connection 1 epoch 0's sender's RTO at the end of the run *)
  crashes_injected : int;  (** scheduled crashes actually executed *)
  restores : int;  (** successful endpoint restores *)
  recovery_bad : int;
      (** recovery-safety probe failures: an unreadable snapshot, a
          torn journal (no schedule damages one, so a record that does
          not read back as written), an image that is not a
          [Transport.Persist.Multi] one, or a restored endpoint that
          holds an in-flight or quarantining TPDU (a T.ID it held could be
          both ledgered and in flight) *)
  restore_over_budget : int;
      (** restores whose re-derived governor occupancy exceeded the
          configured state budget *)
  roundtrip_failures : int;
      (** snapshot codec fixpoint or export/restore round-trip
          mismatches observed at restores *)
  snapshots_taken : int;  (** full snapshots written to the store *)
  journal_records : int;  (** journal records appended over the run *)
  journal_bytes : int;
      (** journal bytes appended over the run: labels only, so a few
          dozen per record *)
  epochs : epoch_obs list;
      (** every planned (connection, epoch), in plan order: connection
          1's epochs first *)
  known_conns : int;  (** connections ever admitted (incl. flood) *)
  overlap : Labelling.Placement.overlap_stats;
      (** placement conflict counters over every epoch and endpoint
          instance; [os_verified_overwrites] must be zero in every
          profile (the overlap-consistency check) *)
  overlap_injected : int;  (** overlap-adversary packets put on the wire *)
  fastpath_stats : Transport.Flowcache.stats;
      (** the endpoint's connection-memo counters, accumulated across
          crash incarnations *)
  byz : byz_obs option;  (** present iff the schedule runs the adversary *)
  counterfactuals : (string * epoch_obs list) list;
      (** [(row, re-run epochs)] for every entry of {!counterfactuals}
          that applies to the schedule, in table order; empty on the
          re-runs themselves *)
}

val horizon : float
(** Simulated-time bound on a run; far beyond the slowest legitimate
    completion or give-up. *)

(** {2 Counterfactuals}

    A counterfactual re-runs the schedule with exactly one thing
    changed; the oracle compares the two runs' [epochs] per
    (connection, epoch) under the row's equality.  An epoch missing
    from the re-run is always a mismatch. *)

type equality =
  | Exact
      (** equal [e_complete], equal [e_gave_up], and equal delivery —
          bytes on one side only is a mismatch *)
  | Delivery_when_settled
      (** nothing is compared once either side gave up (a given-up
          buffer may hold unverified adversary bytes); otherwise the
          completion flags must agree, and the bytes must be equal when
          both sides completed *)

type counterfactual = {
  row : string;  (** oracle row, e.g. [blast-radius] *)
  applies : Schedule.t -> bool;  (** whether a schedule gets this re-run *)
  rerun : mutation -> Schedule.t -> observation;
      (** the changed world, run untraced *)
  equality : equality;
}

val counterfactuals : counterfactual list
(** [overlap-determinism] (overlap adversary permuted) and
    [blast-radius] (byzantine peer deleted), in execution order. *)

val run :
  ?mutation:mutation -> ?trace:Obs.Trace.sink -> Schedule.t -> observation
(** The primary run, then every applicable counterfactual re-run.  The
    primary run narrates what the network and the endpoints did as
    [Obs.Trace.Note] events into [trace] (typically a ring), stamped
    with simulated time; the sink is used directly, not installed as
    the process-wide one. *)
