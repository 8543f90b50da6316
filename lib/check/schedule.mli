(** Adversarial run descriptions for the conformance harness.

    A schedule is everything a {!Driver} run depends on: the transfer
    parameters, the control-plane policy (RTO estimation, give-up,
    receiver state budget/TTL, number of connections), the network
    topology (multipath spread/skew/jitter, a chain of repacking
    gateways), and the fault mix.  Together with its [seed] it
    determines a run {e completely} — the same (seed, schedule) pair
    replays the same packet-by-packet execution, which is what makes
    shrunk counterexamples replayable. *)

type profile =
  | Clean  (** no faults: reordering and refragmentation only *)
  | Lossy  (** loss, duplication, jitter, congestion drops — no corruption *)
  | Hostile  (** lossy plus random bit corruption in flight *)
  | Hostile_flood
      (** hostile plus a demultiplexing receiver under attack: several
          concurrent connections (sometimes closed and re-opened with
          the same C.ID), a connection-flood adversary forging Opens and
          never-completing TPDUs, a byte budget on receiver state, and
          sometimes a permanently dead ACK path (the sender must give up
          cleanly, the receiver must evict) *)
  | Outage_recover
      (** a scheduled forward-path outage (packets dropped, or held and
          replayed at resume); the transfer must recover and complete —
          give-up is a violation *)
  | Crash_restart
      (** the receiver endpoint crashes mid-transfer (one to three
          times), losing all in-memory state and any traffic in its down
          window, then restarts from its journaled snapshot; the
          transfer must still complete with no double delivery and no
          papered-over hole *)
  | Crash_flood
      (** crash-restart layered on a demultiplexing receiver under
          connection-flood pressure with a state budget: restored state
          must re-fit the budget and restored connections must survive
          the flood's displacement churn *)
  | Overlap_hostile
      (** hostile (light loss, corruption, duplication) plus an overlap
          adversary synthesizing overlapping retransmissions with
          {e conflicting} bytes: divergent duplicates of observed
          chunks, forged validly-labelled TPDUs over observed connection
          ranges, and overlapping gateway-style re-split chains — the
          first-verified-wins overlap policy must keep delivery
          byte-exact and arrival-order deterministic *)
  | Degrade_hostile
      (** graceful degradation under sustained congestion: a shed
          contract marks every N-th TPDU sheddable, a significance-aware
          dropper congestion-drops only sheddable traffic at 10-30%, and
          the sender's shed policy deliberately abandons sheddable TPDUs
          after a few transmissions — the stream must still complete,
          every Critical/Normal byte must arrive byte-exact, and only
          declared-sheddable spans may be missing *)
  | Fastpath_hostile
      (** the demultiplexer's scan entry and per-chunk dispatch under
          hostile fire with no flood: one to three connections
          (sometimes with C.ID reuse) deliver through
          {!Transport.Multi.ingest} while corruption, loss, duplication
          and congestion drops attack the scanned labels and churn
          epochs under the memoised connection records.  It is the only
          profile that mixes several honest connections with this fault
          set and no adversary traffic; its single-connection runs
          exercise the single receiver under the same fire. *)
  | Byzantine_hostile
      (** a wire-conformant but protocol-violating peer alongside the
          honest population: Open/Close flapping that parks archived
          epochs, label-plausible garbage TPDUs sealed with
          self-consistent parities, ACKs for never-sent TPDUs and
          contradictory ACK/NACK pairs, forged [Shed_tpdu] naming honest
          Critical streams, and verbatim replays of archived-epoch
          signals — the receiver's anomaly scoring must quarantine the
          byzantine connections while the [blast-radius] oracle row
          re-runs the schedule without the attacker and demands
          identical honest outcomes *)

val profile_name : profile -> string
val profile_of_name : string -> profile option

val all_profiles : profile list
(** Every profile, in presentation order. *)

type spread = Round_robin | Random_path | Route_change of float

type gateway = {
  gw_policy : Labelling.Repack.policy;
  gw_mtu : int;
  gw_batch : int;  (** arriving packets held before re-enveloping *)
}

type dropper = { drop_mode : Netsim.Dropper.mode; drop_loss : float }

type outage = {
  out_hold : bool;  (** pause-and-replay instead of discard *)
  out_start : float;
  out_duration : float;
}

type flood = {
  flood_rate : float;  (** forged packets per simulated second *)
  flood_stop : float;
  flood_conns : int;  (** distinct bogus connection ids in play *)
}

type crash = {
  cr_time : float;  (** the receiver endpoint dies here (simulated s) *)
  cr_restart : float;
      (** downtime before it restarts from its persisted image *)
}

type overlap = {
  ov_rate : float;  (** injections per simulated second *)
  ov_stop : float;  (** injection ends here *)
  ov_dup : bool;  (** divergent duplicates of observed chunks *)
  ov_forge : bool;  (** forged validly-labelled TPDUs over observed ranges *)
  ov_resplit : bool;  (** overlapping gateway-style re-split chains *)
}

type shed = {
  sh_every : int;
      (** every [sh_every]-th TPDU is declared sheddable (the last TPDU
          never is — it carries the C.ST stream-end marker) *)
  sh_txs : int;
      (** the sender sheds a sheddable TPDU after this many
          transmissions (must be [< give_up_txs]) *)
}

type byz = {
  bz_rate : float;  (** hostile actions per simulated second *)
  bz_stop : float;  (** the byzantine peer goes quiet here *)
  bz_conns : int;  (** distinct byzantine connection ids in play *)
  bz_acks : bool;
      (** ACKs for never-sent TPDUs and contradictory ACK/NACK pairs on
          the reverse path *)
  bz_sheds : bool;  (** forged [Shed_tpdu] naming honest Critical TPDUs *)
  bz_replay : bool;  (** verbatim replays of signals from archived epochs *)
  bz_garbage : bool;
      (** extra label-plausible garbage TPDUs sealed with self-consistent
          WSC-2 parities (they verify; the labels are the only lie) *)
}

type t = {
  seed : int;
  profile : profile;
  data_len : int;
  elem_size : int;
  tpdu_elems : int;
  frame_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  sack : bool;
  adaptive : bool;
  nack_delay : float;
  rto_adaptive : bool;  (** Jacobson/Karn RTO estimation on the sender *)
  give_up_txs : int;  (** transmissions before a TPDU is abandoned *)
  state_budget : int;  (** receiver soft-state budget, bytes; 0 = unlimited *)
  state_ttl : float;  (** receiver soft-state idle deadline, seconds *)
  connections : int;  (** concurrent legitimate connections *)
  reopen : bool;  (** close connection 1 and re-open it (C.ID reuse) *)
  paths : int;
  skew : float;
  jitter : float;
  spread : spread;
  rate_bps : float;
  delay : float;
  gateways : gateway list;
  loss : float;
  corrupt : float;
  duplicate : float;
  dropper : dropper option;
  ack_blackhole : (float * float) option;
      (** reverse-path dead window (start, duration; duration may be
          [infinity]) *)
  outage : outage option;  (** forward-path outage window *)
  flood : flood option;  (** connection-flood adversary *)
  overlap : overlap option;
      (** overlap adversary ({!Netsim.Overlapper}); single-connection
          schedules only — the overlap rows cover one connection *)
  shed : shed option;
      (** partial-reliability contract (which TPDUs are sheddable and
          when the sender sheds them); requires [adaptive = false], a
          single-connection schedule (the model's shed contract covers
          one connection), and no crash events *)
  crashes : crash list;
      (** receiver crash-restart events, ordered, non-overlapping *)
  snap_period : float;
      (** full-snapshot interval, seconds; 0 = ACK journalling only *)
  byz : byz option;
      (** byzantine peer ({!Netsim.Byzantine}): valid wire format,
          violated protocol; makes the schedule {!multi_mode}, and the
          [blast-radius] oracle row re-runs the schedule with the peer
          removed and demands identical honest outcomes *)
}

val generate : profile:profile -> seed:int -> t
(** Draw a random schedule for the profile; all dimension constraints
    (element alignment, invariant-region TPDU bound, MTUs that hold a
    header, TTLs beyond the longest legitimate quiet period, budgets
    above the legitimate working set) hold by construction, and {!t.rto}
    is an overestimate of the worst-case round trip so a fault-free run
    never retransmits. *)

val faultless : t -> bool
(** No fault of any kind is enabled (so the oracle may demand total
    silence: no retransmission, no NACK, no duplicate, no failure). *)

val multi_mode : t -> bool
(** The schedule has more than one connection, reuses a connection, or
    runs a flood adversary or a byzantine peer.  The oracle checks such
    a schedule epoch by epoch, and any other as one transfer:
    connection 1's epoch 0. *)

val config_of : t -> Transport.Chunk_transport.config
(** Includes the shed contract: [classify] marks {!sheddable_tid} T.IDs
    [Sheddable 1] and [shed_txs] arms the sender's shed policy, so both
    endpoints (and the oracle) derive the same contract from the
    schedule alone. *)

val n_tpdus : t -> int
(** TPDUs of the single-transfer stream under the fixed partition. *)

val sheddable_tid : t -> t_id:int -> bool
(** Whether the shed contract declares [t_id] sheddable: every
    [sh_every]-th TPDU except the last (the C.ST carrier).  Always false
    without a shed spec. *)

val data_of : t -> bytes
(** The transfer payload, derived deterministically from the seed
    (connection 1, epoch 0). *)

val data_of_conn : t -> conn:int -> epoch:int -> bytes
(** The payload of one (connection, epoch) stream. *)

val to_string : t -> string
(** One-line [key=value] form, every field in a fixed order; floats are
    printed with enough digits to round-trip bit-exactly. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on any malformed or unknown token,
    or when a field is missing. *)

val unknown_fields : string -> string list
(** The tokens of a replay spec that name no known schedule field
    (including bare tokens with no [=]) — what made {!of_string} return
    [None] on an otherwise well-formed line, for a readable CLI
    diagnostic. *)

val validate : t -> (unit, string) result
(** Semantic gate over a parsed schedule: every dimension constraint
    the driver and transport rely on (finite numbers, element
    alignment, the invariant-region TPDU bound, MTUs that hold a
    header, positive timers, probabilities in [0, 1], ordered
    non-overlapping crashes, [shed] and [overlap] only on schedules
    that are not {!multi_mode}).  The only infinities allowed are an
    [ack_blackhole] duration and a drop-mode [outage] duration; any
    other NaN or infinity is refused with an error naming its field.
    [generate] satisfies it by construction; hand-edited replay specs
    get one readable line instead of an exception from deep inside the
    transport. *)
