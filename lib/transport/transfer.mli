(** One whole transfer over the simulated network, as a sender and a
    one-connection {!Multi} endpoint run it: the scenario driver behind
    the CLI, the paper-claim experiments and the examples. *)

type outcome = {
  ok : bool;
      (** delivered data equals sent data outside honoured shed spans
          (byte-exact everywhere when nothing was shed) *)
  sim_time : float;
      (** when the sender finished: every TPDU acknowledged or given up *)
  sent_bytes : int;  (** application payload bytes offered *)
  wire_bytes : int;  (** bytes put on the forward wire *)
  retransmissions : int;  (** full-TPDU timeout retransmissions *)
  sack_retransmissions : int;
      (** selective (gap-only) retransmissions triggered by NACKs *)
  element_delay : Netsim.Stats.summary option;
  tpdu_latency : Netsim.Stats.summary option;
  bus_crossings_per_byte : float;
  goodput_bps : float;
  final_tpdu_elems : int;  (** the sender's TPDU size at the end (differs
      from the configured one only for adaptive senders) *)
  verifier : Edc.Verifier.stats;
  final_rto : float;  (** the sender's RTO when the run ended *)
  rtt_samples : int;  (** RTT samples accepted by Karn's rule *)
  max_txs_at_rtt_sample : int;
      (** Karn's rule holds iff this never exceeds 1 *)
  tally : Tally.t;  (** the endpoint's and the sender's counts *)
  shed_spans : (int * int) list;
      (** honoured shed cover, [(first_elem, elems)] runs ascending *)
  delivered : bytes;
      (** the receiver's application buffer, for shed-aware comparison *)
}

val equal_outside_sheds :
  elem_size:int ->
  spans:(int * int) list ->
  expected:bytes ->
  delivered:bytes ->
  bool
(** The partial-reliability delivery contract: [delivered] matches
    [expected] byte-for-byte everywhere except inside the shed [spans]
    (element runs of [elem_size]-byte elements). *)

(** {1 One wired transfer}

    A sender into a one-connection {!Multi} endpoint: the harness
    {!run}, the experiments and the tests share.  The sender announces
    its Open on the first TPDU's envelopes, as the conformance driver's
    senders do; the endpoint's quota is fixed at [connect]. *)

type t

val connect :
  ?bus:Busmodel.t ->
  ?persist:(Persist.event -> unit) ->
  ?forward:((bytes -> unit) -> bytes -> unit) ->
  ?reverse:((bytes -> unit) -> bytes -> unit) ->
  Netsim.Engine.t ->
  Chunk_transport.config ->
  quota_elems:int ->
  [ `Data of bytes | `Tpdus of (int * Labelling.Chunk.t list) list ] ->
  t
(** Wire and start a transfer of the data (framed by the sender) or of
    pre-sealed TPDUs ({!Chunk_transport.Sender.of_tpdus}).  [forward]
    turns the endpoint's door into the sender's transmit function (a
    network, a filter, a recorder); [reverse] does the same for the ACK
    path into the sender.  Both default to a direct, instant hand-over.
    Nothing runs until the engine does. *)

val endpoint : t -> Multi.t
val sender : t -> Chunk_transport.Sender.t

val finish : t -> unit
(** Step the engine until the sender finishes: every TPDU acknowledged
    or given up.  Spent timers and the endpoint's sweep of the idle
    connection stay queued.  The endpoint's {!Multi.fastpath_stats} are
    then read once, so the registry's [flowcache_conn_*] counters
    include the transfer. *)

val epoch : t -> Multi.epoch_report option
(** The connection's epoch, when it has exactly one. *)

val run :
  ?seed:int ->
  ?config:Chunk_transport.config ->
  ?loss:float ->
  ?corrupt:float ->
  ?duplicate:float ->
  ?paths:int ->
  ?skew:float ->
  ?rate_bps:float ->
  ?delay:float ->
  ?gateways:(Labelling.Repack.policy * int) list ->
  data:bytes ->
  unit ->
  outcome
(** Build a forward multipath (with impairments), an optional chain of
    in-network chunk gateways (each re-enveloping to its own MTU with
    its own Fig. 4 policy), and a clean reverse path; run a whole
    transfer of [data] to completion and report.  The sender announces
    its Open on the first TPDU's envelopes; the endpoint's quota is the
    stream's element count, and the stream's end is its C.ST bit.  The
    run stops when the sender finishes.  [config.state_ttl] bounds
    per-TPDU state and the connection's idle time, but the endpoint
    holds a connection whose sender may still be retransmitting
    ({!Chunk_transport.retransmit_horizon}), so a TTL shorter than the
    sender's backoff costs retransmissions, not the transfer.
    @raise Invalid_argument on an invalid [config] or a gateway MTU that
    cannot hold a chunk header. *)
