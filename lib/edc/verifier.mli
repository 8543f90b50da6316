(** Receiver side of end-to-end error detection (paper §4):
    incremental, order-independent verification of TPDUs as chunks
    arrive, with no physical reassembly.

    For each in-flight TPDU the verifier keeps a WSC-2 accumulator, a
    virtual-reassembly tracker and the two SN consistency deltas.  Every
    arriving chunk is folded in immediately; when virtual reassembly
    completes and the TPDU's ED chunk has arrived, a verdict is emitted.
    Duplicates (including differently-refragmented retransmissions) are
    absorbed exactly once via {!Labelling.Vreassembly.insert_new} — the
    protection the paper demands so the incremental checksum is not
    corrupted by duplicated data.

    All of it is soft state: nothing of an in-flight TPDU is
    persisted.  A crash drops it
    ({!forget}), and the sender's identical-label retransmission
    rebuilds it; what an endpoint makes durable is the verified runs an
    acknowledgement promised ([Transport.Persist]).

    Detection follows Table 1:
    - payload / C.ID / T.ID / C.ST / X.ID / X.ST corruption → parity
      mismatch;
    - C.SN / X.SN corruption → consistency-check failure
      ([C.SN - T.SN] resp. [C.SN - X.SN] not constant);
    - TYPE / LEN / SIZE / T.SN / T.ST corruption → virtual-reassembly
      failure (overlap, inconsistent end, size clash) or — when
      reassembly still completes, e.g. compensating LEN/T.SN changes —
      parity mismatch. *)

type verdict =
  | Passed
  | Parity_mismatch
  | Consistency_failure of string
      (** which invariant broke, e.g. ["C.SN - T.SN changed"] *)
  | Reassembly_error of string

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_equal : verdict -> verdict -> bool

type event =
  | Tpdu_verified of { t_id : int; verdict : verdict }
      (** all pieces (and the ED chunk) arrived; state for this TPDU is
          released *)
  | Fresh_data of { t_id : int; t_sn : int; elems : int }
      (** newly received elements, suitable for immediate placement *)
  | Duplicate_dropped of { t_id : int }

type t

type pool
(** Released per-TPDU states kept for reuse (at most 32), which
    verifiers may share: a TPDU whose state comes from the pool
    allocates nothing, so the states a minor collection finds alive are
    mostly the same records, long since promoted. *)

val pool : unit -> pool
(** An empty pool. *)

val create : ?now:(unit -> float) -> ?pool:pool -> unit -> t
(** [now] is the clock used to timestamp per-TPDU state creation and
    verdicts for the [edc_verify_latency_us] histogram (see
    [Obs.Metrics]); it defaults to reading the global simulation clock
    [Obs.now], which [Netsim.Engine] keeps stamped.  Pass an explicit
    clock when running the verifier outside a simulation.  [pool]
    defaults to one of the verifier's own. *)

val on_view : t -> Labelling.Chunk.view -> event list
(** Feed one arriving chunk (data or ED control; other control types and
    terminators are ignored), read where it lies: the payload is
    accumulated straight out of the view's buffer, never copied and
    never retained.  Never raises on malformed input — damage is
    recorded and surfaces in the verdict. *)

val on_chunk : t -> Labelling.Chunk.t -> event list
(** {!on_view} of [Chunk.view chunk]. *)

(** {1 Stepping without events}

    {!on_view} is built on {!absorb}, which a receiver that places fresh
    data as it arrives calls directly: a chunk then costs no event list,
    and its result is read from buffers and fields the verifier reuses,
    so it allocates nothing. *)

type absorbed =
  | All  (** every element of the chunk was fresh *)
  | Runs
      (** the {!fresh_runs} were, and not the whole chunk *)
  | Duplicate  (** none: every element had already arrived *)
  | No_data  (** no data was taken: a control chunk or a damaged one *)

val absorb : t -> Labelling.Chunk.view -> absorbed
(** Fold one chunk in exactly as {!on_view} does: [All] and [Runs] are
    its [Fresh_data] events, [Duplicate] its [Duplicate_dropped], and
    {!closed} its closing [Tpdu_verified]. *)

val fresh_runs : t -> Labelling.Int_rows.t
(** After {!absorb} returned [Runs]: the fresh [(t_sn, len)] runs,
    ascending, as width-2 rows of a buffer of the verifier's pool,
    which the next chunk any verifier of that pool absorbs reuses. *)

val closed : t -> bool
(** Whether the chunk last absorbed brought its TPDU to a verdict,
    after its own contribution; the TPDU's state is then released. *)

val verdict : t -> verdict
(** That verdict, while {!closed} holds. *)

val in_flight : t -> int
(** TPDUs with state held (arrived but not yet verified). *)

val in_flight_ids : t -> int list
(** T.IDs of the TPDUs currently held, ascending. *)

val missing : t -> t_id:int -> (int * int) list option
(** The element runs still unreceived for an in-flight TPDU, as
    [(t_sn, len)] pairs (virtual reassembly's gap report, the basis of
    selective retransmission).  [None] if no state is held for [t_id];
    an unbounded tail (end not yet known) is not reported. *)

val ed_seen : t -> t_id:int -> bool
(** Whether the TPDU's ED chunk has arrived. *)

val abort : t -> t_id:int -> verdict option
(** Give up on an in-flight TPDU (e.g. timer expiry): returns the
    verdict it would fail with now, and releases its state. *)

val abandon : t -> t_id:int -> verdict option
(** Alias of {!abort} — the name the receiver's state governor uses for
    deadline/budget eviction. *)

val forget : t -> t_id:int -> unit
(** Release an in-flight TPDU's state with no verdict: nothing is
    counted or traced.  For a crash, which is no verdict: the endpoint's
    soft state dies with it, and the sender's retransmission rebuilds
    what was in flight. *)

val footprint_bytes : t -> t_id:int -> int
(** Approximate bytes of soft state held for an in-flight TPDU (WSC-2
    accumulator, virtual-reassembly spans, label tables); 0 when no
    state is held.  The receiver's state governor charges this against
    its budget. *)

(** {1 Data parity}

    WSC-2 is position-weighted and order-free, so the parity the
    verifier accumulates as data arrives is already a checksum of that
    data.  The verifier keeps the label symbols (X pairs, T.ID, C.ID,
    C.ST) apart from the data's, so a passed TPDU also yields the parity
    of its data alone — which a write-ahead journal can reuse instead of
    checksumming the same bytes again. *)

val take_data_parity :
  t -> t_id:int -> first_c_sn:int -> elems:int -> Wsc2.parity option
(** The WSC-2 parity of [t_id]'s data alone, each element at its
    {!Invariant.data_position}, when [t_id] is the TPDU whose [Passed]
    verdict {!on_chunk} returned last and its data spans exactly the
    [elems] elements from C.SN [first_c_sn], and [None] otherwise.  The
    verifier forgets the passed TPDU on the first call either way, so a
    caller that asks after every pass leaves nothing behind; one with no
    use for the parity asks about an empty span ([~elems:0]), which no
    TPDU has. *)

(** {1 Statistics} *)

type stats = {
  tpdus_passed : int;
  tpdus_failed : int;
  duplicates : int;
  chunks_seen : int;
}

val stats : t -> stats

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field by field sum. *)
