(** Structured event tracing for the chunk pipeline: a closed set of
    typed events, emitted to a pluggable sink.

    The default sink is {!null}, so an un-configured program pays one
    load and one branch per potential event; call sites additionally
    guard on {!active} so the event payload is never even allocated
    while tracing is off.  Install a {!ring} sink (bounded, newest
    events win) for in-process inspection, or a {!jsonl} sink to stream
    one JSON object per event to a channel.

    Sinks are single-domain: unlike {!Metrics}, trace emission is not
    synchronised, and the parallel verifier's worker domains must not
    share a ring or JSONL sink with the main domain. *)

(** One traced occurrence.  [conn = -1] means the connection is not yet
    known at the emission point (e.g. the verifier opens TPDU state
    before any chunk has pinned the C.ID). *)
type event =
  | Chunk_rx of { conn : int; tpdu : int; bytes : int }
      (** a data/ED chunk reached a receiver *)
  | Verify_start of { conn : int; tpdu : int }
      (** the verifier opened per-TPDU state *)
  | Verify_done of { conn : int; tpdu : int; verdict : string }
      (** a verdict was emitted and the state released *)
  | Frag of { tpdu : int; t_sn : int; elems : int }
      (** a data chunk was split; the fields describe the second part *)
  | Repack of { chunks_in : int; chunks_out : int }
      (** a gateway re-enveloped a batch of chunks *)
  | Rto_fire of { conn : int; tpdu : int; txs : int; rto : float }
      (** a retransmission timer fired and the TPDU was re-sent *)
  | Evict of { conn : int; tpdu : int; reason : string }
      (** the state governor reclaimed an entry ([reason] is ["budget"]
          or ["deadline"]; [tpdu = -1] is connection-level state) *)
  | Conn_open of { conn : int }
  | Conn_close of { conn : int }
  | Overlap of { conn : int; tpdu : int; sn : int; elems : int; kind : string }
      (** a chunk's bytes conflicted with bytes already in the placement
          buffer; [kind] is ["verified-conflict"] (the resident bytes are
          WSC-2-verified and the newcomer is discarded),
          ["fresh-conflict"] (neither side is verified yet; the newcomer
          is quarantined until its own parity settles the dispute), or
          ["verified-clash"] (two verified TPDUs disagree — impossible
          without a forged parity).  [sn]/[elems] locate one conflicting
          run at placement granularity. *)
  | Shed of { conn : int; tpdu : int; elems : int; cls : string }
      (** a sheddable TPDU was deliberately abandoned under congestion
          (partial reliability); [cls] is the {!Significance} class tag
          (["shed:N"]) and [elems] the element span given up *)
  | Interleave of { conn : int; stream : int; tpdu : int; cls : string }
      (** the priority scheduler emitted one TPDU of stream [stream]
          (X-level interleaving within connection [conn]) *)
  | Quarantine of { conn : int; score : int; until : float }
      (** the demultiplexer revoked connection [conn]'s admission: its
          anomaly [score] exhausted the error budget and traffic is
          refused until simulated time [until] ([infinity] for a
          poisoned connection torn down by an exception bulkhead) *)
  | Note of string
      (** free-text narration from a harness that owns the sink (the
          conformance driver's per-packet and per-fault notes) *)

val event_name : event -> string
(** The wire tag: ["chunk_rx"], ["verify_start"], ["verify_done"],
    ["frag"], ["repack"], ["rto_fire"], ["evict"], ["conn_open"],
    ["conn_close"], ["overlap"], ["shed"], ["interleave"],
    ["quarantine"], ["note"]. *)

(** {1 Sinks} *)

type sink

val null : sink
(** Discards everything. *)

val ring : capacity:int -> sink
(** A bounded in-memory buffer; once full, each new event overwrites the
    oldest.  @raise Invalid_argument if [capacity < 1]. *)

val jsonl : out_channel -> sink
(** Writes each event as one line of JSON (the {!to_json} image) to the
    channel.  The channel is not closed or flushed by the sink. *)

val emit : sink -> time:float -> event -> unit

val ring_contents : sink -> (float * event) list
(** The buffered events, oldest first; [[]] for non-ring sinks. *)

val ring_dropped : sink -> int
(** Events a ring sink has overwritten since it was created; [0] for
    non-ring sinks. *)

(** {1 The process-wide sink} *)

val set_sink : sink -> unit
(** Install the sink {!record} emits to (initially {!null}). *)

val sink : unit -> sink

val active : unit -> bool
(** Whether the installed sink is something other than {!null} — the
    cheap pre-check that lets call sites skip building the event. *)

val record : ?time:float -> event -> unit
(** Emit to the installed sink; [time] defaults to the global
    simulation clock ([Obs.now]). *)

(** {1 JSONL codec} *)

val to_json : time:float -> event -> string
(** One-line JSON image, e.g.
    [{"t":0.004,"ev":"chunk_rx","conn":1,"tpdu":3,"bytes":368}]. *)

val of_json : string -> (float * event) option
(** Parse a {!to_json} image back; [None] on anything malformed.
    [of_json (to_json ~time e) = Some (time, e)] for every event. *)
