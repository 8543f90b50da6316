(** Parallel protocol processing over chunks (the paper's closing claim:
    "chunks allow protocol implementations with more modularity and
    parallelism than implementations of protocols with more conventional
    data structures", and Appendix A's distributed processing units).

    Because every chunk is completely self-describing and TPDUs are
    independent, receiver-side verification parallelises by simply
    partitioning chunks across workers by T.ID — no shared reassembly
    buffer, no cross-worker ordering, no locks on the data path.  Each
    worker runs its own {!Edc.Verifier} over its TPDUs; results merge
    trivially.  (A conventional stack cannot do this: implicit labelling
    makes processing order-dependent, serialising the receiver.)

    Workers are OCaml 5 domains.  The {!Gf232} tables they run on (the
    weight cache and the windowed multiply's overflow table) are
    built once at module initialisation and immutable afterwards, so
    domains share them without synchronisation; workers use the
    validation-free {!Wsc2.add_subbytes_exn} accumulation path via
    [Edc.Verifier]. *)

type report = {
  verdicts : (int * Edc.Verifier.verdict) list;
      (** per-TPDU verdicts, sorted by T.ID *)
  chunks_processed : int;
  workers : int;
}

val process_all : workers:int -> Labelling.Chunk.t list -> report
(** Verify a batch of chunks (data + ED, any order, any number of TPDUs)
    across [workers] domains, chunks partitioned by [T.ID mod workers].
    With [workers = 1] this degenerates to a serial verifier pass; the
    verdict multiset is identical for every worker count (tested).

    @raise Invalid_argument if [workers < 1]. *)

(** {1 Streaming pool}

    A long-lived pool for receivers: chunks are handed to worker queues
    as they arrive and verdict events flow back asynchronously. *)

module Pool : sig
  type t

  val create : workers:int -> unit -> t

  val submit : t -> Labelling.Chunk.t -> unit
  (** Route one chunk to its TPDU's worker (non-blocking). *)

  val drain : t -> (int * Edc.Verifier.verdict) list
  (** Wait for every submitted chunk to be processed and return the
      verdicts emitted since the last drain, sorted by T.ID. *)

  val shutdown : t -> unit
  (** Join all workers.  The pool is unusable afterwards. *)
end
