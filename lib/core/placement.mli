(** Spatial reordering (paper §1, footnote 2): placing disordered data
    directly where it belongs in the application's address space instead
    of temporally reordering it in protocol buffers.

    A bulk transfer can place each chunk at offset [C.SN * size] of the
    destination buffer regardless of arrival order; a video receiver can
    place each chunk at offset [X.SN * size] of the current frame
    buffer.  Either way the data crosses the memory system exactly once
    — the core performance argument for chunks.

    {2 Overlap policy: first-verified-wins}

    Byte-offset reassembly is notoriously ambiguous under overlapping
    segments with conflicting content (the classic OS/NIDS divergence);
    chunks resolve it deterministically.  Per element:

    - {e unplaced}: the newcomer's bytes are written.
    - {e placed, identical bytes}: benign duplicate, nothing happens.
    - {e placed, different bytes, resident verified (locked)}: the
      newcomer is counted, traced ({!Obs.Trace.Overlap}) and discarded —
      whichever TPDU passed WSC-2 verification first owns the bytes
      forever.
    - {e placed, different bytes, resident unverified}: the resident
      bytes are left alone and the conflict is reported to the caller
      ({!report.rp_conflicts} with {!Fresh_conflict}), who quarantines
      the newcomer until one side's parity settles the dispute; a
      verified write ({!place_view} [~verified:true]) then reclaims the
      bytes from the unverified squatter.

    The policy is defined per element but applied per run: a maximal
    run of unplaced elements is written with one copy, a run of placed
    elements whose bytes all match is one benign entry, and only the
    elements of a mismatching run are decided one at a time.

    The result is arrival-order {e determinism}: delivered bytes always
    come from the first TPDU to pass verification over that region, for
    every interleaving of an overlap set. *)

type level = Conn | Tpdu | External
(** Which framing level's SN addresses the destination. *)

type kind =
  | Verified_conflict
      (** the resident bytes are verified-locked; the newcomer was
          discarded *)
  | Fresh_conflict
      (** neither side is verified; the resident bytes were kept and the
          newcomer's run is reported for quarantine *)

type report = {
  rp_fresh : (int * int) list;
      (** element runs (relative to [base_sn]) freshly written by this
          call — including squatter bytes a verified write
          reclaimed *)
  rp_benign : (int * int) list;
      (** runs whose resident bytes already equalled the newcomer's *)
  rp_conflicts : (int * int * kind) list;
      (** conflicting runs, in ascending order *)
}

type overlap_stats = {
  os_conflicts_seen : int;  (** conflicting elements encountered, total *)
  os_conflicts_rejected : int;
      (** elements discarded because the resident bytes were verified *)
  os_quarantined : int;
      (** fresh-vs-fresh conflict elements deferred to parity *)
  os_verified_overwrites : int;
      (** verified writes that met locked-different bytes — two
          WSC-2-verified TPDUs disagreeing about one element.  Impossible
          without a forged parity; the conformance oracle asserts this
          stays zero in every profile. *)
}

type t

val create : level:level -> base_sn:int -> capacity_elems:int -> elem_size:int -> t
(** A destination buffer of [capacity_elems * elem_size] bytes; element
    [base_sn] of the chosen level lands at offset 0.  The policy state
    is two one-bit-per-element maps (placed, verified-locked), each a
    whole number of 64-bit words, so the whole placement costs
    [capacity_elems * elem_size + 16 * ceil(capacity_elems / 64)] bytes,
    all allocated here.  Only the maps are written here: the buffer is
    not zero-filled ahead of the data, which placement writes into it
    once; its holes are zeroed only when it is read whole ({!contents}).
    The maps are the only record of what is placed and what is
    verified: every coverage reader below derives its answer from them,
    scanning a 64-element word per load. *)

val place : t -> Chunk.t -> (unit, string) result
(** Copy a data chunk's payload to its home offset under the
    first-verified-wins policy (conflict outcomes are discarded; use
    {!place_checked} to see them).  Fails on control chunks,
    element-size mismatch, or out-of-window SNs.  Idempotent under
    duplicates; conflicting bytes never clobber a verified region. *)

val place_checked : t -> Chunk.t -> (report, string) result
(** Like {!place}, returning the per-element outcome so the caller can
    quarantine {!Fresh_conflict} runs.  Same failure cases. *)

val place_view :
  ?verified:bool -> t -> Chunk.view -> (report, string) result
(** {!place_checked} of a chunk read in place: the payload is copied
    once, from the view's buffer straight into the destination; {!place}
    and {!place_checked} are adapters onto this one, and it onto
    {!place_run}.  With [~verified:true]
    the write is on behalf of a TPDU whose parity has {e passed}: it
    overwrites unverified squatters, never locked-different bytes (those
    increment [os_verified_overwrites] and are reported as
    {!Verified_conflict}), and the caller should then {!lock_span} the
    runs it now owns ([rp_fresh @ rp_benign]). *)

(** {2 The per-chunk path: counters and buffers the caller owns}

    {!place_run} builds no report: it writes its outcome into an
    {!outcome} the caller keeps and reuses, so placing a run allocates
    nothing (short of a buffer outgrowing its room).  {!place_view} and
    {!place_checked} are adapters onto it that build a {!report}. *)

type outcome = {
  fresh : Int_rows.t;  (** the [rp_fresh] runs, as ascending width-2 rows *)
  benign : Int_rows.t;  (** the [rp_benign] runs, likewise *)
  conflicts : Int_rows.t;
      (** the [rp_conflicts] runs as ascending width-3 rows
          [(sn, len, kind)], [kind] 0 for {!Verified_conflict} and 1 for
          {!Fresh_conflict} *)
  mutable held_back : int;
      (** {!Fresh_conflict} elements: when positive, the newcomer's run
          is the caller's to quarantine *)
}
(** What the last {!place_run} into it did, relative to [base_sn];
    each call replaces all of it. *)

val outcome : unit -> outcome
(** An empty outcome; each buffer makes its room at its first run. *)

val place_run :
  ?verified:bool ->
  t ->
  outcome ->
  sn:int ->
  len:int ->
  size:int ->
  src:bytes ->
  off:int ->
  conn:int ->
  tpdu:int ->
  bool
(** {!place_view} of a run of data elements given by its fields, with
    no chunk header: [len] elements of [size] bytes from [src] at
    [off], the first at SN [sn] of the placement's level, labelled C.ID
    [conn] and T.ID [tpdu] (for the overlap trace), its outcome written
    into the {!outcome} given.  The caller vouches that the run is data
    of one chunk.  [false], with the outcome untouched, where
    {!place_view} fails: a [size] other than the placement's, or a run
    outside the window. *)

val lock_span : t -> sn:int -> len:int -> unit
(** Mark an element run (relative to [base_sn]) as verified: its bytes
    can never again be overwritten by conflicting data.  Out-of-window
    runs are ignored.  Locking also marks the run as placed; an element
    of it never written is zeroed first, so it reads 0 as content. *)

val lock_placed : t -> sn:int -> len:int -> unit
(** {!lock_span} of a run every element of which is occupied, as the
    runs a placement reports written or benign ({!report.rp_fresh},
    {!report.rp_benign}) are: it sets the lock bits alone, touching
    neither the occupancy map nor the buffer.  The caller vouches that
    the run is occupied; out-of-window runs are ignored. *)

val drop_unlocked : t -> unit
(** Un-place every element that is not locked: it becomes a hole, and
    reads 0 at the next {!contents}.  What is left is exactly the
    verified data. *)

val any_locked : t -> sn:int -> len:int -> bool
(** Whether some element of the run (relative to [base_sn]) is
    verified-locked.  Elements outside the window count as unlocked. *)

val overlap_stats : t -> overlap_stats

val zero_overlap : overlap_stats

val add_overlap : overlap_stats -> overlap_stats -> overlap_stats
(** Field-wise sum, for totals over several buffers. *)

val placed_elems : t -> int
(** Occupied elements, locked ones included: the distinct elements that
    a placement, a {!restore_span} or a {!lock_span} has covered. *)

val spans : t -> (int * int) list
(** Occupied element runs, locked ones included, as [(sn, len)]
    relative to [base_sn], ascending and coalesced. *)

val restore_span : t -> sn:int -> bytes -> (unit, string) result
(** [restore_span p ~sn data] re-places a previously placed run from a
    persisted snapshot: [data] must be a whole number of elements, which
    land at element [sn] (relative to [base_sn]).  Fails — never raises
    — on ragged lengths or out-of-window SNs, so a corrupted snapshot
    degrades to missing data that retransmission repairs.  Restored
    runs are unlocked; the caller re-locks the verified spans it
    restored ({!lock_span}). *)

val restore_run :
  t -> sn:int -> bytes -> off:int -> len:int -> (unit, string) result
(** {!restore_span} of the [len] bytes of a buffer from [off] on, copied
    once, straight from where they lie.  The caller vouches that the
    slice lies inside the buffer. *)

val is_full : t -> bool
(** Whether every element is occupied, locked ones included. *)

val contents : t -> bytes
(** The destination buffer (not a copy), every byte of it specified:
    an occupied element holds what was placed, restored or locked
    there, and a hole reads 0.  The first call zeroes the holes, each
    unoccupied run once; from then on nothing is zeroed again, as a
    hole only ever becomes occupied by being written.  No byte the
    storage held before {!create} is ever visible through it. *)

val raw_contents : t -> bytes
(** The destination buffer (not a copy) without zeroing anything: the
    bytes of an occupied element ({!spans}, locked ones included) are
    as {!contents} gives them, and a hole's are unspecified until the
    first {!contents} — they may be any earlier use of the memory.  For
    readers of occupied runs alone, such as the receive path lending a
    verified run to the journal, which must not pay for zeroing. *)

val holes : t -> (int * int) list
(** Unoccupied element runs as [(sn, len)] relative to [base_sn]: the
    complement of {!spans} in the window. *)

(** {2 The lock map}

    What verification has covered, read off the same one-bit map the
    overlap policy consults.  Within one placement no bit of it is ever
    cleared, so a reader may keep a position behind which every element
    stays locked. *)

val locked_elems : t -> int
(** Distinct elements locked so far. *)

val locked_spans : t -> (int * int) list
(** Locked element runs as [(sn, len)] relative to [base_sn], ascending
    and coalesced — with {!contents}, what a crash-recovery snapshot
    keeps of the placement. *)

val first_unlocked : t -> int -> int
(** [first_unlocked p e] is the first element at or after [e] (relative
    to [base_sn]) that is not locked.  Elements outside the window count
    as unlocked, so an [e] outside it is returned as it is. *)
