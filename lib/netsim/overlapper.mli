(** The overlap adversary: synthesizes overlapping retransmissions with
    {e conflicting} bytes from traffic it has observed, to attack the
    receiver's overlap policy ({!Labelling.Placement}).

    Three modes, independently enabled:

    - {e dup}: a divergent duplicate — the victim chunk's exact (C, T, X)
      labels over XOR-flipped bytes.  Trailing the original it is dropped
      by virtual reassembly; racing ahead of a retransmission it poisons
      the parity, fails the TPDU, and the epoch retry heals the squatted
      bytes.
    - {e forge}: a forged single-chunk TPDU over the victim's connection
      range whose ED chunk {e agrees} with the data chunk's C.SN - T.SN
      delta (so only the parity can refute it) but carries a garbage
      parity (so WSC-2 then fails it); its divergent bytes reach
      placement on arrival.
    - {e resplit}: a gateway-style re-split (paper Fig 4) of the victim's
      range into two forged TPDUs whose parts overlap by one element and
      diverge from the real bytes {e and} from each other.

    Every injection is eventually refuted by WSC-2 — the adversary can
    delay and quarantine, but the first-verified-wins policy plus
    retransmission must deliver the sender's bytes exactly. *)

type stats = {
  injected : int;  (** packets put on the wire *)
  dup_divergent : int;  (** divergent duplicates sent *)
  forged_tpdus : int;  (** forged validly-labelled TPDUs sent (2 packets each) *)
  resplit_chains : int;  (** overlapping re-split chains sent *)
}

type t

val create :
  Engine.t ->
  seed:int ->
  rate:float ->
  stop:float ->
  dup:bool ->
  forge:bool ->
  resplit:bool ->
  inject:(bytes -> unit) ->
  unit ->
  t
(** Fires on average [rate] times per second (jittered) until the clock
    reaches [stop], each time picking a recently {!observe}d data chunk
    as the victim and one enabled mode; does nothing before the first
    observation.  @raise Invalid_argument if [rate <= 0]. *)

val observe : t -> bytes -> unit
(** Show the adversary a packet travelling to the receiver; data chunks
    inside it enter a bounded ring of candidate victims.  Injected
    packets must not be fed back (the caller taps the wire {e before}
    its own injections). *)

val stats : t -> stats
