(** The conventional comparator: a transport that {e reassembles before
    processing} (§1, §3.2, §3.3).

    The sender cuts the stream into TPDUs, each carrying a sequence
    number and a CRC-32 trailer, and fragments them IP-style to the
    path MTU.  Fragments are implicitly identified by their offset, so
    the receiver must physically reassemble every TPDU in a bounded
    reassembly buffer before it can run the CRC and copy the payload to
    the application: data is buffered, copied, and only then processed —
    the extra bus crossings and the buffering latency the paper charges
    to this design, plus its exposure to reassembly-buffer lock-up. *)

type config = {
  conn_id : int;
  tpdu_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  reasm_capacity : int;  (** reassembly buffer, bytes *)
}

val default_config : config
(** The geometry matched to {!Chunk_transport.default_config} (same
    TPDU size, MTU, window and RTO) so CLM-TOUCH compares transports,
    not parameters. *)

type outcome = {
  ok : bool;
  sim_time : float;
  sent_bytes : int;
  wire_bytes : int;
  retransmissions : int;
  element_delay : Netsim.Stats.summary option;
      (** fragment-to-application availability delay (the buffering
          latency; strictly positive whenever fragments wait in the
          reassembly buffer) *)
  tpdu_latency : Netsim.Stats.summary option;
  bus_crossings_per_byte : float;
  goodput_bps : float;
  lockup_events : int;
      (** times a fragment found no reassembly-buffer space *)
  crc_failures : int;
}

val run :
  ?seed:int ->
  ?config:config ->
  ?loss:float ->
  ?corrupt:float ->
  ?duplicate:float ->
  ?paths:int ->
  ?skew:float ->
  ?rate_bps:float ->
  ?delay:float ->
  data:bytes ->
  unit ->
  outcome
(** Same scenario driver shape as {!Transfer.run}, over an
    identical network, for like-for-like comparison. *)
