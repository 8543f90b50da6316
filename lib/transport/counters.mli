(** The counts one receiving endpoint keeps, declared once.

    A {!Chunk_transport.Receiver} created on its own counts into a
    record of its own.  Under {!Multi} every epoch receiver counts
    straight into its owner's record, so the demultiplexer's record is
    the whole endpoint's total over every connection and epoch, with no
    fold at archive time.  A crash-restored endpoint starts from
    {!zero}; whoever spans crashes {!add}s each dying instance's record
    into a total of its own. *)

type t = {
  mutable acks_sent : int;
      (** fresh ACKs: the first for each T.ID, sent when it verifies *)
  mutable nacks_sent : int;  (** gap reports transmitted (0 unless [sack]) *)
  mutable reacks_sent : int;
      (** re-acknowledgements of already-verified TPDUs, live or closed
          epoch (the sender evidently missed the ACK), plus the
          post-restore re-announcements *)
  mutable evictions : int;
      (** per-TPDU soft-state evictions (deadline or budget) *)
  mutable aborts_received : int;
      (** TPDUs whose partial state an Abort_tpdu signal released *)
  mutable sheds_received : int;
      (** Shed_tpdu signals honoured (the TPDU was sheddable and not yet
          verified); forged or duplicate sheds are not counted *)
  mutable shed_elems : int;
      (** elements covered by honoured sheds — bytes deliberately given
          up under the partial-reliability contract *)
  mutable sheds_refused : int;
      (** Shed_tpdu signals refused because the local classifier says
          the named TPDU is not sheddable: forged (or misclassified)
          sheds of Critical/Normal traffic, silent on the wire *)
  mutable conn_gcs : int;
      (** whole connections reclaimed by deadline (stale-connection GC) *)
  mutable displaced_conns : int;
      (** live connections displaced by admission pressure *)
  mutable unknown_drops : int;
      (** chunks for connections never admitted (flood traffic) *)
  mutable late_drops : int;
      (** chunks for closed epochs that were not re-acknowledgeable *)
  mutable quarantine_drops : int;
      (** events refused because their source connection was boxed *)
  mutable anomalies : int;
      (** protocol anomalies attributed to connections, scored and
          unscored alike: re-establishment churn, late unledgered
          traffic, stale Opens, refused sheds, parity-damaged signals *)
  mutable sig_damage : int;
      (** structurally valid signal chunks whose payload failed its
          WSC-2 parity or shape check, dropped silently *)
  mutable quarantines : int;  (** admissions revoked (penalty-box entries) *)
  mutable conns_poisoned : int;
      (** connections permanently torn down by the exception bulkhead *)
}

val zero : unit -> t
(** A fresh record, every count 0. *)

val add : t -> t -> unit
(** [add acc c] adds every count of [c] into [acc]. *)
