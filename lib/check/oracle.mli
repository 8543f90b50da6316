(** The differential oracle: diffs a {!Driver.observation} against the
    pure {!Model} and the schedule's fault profile, and reports every
    disagreement.

    Each check pins down one claim the paper makes about the chunk
    architecture.  On a schedule that is not {!Schedule.multi_mode} the
    single-transfer checks read connection 1 epoch 0; on the others the
    per-epoch checks run instead:

    - [lockup]/[gave-up]/[unfinished] — liveness: labels plus bounded
      timers always terminate, whatever the disorder;
    - [incomplete]/[element-count]/[data-mismatch]/[conservation] —
      §2–3: placement by connection SN reconstructs the stream exactly,
      through arbitrary refragmentation, reordering and duplication;
    - [quiet-*] — the RTO/NACK machinery is excited only by faults,
      and a faultless wire damages no signal;
    - [clean-fail]/[clean-malformed] — §3.3: retransmissions reuse
      identical labels, so loss, duplication and congestion drops are
      absorbed without ever looking like damage;
    - [tpdu-count] — the framer's TPDU cut is deterministic and each
      TPDU verifies exactly once;
    - [leak-*] — state hygiene: completed transfers leave no verifier
      or quarantine residue (corruption may invent bounded residue);
    - [sack-off] — feature isolation;
    - [shed-safety] — partial reliability never sheds mandatory data:
      every honoured shed span must be declared sheddable by the
      schedule's shed contract, sheds without a contract are data loss,
      and outside the honoured spans delivery stays byte-exact (the
      delivery checks mask exactly the observed shed spans and the
      element/TPDU accounts shrink by exactly the shed amounts);
      shed-liveness needs no code of its own — a shed schedule is never
      starvable, so [gave-up]/[incomplete] already demand completion;
    - [metrics-verify-count] — the layers agree (see DESIGN.md §6): the
      TPDUs the verifiers passed equal the receivers' fresh ACKs, both
      folded over every endpoint instance of the run. *)

type violation = { code : string; detail : string }

val violation_to_string : violation -> string

val check :
  schedule:Schedule.t ->
  model:Model.t ->
  observation:Driver.observation ->
  violation list
(** Empty list = the run is indistinguishable from the reference model's
    prediction. *)
