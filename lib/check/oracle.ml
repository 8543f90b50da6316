type violation = { code : string; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" v.code v.detail

(* Zero-fill the element runs of [spans] so byte comparison ignores
   exactly the shed spans and nothing else. *)
let mask_sheds ~elem_size ~spans b =
  let b = Bytes.copy b in
  List.iter
    (fun (first, len) ->
      let off = first * elem_size and n = len * elem_size in
      if off >= 0 && n >= 0 && off + n <= Bytes.length b then
        Bytes.fill b off n '\000')
    spans;
  b

(* Where the first delivered byte differs from the model, for diagnosis. *)
let first_diff a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec go i =
    if i >= n then n
    else if Bytes.get a i <> Bytes.get b i then i
    else go (i + 1)
  in
  go 0

(* Faults that can legitimately exhaust a bounded sender: a dead reverse
   path (no ACK ever returns), or a whole-TPDU congestion dropper, which
   taints a TPDU at a random packet each round so a no-SACK sender only
   lands the tail (and the ED chunk) on a drop-free round. *)
let starvable (s : Schedule.t) =
  s.Schedule.ack_blackhole <> None
  ||
  match s.Schedule.dropper with
  | Some { Schedule.drop_mode = Netsim.Dropper.Whole_tpdu; _ } -> true
  | Some _ | None -> false

let check ~(schedule : Schedule.t) ~(model : Model.t)
    ~(observation : Driver.observation) =
  let s = schedule and m = model and o = observation in
  let t = o.Driver.tally and ov = o.Driver.overlap in
  let c = t.counts and v = t.verifier and gov = t.governor in
  (* A schedule that is not multi-mode is one transfer, connection 1's
     epoch 0: the rows that read a single-transfer observation run on
     it, the per-epoch rows on the others. *)
  let single = not (Schedule.multi_mode s) in
  let vs = ref [] in
  let fail code fmt =
    Printf.ksprintf (fun detail -> vs := { code; detail } :: !vs) fmt
  in
  (* Liveness: every schedule must terminate — either the transfer
     completes or the sender gives up, and all timers wind down.  A
     give-up is legitimate only under a starvation fault (ACK black
     hole, whole-TPDU dropper); every other generated fault is
     recoverable by retransmission. *)
  if o.engine_pending > 0 then
    fail "lockup" "%d events still pending at the %.0fs horizon"
      o.engine_pending Driver.horizon;
  if o.gave_up && not (starvable s) then
    fail "gave-up"
      "sender abandoned a TPDU with no starvation fault in the schedule";
  if (not o.gave_up) && not o.finished then
    fail "unfinished" "sender neither completed nor gave up";
  (* Karn's rule: an RTT sample taken from a retransmitted TPDU is
     ambiguous (the ACK may answer any earlier copy) and must never be
     folded into SRTT. *)
  if o.max_txs_at_rtt_sample > 1 then
    fail "karn" "RTT sampled from a TPDU transmitted %d times"
      o.max_txs_at_rtt_sample;
  if single && s.Schedule.rto_adaptive && o.rtt_samples > 0 then begin
    if o.final_rto > s.Schedule.rto +. 1e-9 then
      fail "rto-range" "adaptive RTO %.6f exceeds configured ceiling %.6f"
        o.final_rto s.Schedule.rto;
    if o.final_rto < 2e-3 -. 1e-12 then
      fail "rto-range" "adaptive RTO %.6f below floor" o.final_rto
  end;
  (* The receiver state governor's contract: accounted state never
     exceeds the budget at any event (the high-water mark is sampled
     after every accounting step), and quiescence leaves nothing
     accounted. *)
  if s.Schedule.state_budget > 0 && gov.high_water > s.Schedule.state_budget
  then
    fail "state-budget" "governor high water %d exceeds budget %d"
      gov.high_water s.Schedule.state_budget;
  if gov.accounted_bytes > 0 then
    fail "state-residue" "%d bytes still accounted after quiescence"
      gov.accounted_bytes;
  (* Leaks: at quiescence the verifier and every quarantine must be
     empty unconditionally — completed TPDUs release their state,
     abandoned and corrupt-residue TPDUs are reclaimed by the governor's
     deadline sweep, including on give-up runs. *)
  if o.verifier_in_flight > 0 then
    fail "leak-verifier" "%d TPDUs still in flight after quiescence"
      o.verifier_in_flight;
  if o.stashed_tpdus > 0 then
    fail "leak-stash" "%d TPDU quarantines retained after quiescence"
      o.stashed_tpdus;
  (* SACK plumbing only runs when asked for. *)
  if not s.Schedule.sack then begin
    if c.nacks_sent > 0 then
      fail "sack-off" "%d NACKs sent with SACK disabled" c.nacks_sent;
    if o.sack_retransmissions > 0 then
      fail "sack-off" "%d selective retransmissions with SACK disabled"
        o.sack_retransmissions
  end;
  (* Quiet wire: with no fault enabled the protocol must be silent —
     no retransmission (the RTO is an overestimate by construction, and
     the adaptive RTO never drops below 2×SRTT), no gap report, no
     duplicate, no re-acknowledgement, no damaged signal (the Open
     rides in every envelope until the first ACK, and a damaged copy
     is dropped silently).  Single transfers only: a faultless
     multi-connection run can still retransmit legitimately (an epoch's
     first packets racing their own Open across jittered paths). *)
  if Schedule.faultless s && single then begin
    if t.retransmissions > 0 then
      fail "quiet-retrans" "%d RTO retransmissions on a faultless run"
        t.retransmissions;
    if o.sack_retransmissions > 0 then
      fail "quiet-sack" "%d selective retransmissions on a faultless run"
        o.sack_retransmissions;
    if c.nacks_sent > 0 then
      fail "quiet-nack" "%d NACKs on a faultless run" c.nacks_sent;
    if v.duplicates > 0 then
      fail "quiet-dup" "%d duplicate chunks seen on a faultless run"
        v.duplicates;
    if c.reacks_sent > 0 then
      fail "quiet-reack" "%d re-ACKs on a faultless run" c.reacks_sent;
    if c.sig_damage > 0 then
      fail "quiet-signal" "%d damaged signals on a faultless run"
        c.sig_damage
  end;
  (* Verify/ACK agreement, across layers: every TPDU the verifiers pass
     is freshly acknowledged exactly once, over every endpoint instance
     of the run — a passed-but-unACKed (or ACKed-but-unpassed) TPDU
     means the transport and the error detection layer disagree about
     what was delivered. *)
  if v.tpdus_passed <> c.acks_sent then
    fail "metrics-verify-count"
      "%d TPDUs passed verification but %d fresh ACKs were sent"
      v.tpdus_passed c.acks_sent;
  (* Crash recovery.  Every scheduled crash must be executed and
     answered by exactly one successful restore; a restore that fails
     or leaves any TPDU in flight is a recovery-safety violation (a T.ID
     both ledgered and in flight is double delivery waiting to happen).
     Restored state must re-fit the governor budget, and the snapshot
     codec must round-trip every image it produced itself. *)
  if List.length s.Schedule.crashes <> o.crashes_injected then
    fail "recovery-safety" "%d crashes scheduled but %d executed"
      (List.length s.Schedule.crashes)
      o.crashes_injected;
  if o.crashes_injected <> o.restores then
    fail "recovery-safety" "%d crashes executed but %d restores succeeded"
      o.crashes_injected o.restores;
  if o.recovery_bad > 0 then
    fail "recovery-safety"
      "%d recovery-safety probe failures (unreadable image, torn journal \
       or in-flight state after a restore)"
      o.recovery_bad;
  if o.restore_over_budget > 0 then
    fail "recovery-budget"
      "%d restores left the governor over the configured state budget"
      o.restore_over_budget;
  if o.roundtrip_failures > 0 then
    fail "snapshot-roundtrip"
      "%d snapshot round-trip mismatches observed at restore"
      o.roundtrip_failures;
  (* Overlap consistency, in {e every} profile: once a byte range is
     WSC-2-verified it is immutable.  A conflicting write that replaces
     verified bytes (even with other verified bytes) means delivery can
     depend on arrival order, so [os_verified_overwrites] must be exactly
     zero.  Order-independence itself is the [overlap-determinism]
     counterfactual below. *)
  if ov.os_verified_overwrites > 0 then
    fail "overlap-consistency"
      "%d verified bytes were overwritten by conflicting data \
       (first-verified-wins violated; %d conflicts seen, %d rejected)"
      ov.os_verified_overwrites ov.os_conflicts_seen ov.os_conflicts_rejected;
  (* Counterfactuals (Driver.counterfactuals): every row that applies
     must have been re-run, and each re-run must agree with this run,
     (connection, epoch) by (connection, epoch), under the row's
     equality. *)
  let primary = o.Driver.epochs in
  let compare_rerun (cf : Driver.counterfactual) rerun =
    let settled = cf.Driver.equality = Driver.Delivery_when_settled in
    List.iter
      (fun (e : Driver.epoch_obs) ->
        let conn = e.Driver.e_conn and epoch = e.Driver.e_epoch in
        match
          List.find_opt
            (fun (e' : Driver.epoch_obs) ->
              e'.Driver.e_conn = conn && e'.Driver.e_epoch = epoch)
            rerun
        with
        | None ->
            fail cf.Driver.row "conn %d epoch %d missing from the re-run" conn
              epoch
        | Some e' ->
            if settled && (e.Driver.e_gave_up || e'.Driver.e_gave_up) then ()
            else if
              e.Driver.e_complete <> e'.Driver.e_complete
              || e.Driver.e_gave_up <> e'.Driver.e_gave_up
            then
              fail cf.Driver.row
                "conn %d epoch %d: complete %b / gave-up %b, re-run %b / %b"
                conn epoch e.Driver.e_complete e.Driver.e_gave_up
                e'.Driver.e_complete e'.Driver.e_gave_up
            else if (not settled) || e.Driver.e_complete then
              match (e.Driver.e_delivered, e'.Driver.e_delivered) with
              | Some a, Some b ->
                  if not (Bytes.equal a b) then
                    fail cf.Driver.row
                      "conn %d epoch %d: re-run delivery diverges at byte %d"
                      conn epoch (first_diff a b)
              | Some _, None | None, Some _ ->
                  fail cf.Driver.row
                    "conn %d epoch %d: delivered on one side only" conn epoch
              | None, None -> ())
      primary
  in
  List.iter
    (fun (cf : Driver.counterfactual) ->
      match List.assoc_opt cf.Driver.row o.counterfactuals with
      | Some rerun -> compare_rerun cf rerun
      | None ->
          if cf.Driver.applies s then
            fail cf.Driver.row "schedule ran without its counterfactual re-run")
    Driver.counterfactuals;
  (* Partial reliability, part one: sheds are legal only under a shed
     contract.  A receiver that honours a shed with no contract in the
     schedule has thrown away bytes the model calls mandatory — the
     shed-clobber mutation trips exactly this. *)
  if s.Schedule.shed = None && (c.sheds_received > 0 || t.sheds_sent > 0) then
    fail "shed-safety" "%d sheds honoured (%d signalled) with no shed contract"
      c.sheds_received t.sheds_sent;
  if single then begin
    (* Partial reliability, part two: every span the receiver honoured
       as shed must be one the contract declares sheddable (a shed of
       Critical/Normal elements is data loss whatever the wire did),
       and sheds must agree with their own bookkeeping. *)
    let sheddable = Model.sheddable_spans m s in
    List.iter
      (fun (first, len) ->
        if not (List.mem (first, len) sheddable) then
          fail "shed-safety"
            "receiver shed span (%d+%d) outside the shed contract" first
            len)
      o.shed_spans;
    if List.length o.shed_spans <> c.sheds_received then
      fail "shed-safety" "%d shed spans recorded but %d sheds honoured"
        (List.length o.shed_spans)
        c.sheds_received;
    (* Delivery: the delivered buffer must equal the model's
       expectation byte for byte — placement by label, across any
       amount of refragmentation and disorder, reconstructs the stream
       exactly.  Under a shed contract the comparison is masked over
       exactly the honoured shed spans (shed-liveness itself is the
       [incomplete]/[gave-up] pair: a shed schedule is never
       starvable, so the stream must still complete). *)
    if not o.gave_up then begin
      if not o.complete then
        fail "incomplete" "placement holds %d of %d elements"
          o.delivered_elems m.Model.elems;
      (* Immediate placement means elements of a shed TPDU that landed
         before the shed are already in the buffer, so the count may
         sit anywhere between all-shed-elements-missing and none. *)
      if
        o.delivered_elems < m.Model.elems - c.shed_elems
        || o.delivered_elems > m.Model.elems
      then
        fail "element-count"
          "delivered %d elements, model expects %d less at most %d shed"
          o.delivered_elems m.Model.elems c.shed_elems;
      if Bytes.length o.delivered <> Bytes.length m.Model.expected then
        fail "data-mismatch" "delivered %d bytes, model expects %d"
          (Bytes.length o.delivered)
          (Bytes.length m.Model.expected)
      else begin
        let elem_size = m.Model.elem_size and spans = o.shed_spans in
        let want = mask_sheds ~elem_size ~spans m.Model.expected in
        let got = mask_sheds ~elem_size ~spans o.delivered in
        if not (Bytes.equal got want) then
          fail "data-mismatch"
            "delivered buffer differs at byte %d (outside shed spans)"
            (first_diff got want)
      end
    end;
    if o.delivered_elems > m.Model.elems then
      fail "conservation" "placed %d elements, only %d exist"
        o.delivered_elems m.Model.elems;
    (* Without corruption, a TPDU may fail verification only because
       the governor evicted it or the sender aborted it — never
       because intact data looked damaged.  The overlap adversary is
       a third legitimate source of failures (its forged TPDUs and
       poisoned parities are {e built} to fail), so the check only
       applies when it is absent.  Honoured sheds abandon in-flight
       verifier state exactly like aborts and join the allowance. *)
    if s.Schedule.corrupt = 0.0 && s.Schedule.overlap = None then begin
      if v.tpdus_failed > c.evictions + c.aborts_received + c.sheds_received
      then
        fail "clean-fail"
          "%d TPDUs failed verification with corruption off (%d \
           evictions + %d aborts + %d sheds)"
          v.tpdus_failed c.evictions c.aborts_received c.sheds_received;
      if o.gateways_malformed > 0 then
        fail "clean-malformed"
          "%d packets unparseable at gateways with corruption off"
          o.gateways_malformed
    end;
    (* TPDU accounting: a fixed-size framer cuts a known number of
       TPDUs, and each is either verified exactly once or (under a
       shed contract) honoured as shed — never both, never neither. *)
    if not o.gave_up then begin
      if
        (not s.Schedule.adaptive)
        && o.passes <> m.Model.n_tpdus - c.sheds_received
      then
        fail "tpdu-count"
          "%d TPDUs passed, model expects exactly %d (%d shed)"
          o.passes m.Model.n_tpdus c.sheds_received;
      if s.Schedule.adaptive && o.passes < m.Model.n_tpdus then
        fail "tpdu-count" "%d TPDUs passed, adaptive floor is %d"
          o.passes m.Model.n_tpdus
    end
  end
  else begin
    (* Multi-connection delivery: every planned (connection, epoch)
       stream must arrive complete and byte-exact unless its sender
       legitimately gave up.  Flood traffic, displacement and GC must
       never corrupt a legitimate stream — only delay it. *)
    List.iter
      (fun (e : Driver.epoch_obs) ->
        let expected =
          match List.assoc_opt e.Driver.e_conn m.Model.streams with
          | Some epochs -> List.nth_opt epochs e.Driver.e_epoch
          | None -> None
        in
        match expected with
        | None ->
            fail "epoch-plan" "no model stream for conn %d epoch %d"
              e.Driver.e_conn e.Driver.e_epoch
        | Some want ->
            if e.Driver.e_gave_up then begin
              if not (starvable s) then
                fail "gave-up"
                  "conn %d epoch %d abandoned with no starvation fault"
                  e.Driver.e_conn e.Driver.e_epoch
            end
            else begin
              if not e.Driver.e_complete then
                fail "epoch-incomplete" "conn %d epoch %d not complete"
                  e.Driver.e_conn e.Driver.e_epoch;
              match e.Driver.e_delivered with
              | None ->
                  fail "epoch-missing"
                    "conn %d epoch %d never reached the receiver"
                    e.Driver.e_conn e.Driver.e_epoch
              | Some got ->
                  let n = Bytes.length want in
                  if
                    Bytes.length got < n
                    || not (Bytes.equal (Bytes.sub got 0 n) want)
                  then
                    fail "epoch-mismatch"
                      "conn %d epoch %d differs at byte %d" e.Driver.e_conn
                      e.Driver.e_epoch
                      (first_diff got want)
            end)
      o.Driver.epochs;
    (* Lifecycle hygiene: explicit Close (legitimate connections) and
       the deadline GC (flood connections) must leave nothing live. *)
    if t.live_conns > 0 then
      fail "multi-live" "%d connections still live after quiescence"
        t.live_conns
  end;
  (* Byzantine containment (DESIGN §10).  The exception bulkhead must
     never have fired in any profile: a poisoned connection means some
     input made the endpoint throw, which the bulkhead contained — but
     the throw itself is the bug to surface. *)
  if c.conns_poisoned > 0 then
    fail "bulkhead-poisoned"
      "%d connections poisoned by exception bulkheads (the endpoint threw \
       while processing their traffic)"
      c.conns_poisoned;
  (match o.byz with
  | None -> ()
  | Some b ->
      (* Honest immunity: only provably-authored anomalies are scored,
         so no byzantine input may ever talk an honest connection into
         the penalty box. *)
      if b.Driver.bo_honest_quarantined > 0 then
        fail "honest-immunity"
          "%d honest connections were quarantined under byzantine fire"
          b.Driver.bo_honest_quarantined;
      (* Isolation budget, part one — hard state caps per byzantine
         connection.  Quarantine bounds an attacker to ~8 epochs per
         admission and the re-admission backoff bounds admissions within
         the attack window, with a wide margin below 64; each archived
         flap epoch parks at most one quota-sized placement buffer. *)
      let epoch_buf_cap = s.Schedule.data_len + (s.Schedule.tpdu_elems * s.Schedule.elem_size) in
      List.iter
        (fun (bc : Driver.byz_conn_obs) ->
          if bc.Driver.bc_epochs > 64 then
            fail "isolation-budget"
              "byzantine conn %d started %d epochs (cap 64)"
              bc.Driver.bc_conn bc.Driver.bc_epochs;
          if bc.Driver.bc_hist_bytes > 64 * epoch_buf_cap then
            fail "isolation-budget"
              "byzantine conn %d parked %d archived bytes (cap %d)"
              bc.Driver.bc_conn bc.Driver.bc_hist_bytes
              (64 * epoch_buf_cap))
        b.Driver.bo_conns;
      (* Isolation budget, part two — the defense actually fired.  A
         connection accumulates at most 8 epochs per scoring life (the
         9th scored Open trips the box first), and a restore resets the
         score at most once per crash; epochs beyond that bound are
         only reachable through a quarantine-and-readmit cycle, so at
         least one revocation must have been counted.  This is the row
         that catches the byz-clobber mutation: with the budget
         disabled the peer flaps far past the bound and the revocation
         count stays zero. *)
      List.iter
        (fun (bc : Driver.byz_conn_obs) ->
          if
            bc.Driver.bc_epochs > 8 * (1 + o.restores)
            && c.quarantines = 0
          then
            fail "isolation-budget"
              "byzantine conn %d started %d epochs (> %d) yet no admission \
               was ever revoked — the quarantine never fired"
              bc.Driver.bc_conn bc.Driver.bc_epochs
              (8 * (1 + o.restores)))
        b.Driver.bo_conns);
  List.rev !vs
