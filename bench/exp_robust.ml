(* ROB-*: survivability experiments — what the adaptive control plane
   buys under hostile load.  ROB-RTO sweeps goodput against loss with a
   fixed RTO vs the Jacobson/Karn estimator (same schedules, same
   seeds): the fixed timer is an overestimate by construction, so every
   loss costs a full conservative timeout, while the estimator converges
   on the path's real round trip and repairs losses at RTT scale. *)

let seed = 0x5EED

let section id title =
  Printf.printf "\n=== EXP %s === %s (seed %#x)\n" id title seed

let transfer_data n =
  Bytes.init n (fun i -> Char.chr ((i * 31 + i / 977) land 0xFF))

let rob_rto () =
  section "ROB-RTO" "goodput vs loss: fixed RTO vs adaptive (Jacobson/Karn)";
  let data = transfer_data 131072 in
  let base =
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.rto = 0.25;
      window = 4;
      state_ttl = 0.25 }
  in
  Printf.printf "  %-8s %-22s %-22s %-10s\n" "loss" "fixed goodput (Mb/s)"
    "adaptive goodput (Mb/s)" "speedup";
  List.iter
    (fun loss ->
      let run config =
        Transport.Transfer.run ~seed ~loss ~config ~data ()
      in
      let fixed = run base in
      let adaptive =
        run { base with Transport.Chunk_transport.rto_adaptive = true }
      in
      assert fixed.Transport.Transfer.ok;
      assert adaptive.Transport.Transfer.ok;
      let mbps o = o.Transport.Transfer.goodput_bps /. 1e6 in
      let speedup = adaptive.goodput_bps /. fixed.goodput_bps in
      Printf.printf "  %-8.2f %-22.3f %-22.3f %-10.2fx\n" loss (mbps fixed)
        (mbps adaptive) speedup;
      let tag = Printf.sprintf "%.2f" loss in
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("fixed goodput bps @" ^ tag)
        fixed.goodput_bps;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive goodput bps @" ^ tag)
        adaptive.goodput_bps;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("fixed sim s @" ^ tag)
        fixed.sim_time;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive sim s @" ^ tag)
        adaptive.sim_time;
      Util_bench.Metrics.record ~exp:"ROB-RTO"
        ("adaptive rtt samples @" ^ tag)
        (float_of_int adaptive.rtt_samples))
    [ 0.0; 0.05; 0.10; 0.20 ]

(* Whether a packet carries an ED chunk. *)
let carries_ed b =
  match Labelling.Wire.decode_packet b with
  | Error _ -> false
  | Ok chunks ->
      List.exists
        (fun ch ->
          Labelling.Ctype.equal
            ch.Labelling.Chunk.header.Labelling.Header.ctype
            Labelling.Ctype.ed)
        chunks

(* A starved forward path, with the reverse path dead: every packet
   carrying an ED chunk is lost, so no TPDU can verify. *)
let starved engine config ~quota_elems data =
  Transport.Transfer.connect engine config ~quota_elems
    ~forward:(fun deliver b -> if not (carries_ed b) then deliver b)
    ~reverse:(fun _ _ -> ())
    (`Data data)

(* ROB-ABORT: the cost of abandoning a starved transfer.  The reverse
   path is dead and the forward path loses every ED-bearing packet, so
   no TPDU can verify and the receiver accumulates partial state; the
   sender backs off exponentially (capped), gives up after
   [give_up_txs] transmissions, and signals Abort_tpdu so that state is
   reclaimed immediately instead of waiting for the delta-t deadline. *)
let rob_abort () =
  let module CT = Transport.Chunk_transport in
  let module M = Transport.Multi in
  section "ROB-ABORT" "give-up under a starved path";
  let engine = Netsim.Engine.create ~seed () in
  let config =
    { CT.default_config with CT.rto = 0.05; give_up_txs = 6; state_ttl = 30.0 }
  in
  let w =
    starved engine config
      ~quota_elems:(CT.expected_elements config ~data_len:8192)
      (transfer_data 8192)
  in
  (* stop at the give-up, before the connection's own deadline sweep
     could reclaim what the aborts did not *)
  Transport.Transfer.finish w;
  let m = Transport.Transfer.endpoint w and tx = Transport.Transfer.sender w in
  let gave_up_at = Netsim.Engine.now engine in
  let sent = CT.Sender.aborts_sent tx and received = (M.counters m).aborts_received in
  Printf.printf
    "  gave up after %.3f sim s; aborts sent %d, received %d; receiver \
     in-flight %d, stashed %d, deadline evictions %d\n"
    gave_up_at sent received (M.live_in_flight m) (M.live_stashed m)
    (M.counters m).evictions;
  (* the sender gave up, and its aborts alone reclaimed what the
     receiver held: one received per one sent, nothing left in flight or
     quarantined, and no deadline eviction did the work instead *)
  assert (CT.Sender.gave_up tx);
  assert (sent >= 1 && received = sent);
  assert (M.live_in_flight m = 0 && M.live_stashed m = 0);
  assert ((M.counters m).evictions = 0);
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "give-up sim s" gave_up_at;
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "aborts sent"
    (float_of_int (CT.Sender.aborts_sent tx));
  Util_bench.Metrics.record ~exp:"ROB-ABORT" "receiver in-flight after"
    (float_of_int (M.live_in_flight m))

(* ROB-RECOVER: what crash recovery costs.  A snapshot holds what the
   receiver acknowledged — the ledger and the verified runs — and
   nothing in flight, which the sender's retransmission rebuilds.  Two
   sweeps.  Against the number of in-flight TPDUs: one connection sends
   one window with its reverse path dead and each TPDU's ED-bearing
   packet held back, so the whole window is in flight, partly received,
   at the crash; the snapshot's size, its decode+restore wall time, and
   the bytes the sender retransmits after the restore until the
   transfer completes, in three cases: the held packets are lost with
   the crash (the RTO retransmits), or they arrive after the restore,
   without SACK or with it (the receiver NACKs its gaps).  Against the
   number of live connections, each endpoint snapshotted mid-transfer:
   the size and the restore time.  Against the TPDUs acknowledged
   before the crash, with no snapshot at all: the journal's bytes per
   acknowledged TPDU (its records name the data where placement put it
   and copy none of it), and the time to recover and restore from the
   journal alone.  A restore time is the median of five rounds after a
   warm-up round, each restore on a private engine. *)
let rob_recover () =
  let module CT = Transport.Chunk_transport in
  let module M = Transport.Multi in
  let module P = Transport.Persist in
  section "ROB-RECOVER" "snapshot size, restore latency, retransmission";
  let time_restores reps restore =
    let round () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        restore ()
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
    in
    ignore (round () : float);
    let rounds = List.sort Float.compare (List.init 5 (fun _ -> round ())) in
    List.nth rounds 2
  in
  let restorer engine ~config ~quota_elems ~max_conns ~send_ack encoded =
    match P.decode_endpoint encoded with
    | Error e -> failwith e
    | Ok (P.Multi events) ->
        M.restore engine ~config ~quota_elems ~max_conns ~send_ack events
  in
  let timed reps ~config ~quota_elems ~max_conns encoded =
    let engine = Netsim.Engine.create ~seed () in
    time_restores reps (fun () ->
        ignore
          (restorer engine ~config ~quota_elems ~max_conns
             ~send_ack:(fun _ -> ())
             encoded
            : M.t))
  in
  (* One window of [k] TPDUs: after a restore, everything the sender
     sends is a retransmission. *)
  let window k ~sack =
    let config =
      { CT.default_config with
        CT.rto = 0.05;
        window = k;
        give_up_txs = 1000;
        state_ttl = 30.0;
        sack }
    in
    let data = transfer_data (k * config.CT.tpdu_elems * config.CT.elem_size) in
    (config, data, CT.expected_elements config ~data_len:(Bytes.length data))
  in
  (* Crash the window's receiver before the sender's first RTO, restore
     it, and run the transfer out; [late] delivers the held packets
     after the restore.  Returns the TPDUs in flight at the crash, the
     snapshot, and the bytes sent after the restore. *)
  let crash_window k ~late ~sack =
    let engine = Netsim.Engine.create ~seed () in
    let config, data, quota_elems = window k ~sack in
    let restored = ref None and held = Queue.create () in
    let w =
      Transport.Transfer.connect engine config ~quota_elems
        ~forward:(fun deliver b ->
          match !restored with
          | Some m -> M.ingest m b
          | None -> if carries_ed b then Queue.add b held else deliver b)
        ~reverse:(fun _ _ -> ())
        (`Data data)
    in
    Netsim.Engine.run ~until:0.025 engine;
    let m = Transport.Transfer.endpoint w
    and tx = Transport.Transfer.sender w in
    let in_flight = M.live_in_flight m in
    let encoded = P.encode_endpoint (P.Multi (M.export m)) in
    M.teardown m;
    let m' =
      restorer engine ~config ~quota_elems ~max_conns:1
        ~send_ack:(CT.Sender.on_packet tx) encoded
    in
    assert (M.live_in_flight m' = 0 && M.live_stashed m' = 0);
    M.reannounce m';
    restored := Some m';
    let sent = CT.Sender.bytes_sent tx in
    if late then Queue.iter (M.ingest m') held;
    Transport.Transfer.finish w;
    assert (CT.Sender.finished tx && not (CT.Sender.gave_up tx));
    (match M.epochs m' ~conn_id:config.CT.conn_id with
    | [ e ] -> assert (Bytes.equal e.M.delivered data)
    | _ -> assert false);
    (in_flight, encoded, CT.Sender.bytes_sent tx - sent)
  in
  Printf.printf "  %-16s %-11s %-11s %-24s\n" "in-flight TPDUs" "snapshot B"
    "restore us" "retx B: lost/late/SACK";
  List.iter
    (fun k ->
      let in_flight, encoded, lost = crash_window k ~late:false ~sack:false in
      let _, _, late = crash_window k ~late:true ~sack:false in
      let _, _, nacked = crash_window k ~late:true ~sack:true in
      (* nothing in flight survives the crash: without SACK the late
         packets save nothing, with it the sender resends what the
         receiver held before the crash, less than the window *)
      assert (late = lost && nacked < late);
      let config, _, quota_elems = window k ~sack:false in
      let us = timed 200 ~config ~quota_elems ~max_conns:1 encoded in
      Printf.printf "  %-16d %-11d %-11.1f %d / %d / %d\n" in_flight
        (Bytes.length encoded) us lost late nacked;
      let tag = Printf.sprintf "%d tpdus" in_flight in
      let record name v =
        Util_bench.Metrics.record ~exp:"ROB-RECOVER" (name ^ " @" ^ tag) v
      in
      record "snapshot bytes" (float_of_int (Bytes.length encoded));
      record "restore us" us;
      record "retransmitted bytes, tail lost" (float_of_int lost);
      record "retransmitted bytes, tail late" (float_of_int late);
      record "retransmitted bytes, tail late, sack" (float_of_int nacked))
    [ 4; 16; 64 ];
  Printf.printf "  %-16s %-11s %-11s\n" "live connections" "snapshot B"
    "restore us";
  List.iter
    (fun conns ->
      let engine = Netsim.Engine.create ~seed () in
      let config = { CT.default_config with CT.rto = 0.05; window = 4 } in
      let quota_elems = 4096 in
      let m =
        M.create engine ~config ~quota_elems ~max_conns:(conns + 2)
          ~send_ack:(fun _ -> ())
          ()
      in
      let senders =
        List.init conns (fun i ->
            CT.Sender.create engine
              { config with CT.conn_id = i + 1 }
              ~announce_open:true
              ~send:(fun b -> M.ingest m b)
              ~data:(transfer_data 16384) ())
      in
      List.iter CT.Sender.start senders;
      Netsim.Engine.run ~until:0.04 engine;
      let encoded = P.encode_endpoint (P.Multi (M.export m)) in
      let us =
        timed 100 ~config ~quota_elems ~max_conns:(conns + 2) encoded
      in
      Printf.printf "  %-16d %-11d %-11.1f\n" (M.live_conns m)
        (Bytes.length encoded) us;
      let tag = Printf.sprintf "%d conns" conns in
      Util_bench.Metrics.record ~exp:"ROB-RECOVER"
        ("snapshot bytes @" ^ tag)
        (float_of_int (Bytes.length encoded));
      Util_bench.Metrics.record ~exp:"ROB-RECOVER" ("restore us @" ^ tag) us)
    [ 2; 8 ];
  (* A transfer of [k] TPDUs into an endpoint that journals every ACK,
     crashed once half of them are acknowledged and recovered from the
     journal alone.  Its ACK records name their runs in the dead
     endpoint's placement buffer, so the restored endpoint must finish
     the transfer byte-exact from those regions and what the sender
     still sends. *)
  let journal_crash k =
    let engine = Netsim.Engine.create ~seed () in
    let config, _, _ = window 4 ~sack:false in
    let data = transfer_data (k * config.CT.tpdu_elems * config.CT.elem_size) in
    let quota_elems = CT.expected_elements config ~data_len:(Bytes.length data) in
    let store = P.Store.create () and acked = ref 0 in
    let restored = ref None in
    let w =
      Transport.Transfer.connect engine config ~quota_elems
        ~persist:(fun ev ->
          (match ev with P.Acked _ -> incr acked | _ -> ());
          P.Store.append store ev)
        ~forward:(fun deliver b ->
          Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
              match !restored with Some m -> M.ingest m b | None -> deliver b))
        (`Data data)
    in
    while !acked < k / 2 && Netsim.Engine.step engine do () done;
    let acked = !acked in
    let m = Transport.Transfer.endpoint w and tx = Transport.Transfer.sender w in
    M.teardown m;
    let recover engine ~send_ack =
      match P.Store.recover store with
      | Ok (events, false) ->
          M.restore engine ~config ~quota_elems ~max_conns:1 ~send_ack events
      | Ok (_, true) -> failwith "ROB-RECOVER: journal torn"
      | Error e -> failwith e
    in
    let journal_bytes = P.Store.bytes_appended store in
    let us =
      let engine = Netsim.Engine.create ~seed () in
      time_restores 200 (fun () ->
          ignore (recover engine ~send_ack:(fun _ -> ()) : M.t))
    in
    let m' = recover engine ~send_ack:(CT.Sender.on_packet tx) in
    M.reannounce m';
    restored := Some m';
    Transport.Transfer.finish w;
    assert (CT.Sender.finished tx && not (CT.Sender.gave_up tx));
    (match M.epochs m' ~conn_id:config.CT.conn_id with
    | [ e ] -> assert (Bytes.equal e.M.delivered data)
    | _ -> assert false);
    (acked, journal_bytes, Bytes.length data / k, us)
  in
  Printf.printf "  %-16s %-14s %-14s %-11s
" "acked TPDUs" "journal B/ACK"
    "data B/TPDU" "restore us";
  List.iter
    (fun k ->
      let acked, journal_bytes, tpdu_bytes, us = journal_crash k in
      let per_ack = float_of_int journal_bytes /. float_of_int acked in
      Printf.printf "  %-16d %-14.1f %-14d %-11.1f
" acked per_ack tpdu_bytes us;
      (* the journal carries labels, not the acknowledged data *)
      assert (per_ack <= 64.0);
      let tag = Printf.sprintf "%d acked" acked in
      Util_bench.Metrics.record ~exp:"ROB-RECOVER"
        ("journal bytes per ack @" ^ tag) per_ack;
      Util_bench.Metrics.record ~exp:"ROB-RECOVER"
        ("journal restore us @" ^ tag) us)
    [ 16; 64 ]

(* ROB-SHED: what significance-driven shedding buys under sustained
   congestion.  A layered transfer (Critical base + Sheddable
   enhancement, interleaved by the significance-weighted scheduler)
   crosses a congested element that drops only sheddable-class packets.
   With shedding off, every enhancement TPDU is retransmitted into the
   congestion until it finally lands, holding window slots and sim
   time hostage; with the shed policy armed, the sender abandons
   enhancement TPDUs after [shed_txs] transmissions and the Critical
   bytes own the wire.  The base layer is byte-exact either way —
   the difference is how fast those mandatory bytes complete. *)
let rob_shed () =
  let module CT = Transport.Chunk_transport in
  let module I = Transport.Interleave in
  let module M = Transport.Multi in
  section "ROB-SHED" "critical goodput under congestion: shed off vs on";
  let elem_size = 4 and tpdu_elems = 64 in
  let base_bytes = 32768 in
  let streams =
    [
      { I.is_name = "base"; is_cls = Labelling.Significance.Critical;
        is_data = transfer_data base_bytes };
      { I.is_name = "enh1"; is_cls = Labelling.Significance.Sheddable 1;
        is_data = transfer_data 49152 };
      { I.is_name = "enh2"; is_cls = Labelling.Significance.Sheddable 2;
        is_data = transfer_data 49152 };
    ]
  in
  let run_layered ~loss ~shed =
    let plan =
      match I.plan ~elem_size ~tpdu_elems ~conn_id:3 streams with
      | Ok p -> p
      | Error e -> failwith e
    in
    let config =
      { CT.default_config with
        CT.conn_id = 3;
        elem_size;
        tpdu_elems;
        window = 8;
        rto = 0.05;
        state_ttl = 0.25;
        classify = plan.I.classify;
        shed_txs = (if shed then 2 else 0) }
    in
    let engine = Netsim.Engine.create ~seed () in
    let forward deliver =
      let congested =
        Netsim.Dropper.create ~mode:Netsim.Dropper.By_class
          ~sheddable:(fun t_id ->
            Labelling.Significance.sheddable (plan.I.classify t_id))
          ~rng:(Netsim.Rng.create ~seed:(seed + 1))
          ~loss ~forward:deliver ()
      in
      let mp =
        Netsim.Multipath.create engine ~paths:4 ~rate_bps:155e6 ~delay:1e-3
          ~skew:0.25e-3 ~mtu:config.CT.mtu
          ~deliver:(fun b -> Netsim.Dropper.on_packet congested b)
          ()
      in
      fun b -> ignore (Netsim.Multipath.send mp b)
    in
    let reverse deliver =
      let link =
        Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay:1e-3
          ~mtu:config.CT.mtu ~deliver ()
      in
      fun b -> ignore (Netsim.Link.send link b)
    in
    let w =
      Transport.Transfer.connect engine config ~quota_elems:plan.I.total_elems
        ~forward ~reverse (`Tpdus plan.I.tpdus)
    in
    (* the transfer ends when the sender finishes *)
    Transport.Transfer.finish w;
    let tx = Transport.Transfer.sender w in
    (* the mandatory contract holds in both modes: complete, not given
       up, byte-exact outside honoured shed spans, base layer whole *)
    assert (not (CT.Sender.gave_up tx));
    let e = Option.get (Transport.Transfer.epoch w) in
    assert e.M.complete;
    let expected = I.expected ~elem_size ~tpdu_elems streams in
    let spans = e.M.shed_spans in
    assert (
      Transport.Transfer.equal_outside_sheds ~elem_size ~spans ~expected
        ~delivered:e.M.delivered);
    let base_elems = (List.hd plan.I.layout).I.l_elems in
    assert (List.for_all (fun (first, _) -> first >= base_elems) spans);
    let sim = Netsim.Engine.now engine in
    (float_of_int base_bytes *. 8.0 /. sim, sim, CT.Sender.sheds_sent tx)
  in
  Printf.printf "  %-8s %-24s %-24s %-8s %-8s\n" "loss"
    "critical Mb/s (shed off)" "critical Mb/s (shed on)" "sheds" "gain";
  List.iter
    (fun loss ->
      let off_bps, off_sim, _ = run_layered ~loss ~shed:false in
      let on_bps, on_sim, sheds = run_layered ~loss ~shed:true in
      Printf.printf "  %-8.2f %-24.3f %-24.3f %-8d %-8.2fx\n" loss
        (off_bps /. 1e6) (on_bps /. 1e6) sheds (on_bps /. off_bps);
      (* the acceptance claim: under >= 10% sheddable-class congestion
         loss, arming the shed policy raises Critical goodput *)
      if loss >= 0.1 then assert (on_bps > off_bps);
      let tag = Printf.sprintf "%.2f" loss in
      Util_bench.Metrics.record ~exp:"ROB-SHED"
        ("critical goodput bps shed off @" ^ tag) off_bps;
      Util_bench.Metrics.record ~exp:"ROB-SHED"
        ("critical goodput bps shed on @" ^ tag) on_bps;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sim s shed off @" ^ tag)
        off_sim;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sim s shed on @" ^ tag)
        on_sim;
      Util_bench.Metrics.record ~exp:"ROB-SHED" ("sheds @" ^ tag)
        (float_of_int sheds))
    [ 0.10; 0.20; 0.30 ]

(* ROB-ISOLATE: the blast radius of a byzantine peer.  Six honest
   senders share a Multi endpoint with a byzantine adversary holding two
   more connections (25% of the eight peers).  The adversary speaks
   valid wire format — every per-chunk check accepts its flaps, sealed
   garbage TPDUs, contradictory ACKs and forged sheds — so only the
   endpoint's anomaly scoring and quarantine stand between it and the
   honest connections' state.  Measure the honest transfers' completion
   time with the adversary absent vs present: containment means the
   honest goodput keeps at least 0.9x of its clean value. *)
let rob_isolate () =
  let module CT = Transport.Chunk_transport in
  section "ROB-ISOLATE" "honest goodput with 25% byzantine peers";
  let honest = 6 and byz_conns = 2 in
  let bytes_per_conn = 32768 in
  let config = { CT.default_config with CT.rto = 0.05; window = 8 } in
  let run_endpoint ~attack =
    let engine = Netsim.Engine.create ~seed () in
    let multi = ref None in
    let byzantine = ref None in
    let senders : (int, CT.Sender.t) Hashtbl.t = Hashtbl.create 8 in
    let demux_reverse = CT.Sender.demux (Hashtbl.find_opt senders) in
    (* the adversary taps the door for its replay ring, exactly like the
       conformance driver's wiring, and injects past the honest links *)
    let door b =
      (match !byzantine with
      | Some bz -> Netsim.Byzantine.observe bz b
      | None -> ());
      match !multi with Some m -> Transport.Multi.ingest m b | None -> ()
    in
    let forward =
      Netsim.Link.create engine ~name:"fwd" ~rate_bps:100e6 ~delay:1e-3
        ~mtu:config.CT.mtu ~deliver:door ()
    in
    let reverse =
      Netsim.Link.create engine ~name:"ack" ~rate_bps:100e6 ~delay:1e-3
        ~mtu:config.CT.mtu ~deliver:demux_reverse ()
    in
    let quota_elems =
      CT.expected_elements config ~data_len:bytes_per_conn
    in
    let m =
      Transport.Multi.create engine ~config ~quota_elems
        ~max_conns:(honest + 8)
        ~send_ack:(fun b -> ignore (Netsim.Link.send reverse b))
        ()
    in
    multi := Some m;
    List.iter
      (fun cid ->
        let tx =
          CT.Sender.create engine
            { config with CT.conn_id = cid }
            ~announce_open:true
            ~send:(fun b -> ignore (Netsim.Link.send forward b))
            ~data:(transfer_data bytes_per_conn) ()
        in
        Hashtbl.replace senders cid tx;
        CT.Sender.start tx)
      (List.init honest (fun i -> i + 1));
    if attack then
      byzantine :=
        Some
          (Netsim.Byzantine.create engine ~seed:(seed lxor 0xB12A97)
             ~rate:400.0 ~stop:10.0 ~conns:byz_conns
             ~legit_conns:(List.init honest (fun i -> i + 1))
             ~elem_size:config.CT.elem_size ~acks:true ~sheds:true
             ~replay:true ~garbage:true
             ~inject:(fun b ->
               match !multi with
               | Some m -> Transport.Multi.ingest m b
               | None -> ())
             ~inject_ack:demux_reverse ());
    (* poll for the moment every honest transfer completes; the engine
       then drains the adversary's remaining schedule *)
    let done_at = ref None in
    let rec poll () =
      if !done_at = None then
        if Hashtbl.fold (fun _ tx ok -> ok && CT.Sender.finished tx) senders true
        then done_at := Some (Netsim.Engine.now engine)
        else Netsim.Engine.schedule engine ~delay:0.002 poll
    in
    Netsim.Engine.schedule engine ~delay:0.002 poll;
    Netsim.Engine.run engine;
    Hashtbl.iter
      (fun _ tx ->
        assert (CT.Sender.finished tx);
        assert (not (CT.Sender.gave_up tx)))
      senders;
    let t =
      match !done_at with Some t -> t | None -> Netsim.Engine.now engine
    in
    let goodput = float_of_int (honest * bytes_per_conn) *. 8.0 /. t in
    let honest_boxed =
      List.fold_left
        (fun acc cid ->
          match Transport.Multi.conn_stats m ~conn_id:cid with
          | None -> acc
          | Some cs ->
              if
                cs.Transport.Multi.cs_quarantines > 0
                || cs.Transport.Multi.cs_poisoned
              then acc + 1
              else acc)
        0
        (List.init honest (fun i -> i + 1))
    in
    (goodput, t, (Transport.Multi.counters m).quarantines, honest_boxed, m)
  in
  let clean_bps, clean_t, _, _, _ = run_endpoint ~attack:false in
  let byz_bps, byz_t, quarantines, honest_boxed, m =
    run_endpoint ~attack:true
  in
  let ratio = byz_bps /. clean_bps in
  Printf.printf
    "  honest goodput clean %.3f Mb/s (%.3f sim s); under 25%% byzantine \
     peers %.3f Mb/s (%.3f sim s) = %.3fx\n"
    (clean_bps /. 1e6) clean_t (byz_bps /. 1e6) byz_t ratio;
  Printf.printf
    "  quarantines %d, honest connections boxed %d, quarantine drops %d, \
     anomalies %d\n"
    quarantines honest_boxed
    (Transport.Multi.counters m).quarantine_drops
    (Transport.Multi.counters m).anomalies;
  (* the acceptance claim: containment keeps honest goodput >= 0.9x and
     never boxes an honest connection *)
  assert (ratio >= 0.9);
  assert (honest_boxed = 0);
  assert (quarantines > 0);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest goodput bps clean"
    clean_bps;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest goodput bps byz"
    byz_bps;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "goodput ratio" ratio;
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "quarantines"
    (float_of_int quarantines);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "honest boxed"
    (float_of_int honest_boxed);
  Util_bench.Metrics.record ~exp:"ROB-ISOLATE" "quarantine drops"
    (float_of_int (Transport.Multi.counters m).quarantine_drops)

let run () =
  rob_rto ();
  rob_abort ();
  rob_recover ();
  rob_shed ();
  rob_isolate ()
