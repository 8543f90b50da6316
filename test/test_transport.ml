(* Integration: whole transfers through the simulated network, chunk
   transport vs the buffered conventional baseline. *)

let data = Util.deterministic_bytes 60_000

let chunk_run ?(loss = 0.0) ?(corrupt = 0.0) ?(seed = 0x5EED) ?config () =
  Transport.Transfer.run ?config ~seed ~loss ~corrupt ~data ()

let buffered_run ?(loss = 0.0) ?(corrupt = 0.0) ?(seed = 0x5EED) ?config () =
  Transport.Buffered_transport.run ?config ~seed ~loss ~corrupt ~data ()

let test_chunk_clean () =
  let o = chunk_run () in
  Alcotest.(check bool) "delivered intact" true o.Transport.Transfer.ok;
  Alcotest.(check int) "no retransmissions" 0 o.retransmissions;
  Alcotest.(check int) "no verifier failures" 0
    o.verifier.Edc.Verifier.tpdus_failed

let test_chunk_lossy () =
  let o = chunk_run ~loss:0.03 () in
  Alcotest.(check bool) "delivered intact under loss" true
    o.Transport.Transfer.ok;
  Alcotest.(check bool) "loss forced retransmissions" true
    (o.retransmissions > 0)

let test_chunk_corrupting () =
  let o = chunk_run ~corrupt:0.02 ~seed:1234 () in
  Alcotest.(check bool) "delivered intact under corruption" true
    o.Transport.Transfer.ok;
  Alcotest.(check bool) "verifier caught damage" true
    (o.verifier.Edc.Verifier.tpdus_failed > 0)

let test_chunk_element_delay_zero () =
  let o = chunk_run ~loss:0.02 () in
  match o.element_delay with
  | Some s ->
      Alcotest.(check (float 1e-12)) "immediate availability" 0.0
        s.Netsim.Stats.mean
  | None -> Alcotest.fail "no samples"

let test_buffered_clean () =
  let o = buffered_run () in
  Alcotest.(check bool) "delivered intact" true
    o.Transport.Buffered_transport.ok;
  Alcotest.(check int) "no crc failures" 0 o.crc_failures

let test_buffered_lossy () =
  let o = buffered_run ~loss:0.03 () in
  Alcotest.(check bool) "delivered intact" true
    o.Transport.Buffered_transport.ok;
  Alcotest.(check bool) "retransmissions happened" true (o.retransmissions > 0)

let test_buffered_element_delay_positive () =
  let o = buffered_run ~loss:0.02 () in
  match o.Transport.Buffered_transport.element_delay with
  | Some s ->
      Alcotest.(check bool) "buffering delays data" true
        (s.Netsim.Stats.mean > 0.0)
  | None -> Alcotest.fail "no samples"

let test_bus_crossings_ordering () =
  let c = chunk_run () in
  let b = buffered_run () in
  Alcotest.(check bool) "buffered touches data more" true
    (b.Transport.Buffered_transport.bus_crossings_per_byte
    > c.Transport.Transfer.bus_crossings_per_byte)

let test_latency_ordering () =
  let c = chunk_run ~loss:0.02 () in
  let b = buffered_run ~loss:0.02 () in
  match
    ( c.Transport.Transfer.element_delay,
      b.Transport.Buffered_transport.element_delay )
  with
  | Some sc, Some sb ->
      Alcotest.(check bool) "chunks strictly lower delay" true
        (sc.Netsim.Stats.mean < sb.Netsim.Stats.mean)
  | _, _ -> Alcotest.fail "missing samples"

let test_adaptive_shrinks () =
  let config =
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.adaptive = true }
  in
  let o = chunk_run ~loss:0.15 ~config () in
  Alcotest.(check bool) "still correct" true o.Transport.Transfer.ok

let test_lockup_pressure () =
  (* squeeze the reassembly buffer: the conventional receiver hits
     lock-up events; the chunk receiver has no reassembly buffer at all *)
  let config =
    { Transport.Buffered_transport.default_config with
      Transport.Buffered_transport.reasm_capacity = 6 * 1024;
      window = 16;
      tpdu_bytes = 4096 }
  in
  let o = buffered_run ~loss:0.05 ~config () in
  Alcotest.(check bool) "transfer still completes via retransmission" true
    o.Transport.Buffered_transport.ok;
  Alcotest.(check bool) "lock-up events occurred" true (o.lockup_events > 0)

let test_small_transfer () =
  let data = Util.deterministic_bytes 100 in
  let o = Transport.Transfer.run ~data () in
  Alcotest.(check bool) "tiny transfer" true o.Transport.Transfer.ok

(* The connection memo adds its counts to the process-wide registry
   only when they are read; a finished transfer has read them, so the
   registry's hit count rose by the memo's own (a delta, as other tests
   share the registry). *)
let test_transfer_counts_memo () =
  let hits () =
    Obs.Metrics.value (Obs.Metrics.counter "flowcache_conn_hits_total")
  in
  let config = Transport.Chunk_transport.default_config in
  let data = Util.deterministic_bytes 20_000 in
  let before = hits () in
  let w =
    Transport.Transfer.connect
      (Netsim.Engine.create ~seed:5 ())
      config
      ~quota_elems:
        (Transport.Chunk_transport.expected_elements config
           ~data_len:(Bytes.length data))
      (`Data data)
  in
  Transport.Transfer.finish w;
  let after = hits () in
  let memo =
    (Transport.Multi.fastpath_stats (Transport.Transfer.endpoint w))
      .Transport.Multi.fp_conn
  in
  Alcotest.(check bool) "the memo hit" true
    (memo.Transport.Flowcache.s_hits > 0);
  if Obs.enabled then
    Alcotest.(check int) "registry rose by the memo's hits"
      memo.Transport.Flowcache.s_hits (after - before)

(* A report names each tally field once, with the kind its table gives
   it: no registry metric repeats a name the endpoint's records answer. *)
let test_tally_report () =
  let o =
    Transport.Transfer.run ~loss:0.05 ~data:(Util.deterministic_bytes 20_000) ()
  in
  let t = o.Transport.Transfer.tally in
  let s = Transport.Tally.report t (Obs.Metrics.snapshot ()) in
  let names =
    List.map fst s.Obs.Metrics.s_counters
    @ List.map (fun (name, _, _) -> name) s.s_gauges
    @ List.map fst s.s_histograms
  in
  Alcotest.(check int) "no name twice" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (name, read) ->
      match read t with
      | Transport.Tally.Count n ->
          Alcotest.(check (option int)) name (Some n)
            (List.assoc_opt name s.s_counters)
      | Transport.Tally.Level (v, high) ->
          Alcotest.(check (option (pair int int))) name (Some (v, high))
            (List.find_map
               (fun (n, v, high) -> if n = name then Some (v, high) else None)
               s.s_gauges))
    Transport.Tally.table;
  Alcotest.(check int) "one fresh ACK per verified TPDU"
    t.verifier.Edc.Verifier.tpdus_passed t.counts.acks_sent

let test_expected_elements () =
  let config = Transport.Chunk_transport.default_config in
  (* frame_bytes 1024, elem 4: 2500 bytes = 2 full frames + 452 rem ->
     512 + 113 elems *)
  Alcotest.(check int) "padding accounted" 625
    (Transport.Chunk_transport.expected_elements config ~data_len:2500)

let test_busmodel () =
  let b = Transport.Busmodel.create () in
  Transport.Busmodel.nic_to_mem b 100;
  Transport.Busmodel.mem_to_cpu b 100;
  Transport.Busmodel.cpu_to_mem b 50;
  Transport.Busmodel.mem_copy b 25;
  Alcotest.(check int) "crossings" 300 (Transport.Busmodel.crossings b);
  Alcotest.(check (float 1e-9)) "per byte" 3.0
    (Transport.Busmodel.per_byte b ~delivered:100);
  Transport.Busmodel.reset b;
  Alcotest.(check int) "reset" 0 (Transport.Busmodel.crossings b)

let suite =
  [
    Alcotest.test_case "chunk transport, clean network" `Quick test_chunk_clean;
    Alcotest.test_case "chunk transport, 3% loss" `Quick test_chunk_lossy;
    Alcotest.test_case "chunk transport, corruption" `Quick
      test_chunk_corrupting;
    Alcotest.test_case "chunk element delay is zero" `Quick
      test_chunk_element_delay_zero;
    Alcotest.test_case "buffered transport, clean" `Quick test_buffered_clean;
    Alcotest.test_case "buffered transport, 3% loss" `Quick test_buffered_lossy;
    Alcotest.test_case "buffered element delay positive" `Quick
      test_buffered_element_delay_positive;
    Alcotest.test_case "bus crossings: chunk < buffered" `Quick
      test_bus_crossings_ordering;
    Alcotest.test_case "latency: chunk < buffered" `Quick test_latency_ordering;
    Alcotest.test_case "adaptive TPDU sizing survives 15% loss" `Slow
      test_adaptive_shrinks;
    Alcotest.test_case "reassembly buffer lock-up under pressure" `Slow
      test_lockup_pressure;
    Alcotest.test_case "tiny transfer" `Quick test_small_transfer;
    Alcotest.test_case "expected_elements accounting" `Quick
      test_expected_elements;
    Alcotest.test_case "bus model arithmetic" `Quick test_busmodel;
  ]

let test_through_gateways () =
  (* loss + disorder upstream, two refragmenting gateways downstream:
     the receiver must notice nothing (§3.1 transparency) *)
  let data = Util.deterministic_bytes 40_000 in
  let o =
    Transport.Transfer.run ~seed:77 ~loss:0.02 ~data
      ~gateways:
        [ (Labelling.Repack.Combine, 576); (Labelling.Repack.Reassemble, 9180) ]
      ()
  in
  Alcotest.(check bool) "intact through 2 gateways" true
    o.Transport.Transfer.ok

let test_gateway_method1 () =
  let data = Util.deterministic_bytes 20_000 in
  let o =
    Transport.Transfer.run ~seed:78 ~data
      ~gateways:[ (Labelling.Repack.One_per_packet, 4096) ]
      ()
  in
  Alcotest.(check bool) "intact via method 1" true
    o.Transport.Transfer.ok

(* The ACK's bytes, pinned against the generic encoder: every sender of
   an ACK (the receiver's fresh and re-ACKs, [Multi]'s re-ACK of a
   closed epoch, and [reannounce] over a live epoch's receiver and a
   closed epoch's ledger) must put exactly these bytes on the wire,
   whatever shortcut it takes to build them. *)
let ack_ids = [ 0; 1; 0xFFFF_FFFF ]

let expected_ack ~conn_id ~t_id =
  let ack =
    Util.ok_or_fail
      (Labelling.Chunk.control ~kind:Labelling.Ctype.ack
         ~c:(Labelling.Ftuple.v ~id:conn_id ~sn:0 ())
         ~t:(Labelling.Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Labelling.Ftuple.zero (Bytes.make 4 '\000'))
  in
  Util.ok_or_fail (Labelling.Wire.encode_packet [ ack ])

(* The records of connection [conn] with [ack_ids] in its ledger, and
   an empty live epoch if [live]. *)
let ledgered ~live conn =
  Transport.Persist.Ledger { conn; tids = [ (0, 2); (0xFFFF_FFFF, 1) ] }
  :: (if live then [ Transport.Persist.Opened { conn; open_csn = None } ] else [])

let test_ack_bytes_pinned () =
  let module CT = Transport.Chunk_transport in
  let module M = Transport.Multi in
  let check_acks what ~conn_id got =
    Alcotest.(check (list Util.bytes_testable))
      what
      (List.map (fun t_id -> expected_ack ~conn_id ~t_id) ack_ids)
      (List.rev got)
  in
  List.iter
    (fun conn_id ->
      List.iter
        (fun t_id ->
          Alcotest.check Util.bytes_testable
            (Printf.sprintf "ack_packet %d %d" conn_id t_id)
            (expected_ack ~conn_id ~t_id)
            (CT.ack_packet ~conn_id ~t_id))
        ack_ids;
      (* Multi's reannounce, over a live epoch (its receiver's) and a
         closed one *)
      List.iter
        (fun live ->
          let sent = ref [] in
          let m =
            M.restore
              (Netsim.Engine.create ~seed:1 ())
              ~config:CT.default_config ~quota_elems:16 ~max_conns:4
              ~send_ack:(fun b -> sent := b :: !sent)
              (ledgered ~live conn_id)
          in
          M.reannounce m;
          check_acks
            (Printf.sprintf "Multi.reannounce (live %b)" live)
            ~conn_id !sent;
          if not live then begin
            (* late data for a ledgered T.ID of a closed epoch is
               re-acknowledged *)
            sent := [];
            let m =
              M.restore
                (Netsim.Engine.create ~seed:1 ())
                ~config:CT.default_config ~quota_elems:16 ~max_conns:4
                ~send_ack:(fun b -> sent := b :: !sent)
                (ledgered ~live:false conn_id)
            in
            List.iter
              (fun t_id ->
                let h =
                  Util.ok_or_fail
                    (Labelling.Header.v ~ctype:Labelling.Ctype.data ~size:4
                       ~len:1
                       ~c:(Labelling.Ftuple.v ~id:conn_id ~sn:0 ())
                       ~t:(Labelling.Ftuple.v ~id:t_id ~sn:0 ())
                       ~x:Labelling.Ftuple.zero)
                in
                let c = Util.ok_or_fail (Labelling.Chunk.make h (Bytes.make 4 'd')) in
                M.ingest m (Util.ok_or_fail (Labelling.Wire.encode_packet [ c ])))
              ack_ids;
            check_acks "Multi re-ACK of a closed epoch" ~conn_id !sent
          end)
        [ true; false ])
    ack_ids;
  List.iter
    (fun (conn_id, t_id) ->
      match CT.ack_packet ~conn_id ~t_id with
      | _ -> Alcotest.failf "ack_packet %d %d accepted" conn_id t_id
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, -1); (0x1_0000_0000, 0); (0, 0x1_0000_0000) ]

let suite =
  suite
  @ [
      Alcotest.test_case "transfer through refragmenting gateways" `Quick
        test_through_gateways;
      Alcotest.test_case "gateway method 1 transparency" `Quick
        test_gateway_method1;
    ]

let test_sack_selective_retransmission () =
  let data = Util.deterministic_bytes 120_000 in
  let base =
    { Transport.Chunk_transport.default_config with
      Transport.Chunk_transport.tpdu_elems = 2048 }
  in
  let plain =
    Transport.Transfer.run ~seed:91 ~loss:0.05 ~rate_bps:20e6 ~data
      ~config:base ()
  in
  let sack =
    Transport.Transfer.run ~seed:91 ~loss:0.05 ~rate_bps:20e6 ~data
      ~config:{ base with Transport.Chunk_transport.sack = true } ()
  in
  Alcotest.(check bool) "plain ok" true plain.Transport.Transfer.ok;
  Alcotest.(check bool) "sack ok" true sack.Transport.Transfer.ok;
  Alcotest.(check bool) "sack used selective retransmissions" true
    (sack.sack_retransmissions > 0);
  (* gap-only repair must cut full-TPDU retransmissions *)
  Alcotest.(check bool) "fewer full retransmissions" true
    (sack.retransmissions < plain.retransmissions);
  (* and it must not inflate the wire *)
  Alcotest.(check bool) "no wire inflation" true
    (sack.wire_bytes < plain.wire_bytes)

let test_fragment_extract () =
  let c = Labelling.Ftuple.v ~id:1 ~sn:100 () in
  let t = Labelling.Ftuple.v ~st:true ~id:2 ~sn:10 () in
  let x = Labelling.Ftuple.v ~st:true ~id:3 ~sn:0 () in
  let chunk =
    Util.ok_or_fail
      (Labelling.Chunk.data ~size:4 ~c ~t ~x (Util.deterministic_bytes 40))
  in
  (* middle run *)
  let piece =
    Util.ok_or_fail (Labelling.Fragment.extract chunk ~t_sn:13 ~elems:3)
  in
  let h = piece.Labelling.Chunk.header in
  Alcotest.(check int) "t.sn" 13 h.Labelling.Header.t.Labelling.Ftuple.sn;
  Alcotest.(check int) "c.sn advanced" 103
    h.Labelling.Header.c.Labelling.Ftuple.sn;
  Alcotest.(check int) "len" 3 h.Labelling.Header.len;
  Alcotest.(check bool) "st cleared mid-run" false
    h.Labelling.Header.t.Labelling.Ftuple.st;
  Alcotest.check Util.bytes_testable "payload slice"
    (Bytes.sub chunk.Labelling.Chunk.payload 12 12)
    piece.Labelling.Chunk.payload;
  (* suffix keeps ST *)
  let tail =
    Util.ok_or_fail (Labelling.Fragment.extract chunk ~t_sn:17 ~elems:3)
  in
  Alcotest.(check bool) "tail keeps ST" true
    tail.Labelling.Chunk.header.Labelling.Header.t.Labelling.Ftuple.st;
  (* out of range *)
  match Labelling.Fragment.extract chunk ~t_sn:18 ~elems:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "run beyond the chunk must fail"

let suite =
  suite
  @ [
      Alcotest.test_case "SACK selective retransmission" `Slow
        test_sack_selective_retransmission;
      Alcotest.test_case "Fragment.extract sub-runs" `Quick
        test_fragment_extract;
    ]

let test_duplication_hell () =
  (* loss + duplication + corruption + disorder all at once: the
     receiver's duplicate rejection (§3.3) must keep the incremental
     checksum and placement correct *)
  let data = Util.deterministic_bytes 80_000 in
  let o =
    Transport.Transfer.run ~seed:5150 ~loss:0.02 ~duplicate:0.15
      ~corrupt:0.01 ~data ()
  in
  Alcotest.(check bool) "intact under duplication" true
    o.Transport.Transfer.ok;
  Alcotest.(check bool) "duplicates were seen and dropped" true
    (o.verifier.Edc.Verifier.duplicates > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "loss+dup+corruption+disorder" `Quick
        test_duplication_hell;
    ]

let test_soak () =
  (* the everything-at-once soak: impairments, gateways, SACK, adaptive,
     several seeds — every combination must deliver intact data *)
  let data = Util.deterministic_bytes 30_000 in
  List.iter
    (fun seed ->
      let config =
        { Transport.Chunk_transport.default_config with
          Transport.Chunk_transport.sack = seed mod 2 = 0;
          adaptive = seed mod 3 = 0;
          tpdu_elems = 256 + (97 * (seed mod 5)) }
      in
      let gateways =
        if seed mod 2 = 0 then [ (Labelling.Repack.Combine, 700) ] else []
      in
      let o =
        Transport.Transfer.run ~seed ~config ~loss:0.02 ~corrupt:0.005
          ~duplicate:0.05 ~gateways ~data ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "soak seed %d intact" seed)
        true o.Transport.Transfer.ok)
    [ 11; 12; 13; 14; 15; 16 ]

module CT = Transport.Chunk_transport
module TR = Transport.Transfer

let test_give_up_releases_state () =
  (* dead reverse path: no ACK ever returns, the sender backs off and
     abandons every TPDU after [give_up_txs] transmissions, signalling
     Abort_tpdu on the forward path.  Regression for the give-up leak:
     the receiver must evict the abandoned TPDUs' verifier state and
     corroboration stash on the abort — nothing may wait for the
     deadline sweep, and nothing may survive it. *)
  let engine = Netsim.Engine.create ~seed:41 () in
  let config =
    { CT.default_config with
      CT.rto = 0.02;
      give_up_txs = 4;
      (* TTL far beyond the give-up horizon so only the abort path can
         explain a clean receiver *)
      state_ttl = 3600.0 }
  in
  let small = Util.deterministic_bytes 6000 in
  (* the forward path loses every ED-bearing packet: no TPDU can ever
     verify, so the receiver accumulates exactly the partial state
     (verifier spans, uncorroborated stash) the abort must reclaim;
     signal chunks (the aborts) always get through *)
  let drops_ed b =
    match Labelling.Wire.decode_packet b with
    | Error _ -> false
    | Ok chunks ->
        List.exists
          (fun ch ->
            Labelling.Ctype.equal ch.Labelling.Chunk.header.Labelling.Header.ctype
              Labelling.Ctype.ed)
          chunks
  in
  let w =
    TR.connect engine config
      ~quota_elems:(CT.expected_elements config ~data_len:(Bytes.length small))
      ~forward:(fun deliver b ->
        if not (drops_ed b) then
          Netsim.Engine.schedule engine ~delay:1e-4 (fun () -> deliver b))
      ~reverse:(fun _ _ -> ())
      (`Data small)
  in
  let m = TR.endpoint w and tx = TR.sender w in
  (* run to the give-up and the aborts' arrival, far inside the TTL *)
  TR.finish w;
  Netsim.Engine.run ~until:(Netsim.Engine.now engine +. 1.0) engine;
  let counts = Transport.Multi.counters m in
  Alcotest.(check bool) "sender gave up" true (CT.Sender.gave_up tx);
  Alcotest.(check bool) "aborts signalled" true (CT.Sender.aborts_sent tx > 0);
  Alcotest.(check bool) "aborts received" true (counts.aborts_received > 0);
  Alcotest.(check int) "the epoch is still live" 1
    (Transport.Multi.live_conns m);
  Alcotest.(check int) "no verifier state leaked" 0
    (Transport.Multi.live_in_flight m);
  Alcotest.(check int) "no stash leaked" 0 (Transport.Multi.live_stashed m);
  (* the abort did the reclaiming — not the deadline sweep (which would
     count deadline evictions) *)
  Alcotest.(check int) "no deadline evictions needed" 0 counts.evictions

let prop_karn (seed, loss_pct) =
  (* Karn's rule: whatever the loss pattern does to retransmission,
     no RTT sample may ever come from a TPDU transmitted more than
     once — with identical-label retransmission its ACK is inherently
     ambiguous. *)
  let loss = float_of_int loss_pct /. 100.0 in
  let config =
    { CT.default_config with
      CT.rto_adaptive = true;
      rto = 0.1;
      window = 4;
      give_up_txs = 200 }
  in
  let o =
    TR.run ~seed ~loss ~config ~data:(Util.deterministic_bytes 12_000) ()
  in
  o.TR.max_txs_at_rtt_sample <= 1
  && (o.TR.ok || loss > 0.0)
  && o.TR.final_rto <= config.CT.rto +. 1e-9

let test_adaptive_rto_beats_fixed () =
  (* at 20% loss a conservative fixed RTO pays a full overestimated
     timeout per loss; the Jacobson/Karn estimator converges on the
     path RTT and repairs at round-trip scale *)
  let base =
    { CT.default_config with CT.rto = 0.25; window = 4; state_ttl = 0.25 }
  in
  let data = Util.deterministic_bytes 60_000 in
  let fixed = TR.run ~seed:7 ~loss:0.2 ~config:base ~data () in
  let adaptive =
    TR.run ~seed:7 ~loss:0.2
      ~config:{ base with CT.rto_adaptive = true }
      ~data ()
  in
  Alcotest.(check bool) "fixed ok" true fixed.TR.ok;
  Alcotest.(check bool) "adaptive ok" true adaptive.TR.ok;
  Alcotest.(check bool) "estimator took samples" true
    (adaptive.TR.rtt_samples > 0);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive faster (%.3fs vs %.3fs)" adaptive.TR.sim_time
       fixed.TR.sim_time)
    true
    (adaptive.TR.sim_time < fixed.TR.sim_time)

let suite =
  suite
  @ [
      Alcotest.test_case "soak: all impairments, many configs" `Slow test_soak;
      Alcotest.test_case "give-up releases all receiver state" `Quick
        test_give_up_releases_state;
      Alcotest.test_case "ACK bytes equal the generic encoder's" `Quick
        test_ack_bytes_pinned;
      Util.qtest ~count:30 "Karn's rule under random loss"
        QCheck2.Gen.(tup2 (int_range 0 1_000_000) (int_range 0 30))
        prop_karn;
      Alcotest.test_case "adaptive RTO beats fixed at 20% loss" `Slow
        test_adaptive_rto_beats_fixed;
      Alcotest.test_case "a finished transfer's memo counts reach the registry"
        `Quick test_transfer_counts_memo;
    Alcotest.test_case "a report names each tally field once" `Quick
      test_tally_report;
    ]
