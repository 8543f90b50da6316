(* Connection signalling and the multi-connection endpoint. *)

open Labelling

let data_chunk () =
  let c = Ftuple.v ~id:7 ~sn:0 () in
  Util.ok_or_fail (Chunk.data ~size:4 ~c ~t:c ~x:c (Bytes.create 8))

let test_signal_roundtrip () =
  List.iter
    (fun signal ->
      let chunk = Connection.signal_chunk ~conn_id:42 signal in
      match Connection.parse_signal chunk with
      | Ok (42, s) ->
          Alcotest.(check bool) "same signal" true (s = signal)
      | Ok (id, _) -> Alcotest.failf "wrong conn id %d" id
      | Error e -> Alcotest.fail e)
    [ Connection.Open { first_csn = 1000 };
      Connection.Close;
      Connection.Resync { c_sn = 77 } ]

(* A signal must prove its own integrity: unlike data, whose damage the
   TPDU-level EDC catches end-to-end, a damaged Open would establish an
   epoch under a forged first C.SN with no later check to fail. *)
let test_signal_parity_rejects_damage () =
  let chunk =
    Connection.signal_chunk ~conn_id:42 (Connection.Open { first_csn = 1000 })
  in
  for i = 0 to Bytes.length chunk.Chunk.payload - 1 do
    let damaged = Bytes.copy chunk.Chunk.payload in
    Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor 0x10);
    let forged = Util.ok_or_fail (Chunk.make chunk.Chunk.header damaged) in
    match Connection.parse_signal forged with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flipped bit at payload byte %d went undetected" i
  done

(* The payload parity covers no header field, so a signal must carry
   exactly the labels [signal_chunk] writes: any flipped bit of its C.SN,
   T tuple or X tuple makes it some other chunk, never a signal. *)
let test_signal_refuses_damaged_labels () =
  let labels =
    List.filter
      (fun (f, _, _) ->
        match f with
        | Wire.Sn Wire.C | Wire.Id Wire.T | Wire.Sn Wire.T | Wire.St Wire.T
        | Wire.Id Wire.X | Wire.Sn Wire.X | Wire.St Wire.X ->
            true
        | _ -> false)
      Wire.layout
  in
  List.iter
    (fun signal ->
      let buf = Buffer.create 128 in
      Wire.encode_chunk buf (Connection.signal_chunk ~conn_id:42 signal);
      let image = Buffer.to_bytes buf in
      List.iter
        (fun (_, off, width) ->
          for bit = 0 to (8 * width) - 1 do
            let b = Bytes.copy image in
            let i = off + (bit / 8) in
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)));
            match Wire.decode_chunk b 0 with
            | Error _ -> ()
            | Ok (chunk, _) -> (
                match Connection.parse_signal chunk with
                | Error _ -> ()
                | Ok _ ->
                    Alcotest.failf "bit %d of header byte %d went undetected"
                      (bit mod 8) i)
          done)
        labels)
    [ Connection.Open { first_csn = 1000 };
      Connection.Close;
      Connection.Resync { c_sn = 77 };
      Connection.Abort_tpdu { t_id = 5 };
      Connection.Shed_tpdu { t_id = 6; first_elem = 48; elems = 16 } ]

let test_connection_lifecycle () =
  let tbl = Connection.create () in
  let data = data_chunk () in
  (* data before establishment is rejected *)
  (match Connection.on_chunk tbl data with
  | `Unknown_connection 7 -> ()
  | _ -> Alcotest.fail "data before open must be unknown");
  (* open, then data flows *)
  (match
     Connection.on_chunk tbl
       (Connection.signal_chunk ~conn_id:7 (Connection.Open { first_csn = 0 }))
   with
  | `Signal (7, Connection.Open _) -> ()
  | _ -> Alcotest.fail "open signal");
  (match Connection.on_chunk tbl data with
  | `Data_for 7 -> ()
  | _ -> Alcotest.fail "data after open");
  Alcotest.(check (list int)) "established" [ 7 ] (Connection.established tbl);
  (* close, data rejected again *)
  (match
     Connection.on_chunk tbl (Connection.signal_chunk ~conn_id:7 Connection.Close)
   with
  | `Signal (7, Connection.Close) -> ()
  | _ -> Alcotest.fail "close signal");
  match Connection.on_chunk tbl data with
  | `Unknown_connection 7 -> ()
  | _ -> Alcotest.fail "data after close must be rejected"

let test_inband_cst_closes () =
  let tbl = Connection.create () in
  ignore
    (Connection.on_chunk tbl
       (Connection.signal_chunk ~conn_id:9 (Connection.Open { first_csn = 5 })));
  let c = Ftuple.v ~st:true ~id:9 ~sn:5 () in
  let final =
    Util.ok_or_fail
      (Chunk.data ~size:4 ~c
         ~t:(Ftuple.v ~st:true ~id:0 ~sn:0 ())
         ~x:(Ftuple.v ~st:true ~id:0 ~sn:0 ())
         (Bytes.create 4))
  in
  (match Connection.on_chunk tbl final with
  | `Data_for 9 -> ()
  | _ -> Alcotest.fail "final data accepted");
  match Connection.state tbl ~conn_id:9 with
  | Some Connection.Closed -> ()
  | _ -> Alcotest.fail "C.ST must close the connection"

(* --- Multi-connection transport lifecycle ------------------------- *)

module CT = Transport.Chunk_transport

let multi_config =
  { CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 64;
    frame_bytes = 256;
    rto = 0.05;
    state_ttl = 2.0 }

(* A Multi receiver wired to per-connection senders over zero-loss
   direct delivery (small latency so the event loop interleaves). *)
type rig = {
  engine : Netsim.Engine.t;
  multi : Transport.Multi.t;
  senders : (int, CT.Sender.t) Hashtbl.t;
}

let make_rig ?(quota_elems = 1024) ?anomaly_budget () =
  let engine = Netsim.Engine.create ~seed:19 () in
  let senders = Hashtbl.create 4 in
  let multi = ref None in
  let m =
    Transport.Multi.create engine ~config:multi_config ~quota_elems
      ~max_conns:8 ?anomaly_budget
      ~send_ack:(fun b ->
        Netsim.Engine.schedule engine ~delay:1e-4 (fun () ->
            CT.Sender.demux (Hashtbl.find_opt senders) b))
      ()
  in
  multi := Some m;
  { engine; multi = m; senders }

let to_multi rig b =
  Netsim.Engine.schedule rig.engine ~delay:1e-4 (fun () ->
      Transport.Multi.ingest rig.multi b)

let start_transfer rig ~conn ~epoch data =
  let tx =
    CT.Sender.create rig.engine
      { multi_config with CT.conn_id = conn }
      ~first_tid:(epoch * 100_000) ~announce_open:true
      ~send:(to_multi rig) ~data ()
  in
  Hashtbl.replace rig.senders conn tx;
  CT.Sender.start tx;
  tx

let send_signal rig ~conn signal =
  match Wire.encode_packet [ Connection.signal_chunk ~conn_id:conn signal ] with
  | Ok b -> to_multi rig b
  | Error e -> Alcotest.fail e

let check_epoch rig ~conn ~epoch ~complete data =
  match List.nth_opt (Transport.Multi.epochs rig.multi ~conn_id:conn) epoch with
  | None -> Alcotest.failf "conn %d epoch %d missing" conn epoch
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d epoch %d complete" conn epoch)
        complete r.Transport.Multi.complete;
      let n = Bytes.length data in
      Alcotest.(check bool)
        (Printf.sprintf "conn %d epoch %d intact" conn epoch)
        true
        (Bytes.length r.Transport.Multi.delivered >= n
        && Bytes.equal (Bytes.sub r.Transport.Multi.delivered 0 n) data)

let test_multi_close_reopen () =
  (* full round trip: Open (piggybacked) -> transfer -> explicit Close
     -> re-establishment under the SAME C.ID with a disjoint T.ID space
     -> second transfer -> Close.  The first epoch's archive must
     survive the reuse untouched. *)
  let rig = make_rig () in
  let d0 = Util.deterministic_bytes 3000 in
  let tx0 = start_transfer rig ~conn:5 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 sender done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:5 Connection.Close;
  Netsim.Engine.run rig.engine;
  Alcotest.(check int) "closed: no live conns" 0
    (Transport.Multi.live_conns rig.multi);
  (* same C.ID, fresh epoch, different data *)
  let d1 = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5A)) d0 in
  let tx1 = start_transfer rig ~conn:5 ~epoch:1 d1 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 1 sender done" true (CT.Sender.finished tx1);
  send_signal rig ~conn:5 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:5 ~epoch:0 ~complete:true d0;
  check_epoch rig ~conn:5 ~epoch:1 ~complete:true d1;
  Alcotest.(check int) "all closed" 0 (Transport.Multi.live_conns rig.multi)

let test_multi_resync_harmless () =
  (* a Resync signal mid-stream must not disturb delivery (the receiver
     places by absolute C.SN; resynchronisation is a no-op for it) *)
  let rig = make_rig () in
  let d = Util.deterministic_bytes 2000 in
  let tx = start_transfer rig ~conn:3 ~epoch:0 d in
  Netsim.Engine.schedule rig.engine ~delay:1e-3 (fun () ->
      send_signal rig ~conn:3 (Connection.Resync { c_sn = 123 }));
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "sender done" true (CT.Sender.finished tx);
  send_signal rig ~conn:3 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:3 ~epoch:0 ~complete:true d

let test_multi_quarantine_trips_and_releases () =
  (* Open/Close churn is the scored anomaly: each explicit
     re-establishment adds weight, and a small budget boxes the
     connection; while boxed every event from it is refused.  After the
     penalty expires the connection is re-admitted and a real transfer
     completes — quarantine is containment, not a death sentence. *)
  let rig = make_rig ~anomaly_budget:8 () in
  let d0 = Util.deterministic_bytes 1500 in
  let tx0 = start_transfer rig ~conn:4 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:4 Connection.Close;
  Netsim.Engine.run rig.engine;
  (* churn: two more explicit re-establishments exhaust the budget.
     Run the engine only a few ms forward — a full drain would advance
     simulated time past the penalty window before we can look at it *)
  let t0 = Netsim.Engine.now rig.engine in
  send_signal rig ~conn:4 (Connection.Open { first_csn = 100_000 });
  send_signal rig ~conn:4 Connection.Close;
  send_signal rig ~conn:4 (Connection.Open { first_csn = 200_000 });
  Netsim.Engine.run ~until:(t0 +. 0.01) rig.engine;
  Alcotest.(check int) "churn tripped one quarantine" 1
    (Transport.Multi.counters rig.multi).quarantines;
  (match Transport.Multi.conn_stats rig.multi ~conn_id:4 with
  | None -> Alcotest.fail "conn 4 unknown"
  | Some cs ->
      Alcotest.(check bool) "conn 4 boxed" true
        cs.Transport.Multi.cs_quarantined;
      Alcotest.(check int) "one quarantine on record" 1
        cs.Transport.Multi.cs_quarantines;
      Alcotest.(check bool) "not poisoned" false
        cs.Transport.Multi.cs_poisoned);
  (* while boxed, everything from the connection is refused *)
  let drops0 = (Transport.Multi.counters rig.multi).quarantine_drops in
  let epochs0 = List.length (Transport.Multi.epochs rig.multi ~conn_id:4) in
  send_signal rig ~conn:4 (Connection.Open { first_csn = 300_000 });
  Netsim.Engine.run ~until:(t0 +. 0.02) rig.engine;
  Alcotest.(check bool) "boxed Open refused" true
    ((Transport.Multi.counters rig.multi).quarantine_drops > drops0);
  Alcotest.(check int) "refused Open made no epoch" epochs0
    (List.length (Transport.Multi.epochs rig.multi ~conn_id:4));
  (* after the penalty window, the connection earns its way back *)
  Netsim.Engine.schedule rig.engine ~delay:0.4 (fun () -> ());
  Netsim.Engine.run rig.engine;
  let d1 = Util.deterministic_bytes 1500 in
  let tx1 = start_transfer rig ~conn:4 ~epoch:9 d1 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "re-admitted transfer completes" true
    (CT.Sender.finished tx1);
  Alcotest.(check int) "no second quarantine" 1
    (Transport.Multi.counters rig.multi).quarantines

let test_multi_quarantine_survives_restore () =
  (* the penalty box is part of the crash image (persist v2): a boxed
     connection restored from a snapshot is still boxed, with its
     quarantine count intact — a crash must not amnesty an attacker *)
  let rig = make_rig ~anomaly_budget:8 () in
  let d0 = Util.deterministic_bytes 1200 in
  let tx0 = start_transfer rig ~conn:6 ~epoch:0 d0 in
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "epoch 0 done" true (CT.Sender.finished tx0);
  send_signal rig ~conn:6 Connection.Close;
  send_signal rig ~conn:6 (Connection.Open { first_csn = 100_000 });
  send_signal rig ~conn:6 Connection.Close;
  send_signal rig ~conn:6 (Connection.Open { first_csn = 200_000 });
  Netsim.Engine.run rig.engine;
  Alcotest.(check int) "boxed before the crash" 1
    (Transport.Multi.counters rig.multi).quarantines;
  let module P = Transport.Persist in
  let encoded = P.encode_endpoint (P.Multi (Transport.Multi.export rig.multi)) in
  Transport.Multi.teardown rig.multi;
  let engine = Netsim.Engine.create ~seed:20 () in
  let m1 =
    match P.decode_endpoint encoded with
    | Error e -> Alcotest.fail e
    | Ok (P.Multi events) ->
        Transport.Multi.restore engine ~config:multi_config ~quota_elems:1024
          ~max_conns:8 ~anomaly_budget:8
          ~send_ack:(fun _ -> ())
          events
  in
  (match Transport.Multi.conn_stats m1 ~conn_id:6 with
  | None -> Alcotest.fail "conn 6 lost across restore"
  | Some cs ->
      Alcotest.(check bool) "still boxed after restore" true
        cs.Transport.Multi.cs_quarantined;
      Alcotest.(check int) "quarantine count restored" 1
        cs.Transport.Multi.cs_quarantines);
  (* and the restored box still refuses events *)
  let drops0 = (Transport.Multi.counters m1).quarantine_drops in
  let epochs0 = List.length (Transport.Multi.epochs m1 ~conn_id:6) in
  (match
     Wire.encode_packet
       [ Connection.signal_chunk ~conn_id:6 (Connection.Open { first_csn = 300_000 }) ]
   with
  | Ok b -> Transport.Multi.ingest m1 b
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "restored box refuses the Open" true
    ((Transport.Multi.counters m1).quarantine_drops > drops0);
  Alcotest.(check int) "refused Open made no epoch" epochs0
    (List.length (Transport.Multi.epochs m1 ~conn_id:6))

let test_multi_abort_recovers () =
  (* a forged Abort_tpdu for an in-flight TPDU evicts its partial state;
     the sender (which never abandoned it) retransmits under the
     identical label and the transfer still completes intact *)
  let rig = make_rig () in
  let d = Util.deterministic_bytes 4000 in
  let tx = start_transfer rig ~conn:2 ~epoch:0 d in
  Netsim.Engine.schedule rig.engine ~delay:2e-4 (fun () ->
      send_signal rig ~conn:2 (Connection.Abort_tpdu { t_id = 0 }));
  Netsim.Engine.run rig.engine;
  Alcotest.(check bool) "sender done despite forged abort" true
    (CT.Sender.finished tx);
  send_signal rig ~conn:2 Connection.Close;
  Netsim.Engine.run rig.engine;
  check_epoch rig ~conn:2 ~epoch:0 ~complete:true d

let test_multi_concurrent_conns () =
  (* several connections interleaved through one receiver endpoint *)
  let rig = make_rig () in
  let datas =
    List.map
      (fun conn ->
        ( conn,
          Bytes.map
            (fun c -> Char.chr (Char.code c lxor (conn * 37)))
            (Util.deterministic_bytes (1500 + (conn * 700))) ))
      [ 1; 2; 3 ]
  in
  let txs =
    List.map
      (fun (conn, d) -> (conn, start_transfer rig ~conn ~epoch:0 d))
      datas
  in
  Netsim.Engine.run rig.engine;
  List.iter
    (fun (conn, tx) ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d done" conn)
        true (CT.Sender.finished tx))
    txs;
  List.iter (fun (conn, _) -> send_signal rig ~conn Connection.Close) datas;
  Netsim.Engine.run rig.engine;
  List.iter
    (fun (conn, d) -> check_epoch rig ~conn ~epoch:0 ~complete:true d)
    datas;
  Alcotest.(check int) "all closed" 0 (Transport.Multi.live_conns rig.multi)

(* --- endpoint counter totals ----------------------------------------- *)

(* One scripted endpoint life, fed packet by packet, with every count
   the endpoint keeps pinned at three points: after an epoch archive, a
   governor eviction and a connection GC; after a displacement, a
   quarantine and a poisoning; and on the endpoint a crash restore
   builds from the image. *)

let counted_config =
  { CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 16;
    rto = 0.05;
    nack_delay = 0.01;
    state_ttl = 2.0;
    classify =
      (fun t_id ->
        if t_id = 2 || t_id = 3 then Significance.Sheddable 1
        else Significance.Normal) }

(* Four sealed TPDUs (T.IDs 0..3, 16 elements each) of one connection:
   each TPDU's data chunks and its ED chunk. *)
let counted_tpdus ~conn =
  let framer = Framer.create ~elem_size:4 ~tpdu_elems:16 ~conn_id:conn () in
  let chunks =
    Util.ok_or_fail
      (Framer.push_frame ~last:true framer (Util.deterministic_bytes 256))
  in
  let sealed = Util.ok_or_fail (Edc.Encoder.seal_tpdus chunks) in
  fun t_id ->
    let mine =
      List.filter
        (fun c -> c.Chunk.header.Header.t.Ftuple.id = t_id)
        sealed
    in
    List.partition Chunk.is_data mine

(* A lone data chunk under an arbitrary label. *)
let stray ~conn ~t_id =
  Util.ok_or_fail
    (Chunk.data ~size:4
       ~c:(Ftuple.v ~id:conn ~sn:0 ())
       ~t:(Ftuple.v ~id:t_id ~sn:0 ())
       ~x:Ftuple.zero (Bytes.make 16 'x'))

let endpoint_totals m =
  let c = Transport.Multi.counters m in
  [
    ("reacks", c.reacks_sent);
    ("aborts", c.aborts_received);
    ("sheds", c.sheds_received);
    ("shed_elems", c.shed_elems);
    ("sheds_refused", c.sheds_refused);
    ("evictions", c.evictions);
    ("conn_gcs", c.conn_gcs);
    ("displaced", c.displaced_conns);
    ("unknown_drops", c.unknown_drops);
    ("late_drops", c.late_drops);
    ("quarantine_drops", c.quarantine_drops);
    ("anomalies", c.anomalies);
    ("sig_damage", c.sig_damage);
    ("quarantines", c.quarantines);
    ("poisoned", c.conns_poisoned);
  ]

let test_multi_counter_totals () =
  let module M = Transport.Multi in
  let engine = Netsim.Engine.create ~seed:27 () in
  let m =
    M.create engine ~config:counted_config ~quota_elems:64 ~max_conns:2
      ~anomaly_budget:8 ~send_ack:(fun _ -> ()) ()
  in
  let packet chunks = Util.ok_or_fail (Wire.encode_packet chunks) in
  let feed chunks = M.ingest m (packet chunks) in
  let signal conn sg = feed [ Connection.signal_chunk ~conn_id:conn sg ] in
  let at t f =
    Netsim.Engine.schedule engine ~delay:(t -. Netsim.Engine.now engine) f
  in
  let tpdu = counted_tpdus ~conn:1 in
  let data t = fst (tpdu t) and whole t = fst (tpdu t) @ snd (tpdu t) in
  let pin what expected got =
    Alcotest.(check (list (pair string int))) what expected got
  in
  (* conn 1, live epoch: TPDU 0 verifies, TPDU 1 (Normal) and TPDU 3
     (Sheddable) hold partial state *)
  signal 1 (Connection.Open { first_csn = 0 });
  feed (whole 0);
  feed (data 1);
  feed (data 3);
  signal 1 (Connection.Abort_tpdu { t_id = 1 });
  signal 1 (Connection.Shed_tpdu { t_id = 2; first_elem = 32; elems = 16 });
  signal 1 (Connection.Shed_tpdu { t_id = 1; first_elem = 16; elems = 16 });
  (* a live re-ACK, and a second one after the throttle that also keeps
     the connection fresh while TPDU 3's state goes stale *)
  feed (data 0);
  at 1.5 (fun () -> feed (data 0));
  Netsim.Engine.run ~until:2.5 engine;
  Alcotest.(check int) "conn 1 still live" 1 (M.live_conns m);
  (* idle past its deadline, but TPDU 0 verified and the epoch is
     incomplete: the record is held while the sender may still be
     retransmitting (give_up_txs x 8 RTOs = 16 s since 1.5) *)
  Netsim.Engine.run ~until:10.0 engine;
  Alcotest.(check int) "conn 1 held within its sender's horizon" 1
    (M.live_conns m);
  (* past the horizon the connection is stale: GC archives its epoch *)
  Netsim.Engine.run ~until:30.0 engine;
  Alcotest.(check int) "conn 1 GCed" 0 (M.live_conns m);
  (* closed epoch: a ledgered straggler is re-ACKed, an unledgered one
     is a late drop; a never-opened C.ID is an unknown drop *)
  feed (data 0);
  feed [ stray ~conn:1 ~t_id:77 ];
  feed [ stray ~conn:50 ~t_id:0 ];
  pin "after archive, eviction and GC"
    [
      ("reacks", 3); ("aborts", 1); ("sheds", 1); ("shed_elems", 16);
      ("sheds_refused", 1); ("evictions", 1); ("conn_gcs", 1);
      ("displaced", 0); ("unknown_drops", 1); ("late_drops", 1);
      ("quarantine_drops", 0); ("anomalies", 2); ("sig_damage", 0);
      ("quarantines", 0); ("poisoned", 0);
    ]
    (endpoint_totals m);
  (* two live connections fill the cap; a third displaces the stalest *)
  signal 2 (Connection.Open { first_csn = 0 });
  signal 3 (Connection.Open { first_csn = 0 });
  signal 4 (Connection.Open { first_csn = 0 });
  (* conn 3 churns through fresh Opens until its score trips the box;
     everything it sends while boxed is refused *)
  signal 3 (Connection.Open { first_csn = 100 });
  signal 3 (Connection.Open { first_csn = 200 });
  signal 3 (Connection.Open { first_csn = 300 });
  (* a parity-damaged signal naming conn 4, then conn 4 poisoned *)
  (let sg = Connection.signal_chunk ~conn_id:4 Connection.Close in
   let payload = Bytes.copy sg.Chunk.payload in
   Bytes.set_uint8 payload 0 (Bytes.get_uint8 payload 0 lxor 0x10);
   feed [ Util.ok_or_fail (Chunk.make sg.Chunk.header payload) ]);
  M.poison m ~conn_id:4;
  let before =
    [
      ("reacks", 3); ("aborts", 1); ("sheds", 1); ("shed_elems", 16);
      ("sheds_refused", 1); ("evictions", 1); ("conn_gcs", 1);
      ("displaced", 1); ("unknown_drops", 1); ("late_drops", 1);
      ("quarantine_drops", 2); ("anomalies", 5); ("sig_damage", 1);
      ("quarantines", 1); ("poisoned", 1);
    ]
  in
  pin "after displacement, quarantine and poisoning" before (endpoint_totals m);
  (* crash: the restored endpoint counts from zero; re-entering service
     re-ACKs conn 1's ledger *)
  let image = M.export m in
  M.teardown m;
  let engine' = Netsim.Engine.create ~seed:28 () in
  let m' =
    M.restore engine' ~config:counted_config ~quota_elems:64 ~max_conns:2
      ~anomaly_budget:8 ~send_ack:(fun _ -> ()) image
  in
  M.reannounce m';
  M.ingest m' (packet [ stray ~conn:50 ~t_id:0 ]);
  pin "restored endpoint"
    [
      ("reacks", 1); ("aborts", 0); ("sheds", 0); ("shed_elems", 0);
      ("sheds_refused", 0); ("evictions", 0); ("conn_gcs", 0);
      ("displaced", 0); ("unknown_drops", 1); ("late_drops", 0);
      ("quarantine_drops", 0); ("anomalies", 0); ("sig_damage", 0);
      ("quarantines", 0); ("poisoned", 0);
    ]
    (endpoint_totals m');
  pin "the dead endpoint's totals stand" before (endpoint_totals m)

(* Each re-ACK the endpoint sends moves its [reacks_sent] counter by
   one: a live epoch's, a closed epoch's (throttled like the live
   one's) and those a restored endpoint sends on re-entry, for its
   closed connection too. *)
let test_multi_reack_counted_once () =
  let module M = Transport.Multi in
  let engine = Netsim.Engine.create ~seed:29 () in
  let m =
    M.create engine ~config:counted_config ~quota_elems:64 ~max_conns:4
      ~send_ack:(fun _ -> ()) ()
  in
  let feed chunks = M.ingest m (Util.ok_or_fail (Wire.encode_packet chunks)) in
  let signal conn sg = feed [ Connection.signal_chunk ~conn_id:conn sg ] in
  let moved what m n f =
    let c0 = (M.counters m).reacks_sent in
    f ();
    Alcotest.(check int) what n ((M.counters m).reacks_sent - c0)
  in
  let tpdu1 = counted_tpdus ~conn:1 and tpdu2 = counted_tpdus ~conn:2 in
  signal 1 (Connection.Open { first_csn = 0 });
  signal 2 (Connection.Open { first_csn = 0 });
  moved "fresh ACKs" m 0 (fun () ->
      feed (fst (tpdu1 0) @ snd (tpdu1 0));
      feed (fst (tpdu2 0) @ snd (tpdu2 0)));
  moved "live-epoch re-ACK" m 1 (fun () -> feed (fst (tpdu2 0)));
  signal 1 Connection.Close;
  moved "closed-epoch re-ACK, then throttled" m 1 (fun () ->
      feed (fst (tpdu1 0));
      feed (fst (tpdu1 0)));
  moved "closed-epoch re-ACK after the throttle" m 1 (fun () ->
      Netsim.Engine.schedule engine ~delay:0.02 (fun () -> feed (fst (tpdu1 0)));
      Netsim.Engine.run ~until:0.03 engine);
  let image = M.export m in
  M.teardown m;
  let m' =
    M.restore
      (Netsim.Engine.create ~seed:30 ())
      ~config:counted_config ~quota_elems:64 ~max_conns:4
      ~send_ack:(fun _ -> ()) image
  in
  moved "re-entry, one closed and one live ledger" m' 2 (fun () ->
      M.reannounce m')

let suite =
  [
    Alcotest.test_case "signal roundtrip" `Quick test_signal_roundtrip;
    Alcotest.test_case "signal parity rejects damage" `Quick
      test_signal_parity_rejects_damage;
    Alcotest.test_case "signal refuses damaged C.SN, T and X labels" `Quick
      test_signal_refuses_damaged_labels;
    Alcotest.test_case "connection lifecycle" `Quick test_connection_lifecycle;
    Alcotest.test_case "in-band C.ST closes" `Quick test_inband_cst_closes;
    Alcotest.test_case "multi: close then reopen reuses C.ID" `Quick
      test_multi_close_reopen;
    Alcotest.test_case "multi: resync mid-stream is harmless" `Quick
      test_multi_resync_harmless;
    Alcotest.test_case "multi: forged abort recovers by retransmission"
      `Quick test_multi_abort_recovers;
    Alcotest.test_case "multi: concurrent connections" `Quick
      test_multi_concurrent_conns;
    Alcotest.test_case "multi: churn quarantine trips and releases" `Quick
      test_multi_quarantine_trips_and_releases;
    Alcotest.test_case "multi: quarantine survives crash restore" `Quick
      test_multi_quarantine_survives_restore;
    Alcotest.test_case "multi: endpoint counter totals" `Quick
      test_multi_counter_totals;
    Alcotest.test_case "multi: each re-ACK counted once" `Quick
      test_multi_reack_counted_once;
  ]
