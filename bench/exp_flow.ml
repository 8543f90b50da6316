(* ROB-FLOW: the endpoint's one packet entry on a million-connection
   Zipf mix.

   The workload is the paper's high-fan-in receiver: a demultiplexer
   facing a C.ID space of 10^6 connections with Zipf-skewed traffic, a
   hot set of open connections and a cold tail of strangers.  The same
   pre-encoded packet sequence is fed to two identical [Multi]
   endpoints — one packet per [ingest] call, and 32 per [ingest_batch]
   call — and both scan every packet and feed every chunk through the
   one per-chunk dispatch, whose connection lookups go through a memo
   of the connection table.  The bench asserts:

   - delivery is byte-identical to per-packet [ingest] across every
     hot connection at every batch size timed (1, 8, 32 and 256);
   - the connection memo's hit rate on the skewed mix is >= 90%;
   - the isolated demux+parse stage (scan plus one memo probe per
     chunk) is >= 5x faster than decode-and-look-up.

   Tables sweep the hit rate over the Zipf exponent and the throughput
   over the ingest batch size. *)

open Labelling

let seed = 0xF10C

let section id title =
  Printf.printf "\n=== EXP %s === %s (seed %#x)\n" id title seed

let id_space = 1_000_000
let hot_conns = 8192
let ring_tpdus = 4
let tpdu_elems = 64
let elem_size = 32
let n_packets = 300_000

let config =
  { Transport.Chunk_transport.default_config with
    Transport.Chunk_transport.elem_size;
    tpdu_elems }

(* {2 Zipf sampling} — inverse CDF over the full ID space. *)

let zipf_cum ~alpha =
  let cum = Array.make id_space 0.0 in
  let total = ref 0.0 in
  for i = 0 to id_space - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) alpha);
    cum.(i) <- !total
  done;
  let t = !total in
  Array.map (fun c -> c /. t) cum;;

(* Conn IDs 1..id_space, rank = ID (rank-1 hottest). *)
let zipf_draw cum rng =
  let u = Netsim.Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (id_space - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

(* {2 Traffic} — per connection, a ring of pre-encoded one-TPDU packets
   (one data chunk plus its WSC-2 ED chunk); the stream walks the ring,
   so a long run re-offers verified TPDUs and exercises the
   duplicate/re-ACK paths identically on both endpoints. *)

let conn_ring conn =
  let fr = Framer.create ~elem_size ~tpdu_elems ~conn_id:conn () in
  Array.init ring_tpdus (fun k ->
      let data =
        Bytes.init (tpdu_elems * elem_size) (fun i ->
            Char.chr (((conn * 131) + (k * 17) + i) land 0xFF))
      in
      match Framer.push_frame fr data with
      | Error e -> failwith e
      | Ok chunks -> (
          match Edc.Encoder.seal_tpdus chunks with
          | Error e -> failwith e
          | Ok sealed -> (
              match Wire.encode_packet sealed with
              | Error e -> failwith e
              | Ok b -> b)))

let open_packet conn =
  match Wire.encode_packet [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = 0 }) ] with
  | Ok b -> b
  | Error e -> failwith e

(* The drawn packet sequence for one Zipf exponent: hot connections
   stream their rings; cold strangers replay their first TPDU (the
   endpoints drop them as unknown — establishment precedes data). *)
let build_stream ~alpha =
  let cum = zipf_cum ~alpha in
  let rng = Netsim.Rng.create ~seed in
  let rings = Hashtbl.create hot_conns in
  let cold = Hashtbl.create 256 in
  let next = Array.make (hot_conns + 1) 0 in
  Array.init n_packets (fun _ ->
      let conn = zipf_draw cum rng in
      if conn <= hot_conns then begin
        let ring =
          match Hashtbl.find_opt rings conn with
          | Some r -> r
          | None ->
              let r = conn_ring conn in
              Hashtbl.add rings conn r;
              r
        in
        let k = next.(conn) in
        next.(conn) <- k + 1;
        ring.(k mod ring_tpdus)
      end
      else
        match Hashtbl.find_opt cold conn with
        | Some b -> b
        | None ->
            let b = (conn_ring conn).(0) in
            Hashtbl.add cold conn b;
            b)

let mk_multi () =
  let engine = Netsim.Engine.create ~seed () in
  Transport.Multi.create engine ~config
    ~quota_elems:(ring_tpdus * tpdu_elems)
    ~max_conns:hot_conns
    ~send_ack:(fun _ -> ())
    ()

let opens = lazy (Array.init hot_conns (fun i -> open_packet (i + 1)))

let feed_opens f = Array.iter f (Lazy.force opens)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* {2 The isolated demux+parse stage} — a layered decode-then-demux
   receiver (full [decode_packet], a signalling-table
   [Connection.on_chunk] verdict, then a connection-map probe per chunk)
   against the structural scan plus one memo probe per chunk.  Best of
   five, both sides. *)

let demux_parse_ratio stream =
  let table = Connection.create () in
  let conns : (int, unit) Hashtbl.t = Hashtbl.create hot_conns in
  Array.iter
    (fun b ->
      match Wire.decode_packet b with
      | Ok chunks -> List.iter (fun c -> ignore (Connection.on_chunk table c)) chunks
      | Error _ -> ())
    (Lazy.force opens);
  for c = 1 to hot_conns do
    Hashtbl.replace conns c ()
  done;
  let l2 = Transport.Flowcache.create ~name:"bench" ~slots:16384 () in
  for c = 1 to hot_conns do
    Transport.Flowcache.insert l2 ~k1:c ~k2:0 ()
  done;
  let scan = Wire.Scan.create () in
  let sink = ref 0 in
  let slow () =
    Array.iter
      (fun b ->
        match Wire.decode_packet b with
        | Error _ -> ()
        | Ok chunks ->
            List.iter
              (fun c ->
                if not (Chunk.is_terminator c) then
                  match Connection.on_chunk table c with
                  | `Data_for cid | `Unknown_connection cid -> (
                      match Hashtbl.find_opt conns cid with
                      | Some () -> incr sink
                      | None -> ())
                  | `Signal _ | `Ignored -> ())
              chunks)
      stream
  in
  let fast () =
    Array.iter
      (fun b ->
        if Wire.Scan.packet scan b then
          for i = 0 to Wire.Scan.count scan - 1 do
            match
              Transport.Flowcache.find l2 ~k1:(Wire.Scan.c_id_at scan i) ~k2:0
            with
            | Some () -> incr sink
            | None -> ()
          done)
      stream
  in
  (* Interleaved best-of-5 with a warmup pass: machine noise then hits
     both sides alike, and the minimum discards GC and scheduler
     hiccups. *)
  slow ();
  fast ();
  Gc.compact ();
  let t_slow = ref infinity and t_fast = ref infinity in
  for _ = 1 to 5 do
    let (), dt = time slow in
    t_slow := Float.min !t_slow dt;
    let (), dt = time fast in
    t_fast := Float.min !t_fast dt
  done;
  ignore !sink;
  (!t_slow, !t_fast, !t_slow /. !t_fast)

(* Per-connection digest of everything the endpoint delivered.  The
   endpoints are compared by digest rather than side by side so each can
   be dropped before the next is measured: a retained endpoint is
   millions of live blocks, and on this heap-churn-heavy workload every
   major-GC slice of a later run would pay to mark it. *)
let delivered_digest m =
  Array.init hot_conns (fun i ->
      List.map
        (fun (e : Transport.Multi.epoch_report) ->
          (Digest.bytes e.Transport.Multi.delivered, e.Transport.Multi.complete))
        (Transport.Multi.epochs m ~conn_id:(i + 1)))

let batched stream batch f =
  let n = Array.length stream in
  let i = ref 0 in
  while !i < n do
    let k = min batch (n - !i) in
    f (Array.sub stream !i k);
    i := !i + k
  done

let record = Util_bench.Metrics.record ~exp:"ROB-FLOW"

let run () =
  section "ROB-FLOW"
    (Printf.sprintf
       "one packet entry: %d-ID Zipf mix, %d hot connections, %d packets"
       id_space hot_conns n_packets);

  (* Main comparison at alpha = 1.3: per-packet [ingest] against
     [ingest_batch] on batches of 32.  Each endpoint is digested and
     dropped before the next one runs, so nothing is kept live but the
     packet stream and the digests. *)
  let stream = build_stream ~alpha:1.3 in
  let run_endpoint feed =
    let m = mk_multi () in
    feed_opens (Transport.Multi.ingest m);
    feed m;
    let d = delivered_digest m in
    let fp = Transport.Multi.fastpath_stats m in
    Transport.Multi.teardown m;
    (d, fp)
  in
  let d_single, _ =
    run_endpoint (fun m -> Array.iter (Transport.Multi.ingest m) stream)
  in
  let d_batch, fp =
    run_endpoint (fun m -> batched stream 32 (Transport.Multi.ingest_batch m))
  in
  let hit = Transport.Flowcache.hit_rate fp.Transport.Multi.fp_conn in
  let pps t = float_of_int n_packets /. t in
  Printf.printf "  conn-memo hit rate %.4f  (hits %d  misses %d)\n" hit
    fp.Transport.Multi.fp_conn.Transport.Flowcache.s_hits
    fp.Transport.Multi.fp_conn.Transport.Flowcache.s_misses;
  record "conn hit rate @1.3" hit;

  (* Batching must not change what is delivered. *)
  assert (d_single = d_batch);
  Printf.printf
    "  delivery: ingest and ingest_batch(32) byte-identical across all %d \
     hot connections\n"
    hot_conns;
  assert (hit >= 0.9);

  (* The parse + demux lookup stage, isolated. *)
  let t_dp_slow, t_dp_fast, ratio = demux_parse_ratio stream in
  Printf.printf
    "  demux+parse  decode+table %8.0f pkt/s   scan+memo %8.0f pkt/s   \
     %.2fx\n"
    (pps t_dp_slow) (pps t_dp_fast) ratio;
  record "demux+parse slow pkt/s" (pps t_dp_slow);
  record "demux+parse fast pkt/s" (pps t_dp_fast);
  record "demux+parse speedup" ratio;
  assert (ratio >= 5.0);

  (* Hit rate vs skew: the memo earns its keep exactly where the
     workload concentrates. *)
  Printf.printf "  %-10s %-12s %-14s\n" "alpha" "hit rate" "fast pkt/s";
  List.iter
    (fun alpha ->
      let stream = build_stream ~alpha in
      let m = mk_multi () in
      let (), t =
        time (fun () ->
            feed_opens (Transport.Multi.ingest m);
            batched stream 32 (Transport.Multi.ingest_batch m))
      in
      let fp = Transport.Multi.fastpath_stats m in
      let hit = Transport.Flowcache.hit_rate fp.Transport.Multi.fp_conn in
      Printf.printf "  %-10.1f %-12.4f %-14.0f\n" alpha hit (pps t);
      let tag = Printf.sprintf "%.1f" alpha in
      record ("conn hit rate @" ^ tag) hit;
      record ("fast pkt/s @" ^ tag) (pps t))
    [ 0.9; 1.1; 1.3 ];

  (* Throughput vs batch size (alpha = 1.3 stream).  Batch boundaries
     decide which packets [ingest_batch] warms ahead, so delivery is
     checked against per-packet [ingest] at every size timed. *)
  Printf.printf "  %-10s %-14s\n" "batch" "fast pkt/s";
  List.iter
    (fun batch ->
      let m = mk_multi () in
      let (), t =
        time (fun () ->
            feed_opens (Transport.Multi.ingest m);
            batched stream batch (Transport.Multi.ingest_batch m))
      in
      assert (delivered_digest m = d_single);
      Transport.Multi.teardown m;
      Printf.printf "  %-10d %-14.0f\n" batch (pps t);
      record (Printf.sprintf "fast pkt/s @batch %d" batch) (pps t))
    [ 1; 8; 32; 256 ];
  Printf.printf
    "  delivery: ingest_batch at every batch size byte-identical to ingest\n"
