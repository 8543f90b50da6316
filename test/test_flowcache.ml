(* [Multi]'s connection-lookup memo and its packet entry: unit tests of
   the cache structure itself, fuzz agreement of the structural scanner
   with the decoder, properties pinning [Multi.ingest] to byte-identical
   delivery with a decoding reference under packet permutation, epoch
   reuse and crash-restore, and the add-only connection table the memo's
   coherence rests on. *)

open Labelling
module CT = Transport.Chunk_transport
module FC = Transport.Flowcache

(* --- the cache structure ------------------------------------------ *)

let test_cache_basics () =
  let c = FC.create ~name:"test-basics" ~slots:8 () in
  Alcotest.(check int) "slots rounded to a power of two" 8 (FC.slots c);
  Alcotest.(check bool) "empty cache misses" true (FC.find c ~k1:3 ~k2:9 = None);
  FC.insert c ~k1:3 ~k2:9 "v";
  Alcotest.(check (option string)) "hit after insert" (Some "v")
    (FC.find c ~k1:3 ~k2:9);
  Alcotest.(check bool) "other key still misses" true
    (FC.find c ~k1:3 ~k2:10 = None);
  let s = FC.stats c in
  Alcotest.(check int) "hits" 1 s.FC.s_hits;
  Alcotest.(check int) "misses" 2 s.FC.s_misses;
  Alcotest.(check int) "insertions" 1 s.FC.s_insertions;
  Alcotest.(check (float 1e-9)) "hit rate" (1.0 /. 3.0) (FC.hit_rate s)

let test_cache_eviction () =
  (* direct-mapped: some other key must land in key 1's slot; inserting
     it displaces the older entry and counts one eviction *)
  let c = FC.create ~name:"test-evict" ~slots:8 () in
  FC.insert c ~k1:1 ~k2:0 1;
  let rec displace k =
    if k > 10_000 then Alcotest.fail "no colliding key found"
    else begin
      FC.insert c ~k1:k ~k2:0 k;
      if FC.find c ~k1:1 ~k2:0 = None then k else displace (k + 1)
    end
  in
  let k = displace 2 in
  Alcotest.(check (option int)) "displacing key resident" (Some k)
    (FC.find c ~k1:k ~k2:0);
  Alcotest.(check bool) "eviction counted" true
    ((FC.stats c).FC.s_evictions >= 1)

(* The C.IDs a fresh endpoint hands out, 1..64, must not collide in the
   64-slot cache [Multi] sizes for 64 connections: every key survives
   the others' inserts and none displaces another. *)
let test_cache_sequential_ids_distinct () =
  let c = FC.create ~name:"test-seq" ~slots:64 () in
  for k = 1 to 64 do
    FC.insert c ~k1:k ~k2:0 k
  done;
  for k = 1 to 64 do
    Alcotest.(check (option int))
      (Printf.sprintf "C.ID %d resident" k)
      (Some k) (FC.find c ~k1:k ~k2:0)
  done;
  Alcotest.(check int) "no evictions" 0 (FC.stats c).FC.s_evictions;
  let one = FC.create ~name:"test-one" ~slots:1 () in
  FC.insert one ~k1:0x7FFF_FFFF ~k2:0xFFFF_FFFF ();
  Alcotest.(check bool) "a one-slot cache indexes in bounds" true
    (FC.find one ~k1:0x7FFF_FFFF ~k2:0xFFFF_FFFF = Some ())

let test_cache_negative_key_rejected () =
  let c = FC.create ~name:"test-neg" ~slots:4 () in
  Alcotest.check_raises "negative keys are reserved"
    (Invalid_argument "Flowcache.insert: keys are non-negative wire IDs")
    (fun () -> FC.insert c ~k1:(-1) ~k2:0 ())

(* --- stats algebra ------------------------------------------------ *)

(* Soak reports fold [add_stats] over arbitrarily many runs in whatever
   grouping the loop happens to use, so the fold must not care: the
   operation is associative and commutative with [zero_stats] as
   identity, and saturates at [max_int] instead of wrapping negative. *)
let gen_stats =
  QCheck2.Gen.(
    let field = oneof [ int_range 0 1000; return max_int; return (max_int / 2) ] in
    let* s_hits = field in
    let* s_misses = field in
    let* s_insertions = field in
    let* s_evictions = field in
    return { FC.s_hits; s_misses; s_insertions; s_evictions })

let stats_eq (a : FC.stats) (b : FC.stats) =
  a.FC.s_hits = b.FC.s_hits
  && a.FC.s_misses = b.FC.s_misses
  && a.FC.s_insertions = b.FC.s_insertions
  && a.FC.s_evictions = b.FC.s_evictions

let stats_sane (s : FC.stats) =
  s.FC.s_hits >= 0 && s.FC.s_misses >= 0 && s.FC.s_insertions >= 0
  && s.FC.s_evictions >= 0

let prop_stats_algebra =
  QCheck2.Test.make ~name:"add_stats is a commutative monoid that saturates"
    ~count:500
    QCheck2.Gen.(triple gen_stats gen_stats gen_stats)
    (fun (a, b, c) ->
      stats_eq (FC.add_stats a b) (FC.add_stats b a)
      && stats_eq
           (FC.add_stats a (FC.add_stats b c))
           (FC.add_stats (FC.add_stats a b) c)
      && stats_eq (FC.add_stats a FC.zero_stats) a
      && stats_eq (FC.add_stats FC.zero_stats a) a
      && stats_sane (FC.add_stats a (FC.add_stats b c)))

let test_stats_saturate () =
  let pegged = { FC.zero_stats with FC.s_hits = max_int } in
  let s = FC.add_stats pegged { FC.zero_stats with FC.s_hits = 1 } in
  Alcotest.(check int) "saturates at max_int, never wraps" max_int s.FC.s_hits;
  let s2 = FC.add_stats pegged pegged in
  Alcotest.(check int) "pegged + pegged stays pegged" max_int s2.FC.s_hits

(* --- scanner agreement with the decoder --------------------------- *)

(* Random garbage: mirrors [Test_fuzz.gen_garbage]. *)
let gen_garbage =
  QCheck2.Gen.(
    let* n = int_range 0 300 in
    let* seed = int_range 0 0xFFFFF in
    return
      (Bytes.init n (fun i ->
           Char.chr ((seed + (i * 2654435761)) land 0xFF))))

(* A valid packet image, optionally damaged by a random burst. *)
let gen_image =
  QCheck2.Gen.(
    let* _, chunks = Util.gen_framed_stream in
    let* damage = bool in
    let* burst_off = int_range 0 200 in
    let* burst_len = int_range 1 16 in
    let* seed = int_range 0 0xFFFF in
    let image =
      match Wire.encode_packet ~capacity:2048 chunks with
      | Ok b -> b
      | Error _ -> (
          match
            Wire.encode_packet (List.filteri (fun i _ -> i < 3) chunks)
          with
          | Ok b -> b
          | Error _ -> Bytes.create 64)
    in
    if not damage then return image
    else begin
      let b = Bytes.copy image in
      for k = 0 to burst_len - 1 do
        let i = (burst_off + k) mod Bytes.length b in
        Bytes.set b i (Char.chr ((seed + (k * 37)) land 0xFF))
      done;
      return b
    end)

(* [Scan.packet] accepts iff [decode_packet] returns [Ok], and then the
   recorded offsets, cached label prefix and materialised chunks agree
   exactly with the decoded chunk list. *)
let scan_agrees b =
  let scan = Wire.Scan.create () in
  let accepted = Wire.Scan.packet scan b in
  match Wire.decode_packet b with
  | Error _ -> not accepted
  | Ok chunks ->
      let chunks = List.filter (fun c -> not (Chunk.is_terminator c)) chunks in
      accepted
      && Wire.Scan.count scan = List.length chunks
      && List.for_all2
           (fun i c ->
             let off = Wire.Scan.offset scan i in
             let h = c.Chunk.header in
             Chunk.equal (Wire.Scan.chunk b off) c
             && Wire.Scan.c_id_at scan i = h.Header.c.Ftuple.id
             && Wire.Scan.ctype_code_at scan i = Ctype.code h.Header.ctype
             && Wire.Scan.c_id b off = h.Header.c.Ftuple.id
             && Wire.Scan.t_id b off = h.Header.t.Ftuple.id)
           (List.init (List.length chunks) Fun.id)
           chunks

let prop_scan_garbage =
  QCheck2.Test.make ~name:"scan agrees with decode_packet on garbage"
    ~count:2000 gen_garbage scan_agrees

let prop_scan_images =
  QCheck2.Test.make ~name:"scan agrees with decode_packet on (damaged) packets"
    ~count:1000 gen_image scan_agrees

(* --- the scan entries vs a decoding reference ----------------------- *)

let multi_config =
  { CT.default_config with CT.elem_size = 4; tpdu_elems = 16 }

let mk_multi ?anomaly_budget () =
  let engine = Netsim.Engine.create ~seed:42 () in
  Transport.Multi.create engine ~config:multi_config ~quota_elems:4096
    ~max_conns:8 ?anomaly_budget
    ~send_ack:(fun _ -> ())
    ()

(* One connection's wire life: Open, each sealed TPDU as its own
   packet, Close. *)
let conn_packets ?(first_tid = 0) ~conn ~seed nbytes =
  let framer =
    Framer.create ~elem_size:4 ~tpdu_elems:16 ~conn_id:conn ~first_tid ()
  in
  let data =
    Bytes.init nbytes (fun i -> Char.chr ((seed + (i * 31)) land 0xFF))
  in
  let chunks =
    match Framer.push_frame ~last:true framer data with
    | Ok cs -> cs
    | Error e -> failwith e
  in
  let sealed =
    match Edc.Encoder.seal_tpdus chunks with
    | Ok cs -> cs
    | Error e -> failwith e
  in
  let packet cs =
    match Wire.encode_packet cs with Ok b -> b | Error e -> failwith e
  in
  let open_p =
    packet
      [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = first_tid }) ]
  in
  let close_p = packet [ Connection.signal_chunk ~conn_id:conn Close ] in
  (data, (open_p :: List.map (fun c -> packet [ c ]) sealed) @ [ close_p ])

let epochs_equal a b =
  let eq (x : Transport.Multi.epoch_report) (y : Transport.Multi.epoch_report)
      =
    Bytes.equal x.Transport.Multi.delivered y.Transport.Multi.delivered
    && x.Transport.Multi.complete = y.Transport.Multi.complete
    && x.Transport.Multi.closed = y.Transport.Multi.closed
  in
  Transport.Multi.known_conns a = Transport.Multi.known_conns b
  && List.for_all
       (fun cid ->
         List.equal eq
           (Transport.Multi.epochs a ~conn_id:cid)
           (Transport.Multi.epochs b ~conn_id:cid))
       (Transport.Multi.known_conns a)

(* A multi-connection packet mix under an arbitrary permutation (which
   reorders signals against data and interleaves connections) plus
   duplicated packets and copies with one bit flipped: the scan entries
   must stay byte-identical with the decoding reference — including on traffic
   that arrives before its Open, and on damage that either drops the
   packet whole or reaches a label or payload. *)
let gen_permuted_mix =
  QCheck2.Gen.(
    let* n_conns = int_range 1 3 in
    let* sizes = list_repeat n_conns (map (fun n -> 4 * n) (int_range 12 225)) in
    let* seed = int_range 0 255 in
    let* dup = int_range 0 5 in
    let* damaged = int_range 0 4 in
    let* shuffle_seed = int_range 0 0xFFFF in
    let* batch = int_range 1 7 in
    let all =
      List.concat
        (List.mapi
           (fun i nbytes ->
             snd (conn_packets ~conn:(i + 1) ~seed:(seed + i) nbytes))
           sizes)
    in
    let arr = Array.of_list all in
    let n = Array.length arr in
    let rng = Netsim.Rng.create ~seed:shuffle_seed in
    let dups =
      Array.init dup (fun _ -> arr.(Netsim.Rng.int rng n))
    in
    let flipped =
      Array.init damaged (fun _ ->
          let b = Bytes.copy arr.(Netsim.Rng.int rng n) in
          let bit = Netsim.Rng.int rng (8 * Bytes.length b) in
          let c = Char.code (Bytes.get b (bit / 8)) in
          Bytes.set b (bit / 8) (Char.chr (c lxor (1 lsl (bit mod 8))));
          b)
    in
    let mix = Array.concat [ arr; dups; flipped ] in
    (* Fisher-Yates with the deterministic sim RNG *)
    for i = Array.length mix - 1 downto 1 do
      let j = Netsim.Rng.int rng (i + 1) in
      let t = mix.(i) in
      mix.(i) <- mix.(j);
      mix.(j) <- t
    done;
    return (mix, batch))

let in_batches ingest_batch mix batch =
  let i = ref 0 in
  let n = Array.length mix in
  while !i < n do
    let k = min batch (n - !i) in
    ingest_batch (Array.sub mix !i k);
    i := !i + k
  done

let mk_receiver () =
  CT.Receiver.create
    (Netsim.Engine.create ~seed:42 ())
    { multi_config with CT.conn_id = 1 }
    ~send_ack:(fun _ -> ())
    ~capacity:(`Quota 4096) ()

(* The reference the scan entries are held to: the full decoder, then
   every chunk in a buffer of its own.  [Multi] gets each chunk back in
   a one-chunk packet of its own; the single receiver gets a view of
   each chunk over its own payload. *)
let multi_reference m b =
  match Wire.decode_packet b with
  | Ok chunks ->
      List.iter
        (fun c ->
          Transport.Multi.ingest m (Util.ok_or_fail (Wire.encode_packet [ c ])))
        chunks
  | Error _ -> ()

let receiver_reference rx b =
  match Wire.decode_packet b with
  | Ok chunks -> List.iter (fun c -> CT.Receiver.on_view rx (Chunk.view c)) chunks
  | Error _ -> ()

(* Two endpoints, each against the reference: [Multi]'s [ingest_batch]
   and one single receiver's; the mix's other connections and signals
   reach the receiver too, so foreign labels are part of what must
   agree. *)
let prop_permuted_mix =
  QCheck2.Test.make
    ~name:"ingest_batch delivers byte-identically to the decoding reference"
    ~count:60 gen_permuted_mix
    (fun (mix, batch) ->
      let m_slow = mk_multi () and m_fast = mk_multi () in
      Array.iter (multi_reference m_slow) mix;
      in_batches (Transport.Multi.ingest_batch m_fast) mix batch;
      let r_slow = mk_receiver () and r_fast = mk_receiver () in
      Array.iter (receiver_reference r_slow) mix;
      in_batches (CT.Receiver.ingest_batch r_fast) mix batch;
      epochs_equal m_slow m_fast
      && Bytes.equal (CT.Receiver.contents r_slow) (CT.Receiver.contents r_fast)
      && CT.Receiver.complete r_slow = CT.Receiver.complete r_fast
      && CT.Receiver.verifier_stats r_slow = CT.Receiver.verifier_stats r_fast)

(* --- payloads read in place --------------------------------------- *)

(* The scan entries hand the dispatch views into the packets themselves,
   so they must never write into one: over the permuted, duplicated and
   damaged mixes, every packet's digest after both endpoints' [ingest]
   and [ingest_batch] equals its digest before. *)
let prop_ingest_never_writes =
  QCheck2.Test.make ~name:"ingest and ingest_batch never write into packets"
    ~count:60 gen_permuted_mix
    (fun (mix, batch) ->
      let digests () = Array.map Digest.bytes mix in
      let before = digests () in
      Array.iter (Transport.Multi.ingest (mk_multi ())) mix;
      in_batches (Transport.Multi.ingest_batch (mk_multi ())) mix batch;
      let rx = mk_receiver () in
      Array.iter (fun b -> CT.Receiver.ingest_batch rx [| b |]) mix;
      in_batches (CT.Receiver.ingest_batch (mk_receiver ())) mix batch;
      digests () = before)

(* A tiny data chunk whose bytes conflict with unverified bytes another
   TPDU placed first must wait in quarantine for its TPDU's verdict.  It
   shares a 64 KiB packet with a large chunk the receiver does not keep
   (a late copy of an acknowledged TPDU of another connection, which is
   only re-acknowledged).  The waiting run is copied out of the packet
   (the copybreak), so the receiver does not grow by the packet it no
   longer needs. *)
let test_copybreak_bounds_retention () =
  let acked = Labelling.Int_map.set 4 in
  Labelling.Int_map.replace acked 9 ();
  let counts = Transport.Counters.zero () in
  let rx =
    CT.Receiver.create
      (Netsim.Engine.create ~seed:42 ())
      { multi_config with CT.conn_id = 1 }
      ~owner:
        {
          CT.Receiver.o_governor =
            Transport.Governor.create ~budget_bytes:multi_config.CT.state_budget
              ~ttl:multi_config.CT.state_ttl ();
          o_acked = acked;
          o_counts = counts;
          o_spare = CT.Receiver.spare ();
        }
      ~send_ack:(fun _ -> ())
      ~capacity:(`Quota 4096) ()
  in
  let data ~conn ~t_id n =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:conn ~sn:0 ())
         ~t:(Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Ftuple.zero (Bytes.make n 'x'))
  in
  let packet_bytes = 65536 in
  (* TPDU 4 holds element 0 first, unverified, with other bytes *)
  let squatter =
    Util.ok_or_fail
      (Chunk.data ~size:4
         ~c:(Ftuple.v ~id:1 ~sn:0 ())
         ~t:(Ftuple.v ~id:4 ~sn:0 ())
         ~x:Ftuple.zero (Bytes.make 4 'y'))
  in
  CT.Receiver.ingest_batch rx [| Util.ok_or_fail (Wire.encode_packet [ squatter ]) |];
  let tiny = data ~conn:1 ~t_id:5 4 in
  let large = data ~conn:2 ~t_id:9 (packet_bytes - (2 * Wire.header_size) - 4) in
  let packet = Util.ok_or_fail (Wire.encode_packet [ tiny; large ]) in
  Alcotest.(check int) "a 64 KiB packet" packet_bytes (Bytes.length packet);
  let words () = Obj.reachable_words (Obj.repr rx) in
  let w0 = words () in
  CT.Receiver.ingest_batch rx [| packet |];
  let grown = words () - w0 in
  Alcotest.(check int) "the tiny chunk waits in quarantine" 1
    (CT.Receiver.stashed_tpdus rx);
  Alcotest.(check int) "its conflict is quarantined" 1
    (CT.Receiver.overlap_stats rx).Labelling.Placement.os_quarantined;
  Alcotest.(check int) "the large chunk is only re-acknowledged" 1
    counts.Transport.Counters.reacks_sent;
  let packet_words = packet_bytes / (Sys.word_size / 8) in
  if grown >= packet_words / 4 then
    Alcotest.failf "receiver grew by %d words; the packet is %d" grown
      packet_words

(* --- ingest_batch edges ------------------------------------------- *)

let test_batch_empty () =
  let m = mk_multi () in
  Transport.Multi.ingest_batch m [||];
  Alcotest.(check (list int)) "no connections appear" []
    (Transport.Multi.known_conns m);
  let fp = Transport.Multi.fastpath_stats m in
  Alcotest.(check int) "no cache traffic" 0
    (fp.Transport.Multi.fp_conn.FC.s_hits
    + fp.Transport.Multi.fp_conn.FC.s_misses)

let test_batch_single_packet () =
  (* a degenerate batch of one packet per call is just [ingest] *)
  let m_slow = mk_multi () and m_fast = mk_multi () in
  let _, packets = conn_packets ~conn:2 ~seed:3 900 in
  List.iter (multi_reference m_slow) packets;
  List.iter (fun p -> Transport.Multi.ingest_batch m_fast [| p |]) packets;
  Alcotest.(check bool) "singleton batches identical to the reference" true
    (epochs_equal m_slow m_fast)

let test_batch_spanning_quarantine () =
  (* One batch carries a whole scored re-establishment: epoch 0 of conn
     5, then a reopen whose churn trips a tiny anomaly budget, then an
     innocent conn 6.  The quarantine lands mid-batch; the scan entry
     must refuse the boxed connection's remaining packets (its memoised
     record is boxed in place) while conn 6 sails through — and the
     batch must stay byte-identical with the decoding reference under
     the same budget. *)
  let budget = 4 in
  let m_slow = mk_multi ~anomaly_budget:budget ()
  and m_fast = mk_multi ~anomaly_budget:budget () in
  let d0, epoch0 = conn_packets ~conn:5 ~seed:1 600 in
  let _, epoch1 = conn_packets ~conn:5 ~seed:77 ~first_tid:100_000 600 in
  let d6, honest = conn_packets ~conn:6 ~seed:8 480 in
  let batch = Array.of_list (epoch0 @ epoch1 @ honest) in
  Array.iter (multi_reference m_slow) batch;
  Transport.Multi.ingest_batch m_fast batch;
  Alcotest.(check bool) "scan entry identical to the reference" true
    (epochs_equal m_slow m_fast);
  Alcotest.(check int) "reopen churn tripped the box" 1
    (Transport.Multi.counters m_fast).quarantines;
  Alcotest.(check bool) "boxed packets refused" true
    ((Transport.Multi.counters m_fast).quarantine_drops > 0);
  (match Transport.Multi.conn_stats m_fast ~conn_id:5 with
  | None -> Alcotest.fail "conn 5 unknown"
  | Some cs ->
      Alcotest.(check bool) "conn 5 is in the box" true
        cs.Transport.Multi.cs_quarantined);
  (* the quarantined reopen never became an epoch; epoch 0 is intact *)
  (match Transport.Multi.epochs m_fast ~conn_id:5 with
  | [ e0 ] ->
      Alcotest.(check bool) "epoch 0 bytes intact" true
        (Bytes.equal (Bytes.sub e0.Transport.Multi.delivered 0 600) d0)
  | es -> Alcotest.failf "expected 1 epoch on conn 5, got %d" (List.length es));
  (* the innocent connection later in the same batch is untouched *)
  match Transport.Multi.epochs m_fast ~conn_id:6 with
  | [ e ] ->
      Alcotest.(check bool) "conn 6 complete" true e.Transport.Multi.complete;
      Alcotest.(check bool) "conn 6 bytes intact" true
        (Bytes.equal (Bytes.sub e.Transport.Multi.delivered 0 480) d6)
  | es -> Alcotest.failf "expected 1 epoch on conn 6, got %d" (List.length es)

(* [b] cut or zero-padded to [n] bytes: zero padding keeps a valid
   packet valid, a cut one is dropped whole. *)
let resized b n =
  let r = Bytes.make n '\000' in
  Bytes.blit b 0 r 0 (min n (Bytes.length b));
  r

(* The permuted mix around the edges of [Wire.Scan.warm]'s 64-byte
   stride, after a connection of its own that makes every mix longer
   than a batch of 33: every fifth packet zero-padded to one byte over
   the MTU, then packets of 0, 1, 63, 64 and 65 bytes (cut or padded
   copies of the mix's own) spread through it, and last a copy of the
   last packet one byte short. *)
let gen_edge_mix =
  QCheck2.Gen.map
    (fun (mix, _) ->
      let mix = Array.append (Array.of_list (snd (conn_packets ~conn:4 ~seed:5 1200))) mix in
      let n = Array.length mix in
      let edges =
        List.map (fun len -> resized mix.(len mod n) len) [ 0; 1; 63; 64; 65 ]
      in
      let over_mtu = multi_config.CT.mtu + 1 in
      let padded =
        Array.mapi (fun i b -> if i mod 5 = 0 then resized b over_mtu else b) mix
      in
      let spread =
        List.concat
          (List.mapi
             (fun i b ->
               match List.nth_opt edges (i / 7) with
               | Some e when i mod 7 = 3 -> [ b; e ]
               | _ -> [ b ])
             (Array.to_list padded))
      in
      let last = mix.(n - 1) in
      Array.of_list (spread @ [ resized last (Bytes.length last - 1) ]))
    gen_permuted_mix

(* Whatever the batch size, [ingest_batch] delivers what [ingest] of
   each packet delivers, for [Multi] and for a single receiver, and
   leaves every packet as it was: an off-by-one in the warm read raises
   on the empty packet or reads past a short one. *)
let prop_edge_lengths =
  QCheck2.Test.make
    ~name:"ingest_batch at edge packet lengths equals per-packet ingest"
    ~count:30 gen_edge_mix
    (fun mix ->
      let before = Array.map Digest.bytes mix in
      let m_ref = mk_multi () and r_ref = mk_receiver () in
      Array.iter (Transport.Multi.ingest m_ref) mix;
      Array.iter (fun b -> CT.Receiver.ingest_batch r_ref [| b |]) mix;
      List.for_all
        (fun batch ->
          let m = mk_multi () and rx = mk_receiver () in
          in_batches (Transport.Multi.ingest_batch m) mix batch;
          in_batches (CT.Receiver.ingest_batch rx) mix batch;
          epochs_equal m_ref m
          && Bytes.equal (CT.Receiver.contents r_ref) (CT.Receiver.contents rx)
          && CT.Receiver.complete r_ref = CT.Receiver.complete rx
          && CT.Receiver.verifier_stats r_ref = CT.Receiver.verifier_stats rx)
        [ 1; 33 ]
      && Array.map Digest.bytes mix = before)

(* The warm read fetches lines the scan and WSC-2 read anyway, so it is
   no bus crossing: one shuffled stream fed packet by packet and in
   batches of 32 tallies the same crossings. *)
let test_batch_bus_crossings () =
  let packets =
    Array.of_list
      (List.concat_map
         (fun conn -> snd (conn_packets ~conn ~seed:conn 1500))
         [ 1; 2; 3 ])
  in
  let rng = Netsim.Rng.create ~seed:11 in
  for i = Array.length packets - 1 downto 1 do
    let j = Netsim.Rng.int rng (i + 1) in
    let t = packets.(i) in
    packets.(i) <- packets.(j);
    packets.(j) <- t
  done;
  let crossings feed =
    let bus = Transport.Busmodel.create () in
    let m =
      Transport.Multi.create
        (Netsim.Engine.create ~seed:42 ())
        ~config:multi_config ~quota_elems:4096 ~max_conns:8 ~bus
        ~send_ack:(fun _ -> ())
        ()
    in
    feed m;
    Transport.Busmodel.crossings bus
  in
  let single = crossings (fun m -> Array.iter (Transport.Multi.ingest m) packets) in
  let batched =
    crossings (fun m -> in_batches (Transport.Multi.ingest_batch m) packets 32)
  in
  Alcotest.(check bool) "the stream crosses the bus" true (single > 0);
  Alcotest.(check int) "batched crossings equal per-packet" single batched

(* --- epoch reuse is served from the memo --------------------------- *)

(* A reopen under the same C.ID replaces the live receiver inside the
   connection record, never the record itself, so the record memoised
   for epoch 0 keeps serving epoch 1: every lookup after the first data
   chunk hits, and the memo is written exactly once. *)
let test_epoch_reuse_memo_hits () =
  let m_dec = mk_multi () and m_scan = mk_multi () in
  let d0, epoch0 = conn_packets ~conn:5 ~seed:1 600 in
  let d1, epoch1 = conn_packets ~conn:5 ~seed:77 ~first_tid:100_000 600 in
  List.iter (multi_reference m_dec) (epoch0 @ epoch1);
  List.iter (Transport.Multi.ingest m_scan) epoch0;
  let before = (Transport.Multi.fastpath_stats m_scan).Transport.Multi.fp_conn in
  List.iter (Transport.Multi.ingest m_scan) epoch1;
  let after = (Transport.Multi.fastpath_stats m_scan).Transport.Multi.fp_conn in
  Alcotest.(check bool) "scan entry identical to the reference" true
    (epochs_equal m_dec m_scan);
  (match Transport.Multi.epochs m_scan ~conn_id:5 with
  | [ e0; e1 ] ->
      Alcotest.(check bool) "epoch 0 complete" true e0.Transport.Multi.complete;
      Alcotest.(check bool) "epoch 1 complete" true e1.Transport.Multi.complete;
      Alcotest.(check bool) "epoch 0 bytes" true
        (Bytes.equal (Bytes.sub e0.Transport.Multi.delivered 0 600) d0);
      Alcotest.(check bool) "epoch 1 bytes" true
        (Bytes.equal (Bytes.sub e1.Transport.Multi.delivered 0 600) d1)
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es));
  Alcotest.(check bool) "turnover served by memo hits" true
    (after.FC.s_hits - before.FC.s_hits >= List.length epoch1);
  Alcotest.(check int) "no miss across the turnover" before.FC.s_misses
    after.FC.s_misses;
  Alcotest.(check int) "the record was memoised once" 1 after.FC.s_insertions

(* --- the premise of the memo: an add-only connection table --------- *)

(* Every packet may only add connections and epochs, never take one
   away: [known_conns] grows as a superset and no connection's epoch
   count drops.  A memo entry is a connection record, so this is what
   keeps every entry coherent without invalidation. *)
let add_only m mix batch =
  let prev = ref [] and prev_epochs = ref [] in
  let epochs_of cid =
    match Transport.Multi.conn_stats m ~conn_id:cid with
    | Some cs -> cs.Transport.Multi.cs_epochs
    | None -> -1
  in
  let ok = ref true in
  in_batches
    (fun packets ->
      Transport.Multi.ingest_batch m packets;
      let now = Transport.Multi.known_conns m in
      ok :=
        !ok
        && List.for_all (fun cid -> List.mem cid now) !prev
        && List.for_all (fun (cid, e) -> epochs_of cid >= e) !prev_epochs;
      prev := now;
      prev_epochs := List.map (fun cid -> (cid, epochs_of cid)) now)
    mix batch;
  !ok

(* Each connection's first epoch (shuffled with duplicates), then the
   Opens of its reopen under a fresh C.SN, then the rest of the reopen
   (shuffled): under a budget of 4 each reopen's churn trips the
   penalty box, so the mix exercises quarantine, archive and refused
   traffic on connections the memo holds. *)
let gen_churn_mix =
  QCheck2.Gen.(
    let* n_conns = int_range 1 3 in
    let* seed = int_range 0 255 in
    let* shuffle_seed = int_range 0 0xFFFF in
    let rng = Netsim.Rng.create ~seed:shuffle_seed in
    let shuffled l =
      let a = Array.of_list l in
      for i = Array.length a - 1 downto 1 do
        let j = Netsim.Rng.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      a
    in
    let epoch ~first_tid ~seed conn =
      snd (conn_packets ~conn ~seed ~first_tid 240)
    in
    let conns = List.init n_conns (fun i -> i + 1) in
    let first =
      List.concat_map (fun c -> epoch ~first_tid:0 ~seed:(seed + c) c) conns
    in
    let reopen =
      List.map (fun c -> epoch ~first_tid:100_000 ~seed:(seed + 77 + c) c) conns
    in
    return
      (Array.concat
         [
           shuffled (first @ first);
           Array.of_list (List.map List.hd reopen);
           shuffled (List.concat_map List.tl reopen);
         ]))

let prop_add_only_permuted =
  QCheck2.Test.make ~name:"conn table is add-only under permuted mixes"
    ~count:40 gen_permuted_mix (fun (mix, batch) ->
      add_only (mk_multi ()) mix batch)

let prop_add_only_quarantine =
  QCheck2.Test.make ~name:"conn table is add-only across quarantines"
    ~count:40 gen_churn_mix (fun mix ->
      let m = mk_multi ~anomaly_budget:4 () in
      add_only m mix 1 && (Transport.Multi.counters m).quarantines >= 1)

(* Traffic for C.IDs that were never opened — data, ED and a Close — is
   dropped as unknown, and its lookups write nothing into the memo. *)
let test_strangers_not_memoised () =
  let m = mk_multi () in
  List.iter
    (fun conn ->
      match conn_packets ~conn ~seed:conn 320 with
      | _, _open :: rest -> List.iter (Transport.Multi.ingest m) rest
      | _, [] -> ())
    [ 7; 8; 9 ];
  let fp = (Transport.Multi.fastpath_stats m).Transport.Multi.fp_conn in
  Alcotest.(check (list int)) "no connection admitted" []
    (Transport.Multi.known_conns m);
  Alcotest.(check bool) "stranger data dropped as unknown" true
    (Transport.Multi.unknown_drops m > 0);
  Alcotest.(check bool) "every lookup missed" true
    (fp.FC.s_misses > 0 && fp.FC.s_hits = 0);
  Alcotest.(check int) "nothing memoised" 0 fp.FC.s_insertions

(* --- crash restore starts cold ------------------------------------ *)

let test_crash_restore_fresh_cache () =
  let m0 = mk_multi () in
  let d0, packets = conn_packets ~conn:3 ~seed:9 700 in
  List.iter (Transport.Multi.ingest m0) packets;
  let warm = Transport.Multi.fastpath_stats m0 in
  Alcotest.(check bool) "pre-crash cache saw traffic" true
    (warm.Transport.Multi.fp_conn.FC.s_hits > 0);
  let image = Transport.Multi.export m0 in
  Transport.Multi.teardown m0;
  let engine = Netsim.Engine.create ~seed:43 () in
  let m1 =
    Transport.Multi.restore engine ~config:multi_config ~quota_elems:4096
      ~max_conns:8
      ~send_ack:(fun _ -> ())
      image
  in
  (* the cache is NOT part of the persisted image: a restored endpoint
     starts cold and repopulates from live traffic *)
  let cold = Transport.Multi.fastpath_stats m1 in
  Alcotest.(check int) "restored conn cache cold" 0
    (cold.Transport.Multi.fp_conn.FC.s_hits
    + cold.Transport.Multi.fp_conn.FC.s_misses
    + cold.Transport.Multi.fp_conn.FC.s_insertions);
  (* post-crash retransmissions leave delivery untouched: the restored
     ledger re-acks them, and the replayed Open cannot resurrect its
     archived epoch (its C.SN is at the connection's watermark) *)
  List.iter (Transport.Multi.ingest m1) packets;
  (match Transport.Multi.epochs m1 ~conn_id:3 with
  | [ e ] ->
      Alcotest.(check bool) "restored epoch bytes intact" true
        (Bytes.equal (Bytes.sub e.Transport.Multi.delivered 0 700) d0)
  | es -> Alcotest.failf "expected 1 epoch, got %d" (List.length es));
  (* fresh traffic — a reopen with a higher Open C.SN — flows through
     the scan entry and repopulates the cold memo *)
  let d1, epoch1 = conn_packets ~conn:3 ~seed:10 ~first_tid:100_000 500 in
  List.iter (Transport.Multi.ingest m1) epoch1;
  (match Transport.Multi.epochs m1 ~conn_id:3 with
  | [ _; e1 ] ->
      Alcotest.(check bool) "reopened epoch complete" true
        e1.Transport.Multi.complete;
      Alcotest.(check bool) "reopened epoch bytes intact" true
        (Bytes.equal (Bytes.sub e1.Transport.Multi.delivered 0 500) d1)
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es));
  let after = Transport.Multi.fastpath_stats m1 in
  Alcotest.(check bool) "restored cache repopulates" true
    (after.Transport.Multi.fp_conn.FC.s_insertions > 0)

(* --- the dispatch invariants ---------------------------------------- *)

(* The two facts the receive path trusts instead of probing for them on
   every chunk: no live corroboration record's T.ID is in the ACK ledger
   or shed, and every governor handle a connection or record holds is
   either dead or physically the governor's own entry for its key. *)
let handle_ok g h =
  (not (Transport.Governor.live h))
  ||
  match Transport.Governor.find g ~key:(Transport.Governor.entry_key h) with
  | Some e -> e == h
  | None -> false

let receiver_ok g rx =
  let settled = CT.Receiver.acked_tids rx @ CT.Receiver.shed_tids rx in
  List.for_all (fun t -> not (List.mem t settled)) (CT.Receiver.record_tids rx)
  && List.for_all (handle_ok g) (CT.Receiver.governor_handles rx)

let multi_ok m =
  let g = Transport.Multi.governor m in
  List.for_all (handle_ok g) (Transport.Multi.governor_handles m)
  && List.for_all (receiver_ok g) (Transport.Multi.receivers m)

(* Each packet of [mix] into [m], the invariants checked after every
   one. *)
let ingest_checked m mix =
  Array.for_all
    (fun b ->
      Transport.Multi.ingest m b;
      multi_ok m)
    mix

(* The mix in thirds through one endpoint that journals every event:
   a snapshot after the first third, then two restored endpoints after
   the second — one from an export of the live one, one from the
   snapshot plus the journal since — each checked at once and then fed
   the last third.  Run with no budget and with one that holds two
   connections, so budget evictions and connection GC kill handles. *)
let invariants_across_restores ?anomaly_budget mix =
  List.for_all
    (fun state_budget ->
      let config = { multi_config with CT.state_budget } in
      let store = Transport.Persist.Store.create () in
      let endpoint ?image () =
        let engine = Netsim.Engine.create ~seed:42 () in
        match image with
        | None ->
            Transport.Multi.create engine ~config ~quota_elems:4096
              ~max_conns:8 ?anomaly_budget
              ~persist:(Transport.Persist.Store.append store)
              ~send_ack:(fun _ -> ())
              ()
        | Some events ->
            Transport.Multi.restore engine ~config ~quota_elems:4096
              ~max_conns:8 ?anomaly_budget
              ~send_ack:(fun _ -> ())
              events
      in
      let n = Array.length mix in
      let third k = Array.sub mix (k * n / 3) (((k + 1) * n / 3) - (k * n / 3)) in
      let m = endpoint () in
      ingest_checked m (third 0)
      && begin
           Transport.Persist.Store.snapshot store
             (Transport.Persist.Multi (Transport.Multi.export m));
           ingest_checked m (third 1)
         end
      &&
      let exported = endpoint ~image:(Transport.Multi.export m) () in
      let journalled =
        match Transport.Persist.Store.recover store with
        | Ok (events, _) -> endpoint ~image:events ()
        | Error _ ->
            failwith "no multi image recovered"
      in
      List.for_all
        (fun m -> multi_ok m && ingest_checked m (third 2))
        [ exported; journalled ])
    [ 0; 40_000 ]

let prop_invariants_permuted =
  QCheck2.Test.make
    ~name:"dispatch invariants hold per packet and across restores" ~count:40
    gen_permuted_mix (fun (mix, _) -> invariants_across_restores mix)

let prop_invariants_churn =
  QCheck2.Test.make
    ~name:"dispatch invariants hold across quarantines and restores"
    ~count:30 gen_churn_mix (fun mix ->
      invariants_across_restores ~anomaly_budget:4 mix)

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "C.IDs 1-64 fill 64 distinct slots" `Quick
      test_cache_sequential_ids_distinct;
    Alcotest.test_case "cache rejects negative keys" `Quick
      test_cache_negative_key_rejected;
    QCheck_alcotest.to_alcotest prop_stats_algebra;
    Alcotest.test_case "add_stats saturates" `Quick test_stats_saturate;
    QCheck_alcotest.to_alcotest prop_scan_garbage;
    QCheck_alcotest.to_alcotest prop_scan_images;
    QCheck_alcotest.to_alcotest prop_permuted_mix;
    QCheck_alcotest.to_alcotest prop_ingest_never_writes;
    Alcotest.test_case "a waiting small view does not pin its packet" `Quick
      test_copybreak_bounds_retention;
    Alcotest.test_case "ingest_batch of an empty batch" `Quick test_batch_empty;
    Alcotest.test_case "ingest_batch of singleton batches" `Quick
      test_batch_single_packet;
    Alcotest.test_case "ingest_batch spanning a mid-batch quarantine" `Quick
      test_batch_spanning_quarantine;
    QCheck_alcotest.to_alcotest prop_edge_lengths;
    Alcotest.test_case "ingest_batch crosses the bus as ingest does" `Quick
      test_batch_bus_crossings;
    Alcotest.test_case "epoch reuse is served by memo hits" `Quick
      test_epoch_reuse_memo_hits;
    QCheck_alcotest.to_alcotest prop_add_only_permuted;
    QCheck_alcotest.to_alcotest prop_add_only_quarantine;
    Alcotest.test_case "never-opened C.IDs are not memoised" `Quick
      test_strangers_not_memoised;
    Alcotest.test_case "crash restore starts with a cold cache" `Quick
      test_crash_restore_fresh_cache;
    QCheck_alcotest.to_alcotest prop_invariants_permuted;
    QCheck_alcotest.to_alcotest prop_invariants_churn;
  ]
