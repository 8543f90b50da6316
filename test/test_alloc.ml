(* The receive path's allocation budgets: a warmed [Multi] is fed a
   fixed stream through [M.ingest_batch], 32 packets a batch as the
   receive-path benchmark feeds it (so the batch entry's warm read is
   inside the budgets), and the minor-heap words it allocates per packet
   are held to a committed figure.  Three streams: the in-order bulk stream, the
   same with every ACK journalled through a [Persist.Store], and a
   shuffled one with duplicate re-offers.  Each budget is the value
   measured in the release profile the repository's dune-workspace
   selects, once per-TPDU state stopped allocating per packet (flat
   T.ID maps, row-held quarantine, placement outcomes in
   buffers the receiver owns, verifier results in its own fields): of
   the 58.5 words per bulk packet, about 44 are the header records
   [Wire.Scan.view] builds and 4 the ACK copy, and the journal record
   adds 14.  A change may lower a budget, and one that raises it has to
   say why here.  A build without cross-module inlining
   ([--profile dev], which passes -opaque) allocates about 17 words per
   packet more, and so fails these budgets.

   [Gc.minor_words ()] is exact at any instant; [Gc.quick_stat]'s
   [minor_words] is only brought up to date at collections, so it is not
   used.

   The same streams also hold a survivor budget: the words that minor
   collections, forced every [gc_every] packets, promote to the major
   heap per packet.  That copying, not the words allocated, is what a
   batch containing a collection pays, and those batches set the
   service-time tail.  A fourth stream offers the bulk stream's measured
   TPDUs a second time, so every packet of it takes the re-ACK path:
   its first re-ACKs store into the epoch's throttle table, which has
   room for them, and promote nothing.  Every fresh run is placed the
   moment it arrives, so none of these streams copies a run out or
   holds one: the copybreak's copy-out room serves quarantined runs
   alone, and a stream without conflicting bytes makes none. *)

open Labelling
module CT = Transport.Chunk_transport
module M = Transport.Multi

(* 4-byte elements, 2 KiB TPDUs of two 1 KiB frames, 1500 B MTU: each
   TPDU travels as a 1024 B chunk with a 384 B fragment of the second
   frame, then the 640 B rest with the ED chunk. *)
let config = CT.default_config

let conns = 4
let tpdus_per_conn = 24
let warm_tpdus = 8

(* minor words per packet over each measured stream, as last measured;
   see the header *)
let budget_bulk = 58.6
let budget_journalled = 72.6
let budget_shuffled = 57.8

(* words promoted per packet over each measured stream, as last
   measured *)
let survivors_bulk = 0.1
let survivors_journalled = 0.1
let survivors_shuffled = 1.3
let survivors_reoffered = 0.1

let gc_every = 32

let get = function Ok x -> x | Error e -> failwith e

(* One connection's TPDUs, each sealed and packed at the MTU on its own,
   as a sender without piggybacking would. *)
let conn_tpdus conn =
  let fr =
    Framer.create ~elem_size:config.CT.elem_size
      ~tpdu_elems:config.CT.tpdu_elems ~conn_id:conn ()
  in
  let tpdu_bytes = config.CT.tpdu_elems * config.CT.elem_size in
  let fb = config.CT.frame_bytes in
  Array.init tpdus_per_conn (fun k ->
      let data =
        Bytes.init tpdu_bytes (fun i ->
            Char.chr (((conn * 7) + (k * 13) + i) land 0xFF))
      in
      let chunks =
        List.concat_map
          (fun i -> get (Framer.push_frame fr (Bytes.sub data (i * fb) fb)))
          (List.init (tpdu_bytes / fb) Fun.id)
      in
      let sealed = get (Edc.Encoder.seal_tpdus chunks) in
      List.map Packet.encode_unpadded (get (Packet.pack ~mtu:config.CT.mtu sealed)))

(* TPDU rounds [lo, hi) of every connection, round-robin by TPDU. *)
let rounds per_conn lo hi =
  Array.of_list
    (List.concat_map
       (fun k -> List.concat_map (fun tpdus -> tpdus.(k)) per_conn)
       (List.init (hi - lo) (fun i -> lo + i)))

(* The stream's packets in TPDU windows of [window] rounds, each window
   shuffled, with a copy of every [dup_every]th packet re-offered later
   in its window: reordering and duplicates as a lossy, reordering path
   delivers them. *)
let shuffled ~window ~dup_every per_conn lo hi =
  let rng = Netsim.Rng.create ~seed:7 in
  let out = ref [] in
  let k = ref lo in
  while !k < hi do
    let w = rounds per_conn !k (min hi (!k + window)) in
    let dups =
      List.filteri (fun i _ -> i mod dup_every = 0) (Array.to_list w)
    in
    let a = Array.append w (Array.of_list dups) in
    for i = Array.length a - 1 downto 1 do
      let j = Netsim.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    out := a :: !out;
    k := !k + window
  done;
  Array.concat (List.rev !out)

(* [packets] cut into the batches of 32 the receive-path benchmark
   feeds [M.ingest_batch], cut before anything is measured. *)
let batches packets =
  let n = Array.length packets in
  Array.init ((n + gc_every - 1) / gc_every) (fun k ->
      Array.sub packets (k * gc_every) (min gc_every (n - (k * gc_every))))

(* A warmed endpoint, the measured part of a stream and the ACK count
   so far: [stream per_conn lo hi] lays out TPDU rounds [lo, hi), and
   the rounds before [warm_tpdus] have been ingested. *)
let warmed ~journal stream =
  let per_conn = List.init conns (fun i -> conn_tpdus (i + 1)) in
  let acks = ref 0 in
  let store = Transport.Persist.Store.create () in
  let m =
    M.create
      (Netsim.Engine.create ~seed:1 ())
      ~config
      ~quota_elems:(tpdus_per_conn * config.CT.tpdu_elems)
      ~max_conns:conns
      ?persist:(if journal then Some (Transport.Persist.Store.append store) else None)
      ~send_ack:(fun _ -> incr acks)
      ()
  in
  M.ingest_batch m
    (Array.init conns (fun i ->
         get
           (Wire.encode_packet
              [ Connection.signal_chunk ~conn_id:(i + 1) (Open { first_csn = 0 }) ])));
  Array.iter (M.ingest_batch m) (batches (stream per_conn 0 warm_tpdus));
  (* a store reused across snapshots keeps its journal's capacity, so
     the measured part writes into room the warm-up made *)
  Transport.Persist.Store.snapshot store (Transport.Persist.Multi []);
  (m, stream per_conn warm_tpdus tpdus_per_conn, acks)

(* Minor words per packet over the measured part of a stream.  Every
   TPDU is acknowledged exactly once; only a stream with [reoffers] may
   add re-ACKs, for duplicates of TPDUs already delivered. *)
let words_per_pkt ?(journal = false) ?(reoffers = false) stream =
  let m, measured, acks = warmed ~journal stream in
  let bs = batches measured in
  let w0 = Gc.minor_words () in
  Array.iter (M.ingest_batch m) bs;
  let w1 = Gc.minor_words () in
  let reacks = M.reacks_sent m in
  if not reoffers then Alcotest.(check int) "no re-ACK" 0 reacks;
  Alcotest.(check int) "every TPDU verified and acknowledged once"
    (conns * tpdus_per_conn)
    (!acks - reacks);
  (w1 -. w0) /. float_of_int (Array.length measured)

(* Words promoted per packet over the measured part of a stream, with a
   minor collection forced after every batch of [gc_every] packets of
   it; with [reacks], the measured part must send that many re-ACKs. *)
let promoted_per_pkt ?(journal = false) ?reacks stream =
  let m, measured, _ = warmed ~journal stream in
  let bs = batches measured in
  let r0 = M.reacks_sent m in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Array.iter
    (fun b ->
      M.ingest_batch m b;
      Gc.minor ())
    bs;
  Gc.minor ();
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  Option.iter
    (fun n -> Alcotest.(check int) "re-ACKs sent" n (M.reacks_sent m - r0))
    reacks;
  (p1 -. p0) /. float_of_int (Array.length measured)

let within ?(what = "minor") budget per_pkt =
  if per_pkt > budget then
    Alcotest.failf "%.2f %s words per packet, budget %.1f" per_pkt what budget

let shuffled_stream = shuffled ~window:4 ~dup_every:10

let test_bulk_budget () = within budget_bulk (words_per_pkt rounds)

let test_journalled_budget () =
  within budget_journalled (words_per_pkt ~journal:true rounds)

let test_shuffled_budget () =
  within budget_shuffled (words_per_pkt ~reoffers:true shuffled_stream)

let survived budget per_pkt = within ~what:"promoted" budget per_pkt

(* The bulk stream offered once whole as the warm-up, its measured
   rounds then offered a second time: every packet of the measured part
   is a copy of an acknowledged TPDU's. *)
let reoffered per_conn lo hi =
  if lo < warm_tpdus then rounds per_conn lo tpdus_per_conn
  else rounds per_conn lo hi

let test_survivors () =
  survived survivors_bulk (promoted_per_pkt rounds);
  survived survivors_journalled (promoted_per_pkt ~journal:true rounds);
  survived survivors_shuffled (promoted_per_pkt shuffled_stream);
  (* the clock stands still, so each TPDU's second packet finds its
     first re-ACK in the throttle: one re-ACK per measured TPDU *)
  survived survivors_reoffered
    (promoted_per_pkt
       ~reacks:(conns * (tpdus_per_conn - warm_tpdus))
       reoffered)

let suite =
  [
    Alcotest.test_case "bulk stream within its minor-words budget" `Quick
      test_bulk_budget;
    Alcotest.test_case "journalled bulk stream within its minor-words budget"
      `Quick test_journalled_budget;
    Alcotest.test_case
      "shuffled stream with re-offers within its minor-words budget" `Quick
      test_shuffled_budget;
    Alcotest.test_case
      "every stream within its promoted-words budget under forced minor \
       collections"
      `Quick test_survivors;
  ]
