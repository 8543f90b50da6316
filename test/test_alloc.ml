(* The receive path's allocation budget: a warmed [Multi] is fed a fixed
   bulk stream and the minor-heap words it allocates per packet are held
   to a committed figure.  The budget is the value measured when the
   payloads started being read in place; a change may lower it, and one
   that raises it has to say why here.

   [Gc.minor_words ()] is exact at any instant; [Gc.quick_stat]'s
   [minor_words] is only brought up to date at collections, so it is not
   used. *)

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

(* minor words per packet over the measured stream (547.04 when it was
   set); see the header *)
let budget_words_per_pkt = 547.1

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

let test_bulk_budget () =
  let per_conn = List.init conns (fun i -> conn_tpdus (i + 1)) in
  let acks = ref 0 in
  let m =
    M.create
      (Netsim.Engine.create ~seed:1 ())
      ~config
      ~quota_elems:(tpdus_per_conn * config.CT.tpdu_elems)
      ~max_conns:conns
      ~send_ack:(fun _ -> incr acks)
      ()
  in
  for conn = 1 to conns do
    M.ingest m
      (get
         (Wire.encode_packet
            [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = 0 }) ]))
  done;
  Array.iter (M.ingest m) (rounds per_conn 0 warm_tpdus);
  let measured = rounds per_conn warm_tpdus tpdus_per_conn in
  let w0 = Gc.minor_words () in
  Array.iter (M.ingest m) measured;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "every TPDU verified and acknowledged"
    (conns * tpdus_per_conn) !acks;
  let per_pkt = (w1 -. w0) /. float_of_int (Array.length measured) in
  if per_pkt > budget_words_per_pkt then
    Alcotest.failf "%.2f minor words per packet, budget %.1f" per_pkt
      budget_words_per_pkt

let suite =
  [
    Alcotest.test_case "bulk stream within its minor-words budget" `Quick
      test_bulk_budget;
  ]
