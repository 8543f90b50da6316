(* Piggybacking for free (Appendix A): "packets that carry chunks from
   multiple connections.  Data, signaling information, and
   acknowledgments can be combined in any combination.  Notice that this
   allows an error detection system that utilizes chunks to achieve the
   efficiency associated with the piggybacking of acknowledgments
   without requiring the explicit design of piggybacking into the error
   control protocol."

   Two hosts converse over one wire.  Each packet Host A sends carries,
   in a single envelope: data chunks of its own connection, ACK control
   chunks for Host B's connection, and (in the first packet) the
   connection-establishment signal — none of which the chunk layer had
   to be designed for.  One match on each chunk's TYPE routes it to its
   processing unit.

   Run with: dune exec examples/piggyback.exe *)

open Labelling

let () =
  (* connection 1: A -> B; connection 2: B -> A *)
  let framer_a = Framer.create ~elem_size:4 ~tpdu_elems:64 ~conn_id:1 () in
  let data_a = Bytes.init 2048 (fun i -> Char.chr (i land 0xFF)) in
  let chunks_a =
    match Framer.frames_of_stream framer_a ~frame_bytes:512 data_a with
    | Ok cs -> Result.get_ok (Edc.Encoder.seal_tpdus cs)
    | Error e -> failwith e
  in
  (* pretend B's TPDUs 0..3 have just verified: A owes B four ACKs *)
  let ack t_id =
    Result.get_ok
      (Chunk.control ~kind:Ctype.ack
         ~c:(Ftuple.v ~id:2 ~sn:0 ())
         ~t:(Ftuple.v ~id:t_id ~sn:0 ())
         ~x:Ftuple.zero (Bytes.make 4 '\000'))
  in
  let open_signal =
    Connection.signal_chunk ~conn_id:1 (Connection.Open { first_csn = 0 })
  in
  (* one envelope: signalling + data + piggybacked ACKs, mixed freely *)
  let mixed = (open_signal :: chunks_a) @ List.map ack [ 0; 1; 2; 3 ] in
  let packets = Result.get_ok (Packet.pack ~mtu:1500 mixed) in
  Printf.printf "host A sends %d packets carrying %d chunks:\n"
    (List.length packets) (List.length mixed);
  List.iteri
    (fun i p ->
      let kinds =
        Packet.chunks p
        |> List.map (fun c ->
               Format.asprintf "%a" Ctype.pp c.Chunk.header.Header.ctype)
      in
      Printf.printf "  packet %d: [%s]\n" (i + 1) (String.concat " " kinds))
    packets;

  (* host B: one match on TYPE routes everything *)
  let connections = Connection.create () in
  let verifier = Edc.Verifier.create () in
  let acked = ref [] and signals = ref 0 and verified = ref 0 in
  let routed = ref 0 in
  let route c =
    incr routed;
    match c.Chunk.header.Header.ctype with
    | Ctype.Data | Ctype.Control 1 (* ED *) ->
        List.iter
          (function
            | Edc.Verifier.Tpdu_verified { verdict = Edc.Verifier.Passed; _ }
              ->
                incr verified
            | _ -> ())
          (Edc.Verifier.on_chunk verifier c)
    | Ctype.Control 2 (* ACK *) ->
        acked := c.Chunk.header.Header.t.Ftuple.id :: !acked
    | Ctype.Control 3 (* signal *) ->
        ignore (Connection.on_chunk connections c);
        incr signals
    | Ctype.Control _ -> ()
  in
  List.iter
    (fun p ->
      match Wire.decode_packet (Packet.encode p) with
      | Ok chunks ->
          List.iter
            (fun c -> if not (Chunk.is_terminator c) then route c)
            chunks
      | Error e -> failwith e)
    packets;
  Printf.printf
    "host B demuxed %d chunks by TYPE: %d signal, %d piggybacked ACKs \
     (TPDUs %s),\n%d of A's TPDUs verified — piggybacking fell out of the \
     chunk syntax.\n"
    !routed !signals (List.length !acked)
    (String.concat "," (List.rev_map string_of_int !acked))
    !verified;
  assert (!signals = 1);
  assert (List.length !acked = 4);
  assert (!verified = 8);
  assert (Connection.established connections = [ 1 ])
