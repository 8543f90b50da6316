module CT = Chunk_transport

type outcome = {
  ok : bool;
  sim_time : float;
  sent_bytes : int;
  wire_bytes : int;
  retransmissions : int;
  sack_retransmissions : int;
  element_delay : Netsim.Stats.summary option;
  tpdu_latency : Netsim.Stats.summary option;
  bus_crossings_per_byte : float;
  goodput_bps : float;
  final_tpdu_elems : int;
  verifier : Edc.Verifier.stats;
  final_rto : float;
  rtt_samples : int;
  max_txs_at_rtt_sample : int;
  tally : Tally.t;
  shed_spans : (int * int) list;
  delivered : bytes;
}

(* Byte-exact outside the shed spans: the partial-reliability delivery
   contract.  [spans] are element runs ([elem_size] bytes each). *)
let equal_outside_sheds ~elem_size ~spans ~expected ~delivered =
  let n = Bytes.length expected in
  Bytes.length delivered >= n
  &&
  let shed = Bytes.make n '\000' in
  List.iter
    (fun (sn, len) ->
      let off = sn * elem_size and nb = len * elem_size in
      if off >= 0 && nb > 0 && off + nb <= n then Bytes.fill shed off nb '\001')
    spans;
  let rec agree i =
    i = n
    || (Bytes.get shed i = '\001' || Bytes.get delivered i = Bytes.get expected i)
       && agree (i + 1)
  in
  agree 0

type t = {
  engine : Netsim.Engine.t;
  endpoint : Multi.t;
  sender : CT.Sender.t;
  conn_id : int;
  (* the epoch's receiver, kept from the moment the Open creates it: an
     epoch the endpoint archives lets go of its receiver, whose delay
     samples a caller may still read *)
  epoch_rx : CT.Receiver.t option ref;
}

let connect ?bus ?persist ?(forward = Fun.id) ?(reverse = Fun.id) engine
    config ~quota_elems source =
  let endpoint = ref None and sender = ref None and epoch_rx = ref None in
  let send =
    forward (fun b ->
        Option.iter
          (fun m ->
            Multi.ingest m b;
            if Option.is_none !epoch_rx then
              epoch_rx := List.nth_opt (Multi.receivers m) 0)
          !endpoint)
  in
  let send_ack =
    reverse (fun b -> Option.iter (fun s -> CT.Sender.on_packet s b) !sender)
  in
  let tx =
    match source with
    | `Data data ->
        CT.Sender.create engine config ~announce_open:true ~send ~data ()
    | `Tpdus tpdus ->
        CT.Sender.of_tpdus engine config ~announce_open:true ~send tpdus
  in
  sender := Some tx;
  let m =
    Multi.create engine ~config ~quota_elems ~max_conns:1 ?bus ?persist
      ~send_ack ()
  in
  endpoint := Some m;
  CT.Sender.start tx;
  { engine; endpoint = m; sender = tx; conn_id = config.CT.conn_id; epoch_rx }

let endpoint w = w.endpoint
let sender w = w.sender

(* The transfer is over when the sender is: every TPDU acknowledged or
   given up.  What the engine still holds (spent timers, the endpoint's
   sweep of the idle connection) is not part of it.  The connection
   memo adds its counts to the registry only when they are read, so
   they are read once here, for the registry to count the transfer. *)
let finish w =
  while (not (CT.Sender.finished w.sender)) && Netsim.Engine.step w.engine do
    ()
  done;
  ignore (Multi.fastpath_stats w.endpoint : Multi.fastpath_stats)

let epoch w =
  match Multi.epochs w.endpoint ~conn_id:w.conn_id with
  | [ e ] -> Some e
  | _ -> None

let run ?(seed = 0x5EED) ?(config = CT.default_config) ?(loss = 0.0)
    ?(corrupt = 0.0) ?(duplicate = 0.0) ?(paths = 8) ?(skew = 0.25e-3)
    ?(rate_bps = 155e6) ?(delay = 1e-3) ?(gateways = []) ~data () =
  let engine = Netsim.Engine.create ~seed () in
  let bus = Busmodel.create () in
  let n = Bytes.length data in
  (* Build the in-network gateway chain back to front: each gateway
     re-envelopes chunks for its outgoing MTU and forwards over its own
     clean link — the paper's arbitrary mixture of intra- and
     inter-network fragmentation, fully transparent end to end. *)
  let forward to_endpoint =
    let first_hop_deliver =
      List.fold_left
        (fun downstream (policy, out_mtu) ->
          if out_mtu <= Labelling.Wire.header_size then
            invalid_arg
              (Printf.sprintf
                 "Transfer.run: gateway MTU %d cannot hold a chunk header"
                 out_mtu);
          let out_link =
            Netsim.Link.create engine ~rate_bps ~delay ~mtu:out_mtu
              ~deliver:downstream ()
          in
          let gw =
            Netsim.Gateway.create ~policy
              ~forward:(fun b -> ignore (Netsim.Link.send out_link b))
              ~out_mtu ()
          in
          fun b -> Netsim.Gateway.on_packet gw b)
        to_endpoint (List.rev gateways)
    in
    let mp =
      Netsim.Multipath.create engine ~paths ~rate_bps ~delay ~skew
        ~mtu:config.CT.mtu ~loss ~corrupt ~duplicate ~deliver:first_hop_deliver
        ()
    in
    fun b -> ignore (Netsim.Multipath.send mp b)
  in
  let reverse to_sender =
    let link =
      Netsim.Link.create engine ~name:"ack" ~rate_bps:1e9 ~delay
        ~mtu:config.CT.mtu ~deliver:to_sender ()
    in
    fun b -> ignore (Netsim.Link.send link b)
  in
  let w =
    connect ~bus ~forward ~reverse engine config
      ~quota_elems:(CT.expected_elements config ~data_len:n)
      (`Data data)
  in
  finish w;
  let m = w.endpoint and tx = w.sender and epoch = !(w.epoch_rx) in
  let stats f = Option.bind epoch (fun rx -> Netsim.Stats.summary (f rx)) in
  let delivered, complete, shed_spans, verifier =
    match epoch with
    | Some rx ->
        ( CT.Receiver.contents rx,
          CT.Receiver.complete rx,
          CT.Receiver.shed_spans rx,
          CT.Receiver.verifier_stats rx )
    | None -> (Bytes.empty, false, [], Multi.verifier_stats m)
  in
  let sim_time = Netsim.Engine.now engine in
  {
    ok =
      (not (CT.Sender.gave_up tx))
      && complete
      && equal_outside_sheds ~elem_size:config.CT.elem_size ~spans:shed_spans
           ~expected:data ~delivered;
    sim_time;
    sent_bytes = n;
    wire_bytes = CT.Sender.bytes_sent tx;
    retransmissions = CT.Sender.retransmissions tx;
    sack_retransmissions = CT.Sender.sack_retransmissions tx;
    element_delay = stats CT.Receiver.element_delay;
    tpdu_latency = stats CT.Receiver.tpdu_latency;
    bus_crossings_per_byte = Busmodel.per_byte bus ~delivered:n;
    goodput_bps =
      (if sim_time > 0.0 then float_of_int (8 * n) /. sim_time else 0.0);
    final_tpdu_elems = CT.Sender.current_tpdu_elems tx;
    verifier;
    final_rto = CT.Sender.current_rto tx;
    rtt_samples = CT.Sender.rtt_samples tx;
    max_txs_at_rtt_sample = CT.Sender.max_txs_at_rtt_sample tx;
    tally = Multi.tally m [ tx ];
    shed_spans;
    delivered;
  }
