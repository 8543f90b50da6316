open Labelling

type stats = { injected : int; forged_opens : int; forged_tpdus : int }

type t = {
  engine : Netsim.Engine.t;
  rng : Netsim.Rng.t;
  rate : float;
  stop : float;
  legit_conns : int list;
  bogus_conns : int;
  elem_size : int;
  inject : bytes -> unit;
  mutable injected : int;
  mutable forged_opens : int;
  mutable forged_tpdus : int;
}

(* Bogus connection ids live far above any legitimate C.ID; forged
   T.IDs live far above any T.ID a legitimate sender epoch uses. *)
let bogus_conn_base = 100_000
let bogus_tid_base = 500_000

let send a chunk =
  match Wire.encode_packet [ chunk ] with
  | Error _ -> ()
  | Ok b ->
      a.injected <- a.injected + 1;
      a.inject b

let pick_legit a =
  match a.legit_conns with
  | [] -> 1
  | l -> List.nth l (Netsim.Rng.int a.rng (List.length l))

let forged_data_chunk a ~conn_id ~t_id =
  let payload = Bytes.make a.elem_size '\xA5' in
  let sn = Netsim.Rng.int a.rng 1024 in
  match
    Chunk.data ~size:a.elem_size
      ~c:(Ftuple.v ~id:conn_id ~sn ())
      ~t:(Ftuple.v ~id:t_id ~sn:(Netsim.Rng.int a.rng 16) ())
      ~x:(Ftuple.v ~id:t_id ~sn ())
      payload
  with
  | Ok c -> Some c
  | Error _ -> None

let fire a =
  match Netsim.Rng.int a.rng 5 with
  | 0 ->
      (* forged Open: a connection nobody will ever send data on — the
         receiver's admission and stale-connection GC must absorb it *)
      let cid = bogus_conn_base + Netsim.Rng.int a.rng a.bogus_conns in
      a.forged_opens <- a.forged_opens + 1;
      send a (Connection.signal_chunk ~conn_id:cid (Open { first_csn = 0 }))
  | 1 ->
      (* data for a connection that was never established: must be
         refused at the door (establishment precedes data) *)
      let cid = bogus_conn_base + Netsim.Rng.int a.rng a.bogus_conns in
      Option.iter (send a)
        (forged_data_chunk a ~conn_id:cid ~t_id:(Netsim.Rng.int a.rng 64))
  | 2 | 3 ->
      (* the state-exhaustion attack: a partial TPDU on a {e legitimate}
         connection that will never complete — its ED chunk never comes,
         so only the budget/deadline governor can reclaim it.  Its bytes
         are placed on arrival but never verified: placement refuses them
         over verified bytes, holds an honest newcomer over them in
         quarantine until that newcomer's verdict, and a close un-places
         them. *)
      let cid = pick_legit a in
      let t_id = bogus_tid_base + Netsim.Rng.int a.rng 4096 in
      a.forged_tpdus <- a.forged_tpdus + 1;
      Option.iter (send a) (forged_data_chunk a ~conn_id:cid ~t_id)
  | _ ->
      (* forged abort for a random (usually live) TPDU: at worst the
         receiver re-collects the state from the next retransmission *)
      let cid = pick_legit a in
      let t_id = Netsim.Rng.int a.rng 64 in
      send a (Connection.signal_chunk ~conn_id:cid (Abort_tpdu { t_id }))

let rec arm a =
  let interval = 1.0 /. a.rate in
  let delay = interval *. (0.5 +. Netsim.Rng.float a.rng 1.0) in
  Netsim.Engine.schedule a.engine ~delay (fun () ->
      if Netsim.Engine.now a.engine < a.stop then begin
        fire a;
        arm a
      end)

let create engine ~seed ~rate ~stop ~legit_conns ~bogus_conns ~elem_size
    ~inject () =
  if rate <= 0.0 then invalid_arg "Adversary.create: rate must be positive";
  let a =
    {
      engine;
      rng = Netsim.Rng.create ~seed;
      rate;
      stop;
      legit_conns;
      bogus_conns = max 1 bogus_conns;
      elem_size;
      inject;
      injected = 0;
      forged_opens = 0;
      forged_tpdus = 0;
    }
  in
  arm a;
  a

let stats a =
  {
    injected = a.injected;
    forged_opens = a.forged_opens;
    forged_tpdus = a.forged_tpdus;
  }
