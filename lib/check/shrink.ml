type result = {
  schedule : Schedule.t;
  violations : Oracle.violation list;
  runs : int;
}

(* Simplifying rewrites, roughly ordered by how much schedule they
   delete.  Each returns [None] when it would not change anything. *)
let transforms (s : Schedule.t) : (string * Schedule.t) list =
  let t name cond v = if cond then Some (name, v) else None in
  let base =
    [
      (* robustness machinery first — deleting a whole adversary or
         outage removes the most schedule at once *)
      t "crashes=none" (s.crashes <> [])
        { s with crashes = []; snap_period = 0.0 };
      t "snap_period=0" (s.crashes <> [] && s.snap_period > 0.0)
        { s with snap_period = 0.0 };
      t "flood=none" (s.flood <> None) { s with flood = None };
      t "byz=none" (s.byz <> None) { s with byz = None };
      t "overlap=none" (s.overlap <> None) { s with overlap = None };
      t "outage=none" (s.outage <> None) { s with outage = None };
      t "shed=none" (s.shed <> None) { s with shed = None };
      t "blackhole=none" (s.ack_blackhole <> None)
        { s with ack_blackhole = None; give_up_txs = 40 };
      t "connections=1" (s.connections > 1) { s with connections = 1 };
      t "reopen=off" s.reopen { s with reopen = false };
      t "rto_adaptive=off" s.rto_adaptive { s with rto_adaptive = false };
      t "budget=0" (s.state_budget > 0) { s with state_budget = 0 };
      t "corrupt=0" (s.corrupt > 0.0) { s with corrupt = 0.0 };
      t "loss=0" (s.loss > 0.0) { s with loss = 0.0 };
      t "duplicate=0" (s.duplicate > 0.0) { s with duplicate = 0.0 };
      t "dropper=none" (s.dropper <> None) { s with dropper = None };
      t "jitter=0" (s.jitter > 0.0) { s with jitter = 0.0 };
      t "skew=0" (s.skew > 0.0) { s with skew = 0.0 };
      t "paths=1" (s.paths > 1) { s with paths = 1 };
      t "spread=rr"
        (s.spread <> Schedule.Round_robin)
        { s with spread = Schedule.Round_robin };
      t "sack=off" s.sack { s with sack = false };
      t "adaptive=off" s.adaptive { s with adaptive = false };
      t "window=1" (s.window > 1) { s with window = 1 };
      t "halve-data" (s.data_len > 8) { s with data_len = s.data_len / 2 };
      t "halve-frames"
        (s.frame_bytes > 8 * s.elem_size)
        { s with frame_bytes = s.elem_size * (s.frame_bytes / s.elem_size / 2) };
    ]
  in
  (* Dropping crashes one at a time keeps a counterexample that needs,
     say, only the second crash-restart replayable (the remaining crash
     list stays ordered and non-overlapping by construction). *)
  let drop_crashes =
    List.mapi
      (fun i _ ->
        Some
          ( Printf.sprintf "drop-crash-%d" i,
            { s with crashes = List.filteri (fun j _ -> j <> i) s.crashes } ))
      s.crashes
  in
  let drop_gateways =
    List.mapi
      (fun i _ ->
        Some
          ( Printf.sprintf "drop-gateway-%d" i,
            { s with gateways = List.filteri (fun j _ -> j <> i) s.gateways } ))
      s.gateways
  in
  (* Disarming one byzantine mode at a time (or dropping to one byz
     connection, or halving the flap rate) isolates which behaviour the
     counterexample actually needs. *)
  let shrink_byz =
    match s.byz with
    | None -> []
    | Some b ->
        let w name cond v =
          t name cond { s with byz = Some v }
        in
        [
          w "byz-acks=off" b.Schedule.bz_acks
            { b with Schedule.bz_acks = false };
          w "byz-sheds=off" b.Schedule.bz_sheds
            { b with Schedule.bz_sheds = false };
          w "byz-replay=off" b.Schedule.bz_replay
            { b with Schedule.bz_replay = false };
          w "byz-garbage=off" b.Schedule.bz_garbage
            { b with Schedule.bz_garbage = false };
          w "byz-conns=1"
            (b.Schedule.bz_conns > 1)
            { b with Schedule.bz_conns = 1 };
          w "byz-halve-rate"
            (b.Schedule.bz_rate > 50.0)
            { b with Schedule.bz_rate = b.Schedule.bz_rate /. 2.0 };
        ]
  in
  let unbatch =
    if List.exists (fun g -> g.Schedule.gw_batch > 1) s.gateways then
      Some
        ( "batch=1",
          {
            s with
            gateways =
              List.map (fun g -> { g with Schedule.gw_batch = 1 }) s.gateways;
          } )
    else None
  in
  List.filter_map Fun.id
    (base @ shrink_byz @ drop_crashes @ drop_gateways @ [ unbatch ])

let still_violating ?mutation s =
  let model = Model.of_schedule s in
  let observation = Driver.run ?mutation s in
  Oracle.check ~schedule:s ~model ~observation

(* Greedy fixpoint: keep the first simplification that preserves {e a}
   violation (not necessarily the same code — a simpler schedule that
   still breaks the stack is a better counterexample), restart from it,
   stop when nothing applies or the run budget is gone. *)
let shrink ?mutation ?(max_runs = 200) (s : Schedule.t)
    (violations : Oracle.violation list) =
  let runs = ref 0 in
  let rec go s violations =
    let rec try_transforms = function
      | [] -> { schedule = s; violations; runs = !runs }
      | (_name, candidate) :: rest ->
          if !runs >= max_runs then { schedule = s; violations; runs = !runs }
          else begin
            incr runs;
            match still_violating ?mutation candidate with
            | [] -> try_transforms rest
            | vs -> go candidate vs
          end
    in
    try_transforms (transforms s)
  in
  go s violations
