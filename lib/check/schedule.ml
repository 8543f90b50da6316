open Labelling

type profile =
  | Clean
  | Lossy
  | Hostile
  | Hostile_flood
  | Outage_recover
  | Crash_restart
  | Crash_flood
  | Overlap_hostile
  | Degrade_hostile
  | Fastpath_hostile
  | Byzantine_hostile

let profiles =
  [
    ("clean", Clean);
    ("lossy", Lossy);
    ("hostile", Hostile);
    ("hostile-flood", Hostile_flood);
    ("outage-recover", Outage_recover);
    ("crash-restart", Crash_restart);
    ("crash-flood", Crash_flood);
    ("overlap-hostile", Overlap_hostile);
    ("degrade-hostile", Degrade_hostile);
    ("fastpath-hostile", Fastpath_hostile);
    ("byzantine-hostile", Byzantine_hostile);
  ]

let all_profiles = List.map snd profiles

type spread = Round_robin | Random_path | Route_change of float

type gateway = {
  gw_policy : Repack.policy;
  gw_mtu : int;
  gw_batch : int;
}

type dropper = { drop_mode : Netsim.Dropper.mode; drop_loss : float }

type outage = {
  out_hold : bool;  (** pause-and-replay instead of discard *)
  out_start : float;
  out_duration : float;
}

type flood = {
  flood_rate : float;  (** forged packets per simulated second *)
  flood_stop : float;  (** injection ends here *)
  flood_conns : int;  (** distinct bogus connection ids in play *)
}

type crash = {
  cr_time : float;  (** the receiver endpoint dies here *)
  cr_restart : float;  (** downtime before restart from the persisted image *)
}

type shed = {
  sh_every : int;
      (** every [sh_every]-th TPDU is declared sheddable (the last TPDU
          never is — it carries the C.ST stream-end marker) *)
  sh_txs : int;  (** sender sheds a sheddable TPDU after this many txs *)
}

type overlap = {
  ov_rate : float;  (** injections per simulated second *)
  ov_stop : float;  (** injection ends here *)
  ov_dup : bool;  (** divergent duplicates of observed chunks *)
  ov_forge : bool;  (** forged validly-labelled TPDUs over observed ranges *)
  ov_resplit : bool;  (** overlapping gateway-style re-split chains *)
}

type byz = {
  bz_rate : float;  (** hostile actions per simulated second *)
  bz_stop : float;  (** the byzantine peer goes quiet here *)
  bz_conns : int;  (** distinct byzantine connection ids in play *)
  bz_acks : bool;
      (** ACKs for never-sent TPDUs and contradictory ACK/NACK pairs on
          the reverse path *)
  bz_sheds : bool;  (** forged [Shed_tpdu] naming honest Critical TPDUs *)
  bz_replay : bool;  (** verbatim replays of signals from archived epochs *)
  bz_garbage : bool;
      (** extra label-plausible garbage TPDUs sealed with self-consistent
          WSC-2 parities (they verify; the labels are the only lie) *)
}

type t = {
  seed : int;
  profile : profile;
  (* transfer *)
  data_len : int;
  elem_size : int;
  tpdu_elems : int;
  frame_bytes : int;
  mtu : int;
  window : int;
  rto : float;
  sack : bool;
  adaptive : bool;
  nack_delay : float;
  (* control plane *)
  rto_adaptive : bool;
  give_up_txs : int;
  state_budget : int;
  state_ttl : float;
  connections : int;
  reopen : bool;
  (* topology *)
  paths : int;
  skew : float;
  jitter : float;
  spread : spread;
  rate_bps : float;
  delay : float;
  gateways : gateway list;
  (* faults *)
  loss : float;
  corrupt : float;
  duplicate : float;
  dropper : dropper option;
  ack_blackhole : (float * float) option;
  outage : outage option;
  flood : flood option;
  overlap : overlap option;
  shed : shed option;
  crashes : crash list;
  snap_period : float;  (** full-snapshot interval; 0 = ACK-journal only *)
  byz : byz option;
      (** a wire-conformant but protocol-violating peer; the
          [blast-radius] oracle row re-runs the schedule with this peer
          removed and demands identical honest outcomes *)
}

let faultless s =
  s.loss = 0.0 && s.corrupt = 0.0 && s.duplicate = 0.0 && s.jitter = 0.0
  && s.dropper = None && s.ack_blackhole = None && s.outage = None
  && s.flood = None && s.overlap = None && s.shed = None && s.crashes = []
  && s.byz = None

(* Schedules with several connections, connection reuse, or
   adversarial connection traffic: the oracle checks them epoch by
   epoch, and the rest as one transfer (connection 1's epoch 0). *)
let multi_mode s =
  s.connections > 1 || s.reopen || s.flood <> None || s.byz <> None

(* The TPDU partition of one stream, mirroring [Framer]'s cutting rules
   (and [Model.of_schedule]): frames pad to whole elements, a TPDU
   boundary falls every [tpdu_elems] elements plus once at the stream
   end.  Only a fixed (non-adaptive) partition is deterministic, which
   is why a shed schedule forbids [adaptive]. *)
let n_elems s =
  let full = s.data_len / s.frame_bytes in
  let rem = s.data_len mod s.frame_bytes in
  (full * (s.frame_bytes / s.elem_size))
  + ((rem + s.elem_size - 1) / s.elem_size)

let n_tpdus s = (n_elems s + s.tpdu_elems - 1) / s.tpdu_elems

(* The shed contract both endpoints (and the oracle) derive from the
   schedule alone: every [sh_every]-th TPDU is sheddable, except the
   last — it carries the C.ST stream-end marker, without which a
   [`Quota] receiver can never learn the stream ended. *)
let sheddable_tid s ~t_id =
  match s.shed with
  | None -> false
  | Some sh ->
      let n = n_tpdus s in
      t_id >= 0 && t_id < n - 1 && t_id mod sh.sh_every = sh.sh_every - 1

let classify_of s t_id =
  if sheddable_tid s ~t_id then Significance.Sheddable 1
  else Significance.Normal

let config_of s =
  {
    Transport.Chunk_transport.conn_id = 1;
    elem_size = s.elem_size;
    tpdu_elems = s.tpdu_elems;
    frame_bytes = s.frame_bytes;
    mtu = s.mtu;
    window = s.window;
    rto = s.rto;
    rto_adaptive = s.rto_adaptive;
    adaptive = s.adaptive;
    sack = s.sack;
    nack_delay = s.nack_delay;
    give_up_txs = s.give_up_txs;
    state_budget = s.state_budget;
    state_ttl = s.state_ttl;
    classify = classify_of s;
    shed_txs = (match s.shed with None -> 0 | Some sh -> sh.sh_txs);
  }

(* The payload both the driver (what gets sent) and the model (what must
   come out) derive from the schedule alone.  Every (connection, epoch)
   pair gets its own stream; (1, 0) is the classic single-transfer
   payload. *)
let data_of_conn s ~conn ~epoch =
  let salt = ((conn - 1) * 0x9E3779B9) lxor (epoch * 0x517CC1B) in
  let rng = Netsim.Rng.create ~seed:(s.seed lxor 0x0DA7A5EED lxor salt) in
  Bytes.init s.data_len (fun _ -> Netsim.Rng.byte rng)

let data_of s = data_of_conn s ~conn:1 ~epoch:0

(* An RTO that a fault-free run can never beat: round trip across every
   hop, full inter-path skew, the gateways' batching delay, and the
   serialisation of a whole window (amplified for envelope-per-chunk
   repacking), with margin.  Clean-profile oracles assert {e zero}
   retransmissions, so this must be an overestimate, never a guess. *)
let estimate_rto s =
  let hops = float_of_int (List.length s.gateways + 2) in
  let tpdu_bytes = s.tpdu_elems * s.elem_size in
  let inflight = float_of_int (s.window * (tpdu_bytes + 2048)) in
  let amplification =
    if
      List.exists
        (fun g -> g.gw_policy = Repack.One_per_packet || g.gw_mtu < 512)
        s.gateways
    then 8.0
    else 2.0
  in
  let ser = inflight *. 8.0 /. s.rate_bps *. amplification in
  let t =
    0.05
    +. (2.0 *. s.delay *. hops)
    +. (float_of_int s.paths *. s.skew)
    +. (12.0 *. s.jitter)
    +. (0.02 *. hops) +. ser
  in
  Float.min 2.0 t

(* A state budget that comfortably covers the legitimate working set —
   every live connection's placement quota plus a full window of
   per-TPDU soft state each — so budget evictions hit only state nobody
   is refreshing (abandoned or forged).  Kept tight enough that a flood
   cannot park unbounded garbage below it. *)
let estimate_budget s =
  let tpdu_bytes = s.tpdu_elems * s.elem_size in
  let per_tpdu = (2 * tpdu_bytes) + (32 * s.tpdu_elems) + 1024 in
  let full = s.data_len / s.frame_bytes in
  let rem = s.data_len mod s.frame_bytes in
  let elems =
    (full * (s.frame_bytes / s.elem_size))
    + ((rem + s.elem_size - 1) / s.elem_size)
  in
  let conn_quota = (elems * s.elem_size) + 256 in
  (2 * s.connections * ((s.window * per_tpdu) + conn_quota)) + 65536

let float_in rng lo hi = lo +. Netsim.Rng.float rng (hi -. lo)
let int_in rng lo hi = lo + Netsim.Rng.int rng (hi - lo + 1)

let gen_gateway rng =
  let gw_policy =
    match Netsim.Rng.int rng 3 with
    | 0 -> Repack.One_per_packet
    | 1 -> Repack.Combine
    | _ -> Repack.Reassemble
  in
  {
    gw_policy;
    gw_mtu = int_in rng 160 2048;
    gw_batch = 1 + Netsim.Rng.int rng 4;
  }

let generate ~profile ~seed =
  let rng = Netsim.Rng.create ~seed:(seed lxor 0x5C4ED) in
  let elem_size = if Netsim.Rng.bool rng 0.5 then 4 else 8 in
  let tpdu_elems =
    int_in rng 16 (min 512 (Edc.Invariant.max_tpdu_elems ~size:elem_size))
  in
  let frame_bytes = elem_size * int_in rng 8 256 in
  let data_len =
    match profile with
    | Clean -> int_in rng 1 32768
    | Lossy | Hostile | Outage_recover | Crash_restart | Overlap_hostile
    | Fastpath_hostile ->
        int_in rng 1 16384
    | Hostile_flood | Crash_flood | Byzantine_hostile -> int_in rng 1 8192
    | Degrade_hostile ->
        (* enough data for several TPDUs, so the shed pattern has
           something to bite on *)
        int_in rng 2048 16384
  in
  let gateways = List.init (Netsim.Rng.int rng 4) (fun _ -> gen_gateway rng) in
  let jitter =
    match profile with
    | Clean -> 0.0
    | Lossy | Hostile | Hostile_flood | Outage_recover | Crash_restart
    | Crash_flood | Overlap_hostile | Degrade_hostile | Fastpath_hostile
    | Byzantine_hostile ->
        if Netsim.Rng.bool rng 0.5 then float_in rng 0.0 3e-4 else 0.0
  in
  let dropper =
    match profile with
    | Clean | Outage_recover | Crash_restart | Crash_flood | Overlap_hostile
    | Byzantine_hostile ->
        None
    | Lossy | Hostile | Hostile_flood | Fastpath_hostile ->
        if Netsim.Rng.bool rng 0.3 then
          Some
            {
              drop_mode =
                (if Netsim.Rng.bool rng 0.5 then Netsim.Dropper.Whole_tpdu
                 else Netsim.Dropper.Random);
              drop_loss = float_in rng 0.005 0.05;
            }
        else None
    | Degrade_hostile ->
        (* sustained congestion aimed at sheddable traffic only: heavy
           enough (10-30%) that sheddable TPDUs hit the shed policy's
           transmission bound while Critical traffic rides through *)
        Some
          {
            drop_mode = Netsim.Dropper.By_class;
            drop_loss = float_in rng 0.1 0.3;
          }
  in
  let shed =
    match profile with
    | Degrade_hostile ->
        Some { sh_every = int_in rng 2 4; sh_txs = int_in rng 2 4 }
    | _ -> None
  in
  let connections =
    match profile with
    | Hostile_flood | Crash_flood -> int_in rng 2 4
    | Fastpath_hostile ->
        (* a mix of single-receiver and demultiplexed runs *)
        int_in rng 1 3
    | Byzantine_hostile ->
        (* the honest population the blast-radius oracle watches *)
        int_in rng 1 3
    | _ -> 1
  in
  let reopen =
    ((profile = Hostile_flood || profile = Crash_flood)
    && Netsim.Rng.bool rng 0.6)
    || (profile = Fastpath_hostile && Netsim.Rng.bool rng 0.3)
  in
  let ack_blackhole =
    (* a permanently dead reverse path: the sender must give up cleanly
       and the receiver must evict, never leak *)
    if profile = Hostile_flood && Netsim.Rng.bool rng 0.25 then
      Some (float_in rng 0.0 0.1, infinity)
    else None
  in
  let flood =
    match profile with
    | Hostile_flood ->
        Some
          {
            flood_rate = float_in rng 200.0 2000.0;
            flood_stop = float_in rng 0.2 1.0;
            flood_conns = int_in rng 4 32;
          }
    | Crash_flood ->
        (* lighter than Hostile_flood: the crash-restart machinery is the
           subject under test, the flood is background pressure *)
        Some
          {
            flood_rate = float_in rng 100.0 1000.0;
            flood_stop = float_in rng 0.2 0.6;
            flood_conns = int_in rng 4 16;
          }
    | _ -> None
  in
  let overlap =
    match profile with
    | Overlap_hostile ->
        let ov_dup = Netsim.Rng.bool rng 0.6 in
        let ov_resplit = Netsim.Rng.bool rng 0.6 in
        (* the forged-TPDU mode is the one that reliably provokes
           placement conflicts; keep at least one mode armed *)
        let ov_forge =
          Netsim.Rng.bool rng 0.8 || not (ov_dup || ov_resplit)
        in
        Some
          {
            ov_rate = float_in rng 20.0 200.0;
            ov_stop = float_in rng 0.2 1.0;
            ov_dup;
            ov_forge;
            ov_resplit;
          }
    | _ -> None
  in
  let base =
    {
      seed;
      profile;
      data_len;
      elem_size;
      tpdu_elems;
      frame_bytes;
      mtu = int_in rng 256 2048;
      window = int_in rng 1 8;
      rto = 0.0 (* filled below *);
      sack = Netsim.Rng.bool rng 0.5;
      adaptive =
        (* a shed span is derived from the schedule's fixed TPDU
           partition, so the partition must not move mid-flight *)
        Netsim.Rng.bool rng 0.3 && shed = None;
      nack_delay = 0.0 (* filled below *);
      rto_adaptive = false (* filled below *);
      give_up_txs = 40;
      state_budget = 0 (* filled below *);
      state_ttl = 0.0 (* filled below *);
      connections;
      reopen;
      paths = int_in rng 1 8;
      skew = float_in rng 0.0 5e-4;
      jitter;
      spread =
        (match Netsim.Rng.int rng 3 with
        | 0 -> Round_robin
        | 1 -> Random_path
        | _ -> Route_change (float_in rng 0.005 0.1));
      rate_bps = float_in rng 5e7 6e8;
      delay = float_in rng 1e-4 2e-3;
      gateways;
      loss =
        (match profile with
        | Clean -> 0.0
        | Crash_restart | Crash_flood | Overlap_hostile | Degrade_hostile
        | Byzantine_hostile ->
            (* light loss: enough to keep TPDUs in flight across crash
               points (or exercise Critical retransmission under
               degradation), not enough to drown the recovery signal *)
            if Netsim.Rng.bool rng 0.5 then float_in rng 0.0 0.03 else 0.0
        | Lossy | Hostile | Hostile_flood | Outage_recover
        | Fastpath_hostile ->
            if Netsim.Rng.bool rng 0.7 then float_in rng 0.0 0.08 else 0.0);
      corrupt =
        (match profile with
        | Clean | Lossy | Outage_recover | Crash_restart | Degrade_hostile
        | Byzantine_hostile ->
            (* no corruption: keeps anomaly attribution unambiguous, so
               the blast-radius comparison isolates byzantine effects *)
            0.0
        | Crash_flood -> float_in rng 0.002 0.02
        | Hostile | Hostile_flood | Overlap_hostile | Fastpath_hostile ->
            float_in rng 0.002 0.04);
      duplicate =
        (match profile with
        | Clean -> 0.0
        | Lossy | Hostile | Hostile_flood | Outage_recover | Crash_restart
        | Crash_flood | Overlap_hostile | Degrade_hostile
        | Fastpath_hostile | Byzantine_hostile ->
            if Netsim.Rng.bool rng 0.5 then float_in rng 0.0 0.05 else 0.0);
      dropper;
      ack_blackhole;
      outage = None (* filled below *);
      flood;
      overlap;
      shed;
      crashes = [] (* filled below *);
      snap_period = 0.0 (* filled below *);
      byz = None (* drawn last, below *);
    }
  in
  let rto = estimate_rto base in
  (* A clean run must never see a gap last long enough to NACK; a faulty
     run recovers faster by NACKing early. *)
  let nack_delay = if faultless base then rto else Float.max 0.01 (rto /. 4.0) in
  let outage =
    match profile with
    | Outage_recover ->
        (* long enough to hurt (many RTOs) but far short of the give-up
           horizon: capped backoff spends ~300 RTOs before abandoning *)
        Some
          {
            out_hold = Netsim.Rng.bool rng 0.5;
            out_start = float_in rng 0.01 0.2;
            out_duration = float_in rng (10.0 *. rto) (50.0 *. rto);
          }
    | _ -> None
  in
  (* Crash points land where TPDUs are provably mid-flight: the first a
     couple of RTOs in, each next one a couple of RTOs after the previous
     restart, so every crash interrupts live transfer state.  Downtime is
     a few RTOs — the sender's capped backoff rides it out without
     approaching the give-up horizon. *)
  let crashes =
    match profile with
    | Crash_restart | Crash_flood ->
        let n =
          match profile with Crash_restart -> int_in rng 1 3 | _ -> int_in rng 1 2
        in
        let rec gen i t0 acc =
          if i = 0 then List.rev acc
          else begin
            let cr_time = t0 +. float_in rng (2.0 *. rto) (8.0 *. rto) in
            let cr_restart = float_in rng (2.0 *. rto) (6.0 *. rto) in
            gen (i - 1) (cr_time +. cr_restart) ({ cr_time; cr_restart } :: acc)
          end
        in
        gen n (float_in rng 0.005 0.05) []
    | Byzantine_hostile ->
        (* occasionally crash mid-attack: quarantine state must survive
           the restore (it is journalled) *)
        if Netsim.Rng.bool rng 0.3 then begin
          let cr_time = float_in rng (2.0 *. rto) (8.0 *. rto) in
          let cr_restart = float_in rng (2.0 *. rto) (6.0 *. rto) in
          [ { cr_time; cr_restart } ]
        end
        else []
    | _ -> []
  in
  let snap_period =
    match profile with
    | Crash_restart | Crash_flood -> float_in rng (5.0 *. rto) (20.0 *. rto)
    | Byzantine_hostile when crashes <> [] ->
        float_in rng (5.0 *. rto) (20.0 *. rto)
    | _ -> 0.0
  in
  (* The RTO estimator only makes sense against real adversity, and a
     faultless run's quiet-wire oracle must never be exposed to an
     estimator's early samples. *)
  let rto_adaptive =
    profile <> Clean
    && (not (faultless { base with outage; crashes }))
    && Netsim.Rng.bool rng 0.5
  in
  let give_up_txs =
    if base.ack_blackhole <> None then int_in rng 6 10 else 40
  in
  (* The TTL must exceed every legitimate quiet period: the longest gap
     between retransmissions of one TPDU is 8 RTOs (capped backoff), an
     outage adds its whole duration, and a crash adds its downtime. *)
  let state_ttl =
    let floor_ttl = Float.max (30.0 *. rto) 5.0 in
    let floor_ttl =
      match outage with
      | Some o -> Float.max floor_ttl (2.0 *. o.out_duration)
      | None -> floor_ttl
    in
    List.fold_left
      (fun acc c -> Float.max acc (4.0 *. c.cr_restart))
      floor_ttl crashes
  in
  let state_budget =
    match profile with
    | Hostile_flood | Crash_flood -> estimate_budget base
    | _ -> 0
  in
  (* The draw of a retired field, kept so every generated schedule stays
     as it was. *)
  if profile <> Fastpath_hostile then ignore (Netsim.Rng.bool rng (1.0 /. 3.0));
  (* Drawn last so the field's introduction leaves every earlier draw
     of existing profiles' schedules unchanged.  The flap rate is kept
     high enough that an unquarantined peer demonstrably exceeds the
     isolation budget, which is what lets the byz-clobber mutation be
     caught. *)
  let byz =
    match profile with
    | Byzantine_hostile ->
        Some
          {
            bz_rate = float_in rng 150.0 400.0;
            bz_stop = float_in rng 0.5 1.0;
            bz_conns = int_in rng 1 2;
            bz_acks = Netsim.Rng.bool rng 0.6;
            bz_sheds = Netsim.Rng.bool rng 0.6;
            bz_replay = Netsim.Rng.bool rng 0.6;
            bz_garbage = Netsim.Rng.bool rng 0.6;
          }
    | _ -> None
  in
  {
    base with
    rto;
    nack_delay;
    rto_adaptive;
    give_up_txs;
    state_ttl;
    state_budget;
    outage;
    crashes;
    snap_period;
    byz;
  }

(* {2 Flat text round-trip}

   One [key=value] token per entry of [fields], space-separated, in
   table order.  Each value's text form is built from the codecs below,
   so a field's printer and parser cannot disagree.  Floats print as
   %.17g so parsing reproduces them bit-exactly — a shrunk
   counterexample must replay the violation byte for byte. *)

type 'a codec = {
  print : 'a -> string;
  parse : string -> 'a option;
  finite : 'a -> bool;
      (* no float inside is NaN, nor an infinity the field does not allow *)
}

let any _ = true
let int = { print = string_of_int; parse = int_of_string_opt; finite = any }
let bool = { print = string_of_bool; parse = bool_of_string_opt; finite = any }

let float =
  {
    print = Printf.sprintf "%.17g";
    parse = float_of_string_opt;
    finite = Float.is_finite;
  }

(* A duration that may be [infinity]: a window that never closes. *)
let duration =
  { float with finite = (fun d -> Float.is_finite d || d = infinity) }

let enum table =
  {
    print = (fun v -> fst (List.find (fun (_, v') -> v' = v) table));
    parse = (fun name -> List.assoc_opt name table);
    finite = any;
  }

let map decode encode c =
  {
    print = (fun v -> c.print (encode v));
    parse = (fun str -> Option.map decode (c.parse str));
    finite = (fun v -> c.finite (encode v));
  }

(* ["-"] stands for an absent value or an empty list. *)
let opt c =
  {
    print = (function None -> "-" | Some v -> c.print v);
    parse =
      (function "-" -> Some None | str -> Option.map Option.some (c.parse str));
    finite = (function None -> true | Some v -> c.finite v);
  }

let list c =
  {
    print =
      (function [] -> "-" | vs -> String.concat "," (List.map c.print vs));
    parse =
      (function
      | "-" -> Some []
      | str ->
          List.fold_right
            (fun tok acc ->
              match (c.parse tok, acc) with
              | Some v, Some vs -> Some (v :: vs)
              | _ -> None)
            (String.split_on_char ',' str)
            (Some []));
    finite = List.for_all c.finite;
  }

(* Colon-separated parts.  Right-associative: [a ^: b ^: c] is the
   codec of [(a, (b, c))].  The split is at the first colon, so every
   part but the last must print without one; a surplus part lands in
   the last part's text and fails to parse. *)
let ( ^: ) a b =
  {
    print = (fun (x, y) -> a.print x ^ ":" ^ b.print y);
    parse =
      (fun str ->
        match String.index_opt str ':' with
        | None -> None
        | Some i -> (
            let tail = String.sub str (i + 1) (String.length str - i - 1) in
            match (a.parse (String.sub str 0 i), b.parse tail) with
            | Some x, Some y -> Some (x, y)
            | _ -> None));
    finite = (fun (x, y) -> a.finite x && b.finite y);
  }

let profile = enum profiles
let profile_name = profile.print
let profile_of_name = profile.parse

let spread =
  {
    print =
      (function
      | Round_robin -> "rr"
      | Random_path -> "random"
      | Route_change t -> "change:" ^ float.print t);
    parse =
      (function
      | "rr" -> Some Round_robin
      | "random" -> Some Random_path
      | str -> (
          match String.split_on_char ':' str with
          | [ "change"; t ] ->
              Option.map (fun t -> Route_change t) (float.parse t)
          | _ -> None));
    finite = (function Route_change t -> float.finite t | _ -> true);
  }

let gateway =
  map
    (fun (gw_policy, (gw_mtu, gw_batch)) -> { gw_policy; gw_mtu; gw_batch })
    (fun g -> (g.gw_policy, (g.gw_mtu, g.gw_batch)))
    (enum
       [
         ("one", Repack.One_per_packet);
         ("combine", Repack.Combine);
         ("reassemble", Repack.Reassemble);
       ]
    ^: int ^: int)

let dropper =
  map
    (fun (drop_mode, drop_loss) -> { drop_mode; drop_loss })
    (fun d -> (d.drop_mode, d.drop_loss))
    (enum
       [
         ("random", Netsim.Dropper.Random);
         ("tpdu", Netsim.Dropper.Whole_tpdu);
         ("class", Netsim.Dropper.By_class);
       ]
    ^: float)

let outage =
  map
    (fun (out_hold, (out_start, out_duration)) ->
      { out_hold; out_start; out_duration })
    (fun o -> (o.out_hold, (o.out_start, o.out_duration)))
    (enum [ ("hold", true); ("drop", false) ] ^: float ^: duration)

let flood =
  map
    (fun (flood_rate, (flood_stop, flood_conns)) ->
      { flood_rate; flood_stop; flood_conns })
    (fun f -> (f.flood_rate, (f.flood_stop, f.flood_conns)))
    (float ^: float ^: int)

let overlap =
  map
    (fun (ov_rate, (ov_stop, (ov_dup, (ov_forge, ov_resplit)))) ->
      { ov_rate; ov_stop; ov_dup; ov_forge; ov_resplit })
    (fun o ->
      (o.ov_rate, (o.ov_stop, (o.ov_dup, (o.ov_forge, o.ov_resplit)))))
    (float ^: float ^: bool ^: bool ^: bool)

let shed =
  map
    (fun (sh_every, sh_txs) -> { sh_every; sh_txs })
    (fun sh -> (sh.sh_every, sh.sh_txs))
    (int ^: int)

let crash =
  map
    (fun (cr_time, cr_restart) -> { cr_time; cr_restart })
    (fun c -> (c.cr_time, c.cr_restart))
    (float ^: float)

let byz =
  map
    (fun (bz_rate, (bz_stop, (bz_conns, (acks, (sheds, (replay, garbage)))))) ->
      {
        bz_rate;
        bz_stop;
        bz_conns;
        bz_acks = acks;
        bz_sheds = sheds;
        bz_replay = replay;
        bz_garbage = garbage;
      })
    (fun b ->
      ( b.bz_rate,
        ( b.bz_stop,
          (b.bz_conns, (b.bz_acks, (b.bz_sheds, (b.bz_replay, b.bz_garbage))))
        ) ))
    (float ^: float ^: int ^: bool ^: bool ^: bool ^: bool)

(* One entry per schedule field: its key, its codec, and how to read and
   write it.  [to_string], [of_string], [unknown_fields] and [validate]'s
   finiteness check all walk this table. *)
type field = Field : string * 'a codec * (t -> 'a) * (t -> 'a -> t) -> field

let fields =
  [
    Field ("seed", int, (fun s -> s.seed), fun s seed -> { s with seed });
    Field ("profile", profile, (fun s -> s.profile),
      fun s profile -> { s with profile });
    Field ("data_len", int, (fun s -> s.data_len),
      fun s data_len -> { s with data_len });
    Field ("elem_size", int, (fun s -> s.elem_size),
      fun s elem_size -> { s with elem_size });
    Field ("tpdu_elems", int, (fun s -> s.tpdu_elems),
      fun s tpdu_elems -> { s with tpdu_elems });
    Field ("frame_bytes", int, (fun s -> s.frame_bytes),
      fun s frame_bytes -> { s with frame_bytes });
    Field ("mtu", int, (fun s -> s.mtu), fun s mtu -> { s with mtu });
    Field ("window", int, (fun s -> s.window),
      fun s window -> { s with window });
    Field ("rto", float, (fun s -> s.rto), fun s rto -> { s with rto });
    Field ("sack", bool, (fun s -> s.sack), fun s sack -> { s with sack });
    Field ("adaptive", bool, (fun s -> s.adaptive),
      fun s adaptive -> { s with adaptive });
    Field ("nack_delay", float, (fun s -> s.nack_delay),
      fun s nack_delay -> { s with nack_delay });
    Field ("rto_adaptive", bool, (fun s -> s.rto_adaptive),
      fun s rto_adaptive -> { s with rto_adaptive });
    Field ("give_up_txs", int, (fun s -> s.give_up_txs),
      fun s give_up_txs -> { s with give_up_txs });
    Field ("state_budget", int, (fun s -> s.state_budget),
      fun s state_budget -> { s with state_budget });
    Field ("state_ttl", float, (fun s -> s.state_ttl),
      fun s state_ttl -> { s with state_ttl });
    Field ("connections", int, (fun s -> s.connections),
      fun s connections -> { s with connections });
    Field ("reopen", bool, (fun s -> s.reopen),
      fun s reopen -> { s with reopen });
    Field ("paths", int, (fun s -> s.paths), fun s paths -> { s with paths });
    Field ("skew", float, (fun s -> s.skew), fun s skew -> { s with skew });
    Field ("jitter", float, (fun s -> s.jitter),
      fun s jitter -> { s with jitter });
    Field ("spread", spread, (fun s -> s.spread),
      fun s spread -> { s with spread });
    Field ("rate_bps", float, (fun s -> s.rate_bps),
      fun s rate_bps -> { s with rate_bps });
    Field ("delay", float, (fun s -> s.delay), fun s delay -> { s with delay });
    Field ("gateways", list gateway, (fun s -> s.gateways),
      fun s gateways -> { s with gateways });
    Field ("loss", float, (fun s -> s.loss), fun s loss -> { s with loss });
    Field ("corrupt", float, (fun s -> s.corrupt),
      fun s corrupt -> { s with corrupt });
    Field ("duplicate", float, (fun s -> s.duplicate),
      fun s duplicate -> { s with duplicate });
    Field ("dropper", opt dropper, (fun s -> s.dropper),
      fun s dropper -> { s with dropper });
    Field ("ack_blackhole", opt (float ^: duration),
      (fun s -> s.ack_blackhole),
      fun s ack_blackhole -> { s with ack_blackhole });
    Field ("outage", opt outage, (fun s -> s.outage),
      fun s outage -> { s with outage });
    Field ("flood", opt flood, (fun s -> s.flood),
      fun s flood -> { s with flood });
    Field ("overlap", opt overlap, (fun s -> s.overlap),
      fun s overlap -> { s with overlap });
    Field ("shed", opt shed, (fun s -> s.shed), fun s shed -> { s with shed });
    Field ("crashes", list crash, (fun s -> s.crashes),
      fun s crashes -> { s with crashes });
    Field ("snap_period", float, (fun s -> s.snap_period),
      fun s snap_period -> { s with snap_period });
    Field ("byz", opt byz, (fun s -> s.byz), fun s byz -> { s with byz });
  ]

let to_string s =
  String.concat " "
    (List.map
       (fun (Field (key, c, get, _)) -> key ^ "=" ^ c.print (get s))
       fields)

let tokens str =
  List.filter
    (fun tok -> tok <> "")
    (String.split_on_char ' ' (String.trim str))

let key_value tok =
  match String.index_opt tok '=' with
  | Some i ->
      let n = String.length tok in
      Some (String.sub tok 0 i, String.sub tok (i + 1) (n - i - 1))
  | None -> None

let unknown_fields str =
  List.filter_map
    (fun tok ->
      match key_value tok with
      | Some (key, _)
        when List.exists (fun (Field (key', _, _, _)) -> key = key') fields ->
          None
      | Some (key, _) -> Some key
      | None -> Some tok)
    (tokens str)

(* Every field is overwritten from the line, so the record [generate]
   returns only supplies the shape.  A repeated key takes its first
   value. *)
let of_string str =
  if unknown_fields str <> [] then None
  else
    let kvs = List.filter_map key_value (tokens str) in
    List.fold_left
      (fun acc (Field (key, c, _, set)) ->
        Option.bind acc (fun s ->
            Option.bind (List.assoc_opt key kvs) (fun v ->
                Option.map (set s) (c.parse v))))
      (Some (generate ~profile:Clean ~seed:0))
      fields

(* {2 Validation}

   [of_string] accepts any token-level well-formed schedule; [validate]
   is the semantic gate the CLI runs before handing a replayed schedule
   to the driver, so a hand-edited spec fails with one readable line
   instead of an [Invalid_argument] from deep inside the transport — or
   a NaN that slips past every comparison and surfaces as a false stack
   finding. *)

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let prob name p =
    if p < 0.0 || p > 1.0 then err "%s must be within [0, 1]" name else Ok ()
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () =
    let finite (Field (_, c, get, _)) = c.finite (get s) in
    match List.find_opt (fun f -> not (finite f)) fields with
    | Some (Field (key, _, _, _)) -> err "%s must be finite" key
    | None -> Ok ()
  in
  if s.data_len < 1 then err "data_len must be >= 1"
  else if s.elem_size < 4 || s.elem_size mod 4 <> 0 then
    err "elem_size must be a positive multiple of 4"
  else if s.frame_bytes < s.elem_size || s.frame_bytes mod s.elem_size <> 0 then
    err "frame_bytes must be a positive multiple of elem_size"
  else if s.tpdu_elems < 1 then err "tpdu_elems must be >= 1"
  else if s.tpdu_elems > Edc.Invariant.max_tpdu_elems ~size:s.elem_size then
    err "tpdu_elems exceeds the error-detection invariant for elem_size %d"
      s.elem_size
  else if s.mtu <= Wire.header_size then
    err "mtu must exceed the %d-byte chunk header" Wire.header_size
  else if s.window < 1 then err "window must be >= 1"
  else if s.rto <= 0.0 then err "rto must be positive"
  else if s.nack_delay <= 0.0 then err "nack_delay must be positive"
  else if s.give_up_txs < 1 then err "give_up_txs must be >= 1"
  else if s.state_budget < 0 then err "state_budget cannot be negative"
  else if s.state_ttl <= 0.0 then err "state_ttl must be positive"
  else if s.connections < 1 then err "connections must be >= 1"
  else if s.paths < 1 then err "paths must be >= 1"
  else if s.skew < 0.0 then err "skew cannot be negative"
  else if s.jitter < 0.0 then err "jitter cannot be negative"
  else if s.rate_bps <= 0.0 then err "rate_bps must be positive"
  else if s.delay < 0.0 then err "delay cannot be negative"
  else if
    match s.spread with Route_change p -> p <= 0.0 | _ -> false
  then err "route-change period must be positive"
  else if List.exists (fun g -> g.gw_mtu <= Wire.header_size) s.gateways then
    err "every gateway mtu must exceed the %d-byte chunk header"
      Wire.header_size
  else if List.exists (fun g -> g.gw_batch < 1) s.gateways then
    err "gateway batch must be >= 1"
  else
    let* () = prob "loss" s.loss in
    let* () = prob "corrupt" s.corrupt in
    let* () = prob "duplicate" s.duplicate in
    let* () =
      match s.dropper with
      | Some d -> prob "dropper loss" d.drop_loss
      | None -> Ok ()
    in
    let* () =
      match s.ack_blackhole with
      | Some (t0, dur) ->
          if t0 < 0.0 || dur < 0.0 then
            err "ack_blackhole start and duration cannot be negative"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      match s.outage with
      | Some o ->
          if o.out_start < 0.0 || o.out_duration < 0.0 then
            err "outage start and duration cannot be negative"
          else if o.out_hold && o.out_duration = infinity then
            err "a hold outage cannot last forever"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      match s.flood with
      | Some f ->
          if f.flood_rate <= 0.0 then err "flood_rate must be positive"
          else if f.flood_stop < 0.0 then err "flood_stop cannot be negative"
          else if f.flood_conns < 1 then err "flood_conns must be >= 1"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      match s.overlap with
      | Some o ->
          if o.ov_rate <= 0.0 then err "overlap rate must be positive"
          else if o.ov_stop < 0.0 then err "overlap stop cannot be negative"
          else if not (o.ov_dup || o.ov_forge || o.ov_resplit) then
            err "overlap must enable at least one mode"
          else if multi_mode s then
            err
              "overlap needs a single-connection schedule (the overlap \
               oracle rows cover one connection)"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      match s.byz with
      | Some b ->
          if b.bz_rate <= 0.0 then err "byz rate must be positive"
          else if b.bz_stop < 0.0 then err "byz stop cannot be negative"
          else if b.bz_conns < 1 then err "byz conns must be >= 1"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      match s.shed with
      | Some sh ->
          if sh.sh_every < 1 then err "shed every must be >= 1"
          else if sh.sh_txs < 1 then err "shed txs must be >= 1"
          else if sh.sh_txs >= s.give_up_txs then
            err "shed txs must be < give_up_txs"
          else if s.adaptive then
            err
              "shed requires adaptive=false (the shed span is derived from \
               the fixed TPDU partition)"
          else if multi_mode s then
            err
              "shed needs a single-connection schedule (the model's shed \
               contract covers one connection)"
          else if s.crashes <> [] then
            err
              "shed cannot combine with crashes (a restored receiver \
               loses its shed cover while the sender, already shed-ACKed, \
               never resends the signal)"
          else Ok ()
      | None -> Ok ()
    in
    let* () =
      if
        List.exists
          (fun c -> c.cr_time <= 0.0 || c.cr_restart <= 0.0)
          s.crashes
      then err "crash times and downtimes must be positive"
      else Ok ()
    in
    let* () =
      let rec ordered = function
        | a :: (b :: _ as rest) ->
            if b.cr_time <= a.cr_time +. a.cr_restart then
              err "crashes must be ordered and non-overlapping"
            else ordered rest
        | _ -> Ok ()
      in
      ordered s.crashes
    in
    if s.snap_period < 0.0 then err "snap_period cannot be negative"
    else Ok ()
