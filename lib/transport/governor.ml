type key = { conn : int; tpdu : int }

(* A deadline in a block of its own: a float-only record holds its
   field unboxed, so a refresh stores the new deadline in place instead
   of boxing a fresh float into a possibly promoted entry. *)
type deadline = { mutable at : float }

(* An entry is live, [bytes >= 0], exactly while it is in [tbl] under
   [key]: a holder's handle is then the table's own entry, and a
   refresh through it needs no lookup.  A charge is never negative, so
   [bytes = -1] marks a dead one. *)
type entry = {
  mutable key : key;
  mutable bytes : int;
  deadline : deadline;
  mutable cls : int;
}

let dead = -1
let live e = e.bytes <> dead

(* Keys are compared field by field as integers, and hashed with the
   polymorphic [Hashtbl.hash] a [(key, entry) Hashtbl.t] would use: the
   buckets, and so the fold order that picks [oldest] and [sweep]
   victims, are the polymorphic table's. *)
module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = Int.equal a.conn b.conn && Int.equal a.tpdu b.tpdu
  let hash (k : key) = Hashtbl.hash k
end)

type stats = {
  accounted_bytes : int;
  high_water : int;
  entries : int;
  evictions_deadline : int;
  evictions_budget : int;
  budget_bytes : int;
}

type t = {
  budget : int;  (* <= 0: unlimited *)
  ttl : float;
  tbl : entry Tbl.t;
  mutable on_evict : key -> unit;
  mutable total : int;
  mutable high : int;
  mutable ev_deadline : int;
  mutable ev_budget : int;
  mutable armed : bool;
}

let trace_evict reason (k : key) =
  if Obs.enabled && Obs.Trace.active () then
    Obs.Trace.record
      (Obs.Trace.Evict { conn = k.conn; tpdu = k.tpdu; reason })

let create ?(on_evict = fun _ -> ()) ~budget_bytes ~ttl () =
  {
    budget = budget_bytes;
    ttl;
    tbl = Tbl.create 64;
    on_evict;
    total = 0;
    high = 0;
    ev_deadline = 0;
    ev_budget = 0;
    armed = false;
  }

let set_on_evict g f = g.on_evict <- f

let over_budget g = g.budget > 0 && g.total > g.budget

(* Budget victim: the most sheddable class first (higher [cls] rank,
   see {!Significance.rank}), and within a class the oldest deadline =
   least recently refreshed — the entry a delta-t lifecycle would let
   die first.  With every entry at the default class 0 this degenerates
   to pure oldest-deadline, the pre-significance behaviour. *)
let oldest g =
  Tbl.fold
    (fun k (e : entry) best ->
      match best with
      | Some (_, d, c) when c > e.cls || (c = e.cls && d <= e.deadline.at) ->
          best
      | _ -> Some (k, e.deadline.at, e.cls))
    g.tbl None

let drop g k =
  match Tbl.find_opt g.tbl k with
  | None -> ()
  | Some e ->
      g.total <- g.total - e.bytes;
      e.bytes <- dead;
      Tbl.remove g.tbl k

(* Re-assert [e]'s charge, its deadline already set, then enforce the
   budget.  A dead [e] holds nothing and no entry has its key, so it
   joins the table as the new entry: added exactly where a new record
   would be. *)
let restate g e ~bytes ~cls =
  if live e then g.total <- g.total - e.bytes + bytes
  else begin
    Tbl.add g.tbl e.key e;
    g.total <- g.total + bytes
  end;
  e.bytes <- bytes;
  e.cls <- cls;
  (* Budget enforcement is synchronous: collect victims first so the
     disposal callbacks (which may remove further entries, e.g. a whole
     connection's TPDUs) never run under the selection loop. *)
  let victims = ref [] in
  while over_budget g do
    match oldest g with
    | None -> g.total <- 0 (* unreachable: total > 0 implies an entry *)
    | Some (k, _, _) ->
        drop g k;
        g.ev_budget <- g.ev_budget + 1;
        victims := k :: !victims
  done;
  if g.total > g.high then g.high <- g.total;
  List.iter (fun k -> trace_evict "budget" k) !victims;
  List.iter g.on_evict (List.rev !victims)

let entry key = { key; bytes = dead; deadline = { at = 0.0 }; cls = 0 }
let entry_key e = e.key
let expired e ~now = e.deadline.at <= now
let retarget e key = if live e then entry key else (e.key <- key; e)

(* Refresh [e], which is live or else the only holder of a key with no
   entry.  A refresh that restates an entry exactly — same bytes, class
   and deadline — changes nothing, so it returns at once: the total is
   unchanged and already within budget, so no victim is possible; and
   an entry is updated in place, so its bucket does not move either.
   A connection refreshed by every chunk at one clock instant takes
   this path for all but the first. *)
let settle g e ~cls ~bytes ~now =
  let bytes = Int.max 0 bytes in
  let cls = Int.max 0 cls in
  let deadline = now +. g.ttl in
  (* a dead entry's [bytes] never equals a charge *)
  if not (e.bytes = bytes && e.cls = cls && e.deadline.at = deadline) then begin
    e.deadline.at <- deadline;
    restate g e ~bytes ~cls
  end

(* A live handle is the table's entry for its key, so it is refreshed
   in place with no hash; a dead one falls back to the keyed probe. *)
let refresh g e ~cls ~bytes ~now =
  let e =
    if live e then e
    else match Tbl.find_opt g.tbl e.key with Some found -> found | None -> e
  in
  settle g e ~cls ~bytes ~now;
  e

let touch ?(cls = 0) g ~key ~bytes ~now =
  let e = match Tbl.find_opt g.tbl key with Some e -> e | None -> entry key in
  settle g e ~cls ~bytes ~now

let find g ~key = Tbl.find_opt g.tbl key

let remove g ~key = drop g key

let remove_conn g ~conn =
  let keys =
    Tbl.fold (fun k _ acc -> if k.conn = conn then k :: acc else acc) g.tbl []
  in
  List.iter (drop g) keys

let mem g ~key = Tbl.mem g.tbl key

let next_deadline g =
  Tbl.fold
    (fun _ (e : entry) best ->
      match best with
      | Some d when d <= e.deadline.at -> best
      | _ -> Some e.deadline.at)
    g.tbl None

let sweep g ~now =
  let due =
    Tbl.fold
      (fun k (e : entry) acc -> if e.deadline.at <= now then k :: acc else acc)
      g.tbl []
  in
  List.iter (drop g) due;
  g.ev_deadline <- g.ev_deadline + List.length due;
  List.iter (fun k -> trace_evict "deadline" k) due;
  List.iter g.on_evict due

let rec arm g engine =
  if not g.armed then
    match next_deadline g with
    | None -> ()
    | Some d ->
        g.armed <- true;
        let now = Netsim.Engine.now engine in
        Netsim.Engine.schedule engine
          ~delay:(Float.max 0.0 (d -. now))
          (fun () ->
            g.armed <- false;
            sweep g ~now:(Netsim.Engine.now engine);
            arm g engine)

let total g = g.total
let high_water g = g.high

let stats g =
  {
    accounted_bytes = g.total;
    high_water = g.high;
    entries = Tbl.length g.tbl;
    evictions_deadline = g.ev_deadline;
    evictions_budget = g.ev_budget;
    budget_bytes = Int.max 0 g.budget;
  }
