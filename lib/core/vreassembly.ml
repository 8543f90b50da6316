type insert_result = Fresh | Duplicate | Overlap | Inconsistent

(* Received element runs as a sorted list of disjoint, non-adjacent
   (start, len) intervals.  The disorder window keeps this short in
   practice, so list operations are fine. *)
type t = {
  mutable runs : (int * int) list;
  mutable last_sn : int option;  (* SN of the final element, once ST seen *)
}

let create () = { runs = []; last_sn = None }

let covered runs sn len =
  List.exists (fun (s, l) -> s <= sn && sn + len <= s + l) runs

let intersects runs sn len =
  List.exists (fun (s, l) -> sn < s + l && s < sn + len) runs

let add_run runs sn len =
  (* Insert and coalesce with adjacent/overlapping runs. *)
  let rec go = function
    | [] -> [ (sn, len) ]
    | (s, l) :: rest when s + l < sn -> (s, l) :: go rest
    | (s, l) :: rest when sn + len < s -> (sn, len) :: (s, l) :: rest
    | (s, l) :: rest ->
        (* touching or overlapping: fuse and keep going *)
        let lo = Int.min s sn and hi = Int.max (s + l) (sn + len) in
        let fused = (lo, hi - lo) in
        let sn, len = fused in
        let rec absorb sn len = function
          | (s, l) :: rest when s <= sn + len ->
              absorb sn (Int.max (sn + len) (s + l) - sn) rest
          | rest -> (sn, len) :: rest
        in
        absorb sn len rest
  in
  go runs

(* A span is malformed when it is degenerate or when [sn + len] wraps
   past [max_int] (possible for labels decoded from 64-bit wire fields);
   either way it can only come from corruption, so it is reported as
   [Inconsistent] rather than raised on. *)
let bad_span ~sn ~len = sn < 0 || len <= 0 || sn > max_int - len

let insert tr ~sn ~len ~st =
  if bad_span ~sn ~len then Inconsistent
  else begin
  let last = sn + len - 1 in
  let max_seen =
    List.fold_left (fun acc (s, l) -> Int.max acc (s + l - 1)) (-1) tr.runs
  in
  let end_conflict =
    match tr.last_sn with
    | Some e when st && e <> last -> true (* two different ends *)
    | Some e when last > e -> true (* data beyond the known end *)
    | None when st && max_seen > last -> true (* end before seen data *)
    | _ -> false
  in
  if end_conflict then Inconsistent
  else if covered tr.runs sn len then begin
    if st then tr.last_sn <- Some last;
    Duplicate
  end
  else if intersects tr.runs sn len then Overlap
  else begin
    tr.runs <- add_run tr.runs sn len;
    if st then tr.last_sn <- Some last;
    Fresh
  end
  end

(* [runs] with [(sn, len)] added after its last run, fusing a touching
   last run; [Exit] when the span starts before the last run's end.
   Each cell is rebuilt only on the way back from the last run, so a
   refusal allocates nothing. *)
let rec append_run runs sn len =
  match runs with
  | [] -> [ (sn, len) ]
  | [ ((s, l) as r) ] ->
      if s + l = sn then [ (s, l + len) ]
      else if s + l < sn then [ r; (sn, len) ]
      else raise_notrace Exit
  | r :: rest -> r :: append_run rest sn len

(* The in-order case: a span past every run is wholly fresh, and the
   end rule reduces to agreeing with a known end; nothing is
   subtracted, and one walk finds the last run and appends. *)
let append_new tr ~sn ~len ~st =
  (not (bad_span ~sn ~len))
  &&
  let last = sn + len - 1 in
  (match tr.last_sn with
  | Some e -> last <= e && ((not st) || e = last)
  | None -> true)
  &&
  match append_run tr.runs sn len with
  | runs ->
      tr.runs <- runs;
      if st then tr.last_sn <- Some last;
      true
  | exception Exit -> false

let insert_new tr ~sn ~len ~st =
  if bad_span ~sn ~len then Error `Inconsistent
  else begin
  let last = sn + len - 1 in
  let max_seen =
    List.fold_left (fun acc (s, l) -> Int.max acc (s + l - 1)) (-1) tr.runs
  in
  let end_conflict =
    match tr.last_sn with
    | Some e when st && e <> last -> true
    | Some e when last > e -> true
    | None when st && max_seen > last -> true
    | _ -> false
  in
  if end_conflict then Error `Inconsistent
  else begin
    (* Fresh parts = [sn, sn+len) minus every existing run. *)
    let rec subtract lo hi runs acc =
      if lo >= hi then List.rev acc
      else
        match runs with
        | [] -> List.rev ((lo, hi - lo) :: acc)
        | (s, l) :: rest ->
            if s + l <= lo then subtract lo hi rest acc
            else if s >= hi then List.rev ((lo, hi - lo) :: acc)
            else if s <= lo then subtract (Int.max lo (s + l)) hi rest acc
            else subtract (s + l) hi rest ((lo, s - lo) :: acc)
    in
    let fresh = subtract sn (sn + len) tr.runs [] in
    tr.runs <- add_run tr.runs sn len;
    if st then tr.last_sn <- Some last;
    Ok fresh
  end
  end

let set_total tr total =
  if total < 1 then Error `Inconsistent
  else begin
  let last = total - 1 in
  let max_seen =
    List.fold_left (fun acc (s, l) -> Int.max acc (s + l - 1)) (-1) tr.runs
  in
  match tr.last_sn with
  | Some e when e <> last -> Error `Inconsistent
  | Some _ -> Ok ()
  | None ->
      if max_seen > last then Error `Inconsistent
      else begin
        tr.last_sn <- Some last;
        Ok ()
      end
  end

let total tr = Option.map (fun e -> e + 1) tr.last_sn

let received_elems tr = List.fold_left (fun acc (_, l) -> acc + l) 0 tr.runs

let complete tr =
  match tr.last_sn with
  | None -> false
  | Some e -> ( match tr.runs with [ (0, l) ] -> l = e + 1 | _ -> false)

let spans tr = tr.runs

let missing tr =
  let stop = match tr.last_sn with Some e -> e + 1 | None -> max_int in
  let rec gaps expect = function
    | [] -> if stop <> max_int && expect < stop then [ (expect, stop - expect) ] else []
    | (s, l) :: rest ->
        if s > expect then (expect, s - expect) :: gaps (s + l) rest
        else gaps (s + l) rest
  in
  gaps 0 tr.runs

module Table = struct
  type tracker = t
  type nonrec t = (int, tracker) Hashtbl.t

  (* Capture single-PDU operations before they are shadowed below. *)
  let new_tracker : unit -> tracker = create
  let tracker_complete : tracker -> bool = complete

  let create () : t = Hashtbl.create 32

  let tracker tbl id =
    match Hashtbl.find_opt tbl id with
    | Some tr -> tr
    | None ->
        let tr = new_tracker () in
        Hashtbl.add tbl id tr;
        tr

  let insert tbl ~id ~sn ~len ~st = insert (tracker tbl id) ~sn ~len ~st

  let insert_chunk tbl chunk =
    let h = chunk.Chunk.header in
    insert tbl ~id:h.Header.t.Ftuple.id ~sn:h.Header.t.Ftuple.sn
      ~len:h.Header.len ~st:h.Header.t.Ftuple.st

  let find tbl ~id = Hashtbl.find_opt tbl id

  let complete tbl ~id =
    match Hashtbl.find_opt tbl id with
    | Some tr -> complete tr
    | None -> false

  let drop tbl ~id = Hashtbl.remove tbl id

  let in_flight tbl = Hashtbl.length tbl

  let completed_ids tbl =
    Hashtbl.fold
      (fun id tr acc -> if tracker_complete tr then id :: acc else acc)
      tbl []
    |> List.sort Int.compare
end
