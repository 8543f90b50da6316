type insert_result = Fresh | Duplicate | Overlap | Inconsistent

(* Received element runs, sorted, disjoint and non-adjacent: run [k] is
   [runs.(2k)] (its first SN) and [runs.(2k+1)] (its length), for
   [k < n].  Everything is an immediate in place, so a tracker that has
   outlived a minor collection takes no young pointer from a later
   insert unless its buffer grows.  The disorder window keeps [n] small
   in practice, so scans are fine. *)
type t = {
  mutable runs : int array;
  mutable n : int;
  mutable last_sn : int;  (* SN of the final element once ST seen, else -1 *)
}

let no_end = -1

let create () = { runs = Array.make 4 0; n = 0; last_sn = no_end }

let[@inline] start tr k = Array.unsafe_get tr.runs (2 * k)
let[@inline] length tr k = Array.unsafe_get tr.runs ((2 * k) + 1)
let[@inline] stop tr k = start tr k + length tr k

let set tr k sn len =
  Array.unsafe_set tr.runs (2 * k) sn;
  Array.unsafe_set tr.runs ((2 * k) + 1) len

(* Room for one more run. *)
let reserve tr =
  if 2 * (tr.n + 1) > Array.length tr.runs then begin
    let a = Array.make (2 * Array.length tr.runs) 0 in
    Array.blit tr.runs 0 a 0 (2 * tr.n);
    tr.runs <- a
  end

let covered tr sn len =
  let rec go k =
    k < tr.n && ((start tr k <= sn && sn + len <= stop tr k) || go (k + 1))
  in
  go 0

let intersects tr sn len =
  let rec go k =
    k < tr.n && ((sn < stop tr k && start tr k < sn + len) || go (k + 1))
  in
  go 0

(* The last element received, or -1. *)
let max_seen tr = if tr.n = 0 then -1 else stop tr (tr.n - 1) - 1

(* Insert [sn, sn + len) and coalesce with adjacent or overlapping
   runs: runs [i, j) are those it touches, replaced by their union. *)
let add_run tr sn len =
  let i = ref 0 in
  while !i < tr.n && stop tr !i < sn do incr i done;
  let j = ref !i in
  while !j < tr.n && start tr !j <= sn + len do incr j done;
  let i = !i and j = !j in
  if i = j then begin
    reserve tr;
    Array.blit tr.runs (2 * i) tr.runs (2 * (i + 1)) (2 * (tr.n - i));
    set tr i sn len;
    tr.n <- tr.n + 1
  end
  else begin
    let lo = Int.min sn (start tr i)
    and hi = Int.max (sn + len) (stop tr (j - 1)) in
    set tr i lo (hi - lo);
    Array.blit tr.runs (2 * j) tr.runs (2 * (i + 1)) (2 * (tr.n - j));
    tr.n <- tr.n - (j - i - 1)
  end

(* A span is malformed when it is degenerate or when [sn + len] wraps
   past [max_int] (possible for labels decoded from 64-bit wire fields);
   either way it can only come from corruption, so it is reported as
   [Inconsistent] rather than raised on. *)
let bad_span ~sn ~len = sn < 0 || len <= 0 || sn > max_int - len

(* Whether a span ending at [last] contradicts the PDU end: two
   different ends, data beyond a known end, or an end before data
   already seen. *)
let end_conflict tr ~last ~st =
  if tr.last_sn <> no_end then (st && tr.last_sn <> last) || last > tr.last_sn
  else st && max_seen tr > last

let insert tr ~sn ~len ~st =
  if bad_span ~sn ~len then Inconsistent
  else begin
    let last = sn + len - 1 in
    if end_conflict tr ~last ~st then Inconsistent
    else if covered tr sn len then begin
      if st then tr.last_sn <- last;
      Duplicate
    end
    else if intersects tr sn len then Overlap
    else begin
      add_run tr sn len;
      if st then tr.last_sn <- last;
      Fresh
    end
  end

(* The in-order case: a span past every run is wholly fresh, and the
   end rule reduces to agreeing with a known end; nothing is
   subtracted, and the last run is extended or one is appended. *)
let append_new tr ~sn ~len ~st =
  (not (bad_span ~sn ~len))
  &&
  let last = sn + len - 1 in
  (tr.last_sn = no_end
  || (last <= tr.last_sn && ((not st) || tr.last_sn = last)))
  && (tr.n = 0 || stop tr (tr.n - 1) <= sn)
  && begin
    (if tr.n > 0 && stop tr (tr.n - 1) = sn then
       set tr (tr.n - 1) (start tr (tr.n - 1)) (length tr (tr.n - 1) + len)
     else begin
       reserve tr;
       set tr tr.n sn len;
       tr.n <- tr.n + 1
     end);
    if st then tr.last_sn <- last;
    true
  end

let insert_runs tr fresh ~sn ~len ~st =
  (not (bad_span ~sn ~len))
  &&
  let last = sn + len - 1 in
  (not (end_conflict tr ~last ~st))
  && begin
    (* Fresh parts = [sn, sn+len) minus every existing run. *)
    let hi = sn + len in
    Int_rows.clear fresh ~width:2;
    let lo = ref sn and k = ref 0 in
    while !lo < hi && !k < tr.n do
      let s = start tr !k and e = stop tr !k in
      if s >= hi then k := tr.n
      else begin
        if s > !lo then Int_rows.push2 fresh !lo (s - !lo);
        if e > !lo then lo := e;
        incr k
      end
    done;
    if !lo < hi then Int_rows.push2 fresh !lo (hi - !lo);
    add_run tr sn len;
    if st then tr.last_sn <- last;
    true
  end

let insert_new tr ~sn ~len ~st =
  let fresh = Int_rows.create ~width:2 in
  if insert_runs tr fresh ~sn ~len ~st then Ok (Int_rows.pairs fresh)
  else Error `Inconsistent

let set_total tr total =
  if total < 1 then Error `Inconsistent
  else begin
    let last = total - 1 in
    if tr.last_sn <> no_end then
      if tr.last_sn <> last then Error `Inconsistent else Ok ()
    else if max_seen tr > last then Error `Inconsistent
    else begin
      tr.last_sn <- last;
      Ok ()
    end
  end

let total tr = if tr.last_sn = no_end then None else Some (tr.last_sn + 1)

let received_elems tr =
  let rec go k acc = if k = tr.n then acc else go (k + 1) (acc + length tr k) in
  go 0 0

let complete tr =
  tr.last_sn <> no_end && tr.n = 1 && start tr 0 = 0
  && length tr 0 = tr.last_sn + 1

let run_count tr = tr.n

let clear tr =
  if Array.length tr.runs > 32 then tr.runs <- Array.make 4 0;
  tr.n <- 0;
  tr.last_sn <- no_end

let spans tr = List.init tr.n (fun k -> (start tr k, length tr k))

let missing tr =
  let stop_at = if tr.last_sn = no_end then max_int else tr.last_sn + 1 in
  let rec gaps expect k =
    if k = tr.n then
      if stop_at <> max_int && expect < stop_at then
        [ (expect, stop_at - expect) ]
      else []
    else
      let s = start tr k in
      if s > expect then (expect, s - expect) :: gaps (stop tr k) (k + 1)
      else gaps (stop tr k) (k + 1)
  in
  gaps 0 0

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
