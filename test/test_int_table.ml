(* The two int-keyed tables against the standard library's.

   Demultiplexer and sender state is kept in [Labelling.Int_table];
   snapshot images, journal bytes and soak outcomes are built by folding
   those tables.  They stay what they were under [(int, _) Hashtbl.t]
   only if both tables, fed the same operations, keep the same buckets —
   which holds because [Int.hash] is [Hashtbl.hash] on an [int].  The
   receive path's per-TPDU maps are the flat [Labelling.Int_map], whose
   folds every reader sorts. *)

open Labelling

type op = Add of int * int | Replace of int * int | Remove of int

let gen_key =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range 0 64);  (* dense T.IDs: replaces, removes, shadows *)
        (3, int_range 0 0xFFFF_FFFF);  (* any 32-bit label *)
        (1, int);  (* negative and 63-bit keys *)
      ])

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) gen_key small_nat);
        (3, map2 (fun k v -> Replace (k, v)) gen_key small_nat);
        (2, map (fun k -> Remove k) gen_key);
      ])

let print_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

let same_fold_order (size, ops) =
  let poly = Hashtbl.create size and mono = Int_table.create size in
  List.iter
    (function
      | Add (k, v) ->
          Hashtbl.add poly k v;
          Int_table.add mono k v
      | Replace (k, v) ->
          Hashtbl.replace poly k v;
          Int_table.replace mono k v
      | Remove k ->
          Hashtbl.remove poly k;
          Int_table.remove mono k)
    ops;
  let bindings fold t = fold (fun k v acc -> (k, v) :: acc) t [] in
  Hashtbl.length poly = Int_table.length mono
  && bindings Hashtbl.fold poly = bindings Int_table.fold mono

(* [Int_map]'s key-only use (the ACK ledger) against the standard
   library's sets: any adds, including [min_int], [max_int], negatives
   and runs of sequential T.IDs, leave the same members, count and
   ascending elements. *)
module S = Set.Make (Int)

let same_as_set (size, ks) =
  let flat = Int_map.set size in
  let reference =
    List.fold_left
      (fun s k ->
        Int_map.replace flat k ();
        S.add k s)
      S.empty ks
  in
  Int_map.length flat = S.cardinal reference
  && Int_map.sorted_keys flat = S.elements reference
  && List.for_all (fun k -> Int_map.mem flat k = S.mem k reference)
       (ks @ List.map (fun k -> k + 1) ks)

(* [Int_map] against the standard library's [Hashtbl] under any
   sequence of operations.  Keys come from a small pool, so removals
   hit, and from keys whose probe starts in the last slot of an
   eight-slot table (the hash below is [Int_map]'s), so chains wrap past
   the array's end and deletions shift entries back across it; long
   sequences make the table double several times. *)
type map_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Mem of int
  | Length
  | Sorted

let wrapping_keys =
  List.filter
    (fun k -> (k * 0x4F1BBCDCBFA53E0B) lsr 60 = 7)
    (List.init 400 Fun.id)

let gen_map_key =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range 0 48);
        (3, oneofl wrapping_keys);
        (1, oneofl [ min_int; max_int; -1 ]);
        (1, int);
      ])

let gen_map_op =
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Replace (k, v)) gen_map_key small_nat);
        (3, map (fun k -> Remove k) gen_map_key);
        (2, map (fun k -> Find k) gen_map_key);
        (1, map (fun k -> Mem k) gen_map_key);
        (1, return Length);
        (1, return Sorted);
      ])

let print_map_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Length -> "length"
  | Sorted -> "sorted"

let same_as_hashtbl (size, ops) =
  let flat = Int_map.create ~absent:(-1) size
  and reference = Hashtbl.create 8 in
  let sorted () =
    List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) reference [])
  in
  List.for_all
    (function
      | Replace (k, v) ->
          Int_map.replace flat k v;
          Hashtbl.replace reference k v;
          true
      | Remove k ->
          Int_map.remove flat k;
          Hashtbl.remove reference k;
          true
      | Find k ->
          Int_map.find flat k
          = Option.value (Hashtbl.find_opt reference k) ~default:(-1)
      | Mem k -> Int_map.mem flat k = Hashtbl.mem reference k
      | Length -> Int_map.length flat = Hashtbl.length reference
      | Sorted ->
          Int_map.sorted_keys flat = List.map fst (sorted ())
          && List.sort compare (Int_map.fold (fun k v l -> (k, v) :: l) flat [])
             = sorted ())
    (ops @ [ Length; Sorted ])

(* [Int_rows.coalesce], which merges a passed TPDU's placed runs in
   place, against a sorted list merge, over any rows: negative,
   empty and out-of-limit ones included, and more than the insertion
   sort's sixteen. *)
let coalesce_as_lists (limit, rows) =
  let buf = Int_rows.create ~width:2 in
  List.iter (fun (sn, len) -> Int_rows.push2 buf sn len) rows;
  Int_rows.coalesce buf ~limit;
  Int_rows.pairs buf
  = Util.coalesce_spans
      (List.filter
         (fun (sn, len) -> sn >= 0 && len > 0 && sn + len <= limit)
         rows)

let suite =
  [
    Util.qtest ~count:300
      "Int_table folds in the polymorphic Hashtbl's order"
      QCheck2.Gen.(
        pair (int_range 1 64) (list_size (int_range 0 400) gen_op))
      ~print:(fun (size, ops) ->
        Printf.sprintf "create %d; %s" size
          (String.concat "; " (List.map print_op ops)))
      same_fold_order;
    Util.qtest ~count:300 "Int_map as a set holds what a Set would"
      QCheck2.Gen.(
        pair (int_range 0 64)
          (list_size (int_range 0 400)
             (oneof
                [
                  int_range 0 2000;
                  int;
                  oneofl [ min_int; max_int; -1; 0 ];
                ])))
      same_as_set;
    Util.qtest ~count:300 "Int_rows.coalesce merges as the span lists do"
      QCheck2.Gen.(
        pair (int_range 0 80)
          (list_size (int_range 0 40)
             (pair (int_range (-4) 80) (int_range (-2) 12))))
      coalesce_as_lists;
    Util.qtest ~count:500 "Int_map does what a Hashtbl does"
      QCheck2.Gen.(
        pair (int_range 0 8) (list_size (int_range 0 300) gen_map_op))
      ~print:(fun (size, ops) ->
        Printf.sprintf "create %d; %s" size
          (String.concat "; " (List.map print_map_op ops)))
      same_as_hashtbl;
  ]
