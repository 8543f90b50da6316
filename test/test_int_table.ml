(* The shared int-keyed table folds in the polymorphic table's order.

   Receiver, demultiplexer and verifier state is kept in
   [Labelling.Int_table]; snapshot images, journal bytes and soak
   outcomes are built by folding those tables.  They stay what they were
   under [(int, _) Hashtbl.t] only if both tables, fed the same
   operations, keep the same buckets — which holds because [Int.hash] is
   [Hashtbl.hash] on an [int]. *)

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

(* [Int_set] against the standard library's sets: any adds, including
   [min_int], [max_int], negatives and runs of sequential T.IDs, leave
   the same members, count and ascending elements. *)
module S = Set.Make (Int)

let same_as_set (size, ks) =
  let flat = Int_set.create size in
  let reference =
    List.fold_left
      (fun s k ->
        Int_set.add flat k;
        S.add k s)
      S.empty ks
  in
  Int_set.length flat = S.cardinal reference
  && Int_set.elements flat = S.elements reference
  && List.for_all (fun k -> Int_set.mem flat k = S.mem k reference)
       (ks @ List.map (fun k -> k + 1) ks)

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
    Util.qtest ~count:300 "Int_set holds what a Set would"
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
  ]
