type t = Critical | Normal | Sheddable of int

let normalize = function
  | Sheddable l when l < 1 -> Sheddable 1
  | t -> t

let sheddable = function Sheddable _ -> true | Critical | Normal -> false
let rank = function Critical | Normal -> 0 | Sheddable l -> Int.max 1 l
let weight = function Critical -> 4 | Normal -> 2 | Sheddable _ -> 1

let compare a b =
  match (a, b) with
  | Critical, Critical | Normal, Normal -> 0
  | Critical, _ -> -1
  | _, Critical -> 1
  | Normal, _ -> -1
  | _, Normal -> 1
  | Sheddable x, Sheddable y -> Int.compare (Int.max 1 x) (Int.max 1 y)

let equal a b = compare a b = 0

let to_string = function
  | Critical -> "critical"
  | Normal -> "normal"
  | Sheddable l -> Printf.sprintf "shed:%d" (Int.max 1 l)

let of_string s =
  match s with
  | "critical" -> Some Critical
  | "normal" -> Some Normal
  | _ -> (
      match String.index_opt s ':' with
      | Some 4 when String.sub s 0 4 = "shed" -> (
          match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
          | Some l when l >= 1 -> Some (Sheddable l)
          | _ -> None)
      | _ -> None)
