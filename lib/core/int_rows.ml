type t = int array

let create ~width = Array.make (1 + (4 * width)) 0
let count a = Array.unsafe_get a 0
(* past this many rows of room, a cleared buffer is replaced *)
let kept_rows = 16

let clear a ~width =
  if Array.length a > 1 + (width * kept_rows) then create ~width
  else begin
    a.(0) <- 0;
    a
  end
let get a ~width k j = a.(1 + (width * k) + j)

(* [a], or a copy with twice its room, with space for one more row *)
let reserve a ~width =
  let n = count a in
  if 1 + (width * (n + 1)) <= Array.length a then a
  else begin
    let b = Array.make (1 + (2 * (Array.length a - 1))) 0 in
    Array.blit a 0 b 0 (1 + (width * n));
    b
  end

let push2 a x y =
  let a = reserve a ~width:2 in
  let n = count a in
  a.(1 + (2 * n)) <- x;
  a.(2 + (2 * n)) <- y;
  a.(0) <- n + 1;
  a

let push4 a x y z w =
  let a = reserve a ~width:4 in
  let n = count a in
  a.(1 + (4 * n)) <- x;
  a.(2 + (4 * n)) <- y;
  a.(3 + (4 * n)) <- z;
  a.(4 + (4 * n)) <- w;
  a.(0) <- n + 1;
  a

let pairs a =
  List.init (count a) (fun k -> (get a ~width:2 k 0, get a ~width:2 k 1))

let quads a =
  List.init (count a) (fun k ->
      ( get a ~width:4 k 0,
        get a ~width:4 k 1,
        get a ~width:4 k 2,
        get a ~width:4 k 3 ))

let of_pairs l =
  List.fold_left (fun a (x, y) -> push2 a x y) (create ~width:2) l

let of_quads l =
  List.fold_left (fun a (x, y, z, w) -> push4 a x y z w) (create ~width:4) l
