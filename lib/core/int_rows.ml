type t = { mutable cells : int array }

(* Slot 0 of [cells] counts the rows; row [k] of width [w] fills slots
   [1 + w*k .. w*(k+1)].  [no_cells] has no room and is never written:
   the first push replaces it. *)
let no_cells = [| 0 |]
let create ~width = { cells = Array.make (1 + (4 * width)) 0 }
let empty () = { cells = no_cells }
let count t = Array.unsafe_get t.cells 0
(* past this many rows of room, a cleared buffer is replaced *)
let kept_rows = 16

let clear t ~width =
  if Array.length t.cells > 1 + (width * kept_rows) then
    t.cells <- Array.make (1 + (4 * width)) 0
  else if count t > 0 then t.cells.(0) <- 0

let get t ~width k j = t.cells.(1 + (width * k) + j)
let set t ~width k j x = t.cells.(1 + (width * k) + j) <- x

(* The cells, with room for [m] more rows: the same array, or one with
   twice its room (four rows' at least, and as many as needed). *)
let reserve t ~width m =
  let a = t.cells in
  let n = Array.unsafe_get a 0 in
  if 1 + (width * (n + m)) <= Array.length a then a
  else begin
    let room =
      Int.max (2 * (Array.length a - 1)) (width * Int.max 4 (n + m))
    in
    let b = Array.make (1 + room) 0 in
    Array.blit a 0 b 0 (1 + (width * n));
    t.cells <- b;
    b
  end

let push2 t x y =
  let a = reserve t ~width:2 1 in
  let n = a.(0) in
  a.(1 + (2 * n)) <- x;
  a.(2 + (2 * n)) <- y;
  a.(0) <- n + 1

let push3 t x y z =
  let a = reserve t ~width:3 1 in
  let n = a.(0) in
  a.(1 + (3 * n)) <- x;
  a.(2 + (3 * n)) <- y;
  a.(3 + (3 * n)) <- z;
  a.(0) <- n + 1

let push4 t x y z w =
  let a = reserve t ~width:4 1 in
  let n = a.(0) in
  a.(1 + (4 * n)) <- x;
  a.(2 + (4 * n)) <- y;
  a.(3 + (4 * n)) <- z;
  a.(4 + (4 * n)) <- w;
  a.(0) <- n + 1

let append t u ~width =
  let m = count u in
  if m > 0 then begin
    let a = reserve t ~width m and b = u.cells in
    let n = a.(0) in
    for i = 1 to width * m do
      a.((width * n) + i) <- b.(i)
    done;
    a.(0) <- n + m
  end

(* Rows ordered by their first cells, in place, swapping rows cell by
   cell, so nothing is allocated: insertion sort for the few rows a
   TPDU's pieces make (rows already in order, as in-order data leaves
   them, are only read), heapsort past [few], so a TPDU cut into many
   pieces still costs O(n log n). *)
let key a ~width k = Array.unsafe_get a (1 + (width * k))

let swap a ~width i j =
  for c = 1 to width do
    let x = a.((width * i) + c) in
    a.((width * i) + c) <- a.((width * j) + c);
    a.((width * j) + c) <- x
  done

let rec sift a ~width k n =
  let l = (2 * k) + 1 in
  if l < n then begin
    let c =
      if l + 1 < n && key a ~width (l + 1) > key a ~width l then l + 1 else l
    in
    if key a ~width c > key a ~width k then begin
      swap a ~width k c;
      sift a ~width c n
    end
  end

let few = 16

let sort t ~width =
  let a = t.cells in
  let n = a.(0) in
  if n <= few then
    for k = 1 to n - 1 do
      let j = ref k in
      while !j > 0 && key a ~width (!j - 1) > key a ~width !j do
        swap a ~width (!j - 1) !j;
        decr j
      done
    done
  else begin
    for k = (n / 2) - 1 downto 0 do
      sift a ~width k n
    done;
    for last = n - 1 downto 1 do
      swap a ~width 0 last;
      sift a ~width 0 last
    done
  end

let coalesce t ~limit =
  let a = t.cells in
  let n = ref 0 in
  for k = 0 to a.(0) - 1 do
    let sn = a.(1 + (2 * k)) and len = a.(2 + (2 * k)) in
    if sn >= 0 && len > 0 && sn <= limit - len then begin
      a.(1 + (2 * !n)) <- sn;
      a.(2 + (2 * !n)) <- len;
      incr n
    end
  done;
  a.(0) <- !n;
  sort t ~width:2;
  let n = ref 0 in
  for k = 0 to a.(0) - 1 do
    let sn = a.(1 + (2 * k)) and len = a.(2 + (2 * k)) in
    let j = !n - 1 in
    if j >= 0 && sn <= a.(1 + (2 * j)) + a.(2 + (2 * j)) then
      a.(2 + (2 * j)) <- Int.max a.(2 + (2 * j)) (sn + len - a.(1 + (2 * j)))
    else begin
      a.(1 + (2 * !n)) <- sn;
      a.(2 + (2 * !n)) <- len;
      incr n
    end
  done;
  a.(0) <- !n

let pairs t =
  List.init (count t) (fun k -> (get t ~width:2 k 0, get t ~width:2 k 1))
