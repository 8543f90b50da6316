(* Slots hold elements, or [empty]; the element [empty] itself, which no
   slot can hold, is kept as a flag. *)
let empty = min_int

type t = {
  mutable slots : int array;  (* a power of two, at least 8 *)
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
  mutable n : int;  (* elements in [slots] *)
  mutable has_empty : bool;
}

let table cap =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  (Array.make cap empty, 63 - log2 cap)

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do cap := 2 * !cap done;
  let slots, shift = table !cap in
  { slots; shift; n = 0; has_empty = false }

(* The slot holding [k], or the empty slot where it would go.  Probing
   starts at the top bits of a multiplicative hash of the 63-bit word,
   which every bit of [k] reaches, so consecutive elements (sequential
   T.IDs) spread out. *)
let rec probe slots k i =
  let x = Array.unsafe_get slots i in
  if x = k || x = empty then i
  else probe slots k ((i + 1) land (Array.length slots - 1))

let find slots shift k = probe slots k ((k * 0x4F1BBCDCBFA53E0B) lsr shift)

let mem t k =
  if k = empty then t.has_empty
  else Array.unsafe_get t.slots (find t.slots t.shift k) = k

let add t k =
  if k = empty then t.has_empty <- true
  else if not (mem t k) then begin
    if 2 * (t.n + 1) > Array.length t.slots then begin
      let old = t.slots in
      let slots, shift = table (2 * Array.length old) in
      Array.iter
        (fun x -> if x <> empty then slots.(find slots shift x) <- x)
        old;
      t.slots <- slots;
      t.shift <- shift
    end;
    t.slots.(find t.slots t.shift k) <- k;
    t.n <- t.n + 1
  end

let length t = t.n + if t.has_empty then 1 else 0

let elements t =
  let l =
    Array.fold_left (fun l x -> if x <> empty then x :: l else l) [] t.slots
  in
  List.sort Int.compare (if t.has_empty then empty :: l else l)
