(* Slots hold keys, or [empty]; the key [empty] itself, which no slot
   can hold, is kept beside them.  [vals] is as long as [keys], or
   empty in a set, whose one value is [absent]. *)
let empty = min_int

type 'a t = {
  mutable keys : int array;  (* a power of two long *)
  mutable vals : 'a array;
  mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  mutable n : int;  (* keys in [keys] *)
  absent : 'a;
  mutable has_empty : bool;
  mutable empty_val : 'a;
}

let log2 cap =
  let rec go n = if n <= 1 then 0 else 1 + go (n lsr 1) in
  go cap

let make ~absent ~valued n =
  let cap = ref 1 in
  while !cap < 2 * n do cap := 2 * !cap done;
  {
    keys = Array.make !cap empty;
    vals = (if valued then Array.make !cap absent else [||]);
    shift = 63 - log2 !cap;
    n = 0;
    absent;
    has_empty = false;
    empty_val = absent;
  }

let create ~absent n = make ~absent ~valued:true n
let set n = make ~absent:() ~valued:false n

(* Where [k]'s probe starts: the top bits of a multiplicative hash of
   the 63-bit word, which every bit of [k] reaches, so consecutive keys
   (sequential T.IDs) spread out. *)
let home shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [k], or the empty slot where it would go. *)
let rec probe keys k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i
  else probe keys k ((i + 1) land (Array.length keys - 1))

let slot t k = probe t.keys k (home t.shift k)

let mem t k =
  if k = empty then t.has_empty else Array.unsafe_get t.keys (slot t k) = k

let find t k =
  if k = empty then t.empty_val
  else
    let i = slot t k in
    if Array.length t.vals > 0 && Array.unsafe_get t.keys i = k then
      Array.unsafe_get t.vals i
    else t.absent

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty;
  t.shift <- 63 - log2 cap;
  if Array.length vals > 0 then t.vals <- Array.make cap t.absent;
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = slot t k in
        t.keys.(j) <- k;
        if Array.length vals > 0 then t.vals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k = empty then begin
    t.has_empty <- true;
    t.empty_val <- v
  end
  else begin
    let i = slot t k in
    let i =
      if t.keys.(i) = k then i
      else begin
        let i =
          if 2 * (t.n + 1) <= Array.length t.keys then i
          else begin
            grow t;
            slot t k
          end
        in
        t.keys.(i) <- k;
        t.n <- t.n + 1;
        i
      end
    in
    if Array.length t.vals > 0 then t.vals.(i) <- v
  end

(* Empty slot [i], then close the gap: each later key of the chain
   whose probe started at or before the gap moves back into it, and
   the gap moves to where it was. *)
let remove t k =
  if k = empty then begin
    t.has_empty <- false;
    t.empty_val <- t.absent
  end
  else begin
    let keys = t.keys in
    let i = slot t k in
    if keys.(i) = k then begin
      let mask = Array.length keys - 1 and valued = Array.length t.vals > 0 in
      let gap = ref i and j = ref ((i + 1) land mask) in
      while keys.(!j) <> empty do
        let h = home t.shift keys.(!j) in
        if (!gap - h) land mask < (!j - h) land mask then begin
          keys.(!gap) <- keys.(!j);
          if valued then t.vals.(!gap) <- t.vals.(!j);
          gap := !j
        end;
        j := (!j + 1) land mask
      done;
      keys.(!gap) <- empty;
      if valued then t.vals.(!gap) <- t.absent;
      t.n <- t.n - 1
    end
  end

let length t = t.n + if t.has_empty then 1 else 0

let fold f t init =
  let acc = ref (if t.has_empty then f empty t.empty_val init else init) in
  Array.iteri
    (fun i k ->
      if k <> empty then
        acc :=
          f k (if Array.length t.vals > 0 then t.vals.(i) else t.absent) !acc)
    t.keys;
  !acc

let sorted_keys t = List.sort Int.compare (fold (fun k _ l -> k :: l) t [])
