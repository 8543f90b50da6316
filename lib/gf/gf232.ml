type t = int

let mask32 = 0xFFFF_FFFF

(* x^32 = x^7 + x^3 + x^2 + 1 (mod m), i.e. the reduction constant 0x8d. *)
let reduction = 0x8d

let zero = 0
let one = 1
let alpha = 2

let of_int32_bits i = Int32.to_int i land mask32
let to_int32_bits a = Int32.of_int a

let is_valid a = a >= 0 && a land mask32 = a

let add a b = a lxor b

(* Branchless shift-and-reduce: the overflowing top bit selects the
   reduction constant through a mask instead of a (50% mispredicted on
   random data) conditional. *)
let[@inline] xtime a =
  ((a lsl 1) land mask32) lxor (-((a lsr 31) land 1) land reduction)

(* The bit-serial reference implementation.  It is the oracle every
   fast path below is differentially tested against
   (test/test_gf_fast.ml); the fast paths further down are what the hot
   paths use. *)
module Ref = struct
  (* Russian-peasant multiplication with reduction folded into every
     step; all intermediates stay within 32 bits, so native ints are
     safe. *)
  let mul a b =
    let acc = ref 0 in
    let a = ref a in
    let b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then acc := !acc lxor !a;
      b := !b lsr 1;
      a := xtime !a
    done;
    !acc

  (* alpha^(2^k) for k = 0..61, so alpha_pow runs in O(popcount i) muls. *)
  let alpha_squares =
    let tbl = Array.make 62 0 in
    tbl.(0) <- alpha;
    for k = 1 to 61 do
      tbl.(k) <- mul tbl.(k - 1) tbl.(k - 1)
    done;
    tbl

  let alpha_pow i =
    if i < 0 then invalid_arg "Gf232.alpha_pow: negative exponent";
    let acc = ref one in
    let i = ref i in
    let k = ref 0 in
    while !i > 0 do
      if !i land 1 = 1 then acc := mul !acc alpha_squares.(!k);
      i := !i lsr 1;
      incr k
    done;
    !acc
end

(* --- fast paths ---------------------------------------------------- *)

(* Carry-less multiplication by integer multiplication with holes: the
   operands are split into four parts whose set bits are four positions
   apart, so in each integer product of two parts every column collects
   at most eight partial products, which fits in the four bits before
   the next column of the same residue mod 4.  A column's low bit is
   then the XOR of its partial products, the carry-less product's bit.
   Products whose exponents meet in the same residue are XORed and
   masked to it.  The full product has degree <= 62, which a native int
   holds; no table, no scratch, no allocation, and no data-dependent
   branch. *)
let parts = 0x1111_1111
let columns = 0x1111_1111_1111_1111

(* [h * x^32] folded down with x^32 = x^7 + x^3 + x^2 + 1 *)
let[@inline] fold h = h lxor (h lsl 2) lxor (h lsl 3) lxor (h lsl 7)

let mul a b =
  let a0 = a land parts and a1 = a land (parts lsl 1) in
  let a2 = a land (parts lsl 2) and a3 = a land (parts lsl 3) in
  let b0 = b land parts and b1 = b land (parts lsl 1) in
  let b2 = b land (parts lsl 2) and b3 = b land (parts lsl 3) in
  let z0 = (a0 * b0) lxor (a1 * b3) lxor (a2 * b2) lxor (a3 * b1) in
  let z1 = (a0 * b1) lxor (a1 * b0) lxor (a2 * b3) lxor (a3 * b2) in
  let z2 = (a0 * b2) lxor (a1 * b1) lxor (a2 * b0) lxor (a3 * b3) in
  let z3 = (a0 * b3) lxor (a1 * b2) lxor (a2 * b1) lxor (a3 * b0) in
  let p =
    z0 land columns
    lor (z1 land (columns lsl 1))
    lor (z2 land (columns lsl 2))
    lor (z3 land (columns lsl 3))
  in
  (* bits 32..62 fold to degree <= 37, whose bits 32..37 fold to
     degree <= 12 *)
  let r = fold (p lsr 32) in
  (p lxor r lxor fold (r lsr 32)) land mask32

let pow a n =
  if n < 0 then invalid_arg "Gf232.pow: negative exponent";
  let acc = ref one in
  let base = ref a in
  let n = ref n in
  while !n > 0 do
    if !n land 1 = 1 then acc := mul !acc !base;
    base := mul !base !base;
    n := !n lsr 1
  done;
  !acc

(* Memoized weight cache: alpha^i for the whole Fig 5 position layout
   (data positions 0..16383, label positions 16384..16386, (X.ID, X.ST)
   pairs up to 16387 + 2*16383 + 1 = 49154), with slack.  Filled once
   at module init by iterated shift-reduce; immutable afterwards, so it
   is safe to share across domains (Parverify workers). *)
let weight_cache_size = 1 lsl 16

let weights =
  let w = Array.make weight_cache_size one in
  for i = 1 to weight_cache_size - 1 do
    w.(i) <- xtime w.(i - 1)
  done;
  w

let alpha_pow i =
  if i < 0 then invalid_arg "Gf232.alpha_pow: negative exponent";
  if i < weight_cache_size then Array.unsafe_get weights i
  else begin
    (* beyond the Fig 5 layout: square-and-multiply over the cached
       alpha^(2^k) ladder, with the fast multiply *)
    let acc = ref one in
    let i = ref i in
    let k = ref 0 in
    while !i > 0 do
      if !i land 1 = 1 then acc := mul !acc Ref.alpha_squares.(!k);
      i := !i lsr 1;
      incr k
    done;
    !acc
  end

let inv a =
  if a = zero then raise Division_by_zero;
  (* a^(2^32 - 2) = a^(order - 1) where order = 2^32 - 1. *)
  pow a 0xFFFF_FFFE

let div a b = mul a (inv b)

let pp fmt a = Format.fprintf fmt "0x%08x" a

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b
