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
   table below is generated from and differentially tested against
   (test/test_gf_fast.ml); the table-driven fast paths further down are
   what the hot paths use. *)
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

(* --- table-driven fast paths -------------------------------------- *)

(* t*x^32 mod m for the nibble t that overflows a 4-bit shift.  Both
   factors have degree <= 7, so the field product equals the plain
   carry-less product. *)
let top4_overflow = Array.init 16 (fun n -> Ref.mul n reduction)

(* One 4-bit shift-and-reduce step (multiply by x^4). *)
let[@inline] mul_x4 v =
  ((v lsl 4) land mask32) lxor Array.unsafe_get top4_overflow (v lsr 28)

(* Windowed multiplication, 4-bit window over [b]: build the 16 nibble
   multiples of [a] with three shift-reduce doublings (an array literal,
   allocated inline on the minor heap rather than through a C call),
   then fold the 8 nibbles of [b] with one table-driven x^4 step each.
   Replaces the 32 branchy shift/reduce iterations of [Ref.mul] on the
   anchoring multiply of the WSC-2 kernel. *)
let mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let a2 = xtime a in
    let a4 = xtime a2 in
    let a8 = xtime a4 in
    let w =
      [| 0; a; a2; a2 lxor a; a4; a4 lxor a; a4 lxor a2; a4 lxor a2 lxor a;
         a8; a8 lxor a; a8 lxor a2; a8 lxor a2 lxor a; a8 lxor a4;
         a8 lxor a4 lxor a; a8 lxor a4 lxor a2; a8 lxor a4 lxor a2 lxor a |]
    in
    let acc = ref (Array.unsafe_get w ((b lsr 28) land 0xF)) in
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 24) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 20) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 16) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 12) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 8) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w ((b lsr 4) land 0xF);
    acc := mul_x4 !acc lxor Array.unsafe_get w (b land 0xF);
    !acc
  end

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
       alpha^(2^k) ladder, with the windowed multiply *)
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
