type parity = { p0 : Gf232.t; p1 : Gf232.t }

let parity_zero = { p0 = Gf232.zero; p1 = Gf232.zero }

let parity_equal a b = Gf232.equal a.p0 b.p0 && Gf232.equal a.p1 b.p1

let pp_parity fmt p =
  Format.fprintf fmt "{P0=%a; P1=%a}" Gf232.pp p.p0 Gf232.pp p.p1

let parity_blit p b off =
  if off < 0 || Bytes.length b - off < 8 then
    invalid_arg "Wsc2.parity_blit: need 8 bytes";
  Bytes.set_int32_be b off (Gf232.to_int32_bits p.p0);
  Bytes.set_int32_be b (off + 4) (Gf232.to_int32_bits p.p1)

let parity_to_bytes p =
  let b = Bytes.create 8 in
  parity_blit p b 0;
  b

let parity_of_bytes b off =
  if Bytes.length b - off < 8 then
    invalid_arg "Wsc2.parity_of_bytes: need 8 bytes";
  {
    p0 = Gf232.of_int32_bits (Bytes.get_int32_be b off);
    p1 = Gf232.of_int32_bits (Bytes.get_int32_be b (off + 4));
  }

let max_position = (1 lsl 29) - 3

type acc = { mutable a0 : Gf232.t; mutable a1 : Gf232.t }

let create () = { a0 = Gf232.zero; a1 = Gf232.zero }

let reset acc =
  acc.a0 <- Gf232.zero;
  acc.a1 <- Gf232.zero

let check_pos pos =
  if pos < 0 || pos > max_position then
    invalid_arg "Wsc2: position out of range"

let add_symbol acc ~pos sym =
  check_pos pos;
  acc.a0 <- Gf232.add acc.a0 sym;
  acc.a1 <- Gf232.add acc.a1 (Gf232.mul (Gf232.alpha_pow pos) sym)

(* Symbols at consecutive positions share one multiplication, by
   Horner's rule: alpha^p a + alpha^(p+1) b = alpha^p (a + alpha b), and
   multiplying by alpha is [Gf232.xtime]. *)
let add_pair acc ~pos a b =
  check_pos pos;
  check_pos (pos + 1);
  acc.a0 <- Gf232.add acc.a0 (Gf232.add a b);
  acc.a1 <-
    Gf232.add acc.a1
      (Gf232.mul (Gf232.alpha_pow pos) (Gf232.add a (Gf232.xtime b)))

let add_triple acc ~pos a b c =
  check_pos pos;
  check_pos (pos + 2);
  acc.a0 <- Gf232.add acc.a0 (Gf232.add a (Gf232.add b c));
  acc.a1 <-
    Gf232.add acc.a1
      (Gf232.mul (Gf232.alpha_pow pos)
         (Gf232.add a (Gf232.xtime (Gf232.add b (Gf232.xtime c)))))

let symbols_of_bytes n = (n + 3) / 4

let mask32 = 0xFFFF_FFFF

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

(* Unaligned load primitives.  [get32u]/[get64u] are single (possibly
   unaligned) loads with no bounds check; composed directly with the
   byte swaps and [Int32.to_int]/[Int64.to_int] the box/unbox pairs
   cancel in the backend, so the kernel is allocation-free even without
   flambda — unlike going through [Bytes.get_int32_be], which is a
   function call returning a boxed integer. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The big-endian 32-bit symbol at byte offset [i]. *)
let[@inline] sym b i =
  if Sys.big_endian then Int32.to_int (get32u b i) land mask32
  else Int32.to_int (bswap32 (get32u b i)) land mask32

(* The big-endian 64-bit word at byte offset [i]: the symbol at [i] in
   its high half, the one at [i + 4] in its low half. *)
let[@inline] word b i =
  if Sys.big_endian then get64u b i else bswap64 (get64u b i)

let[@inline] hi w = Int64.to_int (Int64.shift_right_logical w 32)
let[@inline] lo w = Int64.to_int w land mask32

(* The two symbols of [w], the first weighted by 1 and the second by x,
   XORed unreduced: at most 33 bits. *)
let[@inline] pair w =
  Int64.logxor
    (Int64.shift_right_logical w 32)
    (Int64.logand (Int64.shift_left w 1) 0x1_FFFF_FFFFL)

(* Reduce an unreduced product [v] of at most 48 bits: the bits above
   x^31 form [t < 2^16] and re-enter as t * x^32 = t * (x^7 + x^3 + x^2
   + 1), at most 23 bits, so one carry-less fold suffices. *)
let[@inline] red v =
  let t = v lsr 32 in
  v land mask32 lxor t lxor (t lsl 2) lxor (t lsl 3) lxor (t lsl 7)

(* [v] XOR the pair in [w] weighted by x^k. *)
let[@inline] fold v w k = Int64.logxor v (Int64.shift_left (pair w) k)

(* The table-free accumulation kernel, 16 symbols (64 bytes) a step.

   A contiguous run is folded with Horner's rule: walking the 32-bit
   big-endian words in reverse, [h := alpha*h + d_i] yields
   [sum_i alpha^i d_i]; a single windowed multiplication by [alpha^pos]
   (a cached weight) then anchors the run at its absolute position.
   Each step consumes sixteen symbols s0..s15 in buffer order:

     h := alpha^16 h  +  alpha^15 s15 + ... + alpha s1 + s0

   Multiplying by alpha^k is a plain left shift until it is reduced, so
   the whole right-hand side is XORed together unreduced — [h lsl 16]
   and [s15 lsl 15] both stay below 2^48 — and reduced once by {!red}.
   The symbols come from eight 64-bit loads, and P0 is the XOR of the
   same eight words, folded to 32 bits once per step.  The only
   loop-carried dependency is the shift, XOR and fold on [h].

   Precondition (NOT checked here): [0 <= off], [0 < len],
   [off + len <= Bytes.length b], and positions [pos .. pos + nsym - 1]
   in range.  [add_bytes] validates; [add_subbytes_exn] trusts the
   caller. *)
let accumulate_unchecked acc ~pos b off len =
  let full = len lsr 2 in
  let r = full land 15 in
  (* the trailing partial word, zero-padded on the right, at relative
     symbol index [full] *)
  let tail = ref 0 in
  for k = 0 to (len land 3) - 1 do
    tail := !tail lor (byte b (off + (full lsl 2) + k) lsl (24 - (k lsl 3)))
  done;
  (* the [r] full words above the last whole step, and the partial word
     above them, weighted relative to the lowest of them: one short step
     of at most 16 symbols, reduced once *)
  let top = off + ((full - r) lsl 2) in
  let v = ref (!tail lsl r) and p0 = ref !tail in
  for j = 0 to r - 1 do
    let s = sym b (top + (j lsl 2)) in
    v := !v lxor (s lsl j);
    p0 := !p0 lxor s
  done;
  let h = ref (red !v) in
  (* whole steps, in strictly descending Horner order *)
  let base = ref (top - 64) in
  while !base >= off do
    let base' = !base in
    let w = word b base' in
    let v = pair w and x = w in
    let w = word b (base' + 8) in
    let v = fold v w 2 and x = Int64.logxor x w in
    let w = word b (base' + 16) in
    let v = fold v w 4 and x = Int64.logxor x w in
    let w = word b (base' + 24) in
    let v = fold v w 6 and x = Int64.logxor x w in
    let w = word b (base' + 32) in
    let v = fold v w 8 and x = Int64.logxor x w in
    let w = word b (base' + 40) in
    let v = fold v w 10 and x = Int64.logxor x w in
    let w = word b (base' + 48) in
    let v = fold v w 12 and x = Int64.logxor x w in
    let w = word b (base' + 56) in
    let v = fold v w 14 and x = Int64.logxor x w in
    h := red ((!h lsl 16) lxor Int64.to_int v);
    p0 := !p0 lxor hi x lxor lo x;
    base := base' - 64
  done;
  acc.a0 <- acc.a0 lxor !p0;
  let w = Gf232.alpha_pow pos in
  let h = if w = Gf232.one then !h else Gf232.mul w !h in
  acc.a1 <- acc.a1 lxor h

(* Throughput accounting: one atomic add per accumulate call (never per
   byte or per symbol), and only when the observability layer is
   compiled in. *)
let m_bytes = Obs.Metrics.counter "wsc2_bytes_total"

let[@inline] count len = if Obs.enabled then Obs.Metrics.add m_bytes len

let add_bytes acc ~pos b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Wsc2.add_bytes: bad slice";
  let nsym = symbols_of_bytes len in
  if nsym > 0 then begin
    (* one combined range check: [pos >= 0] and the last position in
       bounds imply every position in between is too *)
    if pos < 0 || pos + nsym - 1 > max_position then
      invalid_arg "Wsc2: position out of range";
    count len;
    accumulate_unchecked acc ~pos b off len
  end

let add_subbytes_exn acc ~pos b off len =
  if len > 0 then begin
    count len;
    accumulate_unchecked acc ~pos b off len
  end

let combine dst src =
  dst.a0 <- Gf232.add dst.a0 src.a0;
  dst.a1 <- Gf232.add dst.a1 src.a1

let snapshot acc = { p0 = acc.a0; p1 = acc.a1 }
let p0 acc = acc.a0
let p1 acc = acc.a1

let of_parity p = { a0 = p.p0; a1 = p.p1 }

let encode_bytes ~pos b =
  let acc = create () in
  add_bytes acc ~pos b 0 (Bytes.length b);
  snapshot acc

let verify ~expected acc = parity_equal expected (snapshot acc)
