(* Direct-mapped flow cache over a pair of integer keys.

   [Multi] memoises its connection table here, keyed on C.ID (second
   key 0), and probes it once per chunk.  It wants O(1) probes with zero
   allocation on hit or miss, and cheap statistics.  Entries are never
   invalidated: the memoised table only grows.

   Direct-mapped (one entry per slot, insert displaces) rather than
   set-associative: the point of the cache is the Zipf head, where a
   handful of hot flows dominate; conflict misses on the tail just fall
   back to the table itself.  Keys and values live in parallel arrays so
   a probe touches two int cells before ever looking at the value. *)

type 'a t = {
  shift : int;  (* [Sys.int_size - log2 slots]: keeps an index's top bits *)
  k1s : int array;
  k2s : int array;
  vals : 'a option array;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  (* Counters already flushed into the global [Obs] mirrors.  The
     mirrors are refreshed lazily, when [stats] is read: a per-probe
     atomic increment would cost more than the probe itself. *)
  mutable flushed : int array;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_insertions : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
}

type stats = {
  s_hits : int;
  s_misses : int;
  s_insertions : int;
  s_evictions : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create ~name ~slots () =
  if slots < 1 then invalid_arg "Flowcache.create: slots must be >= 1";
  let n = pow2_at_least slots 1 in
  let metric suffix =
    Obs.Metrics.counter (Printf.sprintf "flowcache_%s_%s_total" name suffix)
  in
  {
    shift = Sys.int_size - log2 n;
    k1s = Array.make n (-1);
    k2s = Array.make n (-1);
    vals = Array.make n None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    flushed = Array.make 4 0;
    c_hits = metric "hits";
    c_misses = metric "misses";
    c_insertions = metric "insertions";
    c_evictions = metric "evictions";
  }

let slots c = Array.length c.k1s

(* Multiplicative hashing on the top bits: the product's high bits
   depend on every key bit, where its low bits see only the low key
   bits.  The multiplier is an odd 63-bit constant close to the
   golden-ratio multiplier 2^63 / phi, picked so that the C.IDs 1..64 a
   fresh endpoint hands out land in 64 distinct slots of a 64-slot
   cache.  The keys are wire-supplied 32-bit IDs, so an attacker
   controls them — the mix only has to spread benign traffic, hostile
   traffic degenerates to table probes, never to wrong answers.  The
   logical shift leaves [log2 slots] bits, so the index is in bounds for
   every slot count, 1 included. *)
let index c ~k1 ~k2 =
  ((k1 lxor (k2 * 0x9E3779B1)) * 0x4E03_E4BD_3CEB_3FFD) lsr c.shift

(* [index] is below [slots c], so unsafe reads below are in bounds
   by construction.  Occupancy lives in the key arrays alone: empty
   slots hold the [-1] sentinel (keys are wire u32s, so never negative
   — [insert] enforces it), and a key match therefore implies the slot
   holds a value.  [find] then returns the stored option without
   inspecting it: one load and no branch beyond the key compare. *)
let find c ~k1 ~k2 =
  let i = index c ~k1 ~k2 in
  if Array.unsafe_get c.k1s i = k1 && Array.unsafe_get c.k2s i = k2 then begin
    c.hits <- c.hits + 1;
    Array.unsafe_get c.vals i
  end
  else begin
    c.misses <- c.misses + 1;
    None
  end

let insert c ~k1 ~k2 v =
  if k1 < 0 || k2 < 0 then
    invalid_arg "Flowcache.insert: keys are non-negative wire IDs";
  let i = index c ~k1 ~k2 in
  let old1 = Array.unsafe_get c.k1s i in
  if old1 >= 0 && not (old1 = k1 && Array.unsafe_get c.k2s i = k2) then
    c.evictions <- c.evictions + 1;
  Array.unsafe_set c.k1s i k1;
  Array.unsafe_set c.k2s i k2;
  c.vals.(i) <- Some v;
  c.insertions <- c.insertions + 1

let stats c =
  if Obs.enabled then begin
    let flush j counter v =
      Obs.Metrics.add counter (v - c.flushed.(j));
      c.flushed.(j) <- v
    in
    flush 0 c.c_hits c.hits;
    flush 1 c.c_misses c.misses;
    flush 2 c.c_insertions c.insertions;
    flush 3 c.c_evictions c.evictions
  end;
  {
    s_hits = c.hits;
    s_misses = c.misses;
    s_insertions = c.insertions;
    s_evictions = c.evictions;
  }

let zero_stats =
  {
    s_hits = 0;
    s_misses = 0;
    s_insertions = 0;
    s_evictions = 0;
  }

(* Counters are non-negative, so the only overflow is past [max_int];
   saturate there instead of wrapping to a negative total — a soak
   aggregating reports forever should read "pegged", not garbage. *)
let sat_add a b = let s = a + b in if s < 0 then max_int else s

let add_stats a b =
  {
    s_hits = sat_add a.s_hits b.s_hits;
    s_misses = sat_add a.s_misses b.s_misses;
    s_insertions = sat_add a.s_insertions b.s_insertions;
    s_evictions = sat_add a.s_evictions b.s_evictions;
  }

let hit_rate s =
  let total = s.s_hits + s.s_misses in
  if total = 0 then 0.0 else float_of_int s.s_hits /. float_of_int total
