type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Samples are kept newest first as runs of bit-identical values: a
   receiver that adds the same delay for every placed run would
   otherwise hold one list cell per sample.  Bit identity (not [=])
   keeps [nan] runs together and [0.0] apart from [-0.0], so expanding
   the runs gives back exactly the plain sample list. *)
type t = {
  mutable head : float;  (* the newest run's value *)
  mutable head_n : int;  (* its length; 0 before the first sample *)
  mutable older : (float * int) list;  (* earlier runs, newest first *)
  mutable n : int;
}

let create () = { head = 0.0; head_n = 0; older = []; n = 0 }

let add t x =
  if
    t.head_n > 0
    && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float t.head)
  then t.head_n <- t.head_n + 1
  else begin
    if t.head_n > 0 then t.older <- (t.head, t.head_n) :: t.older;
    t.head <- x;
    t.head_n <- 1
  end;
  t.n <- t.n + 1

let count t = t.n

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (p *. float_of_int (n - 1)) in
  sorted.(idx)

(* The samples in the order the plain newest-first list held them. *)
let to_array t =
  let a = Array.make t.n t.head in
  let i = ref t.head_n in
  List.iter
    (fun (x, k) ->
      Array.fill a !i k x;
      i := !i + k)
    t.older;
  a

let summary t =
  if t.n = 0 then None
  else begin
    let a = to_array t in
    Array.sort Float.compare a;
    let total = Array.fold_left ( +. ) 0.0 a in
    Some
      {
        count = t.n;
        mean = total /. float_of_int t.n;
        min = a.(0);
        max = a.(Array.length a - 1);
        p50 = percentile a 0.5;
        p90 = percentile a 0.9;
        p99 = percentile a 0.99;
      }
  end

let pp_summary ?(scale = 1.0) ?(unit_ = "") fmt s =
  Format.fprintf fmt
    "n=%d mean=%.3f%s p50=%.3f%s p90=%.3f%s p99=%.3f%s max=%.3f%s" s.count
    (s.mean *. scale) unit_ (s.p50 *. scale) unit_ (s.p90 *. scale) unit_
    (s.p99 *. scale) unit_ (s.max *. scale) unit_
