type counter = { c_name : string; c_v : int Atomic.t }

type gauge = { g_name : string; g_v : int Atomic.t; g_max : int Atomic.t }

let buckets = 64

type histogram = {
  h_name : string;
  h_b : int Atomic.t array;  (* [buckets] cells *)
  h_n : int Atomic.t;
  h_s : int Atomic.t;
  h_m : int Atomic.t;  (* max observed; min_int when empty *)
}

type metric = C of counter | G of gauge | H of histogram

(* Registration is rare (module init) and may race across domains, so it
   takes a lock; updates and reads never do. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let intern name make classify =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> (
        match classify m with
        | Some v -> v
        | None ->
            Mutex.unlock registry_lock;
            invalid_arg
              (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
                 name))
    | None ->
        let v = make () in
        (match v with
        | C _ | G _ | H _ -> Hashtbl.add registry name v);
        v
  in
  Mutex.unlock registry_lock;
  m

let counter name =
  match
    intern name
      (fun () -> C { c_name = name; c_v = Atomic.make 0 })
      (function C _ as m -> Some m | G _ | H _ -> None)
  with
  | C c -> c
  | G _ | H _ -> assert false

let gauge name =
  match
    intern name
      (fun () ->
        G { g_name = name; g_v = Atomic.make 0; g_max = Atomic.make 0 })
      (function G _ as m -> Some m | C _ | H _ -> None)
  with
  | G g -> g
  | C _ | H _ -> assert false

let histogram name =
  match
    intern name
      (fun () ->
        H
          {
            h_name = name;
            h_b = Array.init buckets (fun _ -> Atomic.make 0);
            h_n = Atomic.make 0;
            h_s = Atomic.make 0;
            h_m = Atomic.make min_int;
          })
      (function H _ as m -> Some m | C _ | G _ -> None)
  with
  | H h -> h
  | C _ | G _ -> assert false

(* Saturating monotonic add: [fetch_and_add] wraps to negative past
   [max_int]; detect the wrap and pin the cell at the ceiling. *)
let sat_add cell n =
  if n > 0 then
    let v = Atomic.fetch_and_add cell n + n in
    if v < 0 then Atomic.set cell max_int

let incr c = sat_add c.c_v 1
let add c n = sat_add c.c_v n
let value c = Atomic.get c.c_v

let rec bump_max cell (v : int) =
  let m = Atomic.get cell in
  if v > m && not (Atomic.compare_and_set cell m v) then bump_max cell v

let set g v =
  Atomic.set g.g_v v;
  bump_max g.g_max v

let gauge_value g = Atomic.get g.g_v
let gauge_max g = Atomic.get g.g_max

(* Bucket [b >= 1] covers [2^(b-1), 2^b - 1]: the index is the bit
   length of the value, clamped into the overflow bucket. *)
let bucket_index v =
  if v <= 0 then 0
  else begin
    (* bit length by binary search: six steps for a 63-bit int *)
    let v = ref v and n = ref 1 in
    if !v lsr 32 <> 0 then (v := !v lsr 32; n := !n + 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; n := !n + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; n := !n + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; n := !n + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; n := !n + 2);
    if !v lsr 1 <> 0 then n := !n + 1;
    Int.min (buckets - 1) !n
  end

let bucket_lower b =
  if b <= 0 then min_int else 1 lsl (b - 1)

let bucket_upper b =
  if b >= buckets - 1 then max_int
  else if b <= 0 then 0
  else (1 lsl b) - 1

let observe h v =
  sat_add h.h_b.(bucket_index v) 1;
  sat_add h.h_n 1;
  if v > 0 then sat_add h.h_s v;
  bump_max h.h_m v

let observe_s h secs = observe h (int_of_float (secs *. 1e6))

let hist_count h = Atomic.get h.h_n
let hist_sum h = Atomic.get h.h_s
let hist_max h = Atomic.get h.h_m
let bucket_count h b = Atomic.get h.h_b.(b)

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int * int) list;
  s_histograms : (string * hist_snapshot) list;
}

let snapshot () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_lock;
  let cs = ref [] and gs = ref [] and hs = ref [] in
  List.iter
    (function
      | C c -> cs := (c.c_name, value c) :: !cs
      | G g -> gs := (g.g_name, gauge_value g, gauge_max g) :: !gs
      | H h ->
          let bks = ref [] in
          for b = buckets - 1 downto 0 do
            let n = bucket_count h b in
            if n > 0 then bks := (b, n) :: !bks
          done;
          hs :=
            ( h.h_name,
              {
                h_count = hist_count h;
                h_sum = hist_sum h;
                h_max = hist_max h;
                h_buckets = !bks;
              } )
            :: !hs)
    all;
  let by_name f = List.sort (fun a b -> String.compare (f a) (f b)) in
  {
    s_counters = by_name fst !cs;
    s_gauges = by_name (fun (n, _, _) -> n) !gs;
    s_histograms = by_name fst !hs;
  }
