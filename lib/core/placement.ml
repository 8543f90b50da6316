type level = Conn | Tpdu | External

type kind = Verified_conflict | Fresh_conflict

type report = {
  rp_fresh : (int * int) list;
  rp_benign : (int * int) list;
  rp_conflicts : (int * int * kind) list;
}

type outcome = {
  fresh : Int_rows.t;
  benign : Int_rows.t;
  conflicts : Int_rows.t;
  mutable held_back : int;
}

let outcome () =
  {
    fresh = Int_rows.empty ();
    benign = Int_rows.empty ();
    conflicts = Int_rows.empty ();
    held_back = 0;
  }

type overlap_stats = {
  os_conflicts_seen : int;
  os_conflicts_rejected : int;
  os_quarantined : int;
  os_verified_overwrites : int;
}

type t = {
  level : level;
  base_sn : int;
  elem_size : int;
  capacity_elems : int;
  buf : bytes;
  occ : bytes;  (* one bit per element: the element holds placed data *)
  lck : bytes;  (* one bit per element: the data is verified-locked *)
  mutable holes_zeroed : bool;
      (* whether every unoccupied element of [buf] reads 0: set by the
         first whole read; until then [lock_span] zeroes what it marks
         occupied unwritten, and from then on nothing needs to *)
  mutable conflicts_seen : int;
  mutable conflicts_rejected : int;
  mutable quarantined : int;
  mutable verified_overwrites : int;
}

let create ~level ~base_sn ~capacity_elems ~elem_size =
  if capacity_elems < 1 || elem_size < 1 then
    invalid_arg "Placement.create: bad dimensions";
  {
    level;
    base_sn;
    elem_size;
    capacity_elems;
    (* never written here: placement writes each element once, straight
       from the packet, and a hole is zeroed only if someone reads it *)
    buf = Bytes.create (capacity_elems * elem_size);
    occ = Bytes.make (((capacity_elems + 63) lsr 6) lsl 3) '\000';
    lck = Bytes.make (((capacity_elems + 63) lsr 6) lsl 3) '\000';
    holes_zeroed = false;
    conflicts_seen = 0;
    conflicts_rejected = 0;
    quarantined = 0;
    verified_overwrites = 0;
  }

let sn_of p (h : Header.t) =
  match p.level with
  | Conn -> h.Header.c.Ftuple.sn
  | Tpdu -> h.Header.t.Ftuple.sn
  | External -> h.Header.x.Ftuple.sn

(* {2 One-bit element maps}

   Element [e] is bit [e land 7] of byte [e lsr 3], so bit [e land 63]
   of the little-endian 64-bit word [e lsr 6]; a map is whole words.
   Runs are set a byte at a time, only a run's ragged head and tail bit
   by bit, and scanned a word at a time. *)

let bit bm e = Char.code (Bytes.get bm (e lsr 3)) land (1 lsl (e land 7)) <> 0

let set_bit bm e =
  let i = e lsr 3 in
  Bytes.set bm i
    (Char.unsafe_chr (Char.code (Bytes.get bm i) lor (1 lsl (e land 7))))

let set_bits bm sn len =
  let stop = sn + len in
  let e = ref sn in
  while !e < stop && !e land 7 <> 0 do
    set_bit bm !e;
    incr e
  done;
  let whole = (stop - !e) lsr 3 in
  Bytes.fill bm (!e lsr 3) whole '\255';
  e := !e + (whole lsl 3);
  while !e < stop do
    set_bit bm !e;
    incr e
  done

(* The index of the lowest set bit of [x <> 0], by halving the field. *)
let ctz x =
  let rec go x n w =
    if w = 0 then n
    else if x land ((1 lsl w) - 1) = 0 then go (x lsr w) (n + w) (w lsr 1)
    else go x n (w lsr 1)
  in
  go x 0 32

(* The first element in [e, stop) whose bit is [v], or [stop].  Each
   step loads the word holding [e], flipped so that the bits sought read
   1 and cleared below [e]: a word holding none is skipped whole,
   otherwise the answer is its lowest set bit. *)
let rec next_bit bm ~v e stop =
  if e >= stop then stop
  else
    let x =
      Int64.logand
        (Int64.shift_left (-1L) (e land 63))
        (Int64.logxor
           (Bytes.get_int64_le bm ((e lsr 6) lsl 3))
           (Int64.of_int (if v then 0 else -1)))
    in
    let w = e land lnot 63 in
    if Int64.equal x 0L then next_bit bm ~v (w + 64) stop
    else
      (* [to_int] drops bit 63, the only one set when it gives 0 *)
      let y = Int64.to_int x in
      Int.min stop (w + if y = 0 then 63 else ctz y)

(* The maximal runs of [v] bits in [0, stop), ascending. *)
let run_list bm ~v stop =
  let rec go e acc =
    let s = next_bit bm ~v e stop in
    if s >= stop then List.rev acc
    else
      let t = next_bit bm ~v:(not v) s stop in
      go t ((s, t - s) :: acc)
  in
  go 0 []

let total runs = List.fold_left (fun n (_, l) -> n + l) 0 runs

(* Do bytes [k, n) of [a] from [ai] equal those of [b] from [bi]?  A
   word at a time, then byte by byte; no closure, as the policy asks
   this once per element of a conflicting run. *)
let rec equal_tail a ai b bi k n =
  k = n
  || Bytes.get a (ai + k) = Bytes.get b (bi + k)
     && equal_tail a ai b bi (k + 1) n

let rec equal_words a ai b bi k n =
  if k + 8 > n then equal_tail a ai b bi k n
  else
    Bytes.get_int64_ne a (ai + k) = Bytes.get_int64_ne b (bi + k)
    && equal_words a ai b bi (k + 8) n

(* Do [n] bytes of [a] at [ai] equal [n] bytes of [b] at [bi]? *)
let equal_sub a ai b bi n = equal_words a ai b bi 0 n

(* Add the elements [e, e + n) to the ascending runs [rows], extending
   the last run when it ends at [e]. *)
let extend rows e n =
  let k = Int_rows.count rows - 1 in
  if
    k >= 0
    && Int_rows.get rows ~width:2 k 0 + Int_rows.get rows ~width:2 k 1 = e
  then Int_rows.set rows ~width:2 k 1 (Int_rows.get rows ~width:2 k 1 + n)
  else Int_rows.push2 rows e n

let kind_code = function Verified_conflict -> 0 | Fresh_conflict -> 1
let kind_of_code c = if c = 0 then Verified_conflict else Fresh_conflict

(* Add the conflicting element [e] of [kind] to [o]'s conflicts. *)
let push_conflict o e kind =
  let rows = o.conflicts and c = kind_code kind in
  let k = Int_rows.count rows - 1 in
  if
    k >= 0
    && Int_rows.get rows ~width:3 k 0 + Int_rows.get rows ~width:3 k 1 = e
    && Int_rows.get rows ~width:3 k 2 = c
  then Int_rows.set rows ~width:3 k 1 (Int_rows.get rows ~width:3 k 1 + 1)
  else Int_rows.push3 rows e 1 c

(* Write the newcomer's unoccupied elements [e0, e0 + n): one blit and
   one bit fill.  Its element [sn] is at byte [src_off] of [src]. *)
let write p ~src ~src_off ~sn e0 n =
  let es = p.elem_size in
  Bytes.blit src (src_off + ((e0 - sn) * es)) p.buf (e0 * es) (n * es);
  set_bits p.occ e0 n

(* The first-verified-wins policy.  [verified] marks a write made on
   behalf of a TPDU whose WSC-2 parity has already passed; such a write
   may reclaim bytes from an unverified squatter but must never touch a
   locked (verified) region that disagrees with it.

   The outcome is defined per element, but computed per run: a maximal
   run of unoccupied elements is one blit and one bulk mark, a run of
   occupied elements whose bytes all match is one benign entry, and only
   the elements of a mismatching occupied run go through the policy one
   at a time.  The newcomer's payload is [src] from byte [src_off]. *)
let apply_runs p o ~sn ~len ~src ~src_off ~verified ~conn ~tpdu =
  let es = p.elem_size in
  let stop = sn + len in
  let e = ref sn in
  while !e < stop do
    let e0 = !e in
    let i0 = e0 - sn in
    if not (bit p.occ e0) then begin
      let n = next_bit p.occ ~v:true e0 stop - e0 in
      write p ~src ~src_off ~sn e0 n;
      extend o.fresh e0 n;
      e := e0 + n
    end
    else begin
      let n = next_bit p.occ ~v:false e0 stop - e0 in
      if equal_sub src (src_off + (i0 * es)) p.buf (e0 * es) (n * es) then
        extend o.benign e0 n
      else
        for e = e0 to e0 + n - 1 do
          let i = e - sn in
          if equal_sub src (src_off + (i * es)) p.buf (e * es) es then
            extend o.benign e 1
          else if bit p.lck e then begin
            (* the resident bytes are WSC-2-verified: the newcomer is
               counted, traced and discarded — whoever verified first
               owns the bytes *)
            p.conflicts_seen <- p.conflicts_seen + 1;
            p.conflicts_rejected <- p.conflicts_rejected + 1;
            if verified then p.verified_overwrites <- p.verified_overwrites + 1;
            push_conflict o e Verified_conflict
          end
          else if verified then begin
            (* a verified newcomer reclaims bytes an unverified squatter
               wrote *)
            p.conflicts_seen <- p.conflicts_seen + 1;
            Bytes.blit src (src_off + (i * es)) p.buf (e * es) es;
            extend o.fresh e 1
          end
          else begin
            (* neither side is verified yet: leave the resident bytes
               alone and report the run so the caller can quarantine the
               newcomer until a parity settles the dispute *)
            p.conflicts_seen <- p.conflicts_seen + 1;
            p.quarantined <- p.quarantined + 1;
            o.held_back <- o.held_back + 1;
            push_conflict o e Fresh_conflict
          end
        done;
      e := e0 + n
    end
  done;
  let rows = o.conflicts in
  if Int_rows.count rows > 0 && Obs.enabled && Obs.Trace.active () then
    for k = 0 to Int_rows.count rows - 1 do
      Obs.Trace.record
        (Obs.Trace.Overlap
           {
             conn;
             tpdu;
             sn = Int_rows.get rows ~width:3 k 0 + p.base_sn;
             elems = Int_rows.get rows ~width:3 k 1;
             kind =
               (match kind_of_code (Int_rows.get rows ~width:3 k 2) with
               | Verified_conflict ->
                   if verified then "verified-clash" else "verified-conflict"
               | Fresh_conflict -> "fresh-conflict");
           })
    done

(* The run loop's first step, taken before it: when the span's leading
   unoccupied run is the whole span, as it is for every in-order chunk,
   the span is one write and one fresh run. *)
let apply p o ~sn ~len ~src ~src_off ~verified ~conn ~tpdu =
  Int_rows.clear o.fresh ~width:2;
  Int_rows.clear o.benign ~width:2;
  Int_rows.clear o.conflicts ~width:3;
  o.held_back <- 0;
  if next_bit p.occ ~v:true sn (sn + len) = sn + len then begin
    write p ~src ~src_off ~sn sn len;
    Int_rows.push2 o.fresh sn len
  end
  else apply_runs p o ~sn ~len ~src ~src_off ~verified ~conn ~tpdu

(* Whether [len] elements from level SN [sn] lie in the window; [sn >
   capacity - len] rather than [sn + len > capacity]: a decoded SN can
   be close to [max_int], where the addition wraps negative and would
   sail past the window check into Bytes.blit. *)
let in_window p ~sn ~len =
  let sn = sn - p.base_sn in
  sn >= 0 && len <= p.capacity_elems && sn <= p.capacity_elems - len

let place_run ?(verified = false) p o ~sn ~len ~size ~src ~off ~conn ~tpdu =
  size = p.elem_size
  && in_window p ~sn ~len
  && begin
       apply p o ~sn:(sn - p.base_sn) ~len ~src ~src_off:off ~verified ~conn
         ~tpdu;
       true
     end

let report_of o =
  {
    rp_fresh = Int_rows.pairs o.fresh;
    rp_benign = Int_rows.pairs o.benign;
    rp_conflicts =
      List.init (Int_rows.count o.conflicts) (fun k ->
          ( Int_rows.get o.conflicts ~width:3 k 0,
            Int_rows.get o.conflicts ~width:3 k 1,
            kind_of_code (Int_rows.get o.conflicts ~width:3 k 2) ));
  }

let place_view ?(verified = false) p (v : Chunk.view) =
  let op = if verified then "place_view ~verified" else "place" in
  let h = v.Chunk.header in
  let sn = sn_of p h and len = h.Header.len in
  if not (Chunk.view_is_data v) then
    Error (Printf.sprintf "Placement.%s: not a data chunk" op)
  else if h.Header.size <> p.elem_size then
    Error (Printf.sprintf "Placement.%s: element size mismatch" op)
  else if not (in_window p ~sn ~len) then
    Error (Printf.sprintf "Placement.%s: outside destination window" op)
  else begin
    let o = outcome () in
    ignore
      (place_run ~verified p o ~sn ~len ~size:h.Header.size ~src:v.Chunk.src
         ~off:v.Chunk.off ~conn:h.Header.c.Ftuple.id
         ~tpdu:h.Header.t.Ftuple.id
        : bool);
    Ok (report_of o)
  end

let place_checked p chunk = place_view p (Chunk.view chunk)
let place p chunk = Result.map (fun (_ : report) -> ()) (place_checked p chunk)

(* Zero the unoccupied elements of [sn, stop), found a word of the map
   at a time. *)
let rec zero_holes p sn stop =
  let s = next_bit p.occ ~v:false sn stop in
  if s < stop then begin
    let t = next_bit p.occ ~v:true s stop in
    Bytes.fill p.buf (s * p.elem_size) ((t - s) * p.elem_size) '\000';
    zero_holes p t stop
  end

(* Whether the element run [sn, sn + len), relative to [base_sn], is a
   non-empty run inside the window. *)
let run_in_window p ~sn ~len =
  sn >= 0 && len > 0 && len <= p.capacity_elems && sn <= p.capacity_elems - len

let lock_span p ~sn ~len =
  if run_in_window p ~sn ~len then begin
    (* an element locked without ever being written becomes content: it
       must read 0, not whatever the storage held before [create] *)
    if not p.holes_zeroed then zero_holes p sn (sn + len);
    set_bits p.lck sn len;
    (* locked implies occupied: verified bytes are content, whatever a
       snapshot restored around them *)
    set_bits p.occ sn len
  end

let lock_placed p ~sn ~len = if run_in_window p ~sn ~len then set_bits p.lck sn len

let drop_unlocked p =
  Bytes.blit p.lck 0 p.occ 0 (Bytes.length p.occ);
  p.holes_zeroed <- false

let any_locked p ~sn ~len =
  let lo = Int.max 0 sn and hi = Int.min p.capacity_elems (sn + len) in
  lo < hi && next_bit p.lck ~v:true lo hi < hi

let restore_run p ~sn src ~off ~len:n =
  if n = 0 || n mod p.elem_size <> 0 then
    Error "Placement.restore_span: not a whole number of elements"
  else begin
    let len = n / p.elem_size in
    if not (run_in_window p ~sn ~len) then
      Error "Placement.restore_span: outside destination window"
    else begin
      Bytes.blit src off p.buf (sn * p.elem_size) n;
      set_bits p.occ sn len;
      Ok ()
    end
  end

let restore_span p ~sn data = restore_run p ~sn data ~off:0 ~len:(Bytes.length data)

(* Coverage is read off the maps: a locked element is also occupied
   ([lock_span] sets both bits), so the placed runs include it. *)
let spans p = run_list p.occ ~v:true p.capacity_elems
let holes p = run_list p.occ ~v:false p.capacity_elems
let placed_elems p = total (spans p)
let is_full p = next_bit p.occ ~v:false 0 p.capacity_elems = p.capacity_elems
let locked_spans p = run_list p.lck ~v:true p.capacity_elems
let locked_elems p = total (locked_spans p)

let first_unlocked p e =
  if e < 0 || e >= p.capacity_elems then e
  else next_bit p.lck ~v:false e p.capacity_elems

let contents p =
  if not p.holes_zeroed then begin
    zero_holes p 0 p.capacity_elems;
    p.holes_zeroed <- true
  end;
  p.buf

let raw_contents p = p.buf

let overlap_stats p =
  {
    os_conflicts_seen = p.conflicts_seen;
    os_conflicts_rejected = p.conflicts_rejected;
    os_quarantined = p.quarantined;
    os_verified_overwrites = p.verified_overwrites;
  }

let zero_overlap =
  {
    os_conflicts_seen = 0;
    os_conflicts_rejected = 0;
    os_quarantined = 0;
    os_verified_overwrites = 0;
  }

let add_overlap a b =
  {
    os_conflicts_seen = a.os_conflicts_seen + b.os_conflicts_seen;
    os_conflicts_rejected = a.os_conflicts_rejected + b.os_conflicts_rejected;
    os_quarantined = a.os_quarantined + b.os_quarantined;
    os_verified_overwrites = a.os_verified_overwrites + b.os_verified_overwrites;
  }
