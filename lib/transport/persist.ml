open Labelling

(* Persisted endpoint state (paper §3.2 made durable): what an
   acknowledgement promised — the ACK ledger and the verified, labelled
   runs — with the end confirmation, the honoured sheds, archived epochs
   and containment.  Everything still in flight is soft state the
   sender's retransmission rebuilds, so none of it is kept.  There is
   one record vocabulary: the live endpoint journals its events in it,
   naming its runs where placement put them, and a snapshot is the same
   records with the runs' bytes, compacted by [Multi.export].  Recovery
   replays both through the endpoint itself ([Multi.replay],
   [Chunk_transport.Receiver.replay]), so this module holds only the
   records, their one codec and the store. *)

type run_view = int * bytes * int * int

type event =
  | Acked of {
      conn : int;
      t_id : int;
      end_confirmed : int option;
      runs : run_view list;
      parity : Wsc2.parity option;
    }
  | Opened of { conn : int; open_csn : int option }
  | Shed of { conn : int; t_id : int; first_elem : int; elems : int }
  | Archived of { conn : int; complete : bool; elems : int; passes : int }
  | Closed of int
  | Passes of { conn : int; passes : int }
  | Ledger of { conn : int; tids : (int * int) list }
  | Quarantined of { conn : int; until : float; count : int; poisoned : bool }

type endpoint_image = Multi of event list

let owned_run sn b = (sn, b, 0, Bytes.length b)

let run_bytes (sn, src, off, len) =
  if off = 0 && len = Bytes.length src then (sn, src)
  else (sn, Bytes.sub src off len)

let event_conn = function
  | Acked { conn; _ } | Opened { conn; _ } | Shed { conn; _ }
  | Archived { conn; _ } | Passes { conn; _ } | Ledger { conn; _ }
  | Quarantined { conn; _ } | Closed conn ->
      conn

(* {1 Binary codec}

   Each record is declared once, as a codec value that is both its
   writer and its reader, so the two cannot drift apart.  Everything
   rides on [Wire]'s checksummed record framing.  Every read is
   bounds-checked and surfaces [Error], so each decoder is total; a read
   also refuses what no writer produces (a flag byte other than 0 or 1,
   an integer wider than 63 bits), so whatever decodes re-encodes to the
   same bytes. *)

(* v2: conn images gained the containment fields (quarantine deadline,
   admission-revocation count, poisoned flag); v3: archived epochs gained
   their placed-element and pass counts; v4: receiver images gained their
   honoured sheds (spans and T.IDs); v5: receiver images lost everything
   in flight (verifier and corroboration state, end claims, re-ACK
   clocks) and hold verified runs only; v6: a snapshot is a record count
   and that many journal records, the images are gone *)
let version = 6
let magic = "CSNP"

type cur = { b : bytes; mutable off : int }
type 'a codec = { write : Buffer.t -> 'a -> unit; read : cur -> ('a, string) result }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* The [n] bytes at the cursor, decoded by [get]; [ok] refuses what no
   writer produces. *)
let fixed ?(ok = fun _ -> true) n get c =
  if n < 0 || Bytes.length c.b - c.off < n then Error "Persist: truncated field"
  else
    let v = get c.b c.off in
    if not (ok v) then Error "Persist: malformed field"
    else (c.off <- c.off + n; Ok v)

let int =
  let ok v = Int64.(equal (of_int (to_int v)) v) in
  { write = (fun buf v -> Buffer.add_int64_be buf (Int64.of_int v));
    read = (fun c -> Result.map Int64.to_int (fixed ~ok 8 Bytes.get_int64_be c)) }

let bool =
  let ok v = v <= 1 in
  { write = (fun buf v -> Buffer.add_uint8 buf (Bool.to_int v));
    read = (fun c -> Result.map (Int.equal 1) (fixed ~ok 1 Bytes.get_uint8 c)) }

(* A zigzag LEB128 integer: 1 byte for magnitudes below 64, at most 9
   for any 63-bit value.  The reader refuses a non-minimal encoding (a
   last byte of 0 after the first), so each value has one encoding. *)
let varint =
  let rec write buf z =
    if z lsr 7 = 0 then Buffer.add_uint8 buf z
    else begin
      Buffer.add_uint8 buf (z land 0x7F lor 0x80);
      write buf (z lsr 7)
    end
  in
  let rec read c i acc =
    if c.off >= Bytes.length c.b then Error "Persist: truncated field"
    else
      let x = Bytes.get_uint8 c.b c.off in
      c.off <- c.off + 1;
      let acc = acc lor ((x land 0x7F) lsl (7 * i)) in
      if x >= 0x80 then
        if i = 8 then Error "Persist: malformed field" else read c (i + 1) acc
      else if x = 0 && i > 0 then Error "Persist: malformed field"
      else Ok ((acc lsr 1) lxor -(acc land 1))
  in
  { write = (fun buf v -> write buf ((v lsl 1) lxor (v asr 62)));
    read = (fun c -> read c 0 0) }

(* The IEEE bits go to the wire whole.  Bouncing them through an OCaml
   int (as [int] would) truncates to 63 bits and the reader's
   sign-extension then negates any float with magnitude >= 2.0 — the
   quarantine deadline was the first persisted float to cross that. *)
let float =
  let read = fixed 8 Bytes.get_int64_be in
  { write = (fun buf v -> Buffer.add_int64_be buf (Int64.bits_of_float v));
    read = (fun c -> Result.map Int64.float_of_bits (read c)) }

let parity =
  { write =
      (fun buf p ->
        (* [Int32.of_int] keeps the low 32 bits, as [Gf232.to_int32_bits]
           does, without boxing an [int32] on the way *)
        Buffer.add_int32_be buf (Int32.of_int p.Wsc2.p0);
        Buffer.add_int32_be buf (Int32.of_int p.Wsc2.p1));
    read = fixed 8 Wsc2.parity_of_bytes }

let bytes =
  { write = (fun buf b -> int.write buf (Bytes.length b); Buffer.add_bytes buf b);
    read =
      (fun c -> let* n = int.read c in fixed n (fun b off -> Bytes.sub b off n) c) }

let map decode encode c =
  { write = (fun buf v -> c.write buf (encode v));
    read = (fun cur -> Result.map decode (c.read cur)) }

let opt c =
  { write =
      (fun buf -> function
        | None -> bool.write buf false
        | Some v -> bool.write buf true; c.write buf v);
    read =
      (fun cur ->
        let* present = bool.read cur in
        if present then Result.map Option.some (c.read cur) else Ok None) }

let rec write_all w buf = function
  | [] -> ()
  | v :: rest -> w buf v; write_all w buf rest

let list c =
  let rec read_n cur k acc =
    if k = 0 then Ok (List.rev acc)
    else
      let* v = c.read cur in
      read_n cur (k - 1) (v :: acc)
  in
  { write = (fun buf l -> int.write buf (List.length l); write_all c.write buf l);
    read =
      (fun cur ->
        let* n = int.read cur in
        (* every element costs at least one byte, so a count beyond the
           remaining bytes can only come from corruption *)
        if n < 0 || n > Bytes.length cur.b - cur.off then
          Error "Persist: bad element count"
        else read_n cur n []) }

let pair a b =
  { write = (fun buf (x, y) -> a.write buf x; b.write buf y);
    read = (fun c -> let* x = a.read c in let* y = b.read c in Ok (x, y)) }

(* A v2 run: C.SN and the bytes, under the record checksum. *)
let run = map (fun (sn, b) -> owned_run sn b) run_bytes (pair int bytes)

(* One constructor of a sum type: the record tag it travels under in
   [Wire]'s framing, the test that picks it for a value, and its codec
   over the whole sum type.  The sender image is tag 2 (0 and 1 were the
   retired receiver and endpoint images), event records are tags
   16-26. *)
type 'a case = { tag : int; is : 'a -> bool; body : 'a codec }

(* The snapshot's [Acked] record.  Tag 16 is version 2's, whose payload
   carries the run bytes under the record checksum; it is read-only, so
   [is] never picks it.  Snapshots emit tag 20, whose header carries each
   run's C.SN, byte length and first WSC-2 position and the runs'
   parity; the run bytes follow the record, outside [Wire]'s checksum,
   which covers the header only.  The runs are laid out back to back
   from position 0 — a whole TPDU's data lies exactly where the verifier
   put it, so the verifier's data parity serves unchanged. *)
let acked_tag = 20

(* The one parity rule for tag-20 run bytes, writer and reader alike:
   each run's bytes as consecutive symbols, the first run's from
   position 0 and each next run's from the symbol after the last. *)
let runs_parity runs =
  let acc = Wsc2.create () in
  let rec go pos = function
    | [] -> ()
    | (_, src, off, len) :: rest ->
        Wsc2.add_bytes acc ~pos src off len;
        go (pos + Wsc2.symbols_of_bytes len) rest
  in
  go 0 runs;
  Wsc2.snapshot acc

(* A tag-20 header's runs: each view's (C.SN, length, first position).
   The reader refuses any other layout than [runs_parity]'s, and yields
   views whose bytes are still to come ([attach_runs] fills them in). *)
let run_heads =
  let rec write buf pos = function
    | [] -> ()
    | (sn, _, _, len) :: rest ->
        int.write buf sn; int.write buf len; int.write buf pos;
        write buf (pos + Wsc2.symbols_of_bytes len) rest
  in
  let rec laid_out pos acc = function
    | [] -> Ok (List.rev acc)
    | (sn, (len, p)) :: rest ->
        let n = Wsc2.symbols_of_bytes len in
        if len < 0 || p <> pos || pos > Wsc2.max_position + 1 - n then
          Error "Persist: malformed run layout"
        else laid_out (pos + n) ((sn, Bytes.empty, 0, len) :: acc) rest
  in
  let heads = list (pair int (pair int int)) in
  { write = (fun buf runs -> int.write buf (List.length runs); write buf 0 runs);
    read = (fun c -> let* hs = heads.read c in laid_out 0 [] hs) }

(* An [Acked] record: the header fields, the runs by [runs] and, when
   [parity] is set, the runs' parity.  It writes straight from the
   event, so journalling an ACK builds no projection of it. *)
let acked ~runs ~parity:with_parity =
  let end_confirmed = opt int in
  { write =
      (fun buf -> function
        | Acked a ->
            int.write buf a.conn;
            int.write buf a.t_id;
            end_confirmed.write buf a.end_confirmed;
            runs.write buf a.runs;
            if with_parity then
              parity.write buf
                (match a.parity with Some p -> p | None -> runs_parity a.runs)
        | _ -> ());
    read =
      (fun c ->
        let* conn = int.read c in
        let* t_id = int.read c in
        let* end_confirmed = end_confirmed.read c in
        let* runs = runs.read c in
        let* parity =
          if with_parity then Result.map Option.some (parity.read c) else Ok None
        in
        Ok (Acked { conn; t_id; end_confirmed; runs; parity })) }

(* {2 Labels-only [Acked] records}

   A journalled ACK names its runs' bytes where placement put them, and
   copies none of them: each run is a region, an offset and a length.
   A region is a buffer the store holds by reference, numbered in the
   order records first name them and held until the next snapshot.  A
   locked span is never rewritten while its buffer lives, so what an
   ACK acknowledged is still there at recovery, to be checked against
   the record's parity.  A buffer is found by physical identity: each
   connection (hashed to one of [slots] entries) remembers the region
   its last run named, so the steady state costs one comparison and
   touches no byte.  Two connections sharing an entry only register a
   buffer again under a new number. *)
type regions = {
  mutable bufs : bytes array;  (* region number -> buffer *)
  mutable held : int;  (* the regions held: [bufs.(0 .. held - 1)] *)
  slot_conn : int array;
  slot_region : int array;  (* the slot's last region; -1 when empty *)
}

let slots = 256

let regions () =
  { bufs = [||]; held = 0; slot_conn = Array.make slots 0;
    slot_region = Array.make slots (-1) }

(* The number of the region [src] of connection [conn]'s run, registered
   if the slot does not name it. *)
let region_of rs ~conn src =
  let h = conn land (slots - 1) in
  let r = rs.slot_region.(h) in
  if r >= 0 && rs.slot_conn.(h) = conn && rs.bufs.(r) == src then r
  else begin
    if rs.held = Array.length rs.bufs then begin
      let bufs = Array.make (max 8 (2 * rs.held)) Bytes.empty in
      Array.blit rs.bufs 0 bufs 0 rs.held;
      rs.bufs <- bufs
    end;
    let r = rs.held in
    rs.bufs.(r) <- src;
    rs.held <- r + 1;
    rs.slot_conn.(h) <- conn;
    rs.slot_region.(h) <- r;
    r
  end

let drop_regions rs =
  Array.fill rs.bufs 0 rs.held Bytes.empty;
  rs.held <- 0;
  Array.fill rs.slot_region 0 slots (-1)

let labels_tag = 26

let rec write_labelled buf rs ~conn = function
  | [] -> ()
  | (sn, src, off, len) :: rest ->
      varint.write buf (region_of rs ~conn src);
      varint.write buf sn;
      varint.write buf off;
      varint.write buf len;
      write_labelled buf rs ~conn rest

(* [k] runs as views of the regions they name, which [rs] must hold and
   they must lie inside. *)
let rec read_labelled c rs k acc =
  if k = 0 then Ok (List.rev acc)
  else
    let* r = varint.read c in
    let* sn = varint.read c in
    let* off = varint.read c in
    let* len = varint.read c in
    if r < 0 || r >= rs.held then
      Error "Persist: run names a region the store does not hold"
    else if off < 0 || len < 0 || off > Bytes.length rs.bufs.(r) - len then
      Error "Persist: run outside its region"
    else read_labelled c rs (k - 1) ((sn, rs.bufs.(r), off, len) :: acc)

(* A labels-only [Acked] record: connection, T.ID and end claim, then
   each run's region, C.SN, offset and length, then the runs' parity, all
   integers as varints.  The parity is the event's when it carries one,
   so the common case reads no run byte. *)
let labels rs =
  let end_confirmed = opt varint in
  { write =
      (fun buf -> function
        | Acked a ->
            varint.write buf a.conn;
            varint.write buf a.t_id;
            end_confirmed.write buf a.end_confirmed;
            varint.write buf (List.length a.runs);
            write_labelled buf rs ~conn:a.conn a.runs;
            parity.write buf
              (match a.parity with Some p -> p | None -> runs_parity a.runs)
        | _ -> ());
    read =
      (fun c ->
        let* conn = varint.read c in
        let* t_id = varint.read c in
        let* end_confirmed = end_confirmed.read c in
        let* n = varint.read c in
        if n < 0 || n > Bytes.length c.b - c.off then
          Error "Persist: bad element count"
        else
          let* runs = read_labelled c rs n [] in
          let* p = parity.read c in
          Ok (Acked { conn; t_id; end_confirmed; runs; parity = Some p })) }

(* Whether runs laid out back to back from position [pos] keep within
   WSC-2's positions. *)
let rec fits pos = function
  | [] -> true
  | (_, _, _, len) :: rest ->
      let n = Wsc2.symbols_of_bytes len in
      pos <= Wsc2.max_position + 1 - n && fits (pos + n) rest

(* A read [Acked] whose runs match the parity it carries, with the
   parity spent. *)
let vouched = function
  | Acked ({ runs; parity = Some p; _ } as a) ->
      if not (fits 0 runs) then Error "Persist: malformed run layout"
      else if not (Wsc2.parity_equal (runs_parity runs) p) then
        Error "Persist: run bytes do not match their parity"
      else Ok (Acked { a with parity = None })
  | ev -> Ok ev

(* The case of one constructor, given its fields' codec: [fields] is
   [None] for every other constructor. *)
let case tag fields make body =
  { tag; is = (fun v -> Option.is_some (fields v));
    body = map make (fun v -> Option.get (fields v)) body }

let is_acked = function Acked _ -> true | _ -> false

(* A snapshot's records.  Tag 18 was the count-less [Archived] of
   formats up to 5: it now reads as an unknown tag. *)
let snapshot_cases =
  [ { tag = 16; is = (fun _ -> false);
      body = acked ~runs:(list run) ~parity:false };
    { tag = acked_tag; is = is_acked;
      body = acked ~runs:run_heads ~parity:true };
    case 17
      (function Opened { conn; open_csn } -> Some (conn, open_csn) | _ -> None)
      (fun (conn, open_csn) -> Opened { conn; open_csn })
      (pair int (opt int));
    case 19 (function Closed c -> Some c | _ -> None) (fun c -> Closed c) int;
    case 21
      (function
        | Shed { conn; t_id; first_elem; elems } ->
            Some (conn, (t_id, (first_elem, elems)))
        | _ -> None)
      (fun (conn, (t_id, (first_elem, elems))) ->
        Shed { conn; t_id; first_elem; elems })
      (pair int (pair int (pair int int)));
    case 22
      (function
        | Archived { conn; complete; elems; passes } ->
            Some (conn, (complete, (elems, passes)))
        | _ -> None)
      (fun (conn, (complete, (elems, passes))) ->
        Archived { conn; complete; elems; passes })
      (pair int (pair bool (pair int int)));
    case 23
      (function Passes { conn; passes } -> Some (conn, passes) | _ -> None)
      (fun (conn, passes) -> Passes { conn; passes })
      (pair int int);
    case 24
      (function Ledger { conn; tids } -> Some (conn, tids) | _ -> None)
      (fun (conn, tids) -> Ledger { conn; tids })
      (pair int (list (pair int int)));
    case 25
      (function
        | Quarantined { conn; until; count; poisoned } ->
            Some (conn, (until, (count, poisoned)))
        | _ -> None)
      (fun (conn, (until, (count, poisoned))) ->
        Quarantined { conn; until; count; poisoned })
      (pair int (pair float (pair int bool))) ]

(* A journal's records, over the regions [rs] holds: a snapshot's, and
   the labels-only [Acked] that journals write in place of tag 20. *)
let journal_cases rs =
  { tag = labels_tag; is = is_acked; body = labels rs } :: snapshot_cases

(* Each run's bytes, copied once from its view into [buf]. *)
let rec add_runs buf = function
  | [] -> ()
  | (_, src, off, len) :: rest ->
      Buffer.add_subbytes buf src off len;
      add_runs buf rest

(* Append [v] to [buf] as one record of the case [is] picks.  [payload]
   and [scratch] are buffers the caller reuses, so a journal's steady
   state makes no per-record major-heap allocation. *)
let rec write_case ?scratch buf payload v = function
  | [] -> invalid_arg "Persist: no case for value"
  | k :: _ when k.is v ->
      Buffer.clear payload;
      k.body.write payload v;
      Wire.encode_record ?scratch buf ~tag:k.tag payload
  | _ :: rest -> write_case ?scratch buf payload v rest

(* The one decode step: the case the record's tag names reads the
   payload and must consume all of it — a longer payload is another
   layout's, not this one's with junk after it. *)
let read_case cases (tag, payload) =
  match List.find_opt (fun k -> k.tag = tag) cases with
  | None -> Error "Persist: unknown record tag"
  | Some k ->
      let cur = { b = payload; off = 0 } in
      let* v = k.body.read cur in
      if cur.off = Bytes.length payload then Ok v
      else Error "Persist: trailing bytes in record"

(* A tag-20 event's run bytes lie in [b] from [off] on.  They are checked
   against the header's parity where they lie, then each is copied once.
   Returns the event, with its parity spent, and the offset past its
   run bytes. *)
let attach_runs b off = function
  | Acked ({ runs; _ } as a) ->
      let rec locate off acc = function
        | [] -> Ok (List.rev acc, off)
        | (sn, _, _, len) :: rest ->
            if len > Bytes.length b - off then
              Error "Persist: run bytes truncated"
            else locate (off + len) ((sn, b, off, len) :: acc) rest
      in
      let* located, next = locate off [] runs in
      let* _ = vouched (Acked { a with runs = located }) in
      let runs =
        List.map
          (fun (sn, b, off, len) -> owned_run sn (Bytes.sub b off len))
          located
      in
      Ok (Acked { a with runs; parity = None }, next)
  | ev -> Ok (ev, off)

(* An event appended to [buf] as a snapshot frames it: its record, then
   an [Acked] record's run bytes. *)
let add_event buf payload ev =
  write_case buf payload ev snapshot_cases;
  match ev with Acked { runs; _ } -> add_runs buf runs | _ -> ()

(* The event whose record starts at [off] in [b], read by [cases], and
   the offset past it. *)
let read_event cases b off =
  let* tag, payload, next = Wire.decode_record b off in
  let* ev = read_case cases (tag, payload) in
  if tag = acked_tag then attach_runs b next ev
  else if tag = labels_tag then Result.map (fun ev -> (ev, next)) (vouched ev)
  else Ok (ev, next)

(* Every image starts with the magic and the version; [header b n]
   checks them in an image of at least [n] bytes. *)
let add_header buf =
  Buffer.add_string buf magic;
  Buffer.add_uint16_be buf version

let header b n =
  if Bytes.length b < n then Error "Persist: image too short"
  else if Bytes.sub_string b 0 4 <> magic then Error "Persist: bad magic"
  else if Bytes.get_uint16_be b 4 <> version then
    Error "Persist: unsupported snapshot version"
  else Ok ()

(* Journal decode: replay stops at the first record that does not read
   back whole — a torn or failed checksum, run bytes that do not match
   their parity, or a payload that does not parse (version skew, or a
   longer layout's record).  Everything before it is still trusted. *)
let rec read_records cases b off acc =
  if off >= Bytes.length b then (List.rev acc, false)
  else
    match read_event cases b off with
    | Ok (ev, next) -> read_records cases b next (ev :: acc)
    | Error _ -> (List.rev acc, true)

(* Outside a store no region is held, so a labels-only record that names
   one stops replay. *)
let unheld = journal_cases (regions ())
let decode_journal b = read_records unheld b 0 []

(* A snapshot: the header, a record count, and that many event records
   framed as the journal frames them, but for an [Acked], which carries
   its bytes (tag 20) and names no region.  It is read as a journal is, but
   trusted whole or not at all: a damaged or missing record, or bytes
   after the last, is an [Error], never a shorter snapshot. *)
let encode_endpoint (Multi events) =
  let buf = Buffer.create 1024 and payload = Buffer.create 256 in
  add_header buf;
  Buffer.add_int32_be buf (Int32.of_int (List.length events));
  List.iter (add_event buf payload) events;
  Buffer.to_bytes buf

let decode_endpoint b =
  let* () = header b 10 in
  match read_records snapshot_cases b 10 [] with
  | _, true -> Error "Persist: damaged record in snapshot"
  | events, false ->
      let count = Int32.to_int (Bytes.get_int32_be b 6) land 0xFFFF_FFFF in
      if List.length events = count then Ok (Multi events)
      else Error "Persist: snapshot record count mismatch"

let m_snap_bytes = Obs.Metrics.histogram "persist_snapshot_bytes"
let m_journal_records = Obs.Metrics.counter "persist_journal_records_total"
let m_truncations = Obs.Metrics.counter "persist_journal_truncations_total"
let m_restores = Obs.Metrics.counter "persist_restores_total"
let m_recovery = Obs.Metrics.histogram "persist_recovery_wall_us"

module Store = struct
  type t = {
    mutable snap : bytes option;
    journal : Buffer.t;
    payload : Buffer.t;  (* [write_case]'s payload buffer, reused *)
    scratch : Wire.scratch option;
        (* always [Some]: passed on as [?scratch] without allocating *)
    regions : regions;  (* what the journal's labels-only records name *)
    cases : event case list;  (* [journal_cases regions] *)
    mutable snapshots_taken : int;
    mutable journal_records : int;
    mutable bytes_appended : int;
  }

  let create () =
    let regions = regions () in
    { snap = None; journal = Buffer.create 256; payload = Buffer.create 256;
      scratch = Some (Wire.scratch ()); regions; cases = journal_cases regions;
      snapshots_taken = 0; journal_records = 0; bytes_appended = 0 }

  let snapshot st image =
    let b = encode_endpoint image in
    st.snap <- Some b;
    Buffer.clear st.journal;
    drop_regions st.regions;
    st.snapshots_taken <- st.snapshots_taken + 1;
    if Obs.enabled then Obs.Metrics.observe m_snap_bytes (Bytes.length b)

  let append st ev =
    let before = Buffer.length st.journal in
    write_case ?scratch:st.scratch st.journal st.payload ev st.cases;
    st.bytes_appended <- st.bytes_appended + (Buffer.length st.journal - before);
    st.journal_records <- st.journal_records + 1;
    if Obs.enabled then Obs.Metrics.incr m_journal_records

  let snapshots_taken st = st.snapshots_taken
  let journal_records st = st.journal_records
  let journal_bytes st = Buffer.length st.journal
  let bytes_appended st = st.bytes_appended
  let journal st = Buffer.to_bytes st.journal
  let decode_journal st b = read_records st.cases b 0 []

  let corrupt_tail st =
    let n = Buffer.length st.journal in
    if n > 0 then begin
      let b = Buffer.to_bytes st.journal in
      Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x55));
      Buffer.clear st.journal;
      Buffer.add_bytes st.journal b
    end

  let recover st =
    let* (Multi base) =
      match st.snap with None -> Ok (Multi []) | Some b -> decode_endpoint b
    in
    let events, torn = decode_journal st (Buffer.to_bytes st.journal) in
    if torn && Obs.enabled then Obs.Metrics.incr m_truncations;
    if Obs.enabled then Obs.Metrics.incr m_restores;
    Ok (base @ events, torn)
end
