open Labelling

(* Persisted endpoint state (paper §3.2 made durable): what an
   acknowledgement promised — the ACK ledger and the verified, labelled
   runs with their bytes — with the end confirmation, the honoured sheds,
   archived epochs and containment.  Everything still in flight is soft
   state the sender's retransmission rebuilds, so none of it is kept.
   Here are only the images, their codecs and the store.  The live
   transport exports to and restores from the images ([Multi.export] /
   [.restore]), and recovery replays the journal through the restored
   endpoint itself ([Chunk_transport.Receiver.replay]): a journalled ACK
   is nothing but verified, labelled runs, placed by their labels alone,
   so this module keeps no second copy of what an acknowledgement
   does. *)

type receiver_image = {
  ri_conn : int;
  ri_placed : (int * bytes) list;
  ri_end_confirmed : int option;
  ri_passed : int;
  ri_shed_spans : (int * int) list;
  ri_shed_tids : int list;
}

type sender_image = {
  si_first_tid : int;
  si_acked : int list;
  si_srtt : float option;
  si_rttvar : float;
  si_rto_cur : float;
  si_tpdu_elems : int;
}

type epoch_image = {
  ei_delivered : bytes;
  ei_complete : bool;
  ei_open_csn : int option;
  ei_elems : int;
  ei_passes : int;
}

type conn_image = {
  ci_id : int;
  ci_acked : int list;
  ci_hist : epoch_image list;
  ci_live : receiver_image option;
  ci_live_open : int option;
  (* containment state (Multi's anomaly quarantine): a boxed or
     poisoned peer must not earn a fresh admission by crashing the
     endpoint *)
  ci_quar_until : float;
  ci_quar_count : int;
  ci_poisoned : bool;
}

type endpoint_image = Multi of conn_image list

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
  | Archived of int
  | Closed of int

let owned_run sn b = (sn, b, 0, Bytes.length b)

let run_bytes (sn, src, off, len) =
  if off = 0 && len = Bytes.length src then (sn, src)
  else (sn, Bytes.sub src off len)

let empty_receiver ~conn =
  {
    ri_conn = conn;
    ri_placed = [];
    ri_end_confirmed = None;
    ri_passed = 0;
    ri_shed_spans = [];
    ri_shed_tids = [];
  }

let empty_conn id =
  { ci_id = id; ci_acked = []; ci_hist = []; ci_live = None; ci_live_open = None;
    ci_quar_until = 0.0; ci_quar_count = 0; ci_poisoned = false }

let event_conn = function
  | Acked { conn; _ } | Opened { conn; _ } | Shed { conn; _ } -> conn
  | Archived conn | Closed conn -> conn

(* {1 Binary codec}

   Each persisted image is declared once, as a codec value that is both
   its writer and its reader, so the two cannot drift apart.  Everything
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
   clocks) and hold verified runs only *)
let version = 5
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

let triple a b c =
  map (fun (x, (y, z)) -> (x, y, z)) (fun (x, y, z) -> (x, (y, z)))
    (pair a (pair b c))

(* One record field, as in [Check.Schedule]'s table: its codec, how to
   get it, and how to set it in a copy.  A record's fields go to the
   wire in list order; its reader sets them one by one into [blank]. *)
type 'r field = Field : 'a codec * ('r -> 'a) * ('r -> 'a -> 'r) -> 'r field

let rec write_fields buf r = function
  | [] -> ()
  | Field (c, get, _) :: rest -> c.write buf (get r); write_fields buf r rest

let rec read_fields cur r = function
  | [] -> Ok r
  | Field (c, _, set) :: rest ->
      let* v = c.read cur in
      read_fields cur (set r v) rest

let record blank fields =
  { write = (fun buf r -> write_fields buf r fields);
    read = (fun cur -> read_fields cur blank fields) }

let receiver =
  record (empty_receiver ~conn:0)
    [ Field (int, (fun r -> r.ri_conn), fun r ri_conn -> { r with ri_conn });
      Field (list (pair int bytes), (fun r -> r.ri_placed),
        fun r ri_placed -> { r with ri_placed });
      Field (opt int, (fun r -> r.ri_end_confirmed),
        fun r ri_end_confirmed -> { r with ri_end_confirmed });
      Field (int, (fun r -> r.ri_passed),
        fun r ri_passed -> { r with ri_passed });
      Field (list (pair int int), (fun r -> r.ri_shed_spans),
        fun r ri_shed_spans -> { r with ri_shed_spans });
      Field (list int, (fun r -> r.ri_shed_tids),
        fun r ri_shed_tids -> { r with ri_shed_tids }) ]

let epoch =
  record
    { ei_delivered = Bytes.empty; ei_complete = false; ei_open_csn = None;
      ei_elems = 0; ei_passes = 0 }
    [ Field (bytes, (fun e -> e.ei_delivered),
        fun e ei_delivered -> { e with ei_delivered });
      Field (bool, (fun e -> e.ei_complete),
        fun e ei_complete -> { e with ei_complete });
      Field (opt int, (fun e -> e.ei_open_csn),
        fun e ei_open_csn -> { e with ei_open_csn });
      Field (int, (fun e -> e.ei_elems), fun e ei_elems -> { e with ei_elems });
      Field (int, (fun e -> e.ei_passes),
        fun e ei_passes -> { e with ei_passes }) ]

let conn =
  record (empty_conn 0)
    [ Field (int, (fun c -> c.ci_id), fun c ci_id -> { c with ci_id });
      Field (list int, (fun c -> c.ci_acked),
        fun c ci_acked -> { c with ci_acked });
      Field (list epoch, (fun c -> c.ci_hist),
        fun c ci_hist -> { c with ci_hist });
      Field (opt receiver, (fun c -> c.ci_live),
        fun c ci_live -> { c with ci_live });
      Field (opt int, (fun c -> c.ci_live_open),
        fun c ci_live_open -> { c with ci_live_open });
      Field (float, (fun c -> c.ci_quar_until),
        fun c ci_quar_until -> { c with ci_quar_until });
      Field (int, (fun c -> c.ci_quar_count),
        fun c ci_quar_count -> { c with ci_quar_count });
      Field (bool, (fun c -> c.ci_poisoned),
        fun c ci_poisoned -> { c with ci_poisoned }) ]

let sender =
  record
    { si_first_tid = 0; si_acked = []; si_srtt = None; si_rttvar = 0.0;
      si_rto_cur = 0.0; si_tpdu_elems = 0 }
    [ Field (int, (fun s -> s.si_first_tid),
        fun s si_first_tid -> { s with si_first_tid });
      Field (list int, (fun s -> s.si_acked),
        fun s si_acked -> { s with si_acked });
      Field (opt float, (fun s -> s.si_srtt),
        fun s si_srtt -> { s with si_srtt });
      Field (float, (fun s -> s.si_rttvar),
        fun s si_rttvar -> { s with si_rttvar });
      Field (float, (fun s -> s.si_rto_cur),
        fun s si_rto_cur -> { s with si_rto_cur });
      Field (int, (fun s -> s.si_tpdu_elems),
        fun s si_tpdu_elems -> { s with si_tpdu_elems }) ]

(* A v2 run: C.SN and the bytes, under the record checksum. *)
let run = map (fun (sn, b) -> owned_run sn b) run_bytes (pair int bytes)

(* One constructor of a sum type: the record tag it travels under in
   [Wire]'s framing, the test that picks it for a value, and its codec.
   The codec is over the whole sum type, so writing a journal record
   builds no projection of the event; what its getters give for other
   constructors is never written, since [is] has picked the case.
   Snapshot tags are 1-2 (0 is retired), journal event tags 16-21. *)
type 'a case = { tag : int; is : 'a -> bool; body : 'a codec }

(* Tag 0 was the retired standalone-receiver image: it now reads as an
   unknown tag. *)
let endpoint_cases =
  [ { tag = 1; is = (fun _ -> true);
      body = map (fun cs -> Multi cs) (fun (Multi cs) -> cs) (list conn) } ]

(* The [Acked] record.  Tag 16 is version 2's, whose payload carries
   the run bytes under the record checksum; it is read-only, so [is]
   never picks it.  Writers emit tag 20, whose header carries each
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
    | (sn, len, p) :: rest ->
        let n = Wsc2.symbols_of_bytes len in
        if len < 0 || p <> pos || pos > Wsc2.max_position + 1 - n then
          Error "Persist: malformed run layout"
        else laid_out (pos + n) ((sn, Bytes.empty, 0, len) :: acc) rest
  in
  let heads = list (triple int int int) in
  { write = (fun buf runs -> int.write buf (List.length runs); write buf 0 runs);
    read = (fun c -> let* hs = heads.read c in laid_out 0 [] hs) }

let acked_fields runs =
  [ Field (int, event_conn, fun ev conn ->
      match ev with Acked a -> Acked { a with conn } | _ -> ev);
    Field (int, (function Acked a -> a.t_id | _ -> 0), fun ev t_id ->
      match ev with Acked a -> Acked { a with t_id } | _ -> ev);
    Field (opt int, (function Acked a -> a.end_confirmed | _ -> None),
      fun ev end_confirmed ->
      match ev with Acked a -> Acked { a with end_confirmed } | _ -> ev);
    Field (runs, (function Acked a -> a.runs | _ -> []), fun ev runs ->
      match ev with Acked a -> Acked { a with runs } | _ -> ev) ]

let no_acked =
  Acked { conn = 0; t_id = 0; end_confirmed = None; runs = []; parity = None }

let event_cases =
  [ { tag = 16; is = (fun _ -> false);
      body = record no_acked (acked_fields (list run)) };
    { tag = acked_tag; is = (function Acked _ -> true | _ -> false);
      body =
        record no_acked
          (acked_fields run_heads
          @ [ Field (parity,
                (function
                  | Acked { parity = Some p; _ } -> p
                  | Acked a -> runs_parity a.runs
                  | _ -> Wsc2.parity_zero),
                fun ev p ->
                match ev with Acked a -> Acked { a with parity = Some p } | _ -> ev) ]) };
    { tag = 17; is = (function Opened _ -> true | _ -> false);
      body =
        record (Opened { conn = 0; open_csn = None })
          [ Field (int, event_conn, fun ev conn ->
              match ev with Opened o -> Opened { o with conn } | _ -> ev);
            Field (opt int, (function Opened o -> o.open_csn | _ -> None),
              fun ev open_csn ->
              match ev with Opened o -> Opened { o with open_csn } | _ -> ev) ] };
    { tag = 18; is = (function Archived _ -> true | _ -> false);
      body = map (fun c -> Archived c) event_conn int };
    { tag = 19; is = (function Closed _ -> true | _ -> false);
      body = map (fun c -> Closed c) event_conn int };
    { tag = 21; is = (function Shed _ -> true | _ -> false);
      body =
        map
          (fun (conn, (t_id, (first_elem, elems))) ->
            Shed { conn; t_id; first_elem; elems })
          (function
            | Shed { conn; t_id; first_elem; elems } ->
                (conn, (t_id, (first_elem, elems)))
            | _ -> (0, (0, (0, 0))))
          (pair int (pair int (pair int int))) } ]

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
  | Acked ({ runs; parity = Some p; _ } as a) ->
      let rec locate off acc = function
        | [] -> Ok (List.rev acc, off)
        | (sn, _, _, len) :: rest ->
            if len > Bytes.length b - off then
              Error "Persist: run bytes truncated"
            else locate (off + len) ((sn, b, off, len) :: acc) rest
      in
      let* located, next = locate off [] runs in
      if not (Wsc2.parity_equal (runs_parity located) p) then
        Error "Persist: run bytes do not match their parity"
      else
        let runs =
          List.map
            (fun (sn, b, off, len) -> owned_run sn (Bytes.sub b off len))
            located
        in
        Ok (Acked { a with runs; parity = None }, next)
  | ev -> Ok (ev, off)

(* A snapshot: magic, version, and one record of one of [cases] that
   ends the image. *)
let image cases =
  let encode v =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf magic;
    Buffer.add_uint16_be buf version;
    write_case buf (Buffer.create 1024) v cases;
    Buffer.to_bytes buf
  in
  let decode b =
    if Bytes.length b < 6 then Error "Persist: image too short"
    else if Bytes.sub_string b 0 4 <> magic then Error "Persist: bad magic"
    else if Bytes.get_uint16_be b 4 <> version then
      Error "Persist: unsupported snapshot version"
    else
      let* tag, payload, next = Wire.decode_record b 6 in
      if next <> Bytes.length b then Error "Persist: trailing bytes after image"
      else read_case cases (tag, payload)
  in
  (encode, decode)

let encode_endpoint, decode_endpoint = image endpoint_cases
let encode_sender, decode_sender =
  image [ { tag = 2; is = (fun _ -> true); body = sender } ]

(* Journal decode: replay stops at the first record that does not read
   back whole — a torn or failed checksum, run bytes that do not match
   their parity, or a payload that does not parse (version skew, or a
   longer layout's record).  Everything before it is still trusted. *)
let decode_journal b =
  let read_event off =
    let* tag, payload, next = Wire.decode_record b off in
    let* ev = read_case event_cases (tag, payload) in
    if tag = acked_tag then attach_runs b next ev else Ok (ev, next)
  in
  let rec go off acc =
    if off >= Bytes.length b then (List.rev acc, false)
    else
      match read_event off with
      | Ok (ev, next) -> go next (ev :: acc)
      | Error _ -> (List.rev acc, true)
  in
  go 0 []

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
    mutable snapshots_taken : int;
    mutable journal_records : int;
  }

  let create () =
    { snap = None; journal = Buffer.create 256; payload = Buffer.create 256;
      scratch = Some (Wire.scratch ()); snapshots_taken = 0; journal_records = 0 }

  let snapshot st image =
    let b = encode_endpoint image in
    st.snap <- Some b;
    Buffer.clear st.journal;
    st.snapshots_taken <- st.snapshots_taken + 1;
    if Obs.enabled then Obs.Metrics.observe m_snap_bytes (Bytes.length b)

  let append st ev =
    write_case ?scratch:st.scratch st.journal st.payload ev event_cases;
    (match ev with
    | Acked { runs; _ } -> add_runs st.journal runs
    | Opened _ | Shed _ | Archived _ | Closed _ -> ());
    st.journal_records <- st.journal_records + 1;
    if Obs.enabled then Obs.Metrics.incr m_journal_records

  let snapshots_taken st = st.snapshots_taken
  let journal_records st = st.journal_records
  let journal_bytes st = Buffer.length st.journal
  let journal st = Buffer.to_bytes st.journal

  let corrupt_tail st =
    let n = Buffer.length st.journal in
    if n > 0 then begin
      let b = Buffer.to_bytes st.journal in
      Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x55));
      Buffer.clear st.journal;
      Buffer.add_bytes st.journal b
    end

  let recover st =
    let* base =
      match st.snap with None -> Ok (Multi []) | Some b -> decode_endpoint b
    in
    let events, torn = decode_journal (Buffer.to_bytes st.journal) in
    if torn && Obs.enabled then Obs.Metrics.incr m_truncations;
    if Obs.enabled then Obs.Metrics.incr m_restores;
    Ok (base, events, torn)
end
