type event =
  | Chunk_rx of { conn : int; tpdu : int; bytes : int }
  | Verify_start of { conn : int; tpdu : int }
  | Verify_done of { conn : int; tpdu : int; verdict : string }
  | Frag of { tpdu : int; t_sn : int; elems : int }
  | Repack of { chunks_in : int; chunks_out : int }
  | Rto_fire of { conn : int; tpdu : int; txs : int; rto : float }
  | Evict of { conn : int; tpdu : int; reason : string }
  | Conn_open of { conn : int }
  | Conn_close of { conn : int }
  | Overlap of { conn : int; tpdu : int; sn : int; elems : int; kind : string }
  | Shed of { conn : int; tpdu : int; elems : int; cls : string }
  | Interleave of { conn : int; stream : int; tpdu : int; cls : string }
  | Quarantine of { conn : int; score : int; until : float }
  | Note of string

let event_name = function
  | Chunk_rx _ -> "chunk_rx"
  | Verify_start _ -> "verify_start"
  | Verify_done _ -> "verify_done"
  | Frag _ -> "frag"
  | Repack _ -> "repack"
  | Rto_fire _ -> "rto_fire"
  | Evict _ -> "evict"
  | Conn_open _ -> "conn_open"
  | Conn_close _ -> "conn_close"
  | Overlap _ -> "overlap"
  | Shed _ -> "shed"
  | Interleave _ -> "interleave"
  | Quarantine _ -> "quarantine"
  | Note _ -> "note"

(* ---------- JSONL codec ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.17g prints enough digits that reading the float back is exact. *)
let fl = Printf.sprintf "%.17g"

let to_json ~time ev =
  let fields =
    match ev with
    | Chunk_rx { conn; tpdu; bytes } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"bytes":%d|} conn tpdu bytes
    | Verify_start { conn; tpdu } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d|} conn tpdu
    | Verify_done { conn; tpdu; verdict } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"verdict":"%s"|} conn tpdu
          (escape verdict)
    | Frag { tpdu; t_sn; elems } ->
        Printf.sprintf {|"tpdu":%d,"t_sn":%d,"elems":%d|} tpdu t_sn elems
    | Repack { chunks_in; chunks_out } ->
        Printf.sprintf {|"in":%d,"out":%d|} chunks_in chunks_out
    | Rto_fire { conn; tpdu; txs; rto } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"txs":%d,"rto":%s|} conn tpdu txs
          (fl rto)
    | Evict { conn; tpdu; reason } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"reason":"%s"|} conn tpdu
          (escape reason)
    | Conn_open { conn } -> Printf.sprintf {|"conn":%d|} conn
    | Conn_close { conn } -> Printf.sprintf {|"conn":%d|} conn
    | Overlap { conn; tpdu; sn; elems; kind } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"sn":%d,"elems":%d,"kind":"%s"|}
          conn tpdu sn elems (escape kind)
    | Shed { conn; tpdu; elems; cls } ->
        Printf.sprintf {|"conn":%d,"tpdu":%d,"elems":%d,"cls":"%s"|} conn tpdu
          elems (escape cls)
    | Interleave { conn; stream; tpdu; cls } ->
        Printf.sprintf {|"conn":%d,"stream":%d,"tpdu":%d,"cls":"%s"|} conn
          stream tpdu (escape cls)
    | Quarantine { conn; score; until } ->
        Printf.sprintf {|"conn":%d,"score":%d,"until":%s|} conn score (fl until)
    | Note text -> Printf.sprintf {|"text":"%s"|} (escape text)
  in
  Printf.sprintf {|{"t":%s,"ev":"%s",%s}|} (fl time) (event_name ev) fields

(* Minimal parser for the flat objects [to_json] produces: string and
   number values only, no nesting.  Anything unexpected yields [None]. *)

exception Bad

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise Bad in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Bad else advance () in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          match peek () with
          | '"' -> Buffer.add_char b '"'; advance (); go ()
          | '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then raise Bad;
              let code =
                try int_of_string ("0x" ^ String.sub line !pos 4)
                with _ -> raise Bad
              in
              if code > 0xff then raise Bad;
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4;
              go ()
          | _ -> raise Bad)
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then raise Bad;
    String.sub line start (!pos - start)
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  let rec members () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    skip_ws ();
    let v = if peek () = '"' then `S (parse_string ()) else `N (parse_number ()) in
    fields := (key, v) :: !fields;
    skip_ws ();
    match peek () with
    | ',' -> advance (); members ()
    | '}' -> advance ()
    | _ -> raise Bad
  in
  members ();
  skip_ws ();
  if !pos <> n then raise Bad;
  !fields

let of_json line =
  match
    let fields = parse_flat (String.trim line) in
    let str k =
      match List.assoc k fields with `S s -> s | `N _ -> raise Bad
    in
    let num k =
      match List.assoc k fields with
      | `N s -> float_of_string s
      | `S _ -> raise Bad
    in
    let int k =
      let f = num k in
      let i = int_of_float f in
      if float_of_int i <> f then raise Bad else i
    in
    let time = num "t" in
    let ev =
      match str "ev" with
      | "chunk_rx" ->
          Chunk_rx { conn = int "conn"; tpdu = int "tpdu"; bytes = int "bytes" }
      | "verify_start" -> Verify_start { conn = int "conn"; tpdu = int "tpdu" }
      | "verify_done" ->
          Verify_done
            { conn = int "conn"; tpdu = int "tpdu"; verdict = str "verdict" }
      | "frag" ->
          Frag { tpdu = int "tpdu"; t_sn = int "t_sn"; elems = int "elems" }
      | "repack" -> Repack { chunks_in = int "in"; chunks_out = int "out" }
      | "rto_fire" ->
          Rto_fire
            { conn = int "conn"; tpdu = int "tpdu"; txs = int "txs";
              rto = num "rto" }
      | "evict" ->
          Evict { conn = int "conn"; tpdu = int "tpdu"; reason = str "reason" }
      | "conn_open" -> Conn_open { conn = int "conn" }
      | "conn_close" -> Conn_close { conn = int "conn" }
      | "overlap" ->
          Overlap
            { conn = int "conn"; tpdu = int "tpdu"; sn = int "sn";
              elems = int "elems"; kind = str "kind" }
      | "shed" ->
          Shed
            { conn = int "conn"; tpdu = int "tpdu"; elems = int "elems";
              cls = str "cls" }
      | "interleave" ->
          Interleave
            { conn = int "conn"; stream = int "stream"; tpdu = int "tpdu";
              cls = str "cls" }
      | "quarantine" ->
          Quarantine
            { conn = int "conn"; score = int "score"; until = num "until" }
      | "note" -> Note (str "text")
      | _ -> raise Bad
    in
    (time, ev)
  with
  | exception Bad -> None
  | exception Not_found -> None
  | exception Failure _ -> None
  | p -> Some p

(* ---------- Sinks ---------- *)

type ring_state = {
  buf : (float * event) option array;
  mutable next : int;  (* slot the next event lands in *)
  mutable filled : bool;  (* true once [next] has wrapped *)
  mutable dropped : int;  (* events overwritten since creation *)
}

type sink =
  | Null
  | Ring of ring_state
  | Jsonl of out_channel

let null = Null

let ring ~capacity =
  if capacity < 1 then invalid_arg "Obs.Trace.ring: capacity < 1";
  Ring { buf = Array.make capacity None; next = 0; filled = false; dropped = 0 }

let jsonl oc = Jsonl oc

let emit sink ~time ev =
  match sink with
  | Null -> ()
  | Ring r ->
      if r.filled then r.dropped <- r.dropped + 1;
      r.buf.(r.next) <- Some (time, ev);
      r.next <- r.next + 1;
      if r.next = Array.length r.buf then begin
        r.next <- 0;
        r.filled <- true
      end
  | Jsonl oc ->
      output_string oc (to_json ~time ev);
      output_char oc '\n'

let ring_contents sink =
  match sink with
  | Null | Jsonl _ -> []
  | Ring r ->
      let cap = Array.length r.buf in
      let start = if r.filled then r.next else 0 in
      let len = if r.filled then cap else r.next in
      List.init len (fun i ->
          match r.buf.((start + i) mod cap) with
          | Some p -> p
          | None -> assert false)

let ring_dropped = function Ring r -> r.dropped | Null | Jsonl _ -> 0

let current = ref Null
let set_sink s = current := s
let sink () = !current
let active () = match !current with Null -> false | Ring _ | Jsonl _ -> true

let record ?time ev =
  match !current with
  | Null -> ()
  | s ->
      let time = match time with Some t -> t | None -> !Flag.now in
      emit s ~time ev
