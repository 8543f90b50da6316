(* The 46-byte header layout (paper Fig 2), declared once: every writer,
   decoder and scan reader below takes its positions from these
   offsets, constants the compiler folds into each access.  [layout] is
   the same declaration as data, for the tests. *)
let o_type = 0
let o_size = 1
let o_len = 3
let o_c = 7
let o_t = 20
let o_x = 33

(* within a label tuple *)
let o_id = 0
let o_sn = 4
let o_st = 12
let tuple_size = 13
let header_size = o_x + tuple_size

type tuple = C | T | X
type field = Type | Size | Len | Id of tuple | Sn of tuple | St of tuple

let layout =
  [ (Type, o_type, 1); (Size, o_size, 2); (Len, o_len, 4) ]
  @ List.concat_map
      (fun (u, base) ->
        [ (Id u, base + o_id, 4); (Sn u, base + o_sn, 8); (St u, base + o_st, 1) ])
      [ (C, o_c); (T, o_t); (X, o_x) ]

let chunk_size c = header_size + Chunk.payload_bytes c

let chunks_size cs = List.fold_left (fun acc c -> acc + chunk_size c) 0 cs

(* The one writer of the header layout: every encoder below,
   buffer-appending or in place, goes through [write_header]. *)
let write_tuple b off (u : Ftuple.t) =
  Bytes.set_int32_be b (off + o_id) (Int32.of_int u.Ftuple.id);
  Bytes.set_int64_be b (off + o_sn) (Int64.of_int u.Ftuple.sn);
  Bytes.set_uint8 b (off + o_st) (if u.Ftuple.st then 1 else 0)

let write_header b off (h : Header.t) =
  Bytes.set_uint8 b (off + o_type) (Ctype.code h.Header.ctype);
  Bytes.set_uint16_be b (off + o_size) h.Header.size;
  Bytes.set_int32_be b (off + o_len) (Int32.of_int h.Header.len);
  write_tuple b (off + o_c) h.Header.c;
  write_tuple b (off + o_t) h.Header.t;
  write_tuple b (off + o_x) h.Header.x

(* Writes [c] at [off] and returns the offset just past it. *)
let write_chunk b off c =
  write_header b off c.Chunk.header;
  let n = Bytes.length c.Chunk.payload in
  Bytes.blit c.Chunk.payload 0 b (off + header_size) n;
  off + header_size + n

let encode_header buf h =
  let b = Bytes.create header_size in
  write_header b 0 h;
  Buffer.add_bytes buf b

let encode_chunk buf c =
  encode_header buf c.Chunk.header;
  Buffer.add_bytes buf c.Chunk.payload

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

(* An SN must fit a non-negative native int: bits 63 and 62 of the
   64-bit word clear.  Bit 63 alone would vanish in [Int64.to_int], so
   two wire images would decode to one chunk. *)
let get_tuple b off =
  let id = get_u32 b (off + o_id) in
  let word = Bytes.get_int64_be b (off + o_sn) in
  let st_byte = Bytes.get_uint8 b (off + o_st) in
  if Int64.shift_right_logical word 62 <> 0L then
    Error "Wire: SN overflows native int"
  else if st_byte > 1 then Error "Wire: invalid ST byte"
  else Ok (Ftuple.v ~st:(st_byte = 1) ~id ~sn:(Int64.to_int word) ())

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let decode_header b off =
  if off < 0 || Bytes.length b - off < header_size then
    Error "Wire.decode_header: truncated header"
  else begin
    let* ctype = Ctype.of_code (Bytes.get_uint8 b (off + o_type)) in
    let size = Bytes.get_uint16_be b (off + o_size) in
    let len = get_u32 b (off + o_len) in
    let* c = get_tuple b (off + o_c) in
    let* t = get_tuple b (off + o_t) in
    let* x = get_tuple b (off + o_x) in
    Header.v ~ctype ~size ~len ~c ~t ~x
  end

let decode_chunk b off =
  if off < 0 || Bytes.length b - off < header_size then
    Error "Wire.decode_chunk: truncated header"
  else begin
    let* h = decode_header b off in
    let nbytes = Header.payload_bytes h in
    let payload_off = off + header_size in
    if Bytes.length b - payload_off < nbytes then
      Error "Wire.decode_chunk: truncated payload"
    else begin
      let payload = Bytes.sub b payload_off nbytes in
      let* chunk = Chunk.make h payload in
      Ok (chunk, payload_off + nbytes)
    end
  end

(* The packet is sized first and written in place: one allocation of
   exactly the packet's length, headers set field by field and each
   payload blitted once. *)
let encode_packet ?capacity chunks =
  let used = chunks_size chunks in
  let cap = Option.value capacity ~default:used in
  if used > cap then
    Error
      (Printf.sprintf "Wire.encode_packet: %d bytes exceed capacity %d" used
         cap)
  else begin
    let b = Bytes.create cap in
    let off = List.fold_left (write_chunk b) 0 chunks in
    Bytes.fill b off (cap - off) '\000';
    if cap - off >= header_size then write_header b off Header.terminator;
    Ok b
  end

let with_ids template ~c_id ~t_id =
  Ftuple.check_id c_id;
  Ftuple.check_id t_id;
  let b = Bytes.copy template in
  Bytes.set_int32_be b (o_c + o_id) (Int32.of_int c_id);
  Bytes.set_int32_be b (o_t + o_id) (Int32.of_int t_id);
  b

(* Checksummed record framing for persisted state (crash-recovery
   snapshots and journals).  A record is

     LEN (u32 be) | TAG (u8) | payload (LEN bytes) | WSC-2 parity (8)

   with the parity computed over TAG + payload, so a bit flip anywhere
   in the record body — or a LEN that slices the wrong region — fails
   the checksum.  Decoding never raises: a bad record is an [Error]. *)

let record_overhead = 4 + 1 + 8

(* A record body (TAG + payload) is assembled in a scratch buffer the
   caller may keep across records, so a journal's steady state makes no
   per-record major-heap allocation: the payload is blitted into the
   scratch, the parity computed over it in the scratch's accumulator,
   and the body and the two parity words go straight into [buf]. *)
type scratch = { mutable body : bytes; acc : Wsc2.acc }

let scratch () = { body = Bytes.empty; acc = Wsc2.create () }

let encode_record ?(scratch = scratch ()) buf ~tag payload =
  if tag < 0 || tag > 0xFF then invalid_arg "Wire.encode_record: bad tag";
  let n = Buffer.length payload in
  if Bytes.length scratch.body < 1 + n then
    scratch.body <- Bytes.create (max (1 + n) (2 * Bytes.length scratch.body));
  let body = scratch.body in
  Bytes.set_uint8 body 0 tag;
  Buffer.blit payload 0 body 1 n;
  let acc = scratch.acc in
  Wsc2.reset acc;
  Wsc2.add_bytes acc ~pos:0 body 0 (1 + n);
  let par = Wsc2.snapshot acc in
  Buffer.add_int32_be buf (Int32.of_int n);
  Buffer.add_subbytes buf body 0 (1 + n);
  (* [Int32.of_int] keeps the low 32 bits, as [Gf232.to_int32_bits]
     does, without boxing an [int32] on the way *)
  Buffer.add_int32_be buf (Int32.of_int par.Wsc2.p0);
  Buffer.add_int32_be buf (Int32.of_int par.Wsc2.p1)

let decode_record b off =
  let avail = Bytes.length b - off in
  if off < 0 || avail < record_overhead then
    Error "Wire.decode_record: truncated record"
  else begin
    let n = get_u32 b off in
    if n > avail - record_overhead then
      Error "Wire.decode_record: length prefix exceeds buffer"
    else begin
      (* checksum the body where it lies, then copy the payload once *)
      let acc = Wsc2.create () in
      Wsc2.add_bytes acc ~pos:0 b (off + 4) (1 + n);
      let expected = Wsc2.parity_of_bytes b (off + 4 + 1 + n) in
      if not (Wsc2.verify ~expected acc) then
        Error "Wire.decode_record: checksum mismatch"
      else
        let tag = Bytes.get_uint8 b (off + 4) in
        let payload = Bytes.sub b (off + 5) n in
        Ok (tag, payload, off + record_overhead + n)
    end
  end

let all_zero b off =
  let rec go i = i >= Bytes.length b || (Bytes.get b i = '\000' && go (i + 1)) in
  go off

let decode_packet b =
  let n = Bytes.length b in
  let rec go off acc =
    if off >= n then Ok (List.rev acc)
    else if n - off < header_size then
      if all_zero b off then Ok (List.rev acc)
      else Error "Wire.decode_packet: trailing garbage"
    else
      match decode_chunk b off with
      | Error _ as e -> e
      | Ok (c, off') ->
          if Chunk.is_terminator c then Ok (List.rev acc)
          else go off' (c :: acc)
  in
  go 0 []

(* Zero-allocation structural packet scanner.

   [Scan.packet] walks a packet image and records the start offset of
   every non-terminator chunk without building a single [Chunk.t] or
   copying a payload byte.  The validity predicate is byte-for-byte the
   one [decode_packet] applies — the scanner accepts a buffer iff
   [decode_packet] returns [Ok], with the scratch holding exactly the
   offsets of the chunks [decode_packet] would return, in order.  The
   checks mirrored from the decoder, per chunk at [off]:

   - LEN within [Header.max_len]                    (Header.v)
   - data chunk with LEN > 0 has SIZE >= 1          (Header.v; SIZE is a
     u16 so the upper bound can never trip)
   - each Ftuple SN with bits 63 and 62 clear, so
     it fits a non-negative native int; each ST
     byte <= 1                                      (get_tuple)
   - announced payload fits the buffer              (decode_chunk)
   - LEN = 0 terminates the scan, rest of the
     buffer ignored                                 (decode_packet)
   - a residue shorter than one header must be
     all-zero padding                               (decode_packet)

   The TYPE byte needs no check: every u8 is a valid [Ctype.code].  The
   field readers and [Scan.chunk] skip validation entirely and are only
   meaningful at offsets a successful [packet] call produced. *)

module Scan = struct
  (* Bounds-check-free header reads for the validating loop.  These are
     the same compiler primitives the stdlib builds [Bytes.get_uint16_be]
     etc. on, minus the bounds check; every call site below runs after
     [off + header_size <= length b] has been established, and all reads
     stay inside that header. *)
  external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
  external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"
  external swap16 : int -> int = "%bswap16"
  external swap32 : int32 -> int32 = "%bswap_int32"

  let u8 b i = Char.code (Bytes.unsafe_get b i)

  let u16 b i =
    let x = unsafe_get16 b i in
    if Sys.big_endian then x else swap16 x

  let u32 b i =
    let x = unsafe_get32 b i in
    Int32.to_int (if Sys.big_endian then x else swap32 x) land 0xFFFF_FFFF

  type t = {
    mutable offs : int array;
    (* dispatch prefix recorded while validating, so a caller never
       re-reads it: C.ID and the TYPE code *)
    mutable cids : int array;
    mutable metas : int array;
    mutable n : int;
  }

  let create () =
    { offs = Array.make 16 0; cids = Array.make 16 0;
      metas = Array.make 16 0; n = 0 }

  let count s = s.n

  (* Unchecked reads, as documented: [i] must come from a [0, count)
     loop over the last accepted packet. *)
  let offset s i = Array.unsafe_get s.offs i
  let c_id_at s i = Array.unsafe_get s.cids i
  let ctype_code_at s i = Array.unsafe_get s.metas i

  let push s off cid meta =
    if s.n = Array.length s.offs then begin
      let grow a =
        let bigger = Array.make (2 * s.n) 0 in
        Array.blit a 0 bigger 0 s.n;
        bigger
      in
      s.offs <- grow s.offs;
      s.cids <- grow s.cids;
      s.metas <- grow s.metas
    end;
    (* the capacity check above keeps [s.n] in bounds for all three *)
    Array.unsafe_set s.offs s.n off;
    Array.unsafe_set s.cids s.n cid;
    Array.unsafe_set s.metas s.n meta;
    s.n <- s.n + 1

  (* SN validity mirrors [get_tuple]: bits 63 and 62 of the big-endian
     word clear — one byte read instead of a boxed [Int64]. *)
  let tuple_ok b off = u8 b (off + o_sn) land 0xC0 = 0 && u8 b (off + o_st) <= 1

  (* The validating loop from [off] in [b], of length [nb]: a top-level
     function, so that a scan builds no closure. *)
  let rec scan_from s b nb off =
    if off >= nb then true
    else if nb - off < header_size then all_zero b off
    else begin
      let len = u32 b (off + o_len) in
      if len > Header.max_len then false
      else begin
        let code = u8 b (off + o_type) in
        let is_data = code = 0 in
        let size = u16 b (off + o_size) in
        if is_data && len > 0 && size < 1 then false
        else if
          not
            (tuple_ok b (off + o_c)
            && tuple_ok b (off + o_t)
            && tuple_ok b (off + o_x))
        then false
        else if len = 0 then true (* terminator: rest of packet ignored *)
        else begin
          let nbytes = if is_data then size * len else len in
          if nb - (off + header_size) < nbytes then false
          else begin
            push s off (u32 b (off + o_c + o_id)) code;
            scan_from s b nb (off + header_size + nbytes)
          end
        end
      end
    end

  let packet s b =
    s.n <- 0;
    scan_from s b (Bytes.length b) 0

  let size b off = Bytes.get_uint16_be b (off + o_size)
  let len b off = get_u32 b (off + o_len)
  let c_id b off = get_u32 b (off + o_c + o_id)
  let t_id b off = get_u32 b (off + o_t + o_id)

  let tuple b off =
    Ftuple.v
      ~st:(Bytes.get_uint8 b (off + o_st) = 1)
      ~id:(get_u32 b (off + o_id))
      ~sn:(Int64.to_int (Bytes.get_int64_be b (off + o_sn)))
      ()

  let header b off =
    let ctype =
      match Bytes.get_uint8 b (off + o_type) with
      | 0 -> Ctype.Data
      | k -> Ctype.Control k
    in
    {
      Header.ctype;
      size = size b off;
      len = len b off;
      c = tuple b (off + o_c);
      t = tuple b (off + o_t);
      x = tuple b (off + o_x);
    }

  let view b off =
    { Chunk.header = header b off; src = b; off = off + header_size }

  let chunk b off =
    let h = header b off in
    Chunk.make_exn h (Bytes.sub b (off + header_size) (Header.payload_bytes h))

  let line_bytes = 64

  let warm b =
    let n = Bytes.length b in
    if n > 0 then begin
      (* a buffer need not start on a line boundary: stepping by a line
         from 0 visits every line but possibly the last one's tail *)
      let acc = ref (Char.code (Bytes.get b (n - 1))) in
      let i = ref 0 in
      while !i < n do
        acc := !acc lxor Char.code (Bytes.get b !i);
        i := !i + line_bytes
      done;
      (* the loads are live: the compiler cannot drop them as dead *)
      ignore (Sys.opaque_identity !acc)
    end
end
