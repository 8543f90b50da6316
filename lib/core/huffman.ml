let max_len = 15

type code = {
  lengths : int array;  (* 256; 0 = symbol absent *)
  codes : int array;  (* canonical code bits, MSB-first *)
  (* canonical decode tables: the symbols sorted by (length, value), and
     for each length its first code value, the index of its first symbol
     and its number of symbols *)
  sorted : int array;
  first_code : int array;
  first_idx : int array;
  counts : int array;
}

(* Standard heap-free Huffman: repeatedly merge the two lightest trees.
   256 symbols at most, so an O(n^2) selection is fine. *)
let huffman_lengths freq =
  let nodes = ref [] in
  Array.iteri (fun sym f -> if f > 0 then nodes := (f, [ sym ]) :: !nodes) freq;
  let lengths = Array.make 256 0 in
  (match !nodes with
  | [] -> invalid_arg "Huffman.build: empty frequency table"
  | [ (_, syms) ] -> List.iter (fun s -> lengths.(s) <- 1) syms
  | _ ->
      let rec merge nodes =
        match List.sort compare nodes with
        | (fa, sa) :: (fb, sb) :: rest ->
            List.iter (fun s -> lengths.(s) <- lengths.(s) + 1) (sa @ sb);
            if rest <> [] then merge ((fa + fb, sa @ sb) :: rest)
        | _ -> ()
      in
      merge !nodes);
  lengths

let rec build_lengths freq =
  let lengths = huffman_lengths freq in
  if Array.exists (fun l -> l > max_len) lengths then
    (* flatten the distribution and retry; converges quickly *)
    build_lengths (Array.map (fun f -> (f + 1) / 2) freq)
  else lengths

let canonical lengths =
  (* canonical assignment: sort symbols by (length, value) *)
  let codes = Array.make 256 0 in
  let syms =
    List.init 256 Fun.id
    |> List.filter (fun s -> lengths.(s) > 0)
    |> List.sort (fun a b ->
           match Int.compare lengths.(a) lengths.(b) with
           | 0 -> Int.compare a b
           | c -> c)
  in
  let code = ref 0 in
  let prev_len = ref 0 in
  List.iter
    (fun s ->
      let l = lengths.(s) in
      code := !code lsl (l - !prev_len);
      codes.(s) <- !code;
      incr code;
      prev_len := l)
    syms;
  let sorted = Array.of_list syms in
  let counts = Array.make (max_len + 1) 0 in
  Array.iter (fun s -> counts.(lengths.(s)) <- counts.(lengths.(s)) + 1) sorted;
  let first_code = Array.make (max_len + 2) 0 in
  let first_idx = Array.make (max_len + 2) 0 in
  let idx = ref 0 and c = ref 0 in
  for l = 1 to max_len do
    first_code.(l) <- !c;
    first_idx.(l) <- !idx;
    idx := !idx + counts.(l);
    c := (!c + counts.(l)) lsl 1
  done;
  { lengths; codes; sorted; first_code; first_idx; counts }

let build freq =
  if Array.length freq <> 256 then
    invalid_arg "Huffman.build: need a 256-entry table";
  if not (Array.exists (fun f -> f > 0) freq) then
    invalid_arg "Huffman.build: all-zero frequencies";
  canonical (build_lengths freq)

let encode_bytes code src =
  let buf = Buffer.create (Bytes.length src) in
  let acc = ref 0 and bits = ref 0 in
  Bytes.iter
    (fun c ->
      let s = Char.code c in
      let l = code.lengths.(s) in
      if l = 0 then invalid_arg "Huffman.encode_bytes: symbol not in code";
      acc := (!acc lsl l) lor code.codes.(s);
      bits := !bits + l;
      while !bits >= 8 do
        Buffer.add_uint8 buf ((!acc lsr (!bits - 8)) land 0xFF);
        bits := !bits - 8
      done)
    src;
  if !bits > 0 then Buffer.add_uint8 buf ((!acc lsl (8 - !bits)) land 0xFF);
  Buffer.to_bytes buf

let decode_bytes code ~count src =
  let { sorted = sym_arr; first_code; first_idx; counts; _ } = code in
  (* every symbol takes at least one bit: a count beyond the bits there
     are fails before its buffer is allocated *)
  if count < 0 then Error "Huffman.decode_bytes: negative count"
  else if count > 8 * Bytes.length src then
    Error "Huffman.decode_bytes: out of bits"
  else
  let out = Bytes.create count in
  let bitpos = ref 0 in
  let total_bits = 8 * Bytes.length src in
  let err = ref None in
  (try
     for k = 0 to count - 1 do
       let v = ref 0 and l = ref 0 in
       let decoded = ref false in
       while not !decoded do
         if !bitpos >= total_bits then begin
           err := Some "Huffman.decode_bytes: out of bits";
           raise Exit
         end;
         let bit =
           (Char.code (Bytes.get src (!bitpos / 8)) lsr (7 - (!bitpos mod 8)))
           land 1
         in
         incr bitpos;
         v := (!v lsl 1) lor bit;
         incr l;
         if !l > max_len then begin
           err := Some "Huffman.decode_bytes: invalid code";
           raise Exit
         end;
         if counts.(!l) > 0 && !v - first_code.(!l) < counts.(!l) && !v >= first_code.(!l)
         then begin
           Bytes.set out k (Char.chr sym_arr.(first_idx.(!l) + !v - first_code.(!l)));
           decoded := true
         end
       done
     done
   with Exit -> ());
  match !err with Some e -> Error e | None -> Ok out

let serialize code =
  let b = Bytes.make 128 '\000' in
  for s = 0 to 255 do
    let l = code.lengths.(s) land 0xF in
    let i = s / 2 in
    let old = Char.code (Bytes.get b i) in
    let v = if s mod 2 = 0 then old lor (l lsl 4) else old lor l in
    Bytes.set b i (Char.chr v)
  done;
  b

let deserialize b off =
  if Bytes.length b - off < 128 then Error "Huffman.deserialize: truncated"
  else begin
    let lengths = Array.make 256 0 in
    for s = 0 to 255 do
      let v = Char.code (Bytes.get b (off + (s / 2))) in
      lengths.(s) <- (if s mod 2 = 0 then v lsr 4 else v land 0xF)
    done;
    if not (Array.exists (fun l -> l > 0) lengths) then
      Error "Huffman.deserialize: empty code"
    else Ok (canonical lengths, off + 128)
  end

(* --- packet-level header compression --- *)

let header_image chunk =
  let buf = Buffer.create Wire.header_size in
  Wire.encode_header buf chunk.Chunk.header;
  Buffer.to_bytes buf

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let compress_packet chunks =
  if List.exists Chunk.is_terminator chunks then
    Error "Huffman.compress_packet: terminators not supported"
  else if List.length chunks > 0xFFFF then
    Error "Huffman.compress_packet: too many chunks"
  else begin
    let headers = List.map header_image chunks in
    let all = Bytes.concat Bytes.empty headers in
    let freq = Array.make 256 0 in
    Bytes.iter (fun c -> freq.(Char.code c) <- freq.(Char.code c) + 1) all;
    if Bytes.length all = 0 then Error "Huffman.compress_packet: empty packet"
    else begin
      let code = build freq in
      let bitstream = encode_bytes code all in
      let buf = Buffer.create 512 in
      Buffer.add_uint16_be buf (List.length chunks);
      Buffer.add_bytes buf (serialize code);
      Buffer.add_int32_be buf (Int32.of_int (Bytes.length bitstream));
      Buffer.add_bytes buf bitstream;
      List.iter (fun c -> Buffer.add_bytes buf c.Chunk.payload) chunks;
      Ok (Buffer.to_bytes buf)
    end
  end

let decompress_packet b =
  if Bytes.length b < 2 + 128 + 4 then
    Error "Huffman.decompress_packet: truncated"
  else begin
    let n = Bytes.get_uint16_be b 0 in
    let* code, off = deserialize b 2 in
    let blen = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF in
    let bits_off = off + 4 in
    if Bytes.length b - bits_off < blen then
      Error "Huffman.decompress_packet: truncated bitstream"
    else begin
      let* headers =
        decode_bytes code ~count:(n * Wire.header_size)
          (Bytes.sub b bits_off blen)
      in
      let payload_off = ref (bits_off + blen) in
      let rec go k acc =
        if k = n then Ok (List.rev acc)
        else begin
          let hdr = Bytes.sub headers (k * Wire.header_size) Wire.header_size in
          let* header = Wire.decode_header hdr 0 in
          let want = Header.payload_bytes header in
          if Bytes.length b - !payload_off < want then
            Error "Huffman.decompress_packet: truncated payload"
          else begin
            let payload = Bytes.sub b !payload_off want in
            payload_off := !payload_off + want;
            let* chunk = Chunk.make header payload in
            go (k + 1) (chunk :: acc)
          end
        end
      in
      go 0 []
    end
  end

let compressed_size chunks =
  match compress_packet chunks with
  | Ok b -> Bytes.length b
  | Error _ -> Wire.chunks_size chunks
