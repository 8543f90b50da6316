open Labelling

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let symbol_of_bit b = if b then Gf232.one else Gf232.zero

(* The (X.ID, X.ST) pair at the boundary element's position.  The second
   symbol folds in the boundary T.SN itself (Fig 5's "variable position
   information"): with pure alpha^i weights, a pair whose two symbols
   satisfy [X.ID = alpha * X.ST] contributes zero to P1 and could be
   relocated by a corrupted LEN/T.SN without changing the parity;
   binding the position into the value closes that hole. *)
let xpair_second_symbol ~boundary_t_sn ~x_st =
  ((boundary_t_sn lsl 1) lor (if x_st then 1 else 0)) land 0xFFFF_FFFF

(* The (X.ID, X.ST) pair of the boundary at [boundary_t_sn], and the
   T.ID, C.ID, C.ST triple: each group lies at consecutive positions, so
   it costs one field multiplication ([Wsc2.add_pair], [add_triple]).
   The verifier folds the same groups through these two functions. *)
let add_xpair acc ~boundary_t_sn ~x_id ~x_st =
  Wsc2.add_pair acc
    ~pos:(Invariant.xpair_position ~boundary_t_sn)
    (x_id land 0xFFFF_FFFF)
    (xpair_second_symbol ~boundary_t_sn ~x_st)

(* [Invariant] lays T.ID, C.ID and C.ST out at consecutive positions *)
let add_labels acc ~t_id ~c_id ~c_st =
  Wsc2.add_triple acc ~pos:Invariant.tid_position (t_id land 0xFFFF_FFFF)
    (c_id land 0xFFFF_FFFF) (symbol_of_bit c_st)

let contribute acc chunk =
  if not (Chunk.is_data chunk) then
    Error "Edc.Encoder.contribute: not a data chunk"
  else begin
    let h = chunk.Chunk.header in
    let size = h.Header.size in
    let t_sn = h.Header.t.Ftuple.sn in
    let* _spw = Invariant.check_size ~size in
    let* pos = Invariant.data_position ~size ~t_sn in
    let last = Chunk.last_t_sn chunk in
    let* _last_ok = Invariant.data_position ~size ~t_sn:last in
    Wsc2.add_bytes acc ~pos chunk.Chunk.payload 0
      (Bytes.length chunk.Chunk.payload);
    if h.Header.t.Ftuple.st then
      add_labels acc ~t_id:h.Header.t.Ftuple.id ~c_id:h.Header.c.Ftuple.id
        ~c_st:h.Header.c.Ftuple.st;
    if h.Header.t.Ftuple.st || h.Header.x.Ftuple.st then
      add_xpair acc ~boundary_t_sn:last ~x_id:h.Header.x.Ftuple.id
        ~x_st:h.Header.x.Ftuple.st;
    Ok ()
  end

let parity_of_tpdu chunks =
  let acc = Wsc2.create () in
  let rec go = function
    | [] -> Ok (Wsc2.snapshot acc)
    | c :: rest -> (
        match contribute acc c with Error _ as e -> e | Ok () -> go rest)
  in
  match chunks with
  | [] -> Error "Edc.Encoder.parity_of_tpdu: empty TPDU"
  | _ -> go chunks

let seal chunks =
  let finals =
    List.filter (fun c -> c.Chunk.header.Header.t.Ftuple.st) chunks
  in
  match (chunks, finals) with
  | [], _ -> Error "Edc.Encoder.seal: empty TPDU"
  | _, [] -> Error "Edc.Encoder.seal: no chunk carries T.ST (incomplete TPDU)"
  | _, _ :: _ :: _ -> Error "Edc.Encoder.seal: several chunks carry T.ST"
  | first :: _, [ final ] ->
      let* parity = parity_of_tpdu chunks in
      let h = first.Chunk.header in
      (* The ED chunk is labelled with the TPDU's identity; its C.SN is
         the connection SN of the TPDU's first element.  Its payload
         carries the parity plus the TPDU's element count, so a receiver
         learns the PDU's extent even when every ST-bearing fragment was
         lost (the gap report can then name the missing tail). *)
      let tpdu_start_csn = h.Header.c.Ftuple.sn - h.Header.t.Ftuple.sn in
      let c = Ftuple.v ~id:h.Header.c.Ftuple.id ~sn:(Int.max 0 tpdu_start_csn) () in
      let t = Ftuple.v ~id:h.Header.t.Ftuple.id ~sn:0 () in
      let x = Ftuple.zero in
      let total_elems = Chunk.last_t_sn final + 1 in
      let payload = Bytes.make 12 '\000' in
      Wsc2.parity_blit parity payload 0;
      Bytes.set_int32_be payload 8 (Int32.of_int total_elems);
      Chunk.control ~kind:Ctype.ed ~c ~t ~x payload

let seal_tpdus chunks =
  (* Group by T.ID preserving first-appearance order. *)
  let order = ref [] in
  let groups : (int, Chunk.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Chunk.is_data c then begin
        let tid = c.Chunk.header.Header.t.Ftuple.id in
        match Hashtbl.find_opt groups tid with
        | Some cell -> cell := c :: !cell
        | None ->
            Hashtbl.add groups tid (ref [ c ]);
            order := tid :: !order
      end)
    chunks;
  let rec build acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | tid :: rest -> (
        let tpdu = List.rev !(Hashtbl.find groups tid) in
        match seal tpdu with
        | Error _ as e -> e
        | Ok ed -> build ((tpdu @ [ ed ]) :: acc) rest)
  in
  build [] (List.rev !order)
