type t = {
  elem_size : int;
  mutable tpdu_elems : int;
  conn_id : int;
  mutable c_sn : int;    (* connection SN of the next element *)
  mutable tid : int;     (* current TPDU id *)
  mutable t_sn : int;    (* next element's SN within the current TPDU *)
  mutable xid : int;     (* external-PDU id allocated to the next frame *)
  mutable closed : bool;
}

let create ?(elem_size = 4) ?(tpdu_elems = 1024) ?(first_tid = 0)
    ?(first_xid = 0) ?(first_csn = 0) ~conn_id () =
  if elem_size < 1 || elem_size > 0xFFFF then
    invalid_arg "Framer.create: elem_size out of range";
  if tpdu_elems < 1 then invalid_arg "Framer.create: tpdu_elems < 1";
  if first_csn < 0 then invalid_arg "Framer.create: negative first_csn";
  {
    elem_size;
    tpdu_elems;
    conn_id;
    c_sn = first_csn;
    tid = first_tid;
    t_sn = 0;
    xid = first_xid;
    closed = false;
  }

let elem_size f = f.elem_size
let tpdu_elems f = f.tpdu_elems
let conn_id f = f.conn_id
let next_c_sn f = f.c_sn
let closed f = f.closed

let set_tpdu_elems f n =
  if n < 1 then Error "Framer.set_tpdu_elems: n < 1"
  else if f.t_sn <> 0 then
    Error "Framer.set_tpdu_elems: a TPDU is under construction"
  else begin
    f.tpdu_elems <- n;
    Ok ()
  end

let pad_frame ~elem_size b =
  let n = Bytes.length b in
  let rem = n mod elem_size in
  if rem = 0 then b
  else begin
    let padded = Bytes.make (n + elem_size - rem) '\000' in
    Bytes.blit b 0 padded 0 n;
    padded
  end

let push_frame ?(last = false) f frame =
  let nbytes = Bytes.length frame in
  if f.closed then Error "Framer.push_frame: connection already closed"
  else if nbytes = 0 then Error "Framer.push_frame: empty frame"
  else if nbytes mod f.elem_size <> 0 then
    Error "Framer.push_frame: frame length not a multiple of elem_size"
  else begin
    let total_elems = nbytes / f.elem_size in
    let x_id = f.xid in
    f.xid <- f.xid + 1;
    let chunks = ref [] in
    let x_sn = ref 0 in
    (* Cut a chunk at every TPDU boundary crossed; the frame end is an
       X-level boundary by construction. *)
    while !x_sn < total_elems do
      let room_in_tpdu = f.tpdu_elems - f.t_sn in
      let remaining = total_elems - !x_sn in
      let take = Int.min room_in_tpdu remaining in
      let ends_frame = !x_sn + take = total_elems in
      let ends_tpdu = take = room_in_tpdu || (last && ends_frame) in
      let ends_conn = last && ends_frame in
      let c = Ftuple.v ~st:ends_conn ~id:f.conn_id ~sn:f.c_sn () in
      let tu = Ftuple.v ~st:ends_tpdu ~id:f.tid ~sn:f.t_sn () in
      let x = Ftuple.v ~st:ends_frame ~id:x_id ~sn:!x_sn () in
      let payload = Bytes.sub frame (!x_sn * f.elem_size) (take * f.elem_size) in
      (match Chunk.data ~size:f.elem_size ~c ~t:tu ~x payload with
      | Ok chunk -> chunks := chunk :: !chunks
      | Error e -> invalid_arg e);
      f.c_sn <- f.c_sn + take;
      f.t_sn <- f.t_sn + take;
      x_sn := !x_sn + take;
      if ends_tpdu then begin
        f.tid <- f.tid + 1;
        f.t_sn <- 0
      end
    done;
    if last then f.closed <- true;
    Ok (List.rev !chunks)
  end

let push_last_frame f frame = push_frame ~last:true f frame

let frames_of_stream f ~frame_bytes buffer =
  if frame_bytes < 1 then Error "Framer.frames_of_stream: frame_bytes < 1"
  else if frame_bytes mod f.elem_size <> 0 then
    (* otherwise every non-final frame would be zero-padded mid-stream *)
    Error "Framer.frames_of_stream: frame_bytes not a multiple of elem_size"
  else begin
    let total = Bytes.length buffer in
    if total = 0 then Error "Framer.frames_of_stream: empty stream"
    else begin
      let rec go off acc =
        let n = Int.min frame_bytes (total - off) in
        let frame =
          pad_frame ~elem_size:f.elem_size (Bytes.sub buffer off n)
        in
        let last = off + n >= total in
        match push_frame ~last f frame with
        | Error _ as e -> e
        | Ok cs ->
            if last then Ok (List.concat (List.rev (cs :: acc)))
            else go (off + n) (cs :: acc)
      in
      go 0 []
    end
  end
