type view = { header : Header.t; src : bytes; off : int }

type t = { header : Header.t; payload : bytes }

let make h payload =
  let expect = Header.payload_bytes h in
  if Bytes.length payload <> expect then
    Error
      (Printf.sprintf "Chunk.make: payload is %d bytes, header announces %d"
         (Bytes.length payload) expect)
  else Ok { header = h; payload }

let make_exn h payload =
  match make h payload with
  | Ok c -> c
  | Error e -> invalid_arg e

let data ~size ~c ~t ~x payload =
  let n = Bytes.length payload in
  if size < 1 then Error "Chunk.data: size must be >= 1"
  else if n = 0 then Error "Chunk.data: empty payload"
  else if n mod size <> 0 then
    Error "Chunk.data: payload not a multiple of element size"
  else
    match Header.v ~ctype:Ctype.data ~size ~len:(n / size) ~c ~t ~x with
    | Error _ as e -> e
    | Ok h -> make h payload

let control ~kind ~c ~t ~x payload =
  if Ctype.is_data kind then Error "Chunk.control: kind must be a control type"
  else if Bytes.length payload = 0 then Error "Chunk.control: empty payload"
  else
    match
      Header.v ~ctype:kind ~size:1 ~len:(Bytes.length payload) ~c ~t ~x
    with
    | Error _ as e -> e
    | Ok h -> make h payload

let terminator = { header = Header.terminator; payload = Bytes.empty }

let is_terminator c = Header.is_terminator c.header
let is_data c = Ctype.is_data c.header.Header.ctype && not (is_terminator c)
let is_control c = Ctype.is_control c.header.Header.ctype

let elements c =
  if is_control c then 1 else c.header.Header.len

let payload_bytes c = Bytes.length c.payload

let element c k =
  if not (is_data c) then invalid_arg "Chunk.element: not a data chunk";
  let size = c.header.Header.size in
  if k < 0 || k >= c.header.Header.len then
    invalid_arg "Chunk.element: index out of range";
  Bytes.sub c.payload (k * size) size

let last_t_sn c =
  if is_terminator c then invalid_arg "Chunk.last_t_sn: terminator";
  let len = if is_control c then 1 else c.header.Header.len in
  c.header.Header.t.Ftuple.sn + len - 1

let view c = { header = c.header; src = c.payload; off = 0 }

let view_payload_bytes (v : view) = Header.payload_bytes v.header

let of_view (v : view) =
  { header = v.header; payload = Bytes.sub v.src v.off (view_payload_bytes v) }

let view_is_data (v : view) =
  Ctype.is_data v.header.Header.ctype && not (Header.is_terminator v.header)

let equal a b = Header.equal a.header b.header && Bytes.equal a.payload b.payload

let pp fmt c =
  Format.fprintf fmt "@[<h>%a |%d bytes|@]" Header.pp c.header
    (Bytes.length c.payload)
