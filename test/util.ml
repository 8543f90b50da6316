(* Shared helpers and QCheck generators for the test suite. *)

open Labelling

let bytes_testable =
  Alcotest.testable
    (fun fmt b -> Format.fprintf fmt "%S" (Bytes.to_string b))
    Bytes.equal

let chunk_testable = Alcotest.testable Chunk.pp Chunk.equal

let verdict_testable =
  Alcotest.testable Edc.Verifier.pp_verdict Edc.Verifier.verdict_equal

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let deterministic_bytes n =
  Bytes.init n (fun i -> Char.chr ((i * 131 + (i lsr 8) * 7 + 5) land 0xFF))

(* --- generators --- *)

let gen_small_id = QCheck2.Gen.int_range 0 0xFFFF
let gen_sn = QCheck2.Gen.int_range 0 100_000

let gen_ftuple =
  QCheck2.Gen.map3
    (fun id sn st -> Ftuple.v ~st ~id ~sn ())
    gen_small_id gen_sn QCheck2.Gen.bool

(* A random well-formed data chunk: size in 4..16 (multiple of 4), len in
   1..40, payload deterministic from a seed byte. *)
let gen_data_chunk =
  let open QCheck2.Gen in
  let* size = map (fun k -> 4 * (1 + k)) (int_range 0 3) in
  let* len = int_range 1 40 in
  let* c = gen_ftuple in
  let* t = gen_ftuple in
  let* x = gen_ftuple in
  let* seed = int_range 0 255 in
  let payload =
    Bytes.init (size * len) (fun i -> Char.chr ((seed + (i * 17)) land 0xFF))
  in
  return
    (match Chunk.data ~size ~c ~t ~x payload with
    | Ok ch -> ch
    | Error e -> invalid_arg e)

(* A framed stream: returns (original stream bytes, chunks).  Frame and
   TPDU geometry varies; elem size 4. *)
let gen_framed_stream =
  let open QCheck2.Gen in
  let* tpdu_elems = int_range 4 40 in
  let* nframes = int_range 1 6 in
  let* frame_elems = list_repeat nframes (int_range 1 30) in
  let* conn_id = gen_small_id in
  let* seed = int_range 0 255 in
  let framer = Framer.create ~elem_size:4 ~tpdu_elems ~conn_id () in
  let bufs =
    List.map
      (fun n ->
        Bytes.init (n * 4) (fun i -> Char.chr ((seed + (i * 29)) land 0xFF)))
      frame_elems
  in
  let rec push acc = function
    | [] -> List.concat (List.rev acc)
    | [ last ] -> (
        match Framer.push_frame ~last:true framer last with
        | Ok cs -> List.concat (List.rev (cs :: acc))
        | Error e -> invalid_arg e)
    | frame :: rest -> (
        match Framer.push_frame framer frame with
        | Ok cs -> push (cs :: acc) rest
        | Error e -> invalid_arg e)
  in
  let chunks = push [] bufs in
  return (Bytes.concat Bytes.empty bufs, chunks)

(* Random recursive fragmentation of a chunk list: each chunk is split
   into pieces at random element boundaries, recursively. *)
let rec random_splits rand chunk =
  let len = chunk.Chunk.header.Header.len in
  if len <= 1 || not (Chunk.is_data chunk) then [ chunk ]
  else if QCheck2.Gen.generate1 ~rand QCheck2.Gen.bool then [ chunk ]
  else begin
    let at = 1 + QCheck2.Gen.generate1 ~rand (QCheck2.Gen.int_bound (len - 2)) in
    let a, b =
      match Fragment.split chunk ~elems:at with
      | Ok pair -> pair
      | Error e -> invalid_arg e
    in
    random_splits rand a @ random_splits rand b
  end

let fragment_randomly ~seed chunks =
  let rand = Random.State.make [| seed |] in
  List.concat_map (random_splits rand) chunks

(* Sort [(sn, len)] element spans by [sn] and fuse overlapping or
   adjacent ones, dropping empty spans: the list model of a verified
   cover. *)
let coalesce_spans spans =
  let rec go acc = function
    | [] -> List.rev acc
    | (s, l) :: rest -> (
        match acc with
        | (s0, l0) :: acc' when s <= s0 + l0 ->
            go ((s0, Int.max l0 (s + l - s0)) :: acc') rest
        | _ -> go ((s, l) :: acc) rest)
  in
  List.filter (fun (_, l) -> l > 0) spans
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> go []

let shuffle ~seed list =
  let rand = Random.State.make [| seed |] in
  let arr = Array.of_list list in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Concatenated payloads of data chunks in C.SN order — the stream a
   receiver should reconstruct. *)
let stream_of_chunks chunks =
  chunks
  |> List.filter Chunk.is_data
  |> List.sort (fun a b ->
         Int.compare a.Chunk.header.Header.c.Ftuple.sn
           b.Chunk.header.Header.c.Ftuple.sn)
  |> List.map (fun c -> c.Chunk.payload)
  |> Bytes.concat Bytes.empty

(* Property tests run under one seed chosen per process, printed once so
   a CI failure is reproducible locally: re-run with QCHECK_SEED=<n>. *)
let qcheck_seed =
  lazy
    (let seed =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some s when int_of_string_opt s <> None -> int_of_string s
       | Some _ | None ->
           Random.self_init ();
           Random.bits ()
     in
     Printf.eprintf "qcheck seed = %d (set QCHECK_SEED to reproduce)\n%!" seed;
     seed)

let qtest ?(count = 100) ?print name gen prop =
  let rand = Random.State.make [| Lazy.force qcheck_seed |] in
  QCheck_alcotest.to_alcotest ~rand
    (QCheck2.Test.make ~count ?print ~name gen prop)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- one-connection endpoints --- *)

(* A one-connection [Multi] endpoint whose connection [config.conn_id]
   is already open at C.SN 0: the endpoint a test that feeds one
   connection's packets by hand drives. *)
let one_conn ?persist engine (config : Transport.Chunk_transport.config)
    ~quota_elems =
  let m =
    Transport.Multi.create engine ~config ~quota_elems ~max_conns:1 ?persist
      ~send_ack:ignore ()
  in
  Transport.Multi.ingest m
    (ok_or_fail
       (Wire.encode_packet
          [
            Connection.signal_chunk ~conn_id:config.conn_id
              (Connection.Open { first_csn = 0 });
          ]));
  m

(* The one epoch of connection [conn_id] on [m]. *)
let only_epoch m ~conn_id =
  match Transport.Multi.epochs m ~conn_id with
  | [ e ] -> e
  | es -> Alcotest.failf "expected one epoch, got %d" (List.length es)
