(* Bechamel micro-benchmarks for the primitive operations: chunk split,
   merge, wire codec, WSC-2 accumulation, GF multiply, virtual
   reassembly insert, placement. *)

open Labelling
open Bechamel
open Toolkit

let chunk_fixture () =
  let c = Ftuple.v ~id:1 ~sn:0 () in
  let t = Ftuple.v ~st:true ~id:2 ~sn:0 () in
  Chunk.data ~size:4 ~c ~t ~x:c
    (Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)))
  |> Result.get_ok

let test_split =
  let chunk = chunk_fixture () in
  Test.make ~name:"fragment.split 4KiB" (Staged.stage (fun () ->
      ignore (Fragment.split_exn chunk ~elems:512)))

let test_merge =
  let chunk = chunk_fixture () in
  let a, b = Fragment.split_exn chunk ~elems:512 in
  Test.make ~name:"reassemble.merge 4KiB" (Staged.stage (fun () ->
      ignore (Reassemble.merge_exn a b)))

let test_wire_encode =
  let chunk = chunk_fixture () in
  Test.make ~name:"wire.encode_chunk 4KiB" (Staged.stage (fun () ->
      let buf = Buffer.create 4200 in
      Wire.encode_chunk buf chunk;
      ignore (Buffer.length buf)))

let test_wire_decode =
  let chunk = chunk_fixture () in
  let buf = Buffer.create 4200 in
  let () = Wire.encode_chunk buf chunk in
  let image = Buffer.to_bytes buf in
  Test.make ~name:"wire.decode_chunk 4KiB" (Staged.stage (fun () ->
      ignore (Wire.decode_chunk image 0)))

let test_wsc2 =
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let acc = Wsc2.create () in
  Test.make ~name:"wsc2.add_bytes 4KiB" (Staged.stage (fun () ->
      Wsc2.reset acc;
      Wsc2.add_bytes acc ~pos:0 data 0 4096))

(* Operands and results of the field operations pass through
   [Sys.opaque_identity]: once the call is inlined, constant operands
   would fold the product away at compile time, and an unused result
   could drop the call. *)
let test_gf_mul =
  let a = Sys.opaque_identity 0xDEADBEEF in
  let b = Sys.opaque_identity 0x0BADF00D in
  Test.make ~name:"gf232.mul" (Staged.stage (fun () ->
      ignore (Sys.opaque_identity (Gf232.mul a b))))

let test_gf_ref_mul =
  let a = Sys.opaque_identity 0xDEADBEEF in
  let b = Sys.opaque_identity 0x0BADF00D in
  Test.make ~name:"gf232.ref_mul (bitwise)" (Staged.stage (fun () ->
      ignore (Sys.opaque_identity (Gf232.Ref.mul a b))))

let test_alpha_pow =
  let i = Sys.opaque_identity 12345 in
  Test.make ~name:"gf232.alpha_pow 12345" (Staged.stage (fun () ->
      ignore (Sys.opaque_identity (Gf232.alpha_pow i))))

let test_crc32 =
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  Test.make ~name:"crc32 4KiB (comparison)" (Staged.stage (fun () ->
      ignore (Baselines.Checksums.crc32 data)))

let test_xpos =
  let key = Cipher.Feistel.key_of_int 0xC0FFEE in
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  Test.make ~name:"xpos.encrypt 4KiB" (Staged.stage (fun () ->
      ignore (Cipher.Modes.Xpos.encrypt_at ~key ~pos:0 data)))

let test_vreassembly =
  Test.make ~name:"vreassembly 16 inserts" (Staged.stage (fun () ->
      let tr = Vreassembly.create () in
      for k = 0 to 15 do
        ignore (Vreassembly.insert tr ~sn:(k * 8) ~len:8 ~st:(k = 15))
      done))

(* Placement of 1 KiB chunks (256 four-byte elements) into a 256 KiB
   destination, in [order]; an op places [per_op] chunks.  A full
   destination is replaced by a fresh one, so every placement writes
   unoccupied elements; that allocation (256 KiB per 256 chunks) is in
   the figure. *)
let placement_test ~name ~order ~per_op =
  let elems = 256 and slots = 256 in
  let views =
    Array.init slots (fun k ->
        let c = Ftuple.v ~id:1 ~sn:(k * elems) () in
        let t = Ftuple.v ~id:(k / 4) ~sn:0 () in
        Chunk.data ~size:4 ~c ~t ~x:c
          (Bytes.init (elems * 4) (fun i -> Char.chr ((k + i) land 0xFF)))
        |> Result.get_ok |> Chunk.view)
  in
  let fresh () =
    Placement.create ~level:Placement.Conn ~base_sn:0
      ~capacity_elems:(slots * elems) ~elem_size:4
  in
  let p = ref (fresh ()) and next = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
      for _ = 1 to per_op do
        if !next = slots then begin
          p := fresh ();
          next := 0
        end;
        ignore (Placement.place_view !p views.(order.(!next)));
        incr next
      done))

let test_place_in_order =
  placement_test ~name:"placement.place_view 1KiB in order"
    ~order:(Array.init 256 Fun.id) ~per_op:1

(* each window of four chunks arrives as 2, 0, 3, 1 *)
let test_place_shuffled =
  placement_test ~name:"placement.place_view 4 shuffled chunks"
    ~order:(Array.init 256 (fun i -> (i land lnot 3) + [| 2; 0; 3; 1 |].(i land 3)))
    ~per_op:4

let test_any_locked =
  let p =
    Placement.create ~level:Placement.Conn ~base_sn:0 ~capacity_elems:1024
      ~elem_size:4
  in
  Placement.lock_span p ~sn:600 ~len:8;
  Test.make ~name:"placement.any_locked 512 elems" (Staged.stage (fun () ->
      ignore (Placement.any_locked p ~sn:64 ~len:512)))

(* The receive path's flat T.ID map against the hashed table it
   replaced there, holding [n] sequential T.IDs: a hit, and a new key
   bound and removed again, so the table keeps its size. *)
let map_tests n =
  let keys = Array.init n (fun i -> 1000 + i) in
  let flat = Int_map.create ~absent:(-1) n and hashed = Int_table.create 32 in
  Array.iter
    (fun k ->
      Int_map.replace flat k k;
      Int_table.replace hashed k k)
    keys;
  let i = ref 0 in
  let next () =
    i := (!i + 1) land (n - 1);
    keys.(!i)
  in
  [
    Test.make ~name:(Printf.sprintf "int_map.find %d keys" n)
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Int_map.find flat (next ())))));
    Test.make ~name:(Printf.sprintf "int_table.find %d keys" n)
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Int_table.find_opt hashed (next ())))));
    Test.make ~name:(Printf.sprintf "int_map.add+remove %d keys" n)
      (Staged.stage (fun () ->
           let k = next () + n in
           Int_map.replace flat k k;
           Int_map.remove flat k));
    Test.make ~name:(Printf.sprintf "int_table.add+remove %d keys" n)
      (Staged.stage (fun () ->
           let k = next () + n in
           Int_table.add hashed k k;
           Int_table.remove hashed k));
  ]

(* A passed TPDU's placed runs merged into its spans, as the receiver
   merges them: four runs credited out of order. *)
let test_placed_spans =
  let rows = Int_rows.create ~width:2 in
  Test.make ~name:"placed spans of 4 shuffled runs" (Staged.stage (fun () ->
      Int_rows.clear rows ~width:2;
      Array.iter (fun k -> Int_rows.push2 rows (k * 64) 64) [| 2; 0; 3; 1 |];
      Int_rows.coalesce rows ~limit:1024))

let grouped =
  Test.make_grouped ~name:"micro"
    ([
       test_split; test_merge; test_wire_encode; test_wire_decode; test_wsc2;
       test_gf_mul; test_gf_ref_mul; test_alpha_pow; test_crc32; test_xpos;
       test_vreassembly; test_place_in_order; test_place_shuffled;
       test_any_locked; test_placed_spans;
     ]
    @ map_tests 8 @ map_tests 512)

(* What a minor collection costs the receive path: a [Multi] fed the
   shuffled stream of the allocation test (four connections of 2 KiB
   TPDUs at 1500 B MTU, each window of four TPDU rounds shuffled, every
   tenth packet of a window re-offered), with a collection forced after
   every 32 packets.  The words each collection promotes per packet and
   its mean time are what a batch that meets a collection pays over one
   that does not: the service-time tail. *)
let survivors () =
  let module CT = Transport.Chunk_transport in
  let module M = Transport.Multi in
  let get = function Ok x -> x | Error e -> failwith e in
  let config = CT.default_config and conns = 4 and tpdus = 32 and warm = 8 in
  let es = config.CT.elem_size and fb = config.CT.frame_bytes in
  (* TPDU [k] of connection [conn], sealed and packed on its own *)
  let tpdu fr conn k =
    let data =
      Bytes.init (config.CT.tpdu_elems * es) (fun i ->
          Char.chr (((conn * 7) + (k * 13) + i) land 0xFF))
    in
    List.init (Bytes.length data / fb) (fun i -> Bytes.sub data (i * fb) fb)
    |> List.concat_map (fun f -> get (Framer.push_frame fr f))
    |> Edc.Encoder.seal_tpdus |> get
    |> Packet.pack ~mtu:config.CT.mtu |> get
    |> List.map Packet.encode_unpadded
  in
  let per_conn =
    Array.init conns (fun c ->
        let fr =
          Framer.create ~elem_size:es ~tpdu_elems:config.CT.tpdu_elems
            ~conn_id:(c + 1) ()
        in
        Array.init tpdus (tpdu fr (c + 1)))
  in
  let rng = Netsim.Rng.create ~seed:7 in
  let window lo =
    let w =
      List.concat_map
        (fun k ->
          List.concat_map (fun c -> per_conn.(c).(k)) (List.init conns Fun.id))
        (List.init 4 (fun i -> lo + i))
    in
    let a = Array.of_list (w @ List.filteri (fun i _ -> i mod 10 = 0) w) in
    for i = Array.length a - 1 downto 1 do
      let j = Netsim.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let stream lo hi =
    Array.concat (List.init ((hi - lo) / 4) (fun i -> window (lo + (4 * i))))
  in
  let m =
    M.create (Netsim.Engine.create ~seed:1 ()) ~config
      ~quota_elems:(tpdus * config.CT.tpdu_elems) ~max_conns:conns
      ~send_ack:(fun _ -> ()) ()
  in
  for conn = 1 to conns do
    M.ingest m
      (get
         (Wire.encode_packet
            [ Connection.signal_chunk ~conn_id:conn (Open { first_csn = 0 }) ]))
  done;
  Array.iter (M.ingest m) (stream 0 warm);
  let measured = stream warm tpdus in
  (* a finished major cycle, so the bechamel rows before leave no
     marking or sweeping for these collections' slices *)
  Gc.full_major ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let gc_s = ref 0.0 and gcs = ref 0 in
  Array.iteri
    (fun i b ->
      M.ingest m b;
      if (i + 1) mod 32 = 0 then begin
        let t0 = Unix.gettimeofday () in
        Gc.minor ();
        gc_s := !gc_s +. (Unix.gettimeofday () -. t0);
        incr gcs
      end)
    measured;
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let promoted = (p1 -. p0) /. float_of_int (Array.length measured) in
  let gc_ns = !gc_s /. float_of_int (max 1 !gcs) *. 1e9 in
  Printf.printf "  %-42s %14.2f\n" "receive: promoted words/pkt (shuffled)"
    promoted;
  Printf.printf "  %-42s %14.1f\n" "receive: forced minor GC ns (shuffled)"
    gc_ns;
  Util_bench.Metrics.record ~exp:"MICRO" "receive promoted words/pkt" promoted;
  Util_bench.Metrics.record ~exp:"MICRO" "receive forced minor GC ns" gc_ns

let run () =
  Printf.printf "\n=== MICRO === primitive-operation timings (bechamel, \
                 ns/op)\n%!";
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (e :: _) ->
          Printf.printf "  %-42s %14.1f\n" name e;
          Util_bench.Metrics.record ~exp:"MICRO" (name ^ " ns/op") e;
          (* byte-rate of the 4 KiB kernels, for the perf trajectory *)
          if e > 0. && String.length name >= 4
             && String.sub name (String.length name - 4) 4 = "4KiB"
          then
            Util_bench.Metrics.record ~exp:"MICRO" (name ^ " MB/s")
              (4096. /. e *. 1e3)
      | Some [] | None -> Printf.printf "  %-42s %14s\n" name "n/a")
    rows;
  survivors ()
