(* Crash-recovery persistence: the snapshot codec is a fixpoint, journal
   replay through the endpoint rebuilds the canonical compacted journal,
   torn journal tails are dropped cleanly, a snapshot restores what the
   journal alone restores — and, the property that matters, an endpoint
   restored from its own snapshot is behaviourally indistinguishable
   from the live endpoint it was taken from under any identical packet
   suffix. *)

module CT = Transport.Chunk_transport
module Persist = Transport.Persist

let config =
  {
    CT.default_config with
    CT.elem_size = 4;
    tpdu_elems = 16;
    frame_bytes = 64;
    window = 4;
    rto = 0.02;
  }

(* Run a live transfer and record every packet that reached the endpoint
   door, in arrival order.  [drop_k] > 0 drops every k-th forward packet
   before it is recorded, so the recorded stream also contains the
   timeout retransmissions and duplicates the repair machinery produced
   — exactly the traffic a restored endpoint must absorb. *)
(* A hop of the test network: a copy of the packet arrives 0.1 ms
   later. *)
let hop engine deliver b =
  let b = Bytes.copy b in
  Netsim.Engine.schedule engine ~delay:1e-4 (fun () -> deliver b)

let record_door_packets ~seed ~data_len ~drop_k =
  let engine = Netsim.Engine.create ~seed () in
  let recorded = ref [] and count = ref 0 in
  let expected = CT.expected_elements config ~data_len in
  let forward deliver b =
    incr count;
    if not (drop_k > 0 && !count mod drop_k = 0) then
      hop engine
        (fun b ->
          recorded := b :: !recorded;
          deliver b)
        b
  in
  ignore
    (Transport.Transfer.connect engine config ~quota_elems:expected ~forward
       ~reverse:(hop engine)
       (`Data (Util.deterministic_bytes data_len)));
  Netsim.Engine.run engine;
  (List.rev !recorded, expected)

(* An endpoint for the recorded stream's one connection. *)
let endpoint engine ~quota_elems ~send_ack =
  Transport.Multi.create engine ~config ~quota_elems ~max_conns:1 ~send_ack ()

(* Split the recorded stream at [cut], snapshot a live endpoint there,
   push the snapshot through the binary codec, restore a second endpoint
   from the decoded image, then feed the identical tail to both.  Every
   observable — the epochs' delivered bytes, completion, placed elements
   and passes, the ACK packets emitted after the cut, and the full
   recoverable state, ACK ledger included — must agree. *)
let restore_equivalent ~seed ~data_len ~drop_k ~cut_pct =
  let packets, expected = record_door_packets ~seed ~data_len ~drop_k in
  let cut = List.length packets * cut_pct / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) packets in
  let tail = List.filteri (fun i _ -> i >= cut) packets in
  let engine = Netsim.Engine.create ~seed:1 () in
  let acks_a = ref [] and acks_b = ref [] in
  let a =
    endpoint engine ~quota_elems:expected ~send_ack:(fun p ->
        acks_a := Bytes.copy p :: !acks_a)
  in
  List.iter (Transport.Multi.ingest a) prefix;
  let img = Persist.Multi (Transport.Multi.export a) in
  match Persist.decode_endpoint (Persist.encode_endpoint img) with
  | Error _ -> false
  | Ok (Persist.Multi events) ->
      let b =
        Transport.Multi.restore engine ~config ~quota_elems:expected
          ~max_conns:1
          ~send_ack:(fun p -> acks_b := Bytes.copy p :: !acks_b)
          events
      in
      (* only the post-cut ACK streams are comparable: the prefix ACKs
         left before the snapshot was taken *)
      acks_a := [];
      List.iter (Transport.Multi.ingest a) tail;
      List.iter (Transport.Multi.ingest b) tail;
      let epochs m = Transport.Multi.epochs m ~conn_id:config.CT.conn_id in
      epochs a = epochs b
      && Transport.Multi.export a = Transport.Multi.export b
      && List.rev !acks_a = List.rev !acks_b

let gen_equiv_case =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* data_len = int_range 256 4_000 in
    let* drop_k = oneofl [ 0; 0; 3; 5 ] in
    let* cut_pct = int_range 0 100 in
    return (seed, data_len, drop_k, cut_pct))

let prop_restore_equivalent (seed, data_len, drop_k, cut_pct) =
  restore_equivalent ~seed ~data_len ~drop_k ~cut_pct

(* Mid-transfer snapshots, taken with TPDUs half received and some
   repaired: the codec must reproduce them exactly, not just the easy
   all-verified ones. *)
let prop_codec_fixpoint (seed, data_len, cut_pct) =
  let packets, expected = record_door_packets ~seed ~data_len ~drop_k:3 in
  let cut = List.length packets * cut_pct / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) packets in
  let m =
    endpoint (Netsim.Engine.create ~seed:1 ()) ~quota_elems:expected
      ~send_ack:ignore
  in
  List.iter (Transport.Multi.ingest m) prefix;
  let img = Persist.Multi (Transport.Multi.export m) in
  Persist.decode_endpoint (Persist.encode_endpoint img) = Ok img

(* Regression: the float codec used to bounce the IEEE bits through a
   63-bit OCaml int, so any persisted float with magnitude >= 2.0 came
   back sign-flipped (the quarantine deadline was the first field big
   enough to hit it).  Round-trip floats across the whole range through
   a [Quarantined] record's deadline, the only float an endpoint
   snapshot carries. *)
let prop_float_roundtrip v =
  let img =
    Persist.Multi
      [ Persist.Quarantined { conn = 1; until = v; count = 0; poisoned = false } ]
  in
  Persist.decode_endpoint (Persist.encode_endpoint img) = Ok img

let run_at sn s = Persist.owned_run sn (Bytes.of_string s)

(* The compacted journal an endpoint exports once [Multi.restore] has
   rebuilt it from [snapshot]'s records and replayed [journal] after
   them. *)
let recovered ?(snapshot = []) ?(config = config) ~quota_elems journal =
  Transport.Multi.export
    (Transport.Multi.restore (Netsim.Engine.create ()) ~config ~quota_elems
       ~max_conns:16 ~send_ack:ignore (snapshot @ journal))

(* What [Store.recover] and [Multi.restore] rebuild from [store]. *)
let recover_store ?config ~quota_elems store =
  match Persist.Store.recover store with
  | Error e -> Alcotest.failf "recover failed: %s" e
  | Ok (events, torn) -> (recovered ?config ~quota_elems events, torn)

(* Connection [id]'s records in an export. *)
let records_of evs id = List.filter (fun ev -> Persist.event_conn ev = id) evs

(* Connection [id]'s ACK ledger in an export, ascending. *)
let ledger_of evs id =
  List.concat_map
    (function
      | Persist.Ledger { tids; _ } ->
          List.concat_map (fun (first, n) -> List.init n (( + ) first)) tids
      | _ -> [])
    (records_of evs id)

(* What an export says of connection [id]'s live epoch: its verified
   runs, end confirmation and pass count. *)
type live = { runs : (int * string) list; end_confirmed : int option; passes : int }

(* The live epoch's records are those after the connection's last
   [Archived], and they end in its [Passes]. *)
let live_of evs id =
  let epoch =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Persist.Archived _ -> []
        | Persist.Ledger _ | Persist.Quarantined _ -> acc
        | ev -> ev :: acc)
      [] (records_of evs id)
  in
  if not (List.exists (function Persist.Passes _ -> true | _ -> false) epoch)
  then Alcotest.failf "connection %d has no live epoch" id;
  List.fold_left
    (fun l ev ->
      match ev with
      | Persist.Acked { runs; end_confirmed; _ } ->
          let run r =
            let sn, b = Persist.run_bytes r in
            (sn, Bytes.to_string b)
          in
          { l with runs = List.map run runs; end_confirmed }
      | Persist.Passes { passes; _ } -> { l with passes }
      | _ -> l)
    { runs = []; end_confirmed = None; passes = 0 }
    (List.rev epoch)

(* The verified cover of a live epoch: its runs' spans, in elements of
   [es] bytes. *)
let cover ?(es = config.CT.elem_size) l =
  List.map (fun (sn, b) -> (sn, String.length b / es)) l.runs

let test_journal_replay () =
  (* two ACK records, out of order and with a gap: replay must produce
     the canonical compacted journal — sorted ledger, coalesced runs,
     the verified cover exactly the acknowledged spans, end confirmed
     by either record *)
  let events =
    [
      Persist.Acked
        { conn = 7; t_id = 3; end_confirmed = None;
          runs = [ run_at 4 "efghijkl" ]; parity = None };
      Persist.Acked
        {
          conn = 7;
          t_id = 1;
          end_confirmed = Some 5;
          runs = [ run_at 0 "abcdABCDwxyzWXYZ" ];
          parity = None;
        };
      (* another connection: must be filed apart, not misfiled *)
      Persist.Acked
        { conn = 9; t_id = 2; end_confirmed = None;
          runs = [ run_at 0 "XXXXYYYY" ]; parity = None };
    ]
  in
  let img = recovered ~quota_elems:16 events in
  let l = live_of img 7 in
  Alcotest.(check (list int)) "ledger sorted" [ 1; 3 ] (ledger_of img 7);
  Alcotest.(check int) "passes counted" 2 l.passes;
  Alcotest.(check (option int)) "end confirmed" (Some 5) l.end_confirmed;
  Alcotest.(check (list (pair int int)))
    "verified cover coalesced" [ (0, 6) ] (cover l);
  Alcotest.(check (list (pair int string)))
    "placed bytes fused" [ (0, "abcdABCDwxyzWXYZefghijkl") ] l.runs;
  Alcotest.(check (list int)) "the other connection's ledger" [ 2 ]
    (ledger_of img 9);
  Alcotest.(check bool) "the compacted journal restores to itself" true
    (recovered ~quota_elems:16 img = img)

let test_store_torn_tail () =
  (* write-ahead store: snapshot + two journal records, then a flipped
     bit in the last record.  Recovery must keep the snapshot and the
     first record, drop the torn tail, and say so. *)
  let base = Persist.Multi [] in
  let store = Persist.Store.create () in
  Persist.Store.snapshot store base;
  Persist.Store.append store
    (Persist.Acked
       { conn = 7; t_id = 1; end_confirmed = None;
         runs = [ run_at 0 "abcdabcd" ]; parity = None });
  Persist.Store.append store
    (Persist.Acked
       { conn = 7; t_id = 2; end_confirmed = None;
         runs = [ run_at 2 "efghefgh" ]; parity = None });
  Persist.Store.corrupt_tail store;
  let img, torn = recover_store ~quota_elems:16 store in
  Alcotest.(check bool) "tail reported torn" true torn;
  Alcotest.(check (list int)) "first record kept, torn one dropped"
    [ 1 ] (ledger_of img 7)

(* The journal golden events: an ACK with two runs, an Open and a
   Close. *)
let golden_events =
  [
    Persist.Acked
      {
        conn = 7;
        t_id = 3;
        end_confirmed = Some 11;
        runs = [ run_at 0 "abcdABCD"; run_at 4 "efgh" ];
        parity = None;
      };
    Persist.Opened { conn = 9; open_csn = Some 4096 };
    Persist.Closed 9;
  ]

(* [golden_events] as version 2 wrote them, with the ACK's run bytes
   under its record checksum (tag 16).  Writers no longer emit tag 16,
   but these bytes must still decode and recover. *)
let golden_journal_v2_hex =
  "0000004d100000000000000007000000000000000301000000000000000b00000000000000\
   02000000000000000000000000000000086162636441424344000000000000000400000000\
   000000046566676853484546a6f3130800000011110000000000000009010000000000001000\
   080100003504008d000000081300000000000000091a00000037000000"

(* [golden_events] as journals wrote them before the labels-only record
   and as snapshots still frame them: the ACK is a tag-20 record whose
   header carries each run's C.SN, length and first position and the
   runs' parity, with the run bytes after it.  Journals no longer emit
   it, but these bytes must still decode and recover, and any change to
   them is a snapshot format change. *)
let golden_journal_hex =
  "00000059140000000000000007000000000000000301000000000000000b00000000000000\
   02000000000000000000000000000000080000000000000000000000000000000400000000\
   00000004000000000000000245464748767f78c12f8b333928c7c876616263644142434465\
   66676800000011110000000000000009010000000000001000080100003504008d00000008\
   1300000000000000091a00000037000000"

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let of_hex h =
  Bytes.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* What [golden_events] recover to from an empty endpoint. *)
let check_golden_recovery (img, torn) =
  Alcotest.(check bool) "not torn" false torn;
  Alcotest.(check (list int)) "two connections" [ 7; 9 ]
    (List.sort_uniq Int.compare (List.map Persist.event_conn img));
  Alcotest.(check (list int)) "ledger" [ 3 ] (ledger_of img 7);
  let l = live_of img 7 in
  Alcotest.(check (list (pair int string)))
    "placed runs" [ (0, "abcdABCD"); (4, "efgh") ] l.runs;
  Alcotest.(check (list (pair int int))) "verified" [ (0, 2); (4, 1) ] (cover l);
  Alcotest.(check (option int)) "end" (Some 11) l.end_confirmed;
  (* the Close archived an epoch that never verified, which the gate
     drops: what is left of it is its Open watermark, exported as that
     epoch opened and archived with no pass *)
  Alcotest.(check bool) "closed connection keeps its watermark alone" true
    (records_of img 9
    = [ Persist.Opened { conn = 9; open_csn = Some 4096 };
        Persist.Archived { conn = 9; complete = false; elems = 0; passes = 0 } ])

let test_journal_v2_golden () =
  let events, torn = Persist.decode_journal (of_hex golden_journal_v2_hex) in
  Alcotest.(check bool) "records decode" true (events = golden_events);
  check_golden_recovery (recovered ~quota_elems:16 events, torn)

(* An event as a snapshot frames it: its record without the snapshot's
   header. *)
let snapshot_framed ev =
  let b = Persist.encode_endpoint (Persist.Multi [ ev ]) in
  Bytes.sub b 10 (Bytes.length b - 10)

let test_tag20_golden () =
  let journal = of_hex golden_journal_hex in
  let events, torn = Persist.decode_journal journal in
  Alcotest.(check bool) "records decode" true (events = golden_events);
  Alcotest.(check string) "snapshots frame the records so" golden_journal_hex
    (hex (Bytes.concat Bytes.empty (List.map snapshot_framed golden_events)));
  check_golden_recovery (recovered ~quota_elems:16 events, torn)

(* [golden_events] as [Store.append] writes them: the ACK is a
   labels-only record (tag 26) naming each run's region, C.SN, offset
   and length, then the runs' parity; its two runs are two buffers, so
   two regions.  Any change to these bytes is a journal format
   change. *)
let golden_labels_hex =
  "000000151a0e06011604000000100208000845464748767f78c1339b37305aa3461e0000\
   0011110000000000000009010000000000001000080100003504008d0000000813000000\
   00000000091a00000037000000"

let test_labels_golden () =
  let journal_of events =
    let store = Persist.Store.create () in
    List.iter (Persist.Store.append store) events;
    store
  in
  let store = journal_of golden_events in
  let journal = Persist.Store.journal store in
  Alcotest.(check string) "journal bytes" golden_labels_hex (hex journal);
  Alcotest.(check int) "journal length" (Bytes.length journal)
    (Persist.Store.journal_bytes store);
  let ack_bytes = 13 + Int32.to_int (Bytes.get_int32_be journal 0) in
  if ack_bytes > 64 then Alcotest.failf "a two-run ACK journals %d bytes" ack_bytes;
  Alcotest.(check bool) "records decode back, as views of their regions" true
    (Persist.Store.decode_journal store journal = (golden_events, false));
  Alcotest.(check bool) "no region outside the store" true
    (Persist.decode_journal journal = ([], true));
  (* a parity the writer vouches for is the one it would compute: the
     runs laid out back to back from position 0 *)
  let vouched =
    List.map
      (function
        | Persist.Acked a ->
            Persist.Acked
              { a with
                parity = Some (Wsc2.encode_bytes ~pos:0 (Bytes.of_string "abcdABCDefgh"))
              }
        | ev -> ev)
      golden_events
  in
  Alcotest.(check string) "vouched parity writes the same bytes" golden_labels_hex
    (hex (Persist.Store.journal (journal_of vouched)));
  check_golden_recovery (recover_store ~quota_elems:16 store)

(* The snapshot format pinned the same way: a snapshot that holds every
   record kind, every field set to a value that tells it apart from its
   neighbours; the retired sender image is pinned as refused below.  Any change to these bytes is a format change and must
   bump [Persist.version]. *)
let golden_multi =
  Persist.Multi
    [
      Persist.Ledger { conn = 3; tids = [ (0, 2); (5, 1) ] };
      Persist.Acked
        { conn = 3; t_id = 0; end_confirmed = None;
          runs = [ run_at 0 "abcd" ]; parity = None };
      Persist.Shed { conn = 3; t_id = 0; first_elem = 1; elems = 2 };
      Persist.Opened { conn = 3; open_csn = Some 0 };
      Persist.Archived { conn = 3; complete = true; elems = 1; passes = 2 };
      Persist.Acked
        { conn = 3; t_id = 5; end_confirmed = Some 11;
          runs = [ run_at 16 "abcdefgh" ]; parity = None };
      Persist.Shed { conn = 3; t_id = 9; first_elem = 24; elems = 8 };
      Persist.Opened { conn = 3; open_csn = Some 16 };
      Persist.Passes { conn = 3; passes = 2 };
      Persist.Quarantined { conn = 3; until = 3.5; count = 2; poisoned = true };
      Persist.Closed 9;
    ]

let golden_multi_hex =
  "43534e5000060000000b000000301800000000000000030000000000000002000000000000\
   00000000000000000002000000000000000500000000000000011f0000003400032e000000\
   39140000000000000003000000000000000000000000000000000100000000000000000000\
   00000000000400000000000000006162636461626364170500008270d94961626364000000\
   20150000000000000003000000000000000000000000000000010000000000000002150000\
   005900011a00000011110000000000000003010000000000000000120100001d0400000000\
   00191600000000000000030100000000000000010000000000000002150200001a94000000\
   000041140000000000000003000000000000000501000000000000000b0000000000000001\
   0000000000000010000000000000000800000000000000000404040cabaeadb4bbabafaadf\
   56b5ea61626364656667680000002015000000000000000300000000000000090000000000\
   00001800000000000000080f00000089000746000000111100000000000000030100000000\
   00000010121100001c04000000000010170000000000000003000000000000000216000000\
   3b00000000000019190000000000000003400c00000000000000000000000000020118410c\
   0094403000000000081300000000000000091a00000037000000"

(* A standalone-receiver image (tag 0) as the retired format wrote it:
   nothing writes tag 0 now, and a decoder must refuse it, not raise,
   even with its version field rewritten to the current one (the record
   checksum does not cover it). *)
let retired_single_hex =
  "43534e50000500000207000000000000000002000000000000000100000000000000020000\
   00000000000700000000000000010000000000000000000000000000000861626364656667\
   6800000000000000010000000000000000000000000000000201000000000000000b000000\
   00000000010000000000000005000000000000000b00000000000000010000000000000002\
   3fd00000000000000000000000000002000000000000000100000000000000050102030405\
   06070800000000000000020000000000000000000000000000000400000000000000080000\
   00000000000201000000000000000c00000000000000010000000000000004000000000000\
   00010000000000000001000000000000006401000000000000002801000000000000000701\
   00000000000000040001a0b0c0d00e0f1011010000000000000009782d6672616d696e6700\
   00000000000002000000000000000000000000000000040000000000000001000000000000\
   00000000000000000008000000000000000200000000000000010000000000000008000000\
   00000000010000000000000006010000000000000030000000000000000000010000000000\
   000003706b7400000000000000000000000000000002000000000000000100000000000000\
   30000000000000000200000000000000010000000000000010000000000000000800000000\
   000000010000000000000009bab39962c73b659e"

(* Version 5's conn-image snapshot of a connection like [golden_multi]'s
   (ledger, one archived epoch, a live epoch with a shed, containment)
   and version 4's, which also held in-flight verifier and
   corroboration state: a version-6 decoder refuses both. *)
let golden_multi_v5_hex =
  "43534e500005000000f5010000000000000002000000000000000300000000000000010000\
   00000000000000000000000000010000000000000004616263640101000000000000000000\
   00000000000001000000000000000201000000000000000300000000000000010000000000\
   0000000000000000000008616263646566676801000000000000000b000000000000000200\
   00000000000001000000000000001000000000000000080000000000000001000000000000\
   0009010000000000000010400c000000000000000000000000000201000000000000000900\
   000000000000000000000000000000000000000000000000000000000000000000007d772c\
   6874e97da1"

let golden_multi_v4_hex =
  "43534e5000040000019b010000000000000002000000000000000300000000000000010000\
   00000000000000000000000000010000000000000004616263640101000000000000000000\
   00000000000001000000000000000201000000000000000300000000000000010000000000\
   00000000000000000000086162636465666768000000000000000100000000000000000000\
   00000000000201000000000000000b00000000000000010000000000000005000000000000\
   000b000000000000000100000000000000023fd00000000000000000000000000002000000\
   00000000000000000000000001000000000000000601000000000000003000000000000000\
   0000010000000000000003706b740000000000000000000000000000000200000000000000\
   01000000000000003000000000000000020000000000000001000000000000001000000000\
   0000000800000000000000010000000000000009010000000000000010400c000000000000\
   00000000000000020100000000000000090000000000000000000000000000000000000000\
   0000000000000000000000000000005f0de076c7ec686d"

(* A sender image (tag 2) as version 6 wrote it before the sender image
   was retired: nothing writes tag 2 now, and the endpoint decoder must
   refuse it, not raise. *)
let retired_sender_hex =
  "43534e50000600000049020000000000000001000000000000000300000000000000010000\
   0000000000020000000000000004013f8999999999999a3f689374bc6a7efa400400000000\
   00000000000000000010ea9c65161a4842b3"

let test_snapshot_goldens () =
  let check name want b =
    Alcotest.(check string) (name ^ " bytes") want (hex b)
  in
  check "multi image" golden_multi_hex (Persist.encode_endpoint golden_multi);
  let refused what hex =
    Alcotest.(check bool) (what ^ " refused") true
      (match Persist.decode_endpoint (of_hex hex) with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)
  in
  refused "version-4 image" golden_multi_v4_hex;
  refused "version-5 image" golden_multi_v5_hex;
  let retired = of_hex retired_single_hex in
  Bytes.set_uint16_be retired 4 Persist.version;
  refused "retired tag-0 image" (hex retired);
  refused "retired sender image" retired_sender_hex;
  Alcotest.(check bool) "multi decodes back" true
    (Persist.decode_endpoint (Persist.encode_endpoint golden_multi)
    = Ok golden_multi)

(* A record's payload, re-framed with a valid checksum after [extra]
   bytes are appended to it: what a longer layout's record looks like
   to this one's decoder. *)
let reframe_longer ~prefix record extra =
  match Labelling.Wire.decode_record record 0 with
  | Error e -> Alcotest.failf "record does not decode: %s" e
  | Ok (tag, payload, _) ->
      let body = Buffer.create 64 in
      Buffer.add_bytes body payload;
      Buffer.add_string body extra;
      let buf = Buffer.create 64 in
      Buffer.add_string buf prefix;
      Labelling.Wire.encode_record buf ~tag body;
      Buffer.to_bytes buf

let test_journal_longer_payload () =
  (* replay must stop at a record it cannot read whole, as it does at
     any other unparseable record, not trust a mis-read prefix of it *)
  let store = Persist.Store.create () in
  Persist.Store.append store (Persist.Closed 9);
  let longer = reframe_longer ~prefix:"" (Persist.Store.journal store) "\000\000" in
  let events, torn = Persist.decode_journal longer in
  Alcotest.(check int) "no event trusted" 0 (List.length events);
  Alcotest.(check bool) "reported as stopped early" true torn

(* Replaying k contiguous ACKs builds one fused run and allocates a
   bounded multiple of the image: each record's bytes are copied once,
   into the placement buffer, where merging the accumulated run after
   every record would allocate O(k^2) bytes. *)
let test_contiguous_replay () =
  let k = 256 and run_elems = 512 and elem_size = 4 in
  let run_bytes = run_elems * elem_size in
  let image = Util.deterministic_bytes (k * run_bytes) in
  let events =
    List.init k (fun i ->
        Persist.Acked
          {
            conn = 7;
            t_id = k - 1 - i;
            end_confirmed = None;
            runs =
              [ Persist.owned_run (i * run_elems)
                  (Bytes.sub image (i * run_bytes) run_bytes) ];
            parity = None;
          })
  in
  let before = Gc.allocated_bytes () in
  let replayed =
    recovered ~config:{ config with CT.elem_size } ~quota_elems:(k * run_elems)
      events
  in
  let allocated = Gc.allocated_bytes () -. before in
  let l = live_of replayed 7 in
  Alcotest.(check (list int)) "ledger" (List.init k Fun.id) (ledger_of replayed 7);
  Alcotest.(check int) "passes" k l.passes;
  Alcotest.(check (list (pair int int)))
    "verified cover" [ (0, k * run_elems) ] (cover ~es:elem_size l);
  (match l.runs with
  | [ (0, b) ] ->
      Alcotest.check Util.bytes_testable "one fused run" image (Bytes.of_string b)
  | runs -> Alcotest.failf "expected one fused run, got %d" (List.length runs));
  if allocated > 8.0 *. float_of_int (Bytes.length image) then
    Alcotest.failf "replay allocated %.0f bytes for a %d-byte image" allocated
      (Bytes.length image)

(* Replay is compositional: a shuffled journal of acknowledged TPDUs,
   some missing and a Close somewhere among them, must replay to the
   compacted journal that replaying it one record at a time builds, each
   one-record replay restoring the records the previous one exported —
   a snapshot taken after any record. *)
let gen_shuffled_acks =
  let open QCheck2.Gen in
  let* n = int_range 1 24 in
  let* tpdu_elems = int_range 1 6 in
  let* kept = list_repeat n (frequencyl [ (4, true); (1, false) ]) in
  let* seed = int_range 0 0xFFFF in
  let* archive_at = opt (int_range 0 n) in
  return (n, tpdu_elems, kept, seed, archive_at)

let prop_replay_merges_once (n, tpdu_elems, kept, seed, archive_at) =
  let elem_size = 4 and conn = 3 in
  let truth = Util.deterministic_bytes (n * tpdu_elems * elem_size) in
  let acked =
    List.filteri (fun t _ -> List.nth kept t) (List.init n Fun.id)
    |> List.map (fun t ->
           let sn = t * tpdu_elems in
           Persist.Acked
             {
               conn;
               t_id = t;
               end_confirmed =
                 (if t = n - 1 then Some ((n * tpdu_elems) - 1) else None);
               runs =
                 [
                   Persist.owned_run sn
                     (Bytes.sub truth (sn * elem_size) (tpdu_elems * elem_size));
                 ];
               parity = None;
             })
    |> Util.shuffle ~seed
  in
  let events =
    match archive_at with
    | None -> acked
    | Some k ->
        List.filteri (fun i _ -> i < k) acked
        @ (Persist.Closed conn :: List.filteri (fun i _ -> i >= k) acked)
  in
  let replay snapshot evs =
    recovered ~snapshot ~quota_elems:(n * tpdu_elems) evs
  in
  replay [] events = List.fold_left (fun img ev -> replay img [ ev ]) [] events

(* Journal records from borrowed run views: random ACK events whose
   several runs are views at nonzero offsets into one shared source
   buffer, as the live receiver's are into its placement buffer.  The
   journal recovers them as views of that very buffer, not copies; once
   the buffer is clobbered, replay stops at the first record with a run
   whose bytes changed. *)
let gen_view_events =
  let open QCheck2.Gen in
  let* src_len = int_range 64 4096 in
  let* seed = int in
  let src =
    Bytes.init src_len (fun i -> Char.chr ((seed + (i * 151)) land 0xFF))
  in
  let gen_view =
    let* off = int_range 1 (src_len - 1) in
    let* len = int_range 0 (min 300 (src_len - off)) in
    let* sn = int_range 0 100_000 in
    return (sn, src, off, len)
  in
  let gen_event =
    let* conn = int_range 0 9 in
    let* t_id = int_range 0 100_000 in
    let* end_confirmed = opt (int_range 0 100_000) in
    let* runs = list_size (int_range 2 5) gen_view in
    return (Persist.Acked { conn; t_id; end_confirmed; runs; parity = None })
  in
  let* events = list_size (int_range 1 6) gen_event in
  return (src, events)

let prop_view_records (src, events) =
  let st = Persist.Store.create () in
  List.iter (Persist.Store.append st) events;
  let views_kept =
    match Persist.Store.recover st with
    | Ok (evs, false) ->
        List.compare_lengths events evs = 0
        && List.for_all2
          (fun ev ev' ->
            match (ev, ev') with
            | Persist.Acked a, Persist.Acked a' ->
                a.conn = a'.conn && a.t_id = a'.t_id
                && a.end_confirmed = a'.end_confirmed
                && List.compare_lengths a.runs a'.runs = 0
                && List.for_all2
                     (fun (sn, s, off, len) (sn', s', off', len') ->
                       sn = sn' && s == s' && off = off' && len = len')
                     a.runs a'.runs
            | _ -> false)
          events evs
    | Ok (_, true) | Error _ -> false
  in
  let before = Bytes.copy src in
  Bytes.fill src 0 (Bytes.length src) '\xEE';
  let changed = function
    | Persist.Acked { runs; _ } ->
        List.exists
          (fun (_, _, off, len) ->
            not (Bytes.equal (Bytes.sub before off len) (Bytes.sub src off len)))
          runs
    | _ -> false
  in
  let rec intact = function
    | ev :: rest when not (changed ev) -> ev :: intact rest
    | _ -> []
  in
  let kept = intact events in
  views_kept
  && Persist.Store.recover st
     = Ok (kept, List.length kept < List.length events)

(* Torn writes at every journal byte.  [records] are the journal's
   records in order, each as its encoded bytes and the event it decodes
   to.  Every truncation must decode to exactly the records that end at
   or before the cut, torn exactly when the cut is off a record
   boundary; every single-byte flip (masks 0x01, 0x80, 0xFF) must decode
   to exactly the records before the damaged one, torn.  Decoding must
   never raise.  Returns the number of cases checked. *)
let sweep_torn_writes ~decode records =
  let journal = Bytes.concat Bytes.empty (List.map fst records) in
  let ends =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) (b, _) ->
              let e = off + Bytes.length b in
              (e, e :: acc))
            (0, []) records))
  in
  let events_before cut =
    List.filteri (fun i _ -> List.nth ends i <= cut) (List.map snd records)
  in
  let check what b ~want ~torn =
    match decode b with
    | exception e ->
        Alcotest.failf "%s: decode_journal raised %s" what (Printexc.to_string e)
    | events, torn' ->
        if events <> want then
          Alcotest.failf "%s: %d events decoded, %d expected" what
            (List.length events) (List.length want);
        if torn' <> torn then
          Alcotest.failf "%s: torn = %b, expected %b" what torn' torn
  in
  let n = Bytes.length journal in
  for cut = 0 to n do
    check
      (Printf.sprintf "cut at %d" cut)
      (Bytes.sub journal 0 cut) ~want:(events_before cut)
      ~torn:(not (cut = 0 || List.mem cut ends))
  done;
  List.iter
    (fun mask ->
      for i = 0 to n - 1 do
        let b = Bytes.copy journal in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask);
        (* the damaged record is the first that ends past byte [i] *)
        check
          (Printf.sprintf "byte %d xor 0x%02x" i mask)
          b ~want:(events_before i) ~torn:true
      done)
    [ 0x01; 0x80; 0xFF ];
  (n + 1) + (3 * n)

(* Each event as the bytes [Store.append] writes for it, appended to
   [st] in order. *)
let appended st events =
  List.map
    (fun ev ->
      let before = Persist.Store.journal_bytes st in
      Persist.Store.append st ev;
      let journal = Persist.Store.journal st in
      (Bytes.sub journal before (Bytes.length journal - before), ev))
    events

let test_torn_write_sweep () =
  let st = Persist.Store.create () in
  let cases =
    sweep_torn_writes ~decode:(Persist.Store.decode_journal st)
      (appended st
         [
           Persist.Opened { conn = 3; open_csn = Some 64 };
           Persist.Acked
             {
               conn = 3;
               t_id = 64;
               end_confirmed = None;
               runs = [ run_at 64 "abcdefghABCDEFGH" ];
               parity = None;
             };
           Persist.Acked
             {
               conn = 3;
               t_id = 68;
               end_confirmed = Some 71;
               runs = [ run_at 68 "ijkl"; run_at 70 "mnopqrst" ];
               parity = None;
             };
           Persist.Passes { conn = 3; passes = 2 };
           Persist.Shed { conn = 3; t_id = 66; first_elem = 72; elems = 4 };
           Persist.Archived { conn = 3; complete = true; elems = 8; passes = 2 };
           Persist.Closed 3;
           Persist.Ledger { conn = 3; tids = [ (64, 1); (68, 1) ] };
           Persist.Quarantined { conn = 3; until = 2.5; count = 1; poisoned = false };
         ])
  in
  Alcotest.(check bool) "every byte swept" true (cases > 4 * 150);
  (* the same sweep over a journal that mixes the [Acked] record
     layouts: labels-only with a vouched parity and with the parity the
     store computes, a snapshot's tag 20, and version 2's tag 16 *)
  let vouched =
    Persist.Acked
      {
        conn = 3;
        t_id = 64;
        end_confirmed = None;
        runs = [ run_at 64 "abcdefghABCDEFGH" ];
        parity = Some (Wsc2.encode_bytes ~pos:0 (Bytes.of_string "abcdefghABCDEFGH"));
      }
  in
  let v2_journal = of_hex golden_journal_v2_hex in
  let v2_acked_len = 13 + Int32.to_int (Bytes.get_int32_be v2_journal 0) in
  let v2_acked = List.hd golden_events in
  let st = Persist.Store.create () in
  let records =
    appended st [ Persist.Opened { conn = 3; open_csn = Some 64 }; vouched ]
    @ [ (Bytes.sub v2_journal 0 v2_acked_len, v2_acked);
        (snapshot_framed v2_acked, v2_acked) ]
    @ appended st
        [
          Persist.Acked
            {
              conn = 3;
              t_id = 68;
              end_confirmed = Some 71;
              runs = [ run_at 68 "ijkl"; run_at 70 "mnopqrst" ];
              parity = None;
            };
          Persist.Closed 3;
        ]
  in
  (* decoded events carry no parity: it was spent checking their bytes *)
  let records =
    List.map
      (function
        | b, Persist.Acked a -> (b, Persist.Acked { a with parity = None })
        | r -> r)
      records
  in
  ignore (sweep_torn_writes ~decode:(Persist.Store.decode_journal st) records)

(* Every byte of every span a journalled ACK acknowledged, flipped in
   its region after the append: recovery keeps the records before the
   first one whose runs cover the byte, and refuses that one and all
   after it.  A byte no run covers changes nothing.  The runs are views
   into two shared buffers, one of them named by several records, as an
   epoch's placement buffer is. *)
let test_region_flips () =
  let a = Bytes.of_string "abcdefghABCDEFGHijklmnop"
  and b = Bytes.of_string "qrstuvwxQRSTUVWX" in
  let events =
    [
      Persist.Opened { conn = 3; open_csn = Some 0 };
      Persist.Acked
        { conn = 3; t_id = 0; end_confirmed = None;
          runs = [ (0, a, 0, 8) ]; parity = None };
      Persist.Acked
        { conn = 3; t_id = 2; end_confirmed = None;
          runs = [ (2, a, 8, 4); (4, b, 4, 8) ]; parity = None };
      Persist.Shed { conn = 3; t_id = 4; first_elem = 6; elems = 2 };
      Persist.Acked
        { conn = 3; t_id = 5; end_confirmed = Some 7;
          runs = [ (1, a, 4, 8) ]; parity = None };
      Persist.Closed 3;
    ]
  in
  let st = Persist.Store.create () in
  List.iter (Persist.Store.append st) events;
  let covers src i = function
    | Persist.Acked { runs; _ } ->
        List.exists (fun (_, s, off, len) -> s == src && off <= i && i < off + len) runs
    | _ -> false
  in
  let rec before_hit src i = function
    | ev :: rest when not (covers src i ev) -> ev :: before_hit src i rest
    | _ -> []
  in
  let flips = ref 0 in
  List.iter
    (fun src ->
      for i = 0 to Bytes.length src - 1 do
        let c = Bytes.get src i in
        Bytes.set src i (Char.chr (Char.code c lxor 0x5A));
        let want = before_hit src i events in
        let torn = List.length want < List.length events in
        if torn then incr flips;
        (match Persist.Store.recover st with
        | Ok got ->
            if got <> (want, torn) then
              Alcotest.failf "byte %d of a %d-byte region: %d records kept, %d expected"
                i (Bytes.length src) (List.length (fst got)) (List.length want)
        | Error e -> Alcotest.failf "recover failed: %s" e);
        Bytes.set src i c
      done)
    [ a; b ];
  Alcotest.(check int) "acknowledged bytes flipped" 20 !flips;
  Alcotest.(check bool) "intact regions recover every record" true
    (Persist.Store.recover st = Ok (events, false))

(* A labels-only record read against regions its store does not hold
   (another store's, or none) is refused like a damaged one, without
   raising; so is one read after a snapshot dropped its regions. *)
let test_unheld_region () =
  let events =
    [ Persist.Opened { conn = 3; open_csn = Some 0 };
      Persist.Acked
        { conn = 3; t_id = 0; end_confirmed = None;
          runs = [ run_at 0 "abcdefgh" ]; parity = None } ]
  in
  let st = Persist.Store.create () in
  List.iter (Persist.Store.append st) events;
  let journal = Persist.Store.journal st in
  let opened = [ List.hd events ] in
  Alcotest.(check bool) "another store holds no region" true
    (Persist.Store.decode_journal (Persist.Store.create ()) journal = (opened, true));
  Alcotest.(check bool) "no store holds none" true
    (Persist.decode_journal journal = (opened, true));
  Persist.Store.snapshot st (Persist.Multi []);
  Alcotest.(check bool) "a snapshot drops the regions" true
    (Persist.Store.decode_journal st journal = (opened, true))

(* A clean transfer of [data] into a one-connection endpoint, each way
   1e-4 s, run until the sender finishes. *)
let clean_transfer ?persist ~seed config data =
  let engine = Netsim.Engine.create ~seed () in
  let w =
    Transport.Transfer.connect ?persist engine config
      ~quota_elems:(CT.expected_elements config ~data_len:(Bytes.length data))
      ~forward:(hop engine) ~reverse:(hop engine) (`Data data)
  in
  Transport.Transfer.finish w;
  Transport.Transfer.endpoint w

(* A clean bulk transfer through an endpoint with a write-ahead journal:
   every ACK reuses the verifier's data parity, so the journal hook
   checksums each record's header alone — under 128 bytes per ACK, where
   a version-2 record checksummed its 2 KiB of run bytes again.  The
   journal still replays to the delivered bytes. *)
let test_journal_reuses_parity () =
  let config =
    { config with CT.tpdu_elems = 512; frame_bytes = 2048; window = 8 }
  in
  let data = Util.deterministic_bytes (32 * 2048) in
  let expected = CT.expected_elements config ~data_len:(Bytes.length data) in
  let wsc2 = Obs.Metrics.counter "wsc2_bytes_total" in
  let transfer persist =
    let before = Obs.Metrics.value wsc2 in
    let m = clean_transfer ?persist ~seed:9 config data in
    Alcotest.(check bool) "transfer complete" true
      (Util.only_epoch m ~conn_id:config.CT.conn_id).Transport.Multi.complete;
    Obs.Metrics.value wsc2 - before
  in
  let plain = transfer None in
  let store = Persist.Store.create () in
  let journalled = transfer (Some (Persist.Store.append store)) in
  let events, _ =
    Persist.Store.decode_journal store (Persist.Store.journal store)
  in
  let acks =
    List.length
      (List.filter (function Persist.Acked _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "one record per TPDU, beside the Open's" 33
    (Persist.Store.journal_records store);
  Alcotest.(check int) "one ACK record per TPDU" 32 acks;
  let per_ack = (journalled - plain) / acks in
  if per_ack >= 128 then
    Alcotest.failf "journal hook checksummed %d bytes per ACK" per_ack;
  let bytes_per_record =
    Persist.Store.bytes_appended store / Persist.Store.journal_records store
  in
  if bytes_per_record > 64 then
    Alcotest.failf "%d journal bytes per record" bytes_per_record;
  let img, torn = recover_store ~config ~quota_elems:expected store in
  Alcotest.(check bool) "journal not torn" false torn;
  match (live_of img config.CT.conn_id).runs with
  | [ (0, b) ] ->
      Alcotest.check Util.bytes_testable "replayed bytes" data (Bytes.of_string b)
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

(* A transfer that finished before the crash is archived at its Close,
   so the restore rebuilds it from records alone: its placed-element and
   pass counts must survive whether the Close reached a snapshot or only
   the journal.  A snapshot taken while half of TPDU 1 waited for the
   other half holds none of it, and the journal's ACK of TPDU 1 places
   it: the count must count it once. *)
(* Connection 3's three TPDUs of 184 bytes as packets: TPDU [t]'s, the
   first half of TPDU 1's data with its ED chunk, its second half, and a
   signal. *)
let split_tpdu_case () =
  let open Labelling in
  let conn = 3 in
  let framer =
    Framer.create ~elem_size:config.CT.elem_size
      ~tpdu_elems:config.CT.tpdu_elems ~conn_id:conn ()
  in
  let sealed =
    Util.ok_or_fail
      (Edc.Encoder.seal_tpdus
         (Util.ok_or_fail
            (Framer.push_frame ~last:true framer
               (Util.deterministic_bytes 184))))
  in
  let packet cs = Util.ok_or_fail (Wire.encode_packet cs) in
  let tpdu t =
    List.filter (fun c -> c.Chunk.header.Header.t.Ftuple.id = t) sealed
  in
  let head, tail =
    match tpdu 1 with
    | [ d; ed ] ->
        let d1, d2 = Fragment.split_exn d ~elems:8 in
        ([ d1; ed ], [ d2 ])
    | _ -> Alcotest.fail "expected one data and one ED chunk"
  in
  ( (fun t -> packet (tpdu t)),
    packet head,
    packet tail,
    fun sg -> packet [ Connection.signal_chunk ~conn_id:conn sg ] )

let test_archived_epoch_counts_survive () =
  let open Labelling in
  let conn = 3 and quota_elems = 64 in
  let tpdu, head, tail, signal = split_tpdu_case () in
  let packets =
    [
      signal (Connection.Open { first_csn = 0 });
      tpdu 0;
      head;
      tail;
      tpdu 2;
      signal Connection.Close;
    ]
  in
  let counts m =
    List.map
      (fun (e : Transport.Multi.epoch_report) ->
        ( Bytes.to_string e.Transport.Multi.delivered,
          (e.Transport.Multi.complete, e.Transport.Multi.placed_elems,
           e.Transport.Multi.passes) ))
      (Transport.Multi.epochs m ~conn_id:conn)
  in
  let survives ~snap_after =
    let engine = Netsim.Engine.create ~seed:5 () in
    let store = Persist.Store.create () in
    let m =
      Transport.Multi.create engine ~config ~quota_elems ~max_conns:4
        ~persist:(Persist.Store.append store) ~send_ack:ignore ()
    in
    List.iteri
      (fun i p ->
        Transport.Multi.ingest m p;
        if Some i = snap_after then
          Persist.Store.snapshot store
            (Persist.Multi (Transport.Multi.export m)))
      packets;
    let before = counts m in
    Alcotest.(check (list (triple bool int int)))
      "the archived epoch counts its elements and passes"
      [ (true, 46, 3) ] (List.map snd before);
    Transport.Multi.teardown m;
    match Persist.Store.recover store with
    | Ok (events, false) ->
        let m' =
          Transport.Multi.restore engine ~config ~quota_elems ~max_conns:4
            ~send_ack:ignore events
        in
        Alcotest.(check (list (pair string (triple bool int int))))
          "restored archived epoch" before (counts m')
    | Ok _ | Error _ -> Alcotest.fail "recover failed"
  in
  survives ~snap_after:None;
  survives ~snap_after:(Some 2);
  survives ~snap_after:(Some 5)

(* A connection of four 8-element TPDUs whose TPDU 2 is sheddable:
   its config and each TPDU's packets. *)
let shed_case () =
  let open Labelling in
  let tpdu_elems = 8 and n_tpdus = 4 in
  let config =
    {
      CT.default_config with
      conn_id = 4;
      tpdu_elems;
      classify =
        (fun t_id ->
          if t_id = 2 then Significance.Sheddable 1 else Significance.Normal);
    }
  in
  let framer =
    Framer.create ~elem_size:config.CT.elem_size ~tpdu_elems
      ~conn_id:config.CT.conn_id ()
  in
  let sealed =
    Util.ok_or_fail
      (Edc.Encoder.seal_tpdus
         (Util.ok_or_fail
            (Framer.push_frame ~last:true framer
               (Util.deterministic_bytes
                  (config.CT.elem_size * tpdu_elems * n_tpdus)))))
  in
  let packets t =
    List.filter (fun c -> c.Chunk.header.Header.t.Ftuple.id = t) sealed
    |> Packet.pack ~mtu:config.CT.mtu
    |> Util.ok_or_fail |> List.map Packet.encode
  in
  (config, tpdu_elems * n_tpdus, packets)

(* TPDUs 0, 1 and 3 verified and TPDU 2 shed, into [m]. *)
let verify_and_shed m config packets =
  List.iter (fun t -> List.iter (Transport.Multi.ingest m) (packets t)) [ 0; 1; 3 ];
  Transport.Multi.ingest m
    (Util.ok_or_fail
       (Labelling.Wire.encode_packet
          [
            Labelling.Connection.signal_chunk ~conn_id:config.CT.conn_id
              (Labelling.Connection.Shed_tpdu
                 { t_id = 2; first_elem = 16; elems = 8 });
          ]))

(* What a restored endpoint must still know of the shed: the epoch is
   complete, the shed T.ID is known, and a straggler of the shed TPDU
   opens no state. *)
let check_shed_kept what m config packets =
  Alcotest.(check bool) (what ^ ": complete") true
    (Util.only_epoch m ~conn_id:config.CT.conn_id).Transport.Multi.complete;
  Alcotest.(check (list int))
    (what ^ ": shed T.IDs") [ 2 ]
    (List.concat_map CT.Receiver.shed_tids (Transport.Multi.receivers m));
  List.iter (Transport.Multi.ingest m) (packets 2);
  Alcotest.(check int) (what ^ ": a straggler of the shed TPDU opens nothing")
    0
    (Transport.Multi.live_in_flight m)

(* An endpoint that honoured a shed and verified every other TPDU is
   complete; restored from its snapshot bytes it still is. *)
let test_shed_survives_restore () =
  let config, quota_elems, packets = shed_case () in
  let engine = Netsim.Engine.create ~seed:3 () in
  let m = Util.one_conn engine config ~quota_elems in
  verify_and_shed m config packets;
  Alcotest.(check bool) "complete before the crash" true
    (Util.only_epoch m ~conn_id:config.CT.conn_id).Transport.Multi.complete;
  let bytes = Persist.encode_endpoint (Persist.Multi (Transport.Multi.export m)) in
  match Persist.decode_endpoint bytes with
  | Ok (Persist.Multi events) ->
      check_shed_kept "snapshot"
        (Transport.Multi.restore engine ~config ~quota_elems ~max_conns:1
           ~send_ack:ignore events)
        config packets
  | Error e -> Alcotest.failf "snapshot did not decode: %s" e

(* The same, recovered from the journal alone: the honoured shed is
   journalled before its ACK leaves, as a verified TPDU is. *)
let test_shed_survives_journal () =
  let config, quota_elems, packets = shed_case () in
  let engine = Netsim.Engine.create ~seed:3 () in
  let store = Persist.Store.create () in
  let m =
    Util.one_conn engine config ~quota_elems
      ~persist:(Persist.Store.append store)
  in
  verify_and_shed m config packets;
  Transport.Multi.teardown m;
  match Persist.Store.recover store with
  | Ok (events, false) ->
      check_shed_kept "journal"
        (Transport.Multi.restore engine ~config ~quota_elems ~max_conns:1
           ~send_ack:ignore events)
        config packets
  | Ok (_, true) -> Alcotest.fail "journal torn"
  | Error e -> Alcotest.failf "recover failed: %s" e

(* {1 Durable state survives a crash at any event}

   [conns] connections share one endpoint door, each sender's data over
   a hop that drops every [drop_k]-th packet.  TPDU 1 of connection 1 is
   sheddable, and a shed of it is spliced into the recorded door stream
   [shed_pct] percent of the way in (ignored when the TPDU was already
   acknowledged); each connection's Close follows its last packet. *)
let crash_config =
  {
    config with
    CT.tpdu_elems = 64;
    mtu = 256;
    classify =
      (fun t_id ->
        if t_id = 1 then Labelling.Significance.Sheddable 1
        else Labelling.Significance.Normal);
  }

let shed_span = (crash_config.CT.tpdu_elems, crash_config.CT.tpdu_elems)

let crash_door_stream ~seed ~conns ~data_len ~drop_k ~shed_pct =
  let engine = Netsim.Engine.create ~seed () in
  let recorded = ref [] and count = ref 0 in
  let quota_elems =
    CT.expected_elements crash_config ~data_len:(data_len + conns)
  in
  let senders = Hashtbl.create 4 in
  let m =
    Transport.Multi.create engine ~config:crash_config ~quota_elems
      ~max_conns:(conns + 1)
      ~send_ack:(hop engine (CT.Sender.demux (Hashtbl.find_opt senders)))
      ()
  in
  let forward conn b =
    incr count;
    if not (drop_k > 0 && !count mod drop_k = 0) then
      hop engine
        (fun b ->
          recorded := (conn, b) :: !recorded;
          Transport.Multi.ingest m b)
        b
  in
  for conn = 1 to conns do
    let tx =
      CT.Sender.create engine
        { crash_config with CT.conn_id = conn }
        ~announce_open:true ~send:(forward conn)
        ~data:(Util.deterministic_bytes (data_len + conn))
        ()
    in
    Hashtbl.replace senders conn tx;
    CT.Sender.start tx
  done;
  Netsim.Engine.run engine;
  let signal conn sg =
    Util.ok_or_fail
      (Labelling.Wire.encode_packet
         [ Labelling.Connection.signal_chunk ~conn_id:conn sg ])
  in
  let first_elem, elems = shed_span in
  let shed =
    signal 1 (Labelling.Connection.Shed_tpdu { t_id = 1; first_elem; elems })
  in
  let door = List.rev !recorded in
  let shed_at = List.length door * shed_pct / 100 in
  let last = Hashtbl.create 4 in
  List.iteri (fun i (conn, _) -> Hashtbl.replace last conn i) door;
  ( List.concat
      (List.mapi
         (fun i (conn, b) ->
           (if i = shed_at then [ shed ] else [])
           @ b
             :: (if Hashtbl.find last conn = i then
                   [ signal conn Labelling.Connection.Close ]
                 else []))
         door),
    quota_elems )

(* What an endpoint holds durably: its compacted journal without the
   epochs' identities (the [Opened] records), which the live endpoint
   may know from an Open signal and a recovery only from its labels. *)
let durable evs = List.filter (function Persist.Opened _ -> false | _ -> true) evs

let gen_crash_case =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* conns = oneofl [ 1; 1; 2; 3 ] in
    let* data_len = int_range 64 3_000 in
    let* drop_k = oneofl [ 0; 3; 4; 7 ] in
    let* shed_pct = int_range 0 100 in
    let* crash_pct = int_range 0 100 in
    let* snap_pct = int_range 0 100 in
    return (seed, conns, data_len, drop_k, shed_pct, crash_pct, snap_pct))

(* Feed the door stream up to a random crash event into an endpoint
   that journals into two stores, one of them also snapshotted at a
   random earlier event.  Recovered journal-only and from the snapshot
   plus the journal since, the endpoint must hold the uncrashed one's
   durable state at the crash instant. *)
let prop_crash_keeps_durable
    (seed, conns, data_len, drop_k, shed_pct, crash_pct, snap_pct) =
  let packets, quota_elems =
    crash_door_stream ~seed ~conns ~data_len ~drop_k ~shed_pct
  in
  let packets = Array.of_list packets in
  let crash = Array.length packets * crash_pct / 100 in
  let snap = crash * snap_pct / 100 in
  let journal_only = Persist.Store.create ()
  and with_snapshot = Persist.Store.create () in
  let m =
    Transport.Multi.create (Netsim.Engine.create ()) ~config:crash_config
      ~quota_elems ~max_conns:(conns + 1)
      ~persist:(fun ev ->
        Persist.Store.append journal_only ev;
        Persist.Store.append with_snapshot ev)
      ~send_ack:ignore ()
  in
  for i = 0 to crash do
    if i = snap then
      Persist.Store.snapshot with_snapshot
        (Persist.Multi (Transport.Multi.export m));
    if i < crash then Transport.Multi.ingest m packets.(i)
  done;
  let want = durable (Transport.Multi.export m) in
  List.for_all
    (fun store ->
      let img, torn = recover_store ~config:crash_config ~quota_elems store in
      (not torn) && durable img = want)
    [ journal_only; with_snapshot ]

(* A snapshot is the compacted journal: the door stream up to a random
   crash event goes into an endpoint that journals into two stores, one
   of which also snapshots at random events.  The store that took
   snapshots and the one that never did recover to endpoints that export
   the same records, epoch identities included. *)
let gen_snapshot_case =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* conns = oneofl [ 1; 1; 2; 3 ] in
    let* data_len = int_range 64 3_000 in
    let* drop_k = oneofl [ 0; 3; 4; 7 ] in
    let* shed_pct = int_range 0 100 in
    let* crash_pct = int_range 0 100 in
    let* snap_pcts = list_size (int_range 1 4) (int_range 0 100) in
    return (seed, conns, data_len, drop_k, shed_pct, crash_pct, snap_pcts))

let prop_snapshot_is_compacted_journal
    (seed, conns, data_len, drop_k, shed_pct, crash_pct, snap_pcts) =
  let packets, quota_elems =
    crash_door_stream ~seed ~conns ~data_len ~drop_k ~shed_pct
  in
  let packets = Array.of_list packets in
  let crash = Array.length packets * crash_pct / 100 in
  let snaps = List.map (fun pct -> crash * pct / 100) snap_pcts in
  let journal_only = Persist.Store.create ()
  and snapshotted = Persist.Store.create () in
  let m =
    Transport.Multi.create (Netsim.Engine.create ()) ~config:crash_config
      ~quota_elems ~max_conns:(conns + 1)
      ~persist:(fun ev ->
        Persist.Store.append journal_only ev;
        Persist.Store.append snapshotted ev)
      ~send_ack:ignore ()
  in
  for i = 0 to crash do
    if List.mem i snaps then
      Persist.Store.snapshot snapshotted
        (Persist.Multi (Transport.Multi.export m));
    if i < crash then Transport.Multi.ingest m packets.(i)
  done;
  let recover = recover_store ~config:crash_config ~quota_elems in
  let a, torn_a = recover journal_only and b, torn_b = recover snapshotted in
  (not (torn_a || torn_b)) && a = b

(* Containment is durable without a snapshot: a connection boxed for
   flapping and one poisoned by a bulkhead keep their deadline,
   revocation count and poison through a journal-only recovery, so a
   crash earns neither a fresh admission. *)
let test_containment_survives_journal () =
  let module M = Transport.Multi in
  let engine = Netsim.Engine.create ~seed:7 () in
  let store = Persist.Store.create () in
  let m =
    M.create engine ~config ~quota_elems:64 ~max_conns:4 ~anomaly_budget:8
      ~persist:(Persist.Store.append store) ~send_ack:ignore ()
  in
  let signal conn sg =
    M.ingest m
      (Util.ok_or_fail
         (Labelling.Wire.encode_packet
            [ Labelling.Connection.signal_chunk ~conn_id:conn sg ]))
  in
  (* each Open with a fresh C.SN tears connection 6's live epoch down:
     scored churn, and the second one trips the budget *)
  List.iter
    (fun first_csn -> signal 6 (Labelling.Connection.Open { first_csn }))
    [ 0; 100; 200 ];
  signal 8 (Labelling.Connection.Open { first_csn = 0 });
  M.poison m ~conn_id:8;
  let containment m =
    ( List.map
        (fun conn_id ->
          match M.conn_stats m ~conn_id with
          | Some cs ->
              (cs.M.cs_quarantined, cs.M.cs_quarantines, cs.M.cs_poisoned)
          | None -> Alcotest.failf "connection %d lost" conn_id)
        [ 6; 8 ],
      List.filter
        (function Persist.Quarantined _ -> true | _ -> false)
        (M.export m) )
  in
  let before = containment m in
  Alcotest.(check (list (triple bool int bool)))
    "boxed and poisoned before the crash"
    [ (true, 1, false); (true, 0, true) ]
    (fst before);
  M.teardown m;
  match Persist.Store.recover store with
  | Ok (events, false) ->
      let m' =
        M.restore (Netsim.Engine.create ()) ~config ~quota_elems:64
          ~max_conns:4 ~anomaly_budget:8 ~send_ack:ignore events
      in
      let after = containment m' in
      Alcotest.(check (list (triple bool int bool)))
        "boxed and poisoned after a journal-only recovery" (fst before)
        (fst after);
      Alcotest.(check bool) "the same deadlines" true (snd before = snd after)
  | Ok (_, true) -> Alcotest.fail "journal torn"
  | Error e -> Alcotest.failf "recover failed: %s" e

(* An Open watermark raised by an epoch the archive gate dropped (its
   Close came before any TPDU verified) survives a restore, from the
   journal alone and from a snapshot: the restored endpoint refuses an
   Open below it, as the live one does, instead of opening a
   churn-scored epoch. *)
let test_watermark_survives_restore () =
  let module M = Transport.Multi in
  let store = Persist.Store.create () in
  let m =
    M.create (Netsim.Engine.create ()) ~config ~quota_elems:64 ~max_conns:4
      ~persist:(Persist.Store.append store) ~send_ack:ignore ()
  in
  let signal m sg =
    M.ingest m
      (Util.ok_or_fail
         (Labelling.Wire.encode_packet
            [ Labelling.Connection.signal_chunk ~conn_id:6 sg ]))
  in
  signal m (Labelling.Connection.Open { first_csn = 5000 });
  signal m Labelling.Connection.Close;
  let restore events =
    M.restore (Netsim.Engine.create ()) ~config ~quota_elems:64 ~max_conns:4
      ~send_ack:ignore events
  in
  let from_journal =
    match Persist.Store.recover store with
    | Ok (events, false) -> restore events
    | Ok (_, true) -> Alcotest.fail "journal torn"
    | Error e -> Alcotest.failf "recover failed: %s" e
  in
  let from_snapshot =
    match
      Persist.decode_endpoint
        (Persist.encode_endpoint (Persist.Multi (M.export m)))
    with
    | Ok (Persist.Multi events) -> restore events
    | Error e -> Alcotest.failf "snapshot did not decode: %s" e
  in
  Alcotest.(check bool) "the export round-trips" true
    (M.export from_snapshot = M.export m && M.export from_journal = M.export m);
  List.iter
    (fun (what, m) ->
      signal m (Labelling.Connection.Open { first_csn = 4000 });
      Alcotest.(check int) (what ^ ": an Open below the watermark opens nothing")
        0 (M.live_conns m))
    [ ("live", m); ("journal", from_journal); ("snapshot", from_snapshot) ]

(* An epoch closed while TPDU 1 was half received: its placed half
   never verified, so the archived epoch holds TPDU 0's bytes alone, and
   a snapshot taken after the Close restores what the journal alone
   restores. *)
let test_half_received_archive () =
  let open Labelling in
  let tpdu, head, _, signal = split_tpdu_case () in
  let journal_only = Persist.Store.create ()
  and snapshotted = Persist.Store.create () in
  let m =
    Transport.Multi.create (Netsim.Engine.create ()) ~config ~quota_elems:64
      ~max_conns:4
      ~persist:(fun ev ->
        Persist.Store.append journal_only ev;
        Persist.Store.append snapshotted ev)
      ~send_ack:ignore ()
  in
  List.iter (Transport.Multi.ingest m)
    [ signal (Connection.Open { first_csn = 0 }); tpdu 0; head;
      signal Connection.Close ];
  (match Transport.Multi.epochs m ~conn_id:3 with
  | [ e ] ->
      let n = config.CT.tpdu_elems * config.CT.elem_size in
      Alcotest.check Util.bytes_testable "only the verified TPDU's bytes"
        (Bytes.cat (Util.deterministic_bytes n)
           (Bytes.make (Bytes.length e.Transport.Multi.delivered - n) '\000'))
        e.Transport.Multi.delivered
  | _ -> Alcotest.fail "one archived epoch expected");
  Persist.Store.snapshot snapshotted (Persist.Multi (Transport.Multi.export m));
  let recover = recover_store ~quota_elems:64 in
  Alcotest.(check bool) "snapshot and journal restore alike" true
    (fst (recover journal_only) = fst (recover snapshotted))

(* A crash is no verdict: tearing down an endpoint that holds in-flight
   TPDUs drops them without counting a failure or a verify latency. *)
let test_teardown_counts_no_verdict () =
  let packets, quota_elems =
    crash_door_stream ~seed:5 ~conns:2 ~data_len:2_000 ~drop_k:0 ~shed_pct:100
  in
  let m =
    Transport.Multi.create (Netsim.Engine.create ()) ~config:crash_config
      ~quota_elems ~max_conns:3 ~send_ack:ignore ()
  in
  (* every other packet of the first half: TPDUs arrive with holes *)
  List.iteri
    (fun i b ->
      if i mod 2 = 0 && i < List.length packets / 2 then
        Transport.Multi.ingest m b)
    packets;
  let in_flight = Transport.Multi.live_in_flight m in
  if in_flight = 0 then Alcotest.fail "no TPDU in flight before the crash";
  let latency = Obs.Metrics.histogram "edc_verify_latency_us" in
  let latency0 = Obs.Metrics.hist_count latency
  and stats0 = Transport.Multi.verifier_stats m in
  Transport.Multi.teardown m;
  Alcotest.(check int) "edc_verify_latency_us unchanged" latency0
    (Obs.Metrics.hist_count latency);
  Alcotest.(check int) "verifier failures unchanged"
    stats0.Edc.Verifier.tpdus_failed
    (Transport.Multi.verifier_stats m).Edc.Verifier.tpdus_failed;
  Alcotest.(check int) "nothing left in flight" 0
    (Transport.Multi.live_in_flight m)

let suite =
  [
    Util.qtest ~count:60
      "restored receiver behaves identically on any packet suffix"
      gen_equiv_case prop_restore_equivalent;
    Util.qtest ~count:40 "mid-transfer snapshots round-trip the codec"
      QCheck2.Gen.(
        tup3 (int_range 0 10_000) (int_range 256 4_000) (int_range 0 100))
      prop_codec_fixpoint;
    Util.qtest ~count:200 "persisted floats round-trip beyond magnitude 2"
      QCheck2.Gen.(
        oneof
          [
            float_range (-1e9) 1e9;
            float_range (-4.0) 4.0;
            oneofl [ 0.0; 2.0; -2.0; 2.25; max_float; -.max_float ];
          ])
      prop_float_roundtrip;
    Alcotest.test_case "journal replay rebuilds the canonical image" `Quick
      test_journal_replay;
    Alcotest.test_case "torn journal tail dropped, prefix kept" `Quick
      test_store_torn_tail;
    Alcotest.test_case "journal format is version 2 bytes, decoded and recovered"
      `Quick test_journal_v2_golden;
    Alcotest.test_case "journal Acked record is labels-only, byte for byte"
      `Quick test_labels_golden;
    Alcotest.test_case "tag-20 Acked record still reads, as snapshots write it"
      `Quick test_tag20_golden;
    Alcotest.test_case
      "snapshot and sender formats are pinned: snapshot version 6 byte for \
       byte, retired sender image refused"
      `Quick test_snapshot_goldens;
    Alcotest.test_case "journal record with a longer payload stops replay"
      `Quick test_journal_longer_payload;
    Alcotest.test_case "torn writes at every journal byte" `Quick
      test_torn_write_sweep;
    Alcotest.test_case "a flipped acknowledged byte refuses its record on"
      `Quick test_region_flips;
    Alcotest.test_case "a region the store does not hold is refused" `Quick
      test_unheld_region;
    Alcotest.test_case "contiguous ACK replay copies each byte once" `Quick
      test_contiguous_replay;
    Alcotest.test_case "clean transfer journals every ACK with reused parity"
      `Quick test_journal_reuses_parity;
    Util.qtest ~count:200 "journal records from borrowed run views"
      gen_view_events prop_view_records;
    Util.qtest ~count:200
      "shuffled ACK journal replays as one record at a time does"
      gen_shuffled_acks prop_replay_merges_once;
    Alcotest.test_case "archived epoch counts survive a crash after the Close"
      `Quick test_archived_epoch_counts_survive;
    Alcotest.test_case "an honoured shed survives a snapshot restore" `Quick
      test_shed_survives_restore;
    Alcotest.test_case "an honoured shed survives a journal-only recovery"
      `Quick test_shed_survives_journal;
    Alcotest.test_case "a crash counts no verdict for what was in flight"
      `Quick test_teardown_counts_no_verdict;
    Util.qtest ~count:150
      "recovery holds the uncrashed endpoint's durable state at the crash"
      gen_crash_case prop_crash_keeps_durable;
    Util.qtest ~count:400
      "a snapshot restores what its journal alone restores"
      gen_snapshot_case prop_snapshot_is_compacted_journal;
    Alcotest.test_case "a boxed or poisoned connection survives a journal-only recovery"
      `Quick test_containment_survives_journal;
    Alcotest.test_case "an epoch closed mid-TPDU keeps only verified bytes"
      `Quick test_half_received_archive;
    Alcotest.test_case "a restore keeps an Open watermark the gate dropped"
      `Quick test_watermark_survives_restore;
  ]
