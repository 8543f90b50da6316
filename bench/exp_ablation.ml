(* ABL-*: ablations of the design choices — what breaks (or slows) when
   a mechanism the paper calls for is removed. *)

open Labelling

let section id title = Printf.printf "\n=== EXP %s === %s\n" id title

(* ABL-DUP: remove duplicate suppression in front of the incremental
   checksum.  "We want to avoid processing the same TPDU piece twice, as
   this may cause the checksum to be incorrect even if no data
   corruption has occurred" (§3.3). *)
let abl_dup () =
  section "ABL-DUP" "verifier without duplicate suppression (§3.3)";
  let f = Framer.create ~elem_size:4 ~tpdu_elems:64 ~conn_id:1 () in
  let tpdu =
    Result.get_ok (Framer.push_frame f (Bytes.create 256))
  in
  let expected = Result.get_ok (Edc.Encoder.parity_of_tpdu tpdu) in
  let rand = Random.State.make [| 7 |] in
  let trials = 500 in
  Printf.printf "  %-10s %-24s %-24s\n" "dup rate" "naive false failures"
    "tracked false failures";
  List.iter
    (fun dup_rate ->
      let naive_fail = ref 0 and tracked_fail = ref 0 in
      for _ = 1 to trials do
        let arrived =
          List.concat_map
            (fun c ->
              if Random.State.float rand 1.0 < dup_rate then [ c; c ] else [ c ])
            tpdu
        in
        (* naive: accumulate every arriving chunk *)
        let acc = Wsc2.create () in
        List.iter
          (fun c -> ignore (Edc.Encoder.contribute acc c))
          arrived;
        if not (Wsc2.verify ~expected acc) then incr naive_fail;
        (* tracked: the real verifier *)
        let v = Edc.Verifier.create () in
        let ed = Result.get_ok (Edc.Encoder.seal tpdu) in
        let failed = ref false in
        List.iter
          (fun c ->
            List.iter
              (fun ev ->
                match ev with
                | Edc.Verifier.Tpdu_verified { verdict = Edc.Verifier.Passed; _ } -> ()
                | Edc.Verifier.Tpdu_verified _ -> failed := true
                | _ -> ())
              (Edc.Verifier.on_chunk v c))
          (arrived @ [ ed ]);
        if !failed then incr tracked_fail
      done;
      Printf.printf "  %-10.2f %-24d %-24d\n" dup_rate !naive_fail !tracked_fail)
    [ 0.0; 0.05; 0.2; 0.5 ];
  Printf.printf
    "  -> without virtual reassembly's duplicate rejection, XOR-cancelling\n\
    \     re-receipt makes good TPDUs fail; with it, zero false failures.\n"

(* ABL-PAIR: remove the position-bound second symbol of the boundary
   pair (see Edc.Encoder.xpair_second_symbol). *)
let abl_pair () =
  section "ABL-PAIR"
    "boundary pair without position binding (relocation blind spot)";
  (* a chunk whose X.ID = alpha * X.ST = 2 with X.ST=1: the plain pair
     contributes alpha^p*2 + alpha^(p+1)*1 = 0 for EVERY p *)
  let contribution_plain ~boundary ~x_id ~x_st =
    let acc = Wsc2.create () in
    let base = Edc.Invariant.xpair_position ~boundary_t_sn:boundary in
    Wsc2.add_symbol acc ~pos:base x_id;
    Wsc2.add_symbol acc ~pos:(base + 1) (if x_st then 1 else 0);
    Wsc2.snapshot acc
  in
  let contribution_bound ~boundary ~x_id ~x_st =
    let acc = Wsc2.create () in
    let base = Edc.Invariant.xpair_position ~boundary_t_sn:boundary in
    Wsc2.add_symbol acc ~pos:base x_id;
    Wsc2.add_symbol acc ~pos:(base + 1)
      (Edc.Encoder.xpair_second_symbol ~boundary_t_sn:boundary ~x_st);
    Wsc2.snapshot acc
  in
  let invisible_plain = ref 0 and invisible_bound = ref 0 in
  let cases = ref 0 in
  for x_id = 0 to 63 do
    let sender = contribution_plain ~boundary:23 ~x_id ~x_st:true in
    let moved = contribution_plain ~boundary:31 ~x_id ~x_st:true in
    incr cases;
    if Wsc2.parity_equal sender moved then incr invisible_plain;
    let sender_b = contribution_bound ~boundary:23 ~x_id ~x_st:true in
    let moved_b = contribution_bound ~boundary:31 ~x_id ~x_st:true in
    if Wsc2.parity_equal sender_b moved_b then incr invisible_bound
  done;
  Printf.printf
    "  boundary moved 23 -> 31 over %d X.ID values:\n\
    \    plain (X.ID, X.ST) pair:   %d invisible relocations (X.ID = alpha)\n\
    \    position-bound pair:       %d invisible relocations\n"
    !cases !invisible_plain !invisible_bound;
  assert (!invisible_bound = 0);
  Printf.printf
    "  -> found by the TAB1 campaign: a corrupted LEN could relocate a\n\
    \     zero-contribution pair without changing the parity; binding the\n\
    \     boundary T.SN into the pair closes the hole.\n"

(* ABL-HORNER: per-symbol multiplication vs Horner accumulation. *)
let abl_horner () =
  section "ABL-HORNER" "WSC-2 accumulation strategy (throughput)";
  let data = Bytes.init 65536 (fun i -> Char.chr (i land 0xFF)) in
  let n = Bytes.length data in
  let time f =
    let reps = 50 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    float_of_int n /. dt /. 1e6
  in
  let naive () =
    (* one field multiplication per 32-bit symbol, bit-serial multiply *)
    let a0 = ref Gf232.zero and a1 = ref Gf232.zero in
    let w = ref Gf232.one in
    for i = 0 to (n / 4) - 1 do
      let sym = Gf232.of_int32_bits (Bytes.get_int32_be data (4 * i)) in
      a0 := Gf232.add !a0 sym;
      a1 := Gf232.add !a1 (Gf232.Ref.mul !w sym);
      w := Gf232.xtime !w
    done;
    ignore (!a0, !a1)
  in
  let horner_bitserial () =
    (* the seed implementation: word-at-a-time Horner, one shift-reduce
       per symbol, anchored with the bit-serial reference multiply *)
    let a0 = ref Gf232.zero and h = ref Gf232.zero in
    for i = (n / 4) - 1 downto 0 do
      let sym = Gf232.of_int32_bits (Bytes.get_int32_be data (4 * i)) in
      a0 := Gf232.add !a0 sym;
      h := Gf232.add (Gf232.xtime !h) sym
    done;
    ignore (!a0, Gf232.Ref.mul (Gf232.Ref.alpha_pow 0) !h)
  in
  let table_free () =
    (* the shipped kernel: sixteen symbols a step, shifted into one
       unreduced word and reduced once, no table *)
    let acc = Wsc2.create () in
    Wsc2.add_bytes acc ~pos:0 data 0 n;
    ignore (Wsc2.snapshot acc)
  in
  let crc () = ignore (Baselines.Checksums.crc32 data) in
  List.iter
    (fun (key, rate, note) ->
      Printf.printf "  %-26s%8.1f MB/s%s\n" (key ^ ":") rate note;
      Util_bench.Metrics.record ~exp:"ABL-HORNER" (key ^ " MB/s") rate)
    [
      ("per-symbol multiply", time naive, "");
      ("Horner bit-serial (seed)", time horner_bitserial, "");
      ("table-free (shipped)", time table_free, "");
      ("CRC-32 (table)", time crc, "  (order-bound comparison)");
    ];
  Printf.printf
    "  -> Horner's rule turns the weighted sum into one cheap shift-reduce\n\
    \     per word plus one multiply per chunk; the shipped kernel then\n\
    \     folds sixteen symbols per step with shifts and one carry-less\n\
    \     reduction, making order-free error detection far cheaper than a\n\
    \     table-driven CRC (the paper's performance premise for\n\
    \     processing disordered data).\n"

(* ABL-EARLY: early failure verdicts vs waiting for completion. *)
let abl_early () =
  section "ABL-EARLY" "fail-fast on damaged chunks vs wait-for-timeout";
  (* a TPDU whose second chunk has a corrupted C.SN: the early-failing
     verifier reports at chunk arrival; a completion-only design waits
     for every piece plus the ED chunk *)
  let f = Framer.create ~elem_size:4 ~tpdu_elems:32 ~conn_id:1 () in
  let tpdu = Result.get_ok (Framer.push_frame f (Bytes.create 128)) in
  let pieces =
    List.concat_map
      (fun c -> Result.get_ok (Fragment.split_to_payload c ~max_payload:16))
      tpdu
  in
  let ed = Result.get_ok (Edc.Encoder.seal tpdu) in
  let poisoned =
    List.mapi
      (fun i c ->
        if i = 1 then begin
          let h = c.Chunk.header in
          Chunk.make_exn
            { h with Header.c = Ftuple.advance h.Header.c 7 }
            c.Chunk.payload
        end
        else c)
      pieces
  in
  let v = Edc.Verifier.create () in
  let detected_after = ref max_int in
  List.iteri
    (fun i c ->
      List.iter
        (fun ev ->
          match ev with
          | Edc.Verifier.Tpdu_verified { verdict; _ }
            when not (Edc.Verifier.verdict_equal verdict Edc.Verifier.Passed)
            ->
              if !detected_after = max_int then detected_after := i + 1
          | _ -> ())
        (Edc.Verifier.on_chunk v c))
    (poisoned @ [ ed ]);
  Printf.printf
    "  damaged chunk detected after %d of %d arrivals (completion-only\n\
    \  design: %d + timeout).  Early verdicts release state immediately so\n\
    \  a retransmission starts clean instead of fighting a poisoned delta.\n"
    !detected_after
    (List.length poisoned + 1)
    (List.length poisoned + 1)

let run () =
  abl_dup ();
  abl_pair ();
  abl_horner ();
  abl_early ()
