(* The observability layer itself: histogram bucketing, counter
   saturation, gauge high-water semantics, trace ring wraparound and the
   JSONL round trip.  Metrics are interned process-wide, so every test
   uses names of its own rather than resetting the registry. *)

module M = Obs.Metrics
module T = Obs.Trace

(* --- histograms --- *)

let test_bucket_boundaries () =
  (* bucket 0 is the <= 0 bucket *)
  Alcotest.(check int) "zero" 0 (M.bucket_index 0);
  Alcotest.(check int) "negative" 0 (M.bucket_index (-7));
  (* bucket b >= 1 covers [2^(b-1), 2^b - 1]: check both edges around
     every power of two that fits a regular bucket *)
  for b = 1 to M.buckets - 2 do
    let lo = 1 lsl (b - 1) in
    Alcotest.(check int) (Printf.sprintf "lower edge of bucket %d" b) b
      (M.bucket_index lo);
    Alcotest.(check int) (Printf.sprintf "below bucket %d" b) (b - 1)
      (M.bucket_index (lo - 1));
    Alcotest.(check int) (Printf.sprintf "bounds agree for bucket %d" b) lo
      (M.bucket_lower b);
    Alcotest.(check int) (Printf.sprintf "upper bound of bucket %d" b)
      ((1 lsl b) - 1)
      (M.bucket_upper b)
  done;
  (* the top bucket reachable on this platform absorbs max_int; the cap
     at [buckets - 1] only binds for wider integers *)
  let top = M.bucket_index max_int in
  Alcotest.(check bool) "top bucket under the cap" true (top <= M.buckets - 1);
  Alcotest.(check int) "max_int at its bucket's lower bound" top
    (M.bucket_index (M.bucket_lower top));
  Alcotest.(check int) "overflow upper bound" max_int
    (M.bucket_upper (M.buckets - 1))

let test_histogram_observe () =
  let h = M.histogram "test_hist_observe" in
  List.iter (M.observe h) [ 0; 1; 1; 3; 1024; max_int; -5 ];
  Alcotest.(check int) "count" 7 (M.hist_count h);
  Alcotest.(check int) "max" max_int (M.hist_max h);
  Alcotest.(check int) "bucket 0 holds <= 0" 2 (M.bucket_count h 0);
  Alcotest.(check int) "bucket 1 holds the 1s" 2 (M.bucket_count h 1);
  Alcotest.(check int) "bucket 2 holds 3" 1 (M.bucket_count h 2);
  Alcotest.(check int) "bucket 11 holds 1024" 1 (M.bucket_count h 11);
  Alcotest.(check int) "top bucket holds max_int" 1
    (M.bucket_count h (M.bucket_index max_int));
  (* observe_s converts seconds to whole microseconds *)
  let hs = M.histogram "test_hist_seconds" in
  M.observe_s hs 0.001;
  Alcotest.(check int) "1 ms = 1000 us" (M.bucket_index 1000)
    (match (M.snapshot ()).M.s_histograms |> List.assoc "test_hist_seconds"
     with
     | { M.h_buckets = [ (b, 1) ]; _ } -> b
     | _ -> -1)

let test_counter_saturation () =
  let c = M.counter "test_counter_sat" in
  M.add c (max_int - 1);
  M.incr c;
  Alcotest.(check int) "reaches max_int" max_int (M.value c);
  (* past the ceiling the counter pins instead of wrapping negative *)
  M.add c 12345;
  Alcotest.(check int) "saturates" max_int (M.value c);
  M.incr c;
  Alcotest.(check int) "still saturated" max_int (M.value c);
  (* negative and zero increments are ignored: counters are monotonic *)
  let c2 = M.counter "test_counter_mono" in
  M.add c2 5;
  M.add c2 (-3);
  M.add c2 0;
  Alcotest.(check int) "n <= 0 ignored" 5 (M.value c2)

let test_counter_interning () =
  let a = M.counter "test_interned" in
  let b = M.counter "test_interned" in
  M.incr a;
  M.incr b;
  Alcotest.(check int) "same instance" 2 (M.value a);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Obs.Metrics: \"test_interned\" already registered with another kind")
    (fun () -> ignore (M.gauge "test_interned"))

let test_gauge_high_water () =
  let g = M.gauge "test_gauge_high_water" in
  M.set g 70;
  M.set g 10;
  Alcotest.(check int) "value follows set" 10 (M.gauge_value g);
  Alcotest.(check int) "max holds the peak" 70 (M.gauge_max g)

(* --- tracing --- *)

let ev i = T.Chunk_rx { conn = 1; tpdu = i; bytes = 100 + i }

let test_ring_wraparound () =
  let r = T.ring ~capacity:4 in
  (* under capacity: everything retained, in order *)
  for i = 1 to 3 do
    T.emit r ~time:(float_of_int i) (ev i)
  done;
  Alcotest.(check (list int)) "partial fill" [ 1; 2; 3 ]
    (List.map (fun (_, e) -> match e with
       | T.Chunk_rx { tpdu; _ } -> tpdu | _ -> -1)
      (T.ring_contents r));
  T.emit r ~time:4.0 (ev 4);
  Alcotest.(check int) "nothing dropped at capacity" 0 (T.ring_dropped r);
  (* overfill: the oldest events are overwritten, order preserved *)
  for i = 5 to 10 do
    T.emit r ~time:(float_of_int i) (ev i)
  done;
  Alcotest.(check int) "overwritten events counted" 6 (T.ring_dropped r);
  Alcotest.(check (list int)) "wraparound keeps the newest 4" [ 7; 8; 9; 10 ]
    (List.map (fun (_, e) -> match e with
       | T.Chunk_rx { tpdu; _ } -> tpdu | _ -> -1)
      (T.ring_contents r));
  Alcotest.(check (list string)) "timestamps ride along" [ "7."; "8."; "9."; "10." ]
    (List.map (fun (t, _) -> Printf.sprintf "%g." t) (T.ring_contents r))

let all_events =
  [
    T.Chunk_rx { conn = 3; tpdu = 17; bytes = 368 };
    T.Verify_start { conn = -1; tpdu = 17 };
    T.Verify_done { conn = 3; tpdu = 17; verdict = "passed" };
    T.Verify_done { conn = 3; tpdu = 18; verdict = "consistency-failure" };
    T.Frag { tpdu = 17; t_sn = 64; elems = 192 };
    T.Repack { chunks_in = 5; chunks_out = 2 };
    T.Rto_fire { conn = 3; tpdu = 17; txs = 4; rto = 0.0125 };
    T.Evict { conn = 3; tpdu = 17; reason = "budget" };
    T.Evict { conn = 9; tpdu = -1; reason = "deadline" };
    T.Conn_open { conn = 3 };
    T.Conn_close { conn = 3 };
    T.Shed { conn = 3; tpdu = 5; elems = 64; cls = "shed:2" };
    T.Interleave { conn = 3; stream = 1; tpdu = 12; cls = "critical" };
    T.Note "rx packet #1 (108 bytes)";
    T.Note "MUTATION \"flip\" at\tbyte 3";
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i e ->
      let time = 0.125 *. float_of_int i in
      let line = T.to_json ~time e in
      match T.of_json line with
      | None -> Alcotest.failf "unparseable: %s" line
      | Some (t', e') ->
          Alcotest.(check (float 0.0)) (T.event_name e ^ " time") time t';
          Alcotest.(check string)
            (T.event_name e ^ " event")
            (T.to_json ~time e)
            (T.to_json ~time:t' e'))
    all_events;
  (* awkward float and a verdict needing escapes *)
  let e = T.Verify_done { conn = 0; tpdu = 0; verdict = "a\"b\\c\nd" } in
  (match T.of_json (T.to_json ~time:1.0e-9 e) with
  | Some (t, T.Verify_done { verdict; _ }) ->
      Alcotest.(check (float 0.0)) "tiny time survives" 1.0e-9 t;
      Alcotest.(check string) "escapes survive" "a\"b\\c\nd" verdict
  | _ -> Alcotest.fail "escape round trip failed");
  (* malformed lines are rejected, not crashed on *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true (T.of_json bad = None))
    [
      "";
      "{";
      "not json at all";
      {|{"t":1.0}|};
      {|{"t":1.0,"ev":"no_such_event","conn":1}|};
      {|{"t":1.0,"ev":"chunk_rx","conn":1,"tpdu":2}|};
      {|{"t":"oops","ev":"conn_open","conn":1}|};
      {|{"t":1.0,"ev":"conn_open","conn":1} trailing|};
    ]

let test_jsonl_sink_through_file () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  let oc = open_out path in
  let sink = T.jsonl oc in
  List.iteri
    (fun i e -> T.emit sink ~time:(float_of_int i) e)
    all_events;
  close_out oc;
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one line per event" (List.length all_events)
    (List.length lines);
  List.iteri
    (fun i line ->
      match T.of_json line with
      | Some (t, e) ->
          Alcotest.(check (float 0.0)) "file time" (float_of_int i) t;
          Alcotest.(check string) "file event"
            (T.event_name (List.nth all_events i))
            (T.event_name e)
      | None -> Alcotest.failf "line %d unparseable: %s" i line)
    lines

let test_global_sink () =
  Alcotest.(check bool) "null sink inactive" false (T.active ());
  let r = T.ring ~capacity:8 in
  T.set_sink r;
  Alcotest.(check bool) "ring sink active" true (T.active ());
  Obs.now := 42.0;
  T.record (ev 1);
  T.record ~time:7.0 (ev 2);
  (match T.ring_contents r with
  | [ (t1, _); (t2, _) ] ->
      Alcotest.(check (float 0.0)) "defaults to Obs.now" 42.0 t1;
      Alcotest.(check (float 0.0)) "explicit time wins" 7.0 t2
  | _ -> Alcotest.fail "expected two recorded events");
  T.set_sink T.null;
  Obs.now := 0.0;
  T.record (ev 3);
  Alcotest.(check (list reject)) "null sink drops" [] (T.ring_contents T.null)

(* --- report rendering --- *)

let test_report_render () =
  let c = M.counter "test_report_c" in
  M.add c 3;
  let h = M.histogram "test_report_h" in
  M.observe h 5;
  let json = Obs.Report.json (M.snapshot ()) in
  Alcotest.(check bool) "json mentions the counter" true
    (Util.contains json {|"test_report_c":3|});
  Alcotest.(check bool) "json mentions the histogram" true
    (Util.contains json {|"test_report_h":{"count":1,"sum":5,"max":5|});
  let prom = Obs.Report.prometheus (M.snapshot ()) in
  Alcotest.(check bool) "prometheus counter line" true
    (Util.contains prom "test_report_c 3\n");
  Alcotest.(check bool) "prometheus +Inf bucket" true
    (Util.contains prom {|test_report_h_bucket{le="+Inf"} 1|})

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram observation" `Quick test_histogram_observe;
    Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
    Alcotest.test_case "interning by name" `Quick test_counter_interning;
    Alcotest.test_case "gauge high-water" `Quick test_gauge_high_water;
    Alcotest.test_case "trace ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "JSONL round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "JSONL sink through a file" `Quick
      test_jsonl_sink_through_file;
    Alcotest.test_case "global sink" `Quick test_global_sink;
    Alcotest.test_case "report rendering" `Quick test_report_render;
  ]
