type t = {
  counts : Counters.t;
  verifier : Edc.Verifier.stats;
  governor : Governor.stats;
  live_conns : int;
  peak_live_conns : int;
  shed_bytes : int;
  retransmissions : int;
  aborts_sent : int;
  sheds_sent : int;
}

let zero () =
  {
    counts = Counters.zero ();
    verifier = Edc.Verifier.zero_stats;
    governor =
      { Governor.accounted_bytes = 0; high_water = 0; entries = 0;
        evictions_deadline = 0; evictions_budget = 0; budget_bytes = 0 };
    live_conns = 0;
    peak_live_conns = 0;
    shed_bytes = 0;
    retransmissions = 0;
    aborts_sent = 0;
    sheds_sent = 0;
  }

let add a b =
  let counts = Counters.zero () in
  Counters.add counts a.counts;
  Counters.add counts b.counts;
  let ga = a.governor and gb = b.governor in
  {
    counts;
    verifier = Edc.Verifier.add_stats a.verifier b.verifier;
    governor =
      {
        gb with
        high_water = Int.max ga.high_water gb.high_water;
        evictions_deadline = ga.evictions_deadline + gb.evictions_deadline;
        evictions_budget = ga.evictions_budget + gb.evictions_budget;
        budget_bytes = Int.max ga.budget_bytes gb.budget_bytes;
      };
    live_conns = b.live_conns;
    peak_live_conns = Int.max a.peak_live_conns b.peak_live_conns;
    shed_bytes = a.shed_bytes + b.shed_bytes;
    retransmissions = a.retransmissions + b.retransmissions;
    aborts_sent = a.aborts_sent + b.aborts_sent;
    sheds_sent = a.sheds_sent + b.sheds_sent;
  }

type reading = Count of int | Level of int * int

let table =
  [
    ("edc_chunks_total", fun t -> Count t.verifier.chunks_seen);
    ("edc_duplicates_total", fun t -> Count t.verifier.duplicates);
    ("edc_tpdus_failed_total", fun t -> Count t.verifier.tpdus_failed);
    ("edc_tpdus_passed_total", fun t -> Count t.verifier.tpdus_passed);
    ( "governor_budget_bytes",
      fun t -> Level (t.governor.budget_bytes, t.governor.budget_bytes) );
    ( "governor_evictions_budget_total",
      fun t -> Count t.governor.evictions_budget );
    ( "governor_evictions_deadline_total",
      fun t -> Count t.governor.evictions_deadline );
    ( "governor_occupancy_bytes",
      fun t -> Level (t.governor.accounted_bytes, t.governor.high_water) );
    ("multi_anomalies_total", fun t -> Count t.counts.anomalies);
    ("multi_conn_gcs_total", fun t -> Count t.counts.conn_gcs);
    ("multi_conns_poisoned_total", fun t -> Count t.counts.conns_poisoned);
    ("multi_displaced_total", fun t -> Count t.counts.displaced_conns);
    ("multi_late_drops_total", fun t -> Count t.counts.late_drops);
    ("multi_live_conns", fun t -> Level (t.live_conns, t.peak_live_conns));
    ("multi_quarantine_drops_total", fun t -> Count t.counts.quarantine_drops);
    ("multi_quarantines_total", fun t -> Count t.counts.quarantines);
    ("multi_unknown_drops_total", fun t -> Count t.counts.unknown_drops);
    ("transport_aborts_sent_total", fun t -> Count t.aborts_sent);
    ("transport_acks_total", fun t -> Count t.counts.acks_sent);
    ("transport_nacks_total", fun t -> Count t.counts.nacks_sent);
    ("transport_reacks_total", fun t -> Count t.counts.reacks_sent);
    ("transport_rto_fires_total", fun t -> Count t.retransmissions);
    ("transport_shed_bytes_total", fun t -> Count t.shed_bytes);
    ("transport_sheds_received_total", fun t -> Count t.counts.sheds_received);
    ("transport_sheds_sent_total", fun t -> Count t.sheds_sent);
  ]

let report t (s : Obs.Metrics.snapshot) =
  let counts, levels =
    List.partition_map
      (fun (name, read) ->
        match read t with
        | Count n -> Either.Left (name, n)
        | Level (v, high) -> Either.Right (name, v, high))
      table
  in
  let by_name key l = List.sort (fun a b -> String.compare (key a) (key b)) l in
  {
    s with
    s_counters = by_name fst (counts @ s.s_counters);
    s_gauges = by_name (fun (name, _, _) -> name) (levels @ s.s_gauges);
  }
