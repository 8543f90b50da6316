type t = {
  mutable acks_sent : int;
  mutable nacks_sent : int;
  mutable reacks_sent : int;
  mutable evictions : int;
  mutable aborts_received : int;
  mutable sheds_received : int;
  mutable shed_elems : int;
  mutable sheds_refused : int;
  mutable conn_gcs : int;
  mutable displaced_conns : int;
  mutable unknown_drops : int;
  mutable late_drops : int;
  mutable quarantine_drops : int;
  mutable anomalies : int;
  mutable sig_damage : int;
  mutable quarantines : int;
  mutable conns_poisoned : int;
}

let zero () =
  {
    acks_sent = 0;
    nacks_sent = 0;
    reacks_sent = 0;
    evictions = 0;
    aborts_received = 0;
    sheds_received = 0;
    shed_elems = 0;
    sheds_refused = 0;
    conn_gcs = 0;
    displaced_conns = 0;
    unknown_drops = 0;
    late_drops = 0;
    quarantine_drops = 0;
    anomalies = 0;
    sig_damage = 0;
    quarantines = 0;
    conns_poisoned = 0;
  }

let add acc c =
  acc.acks_sent <- acc.acks_sent + c.acks_sent;
  acc.nacks_sent <- acc.nacks_sent + c.nacks_sent;
  acc.reacks_sent <- acc.reacks_sent + c.reacks_sent;
  acc.evictions <- acc.evictions + c.evictions;
  acc.aborts_received <- acc.aborts_received + c.aborts_received;
  acc.sheds_received <- acc.sheds_received + c.sheds_received;
  acc.shed_elems <- acc.shed_elems + c.shed_elems;
  acc.sheds_refused <- acc.sheds_refused + c.sheds_refused;
  acc.conn_gcs <- acc.conn_gcs + c.conn_gcs;
  acc.displaced_conns <- acc.displaced_conns + c.displaced_conns;
  acc.unknown_drops <- acc.unknown_drops + c.unknown_drops;
  acc.late_drops <- acc.late_drops + c.late_drops;
  acc.quarantine_drops <- acc.quarantine_drops + c.quarantine_drops;
  acc.anomalies <- acc.anomalies + c.anomalies;
  acc.sig_damage <- acc.sig_damage + c.sig_damage;
  acc.quarantines <- acc.quarantines + c.quarantines;
  acc.conns_poisoned <- acc.conns_poisoned + c.conns_poisoned
