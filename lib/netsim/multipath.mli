(** A bundle of parallel links modelling multipath routing — the
    paper's §1 example: a gigabit connection striped over eight 155
    Mb/s ATM paths, where skew among the routes makes packets "leave
    the network in a different order than that in which they entered".

    Each path gets an extra fixed skew on top of the base delay;
    spreading packets across paths therefore reorders them even with no
    loss.  [Route_change] adds transient reordering by abruptly moving
    traffic to a path with a different delay. *)

type spread =
  | Round_robin
  | Random
  | Route_change of float
      (** switch to the next path every given number of seconds — the
          paper's "first packet sent along the new route may arrive
          before the last packet sent along the old route" *)

type t

val create :
  Engine.t ->
  ?name:string ->
  ?paths:int ->
  ?rate_bps:float ->
  ?delay:float ->
  ?skew:float ->
  ?mtu:int ->
  ?loss:float ->
  ?corrupt:float ->
  ?jitter:float ->
  ?duplicate:float ->
  ?spread:spread ->
  deliver:(bytes -> unit) ->
  unit ->
  t
(** Defaults: 8 paths of 155 Mb/s, 1 ms base delay, 0.25 ms per-path
    skew step, MTU 9180, round-robin spreading.  [jitter] (mean of an
    exponential extra delay, default 0) is applied per packet on each
    path, adding intra-path reordering on top of the inter-path skew. *)

val send : t -> bytes -> [ `Queued | `Dropped_mtu ]
val mtu : t -> int
val paths : t -> Link.t array
