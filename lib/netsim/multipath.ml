type spread = Round_robin | Random | Route_change of float

type t = {
  links : Link.t array;
  spread : spread;
  rng : Rng.t;
  engine : Engine.t;
  mutable next : int;
  mutable last_switch : float;
}

let create engine ?(name = "multipath") ?(paths = 8) ?(rate_bps = 155e6)
    ?(delay = 1e-3) ?(skew = 0.25e-3) ?(mtu = 9180) ?(loss = 0.0)
    ?(corrupt = 0.0) ?(jitter = 0.0) ?(duplicate = 0.0)
    ?(spread = Round_robin) ~deliver () =
  if paths < 1 then invalid_arg "Multipath.create: paths < 1";
  let links =
    Array.init paths (fun i ->
        Link.create engine
          ~name:(Printf.sprintf "%s.%d" name i)
          ~rate_bps
          ~delay:(delay +. (float_of_int i *. skew))
          ~mtu ~loss ~corrupt ~jitter ~duplicate ~deliver ())
  in
  {
    links;
    spread;
    rng = Rng.split (Engine.rng engine);
    engine;
    next = 0;
    last_switch = 0.0;
  }

let pick m =
  let n = Array.length m.links in
  match m.spread with
  | Round_robin ->
      let i = m.next in
      m.next <- (m.next + 1) mod n;
      i
  | Random -> Rng.int m.rng n
  | Route_change period ->
      let now = Engine.now m.engine in
      if now -. m.last_switch >= period then begin
        m.last_switch <- now;
        m.next <- (m.next + 1) mod n
      end;
      m.next

let send m b = Link.send m.links.(pick m) b

let mtu m = Link.mtu m.links.(0)
let paths m = m.links
