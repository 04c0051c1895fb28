module Sim = Aitf_engine.Sim
module Timer = Aitf_engine.Timer
open Aitf_net

type config = {
  check_interval : float;
  drop_threshold : float;
  limit_fraction : float;
  feedback_delay : float;
  over_limit_factor : float;
  limiter_timeout : float;
  max_depth : int;
  aggregate_prefix_len : int;
  max_contributors : int;
}

let default_config =
  {
    check_interval = 0.5;
    drop_threshold = 0.1;
    limit_fraction = 0.3;
    feedback_delay = 1.0;
    over_limit_factor = 1.5;
    limiter_timeout = 30.0;
    max_depth = 6;
    aggregate_prefix_len = 24;
    max_contributors = 4;
  }

type Packet.payload +=
  | Pushback_request of { aggregate : Addr.prefix; rate : float; depth : int }

type limiter = {
  aggregate : Addr.prefix;
  mutable rate : float;  (* bytes/s *)
  mutable tokens : float;
  mutable last_refill : float;
  mutable expires_at : float;
  mutable dropped_bytes : float;
  mutable arrived_bytes : float;  (* since installation *)
  depth : int;
  mutable propagated : bool;
}

type contribution = {
  mutable total : float;
  by_hop : (Addr.t, float ref) Hashtbl.t;
}

type router = {
  rt : t;
  node : Node.t;
  limiters : (Addr.prefix, limiter) Hashtbl.t;
  (* per-interval accounting, reset by the periodic check *)
  mutable traffic : (Addr.prefix, contribution) Hashtbl.t;
  (* previous per-port (tx, drop) totals for delta computation *)
  mutable port_history : (string * (int * int)) list;
  mutable timer : Timer.t option;
}

and t = {
  net : Network.t;
  cfg : config;
  routers : (int, router) Hashtbl.t;
  mutable installed : int;
  mutable messages : int;
}

let config t = t.cfg

let aggregate_of t (dst : Addr.t) = Addr.prefix dst t.cfg.aggregate_prefix_len

(* --- rate limiting ------------------------------------------------------ *)

let limiter_allow r l ~now ~(size : int) =
  (* token bucket in bytes with a one-interval burst allowance *)
  let elapsed = now -. l.last_refill in
  if elapsed > 0. then begin
    let cap = Float.max (l.rate *. r.rt.cfg.check_interval) 1500. in
    l.tokens <- Float.min cap (l.tokens +. (elapsed *. l.rate));
    l.last_refill <- now
  end;
  let need = float_of_int size in
  if l.tokens >= need then begin
    l.tokens <- l.tokens -. need;
    true
  end
  else begin
    l.dropped_bytes <- l.dropped_bytes +. need;
    false
  end

let account r (pkt : Packet.t) =
  let agg = aggregate_of r.rt pkt.dst in
  let c =
    match Hashtbl.find_opt r.traffic agg with
    | Some c -> c
    | None ->
      let c = { total = 0.; by_hop = Hashtbl.create 4 } in
      Hashtbl.replace r.traffic agg c;
      c
  in
  let size = float_of_int pkt.size in
  c.total <- c.total +. size;
  match pkt.last_hop with
  | None -> ()
  | Some hop -> (
    match Hashtbl.find_opt c.by_hop hop with
    | Some cell -> cell := !cell +. size
    | None -> Hashtbl.replace c.by_hop hop (ref size))

let hook r (_node : Node.t) (pkt : Packet.t) =
  account r pkt;
  let now = Sim.now (Network.sim r.rt.net) in
  let agg = aggregate_of r.rt pkt.dst in
  match Hashtbl.find_opt r.limiters agg with
  | None -> Node.Continue
  | Some l ->
    if now >= l.expires_at then begin
      Hashtbl.remove r.limiters agg;
      Node.Continue
    end
    else begin
      l.arrived_bytes <- l.arrived_bytes +. float_of_int pkt.size;
      if limiter_allow r l ~now ~size:pkt.size then Node.Continue
      else Node.Drop Aitf_obs.Ledger.Pushback_limit
    end

(* --- upstream propagation ----------------------------------------------- *)

let send_request r ~dst ~aggregate ~rate ~depth =
  r.rt.messages <- r.rt.messages + 1;
  let pkt =
    Packet.make ~proto:254 ~src:r.node.Node.addr ~dst ~size:64
      (Pushback_request { aggregate; rate; depth })
  in
  Network.originate r.rt.net r.node pkt

(* Ask the top upstream contributors of [l.aggregate] to limit it too,
   splitting the rate budget between them. *)
let propagate r l =
  if (not l.propagated) && l.depth > 0 then begin
    let contributors =
      match Hashtbl.find_opt r.traffic l.aggregate with
      | None -> []
      | Some c ->
        Hashtbl.fold (fun hop cell acc -> (hop, !cell) :: acc) c.by_hop []
        |> List.sort (fun (ha, a) (hb, b) ->
               (* Tie-break on the hop address: List.sort is not stable,
                  so equal contributions must not leak hash-bucket
                  order. *)
               match Float.compare b a with
               | 0 -> Addr.compare ha hb
               | c -> c)
    in
    let upstream =
      List.filter
        (fun (hop, _) ->
          match Network.node_by_addr r.rt.net hop with
          | Some n -> Hashtbl.mem r.rt.routers n.Node.id
          | None -> false)
        contributors
    in
    let chosen =
      List.filteri (fun i _ -> i < r.rt.cfg.max_contributors) upstream
    in
    if chosen <> [] then begin
      l.propagated <- true;
      let share = l.rate /. float_of_int (List.length chosen) in
      List.iter
        (fun (hop, _) ->
          send_request r ~dst:hop ~aggregate:l.aggregate ~rate:share
            ~depth:(l.depth - 1))
        chosen
    end
  end

let install_limiter r ~aggregate ~rate ~depth =
  let now = Sim.now (Network.sim r.rt.net) in
  match Hashtbl.find_opt r.limiters aggregate with
  | Some l ->
    l.rate <- Float.min l.rate rate;
    l.expires_at <- now +. r.rt.cfg.limiter_timeout
  | None ->
    let l =
      {
        aggregate;
        rate;
        tokens = rate *. r.rt.cfg.check_interval;
        last_refill = now;
        expires_at = now +. r.rt.cfg.limiter_timeout;
        dropped_bytes = 0.;
        arrived_bytes = 0.;
        depth;
        propagated = false;
      }
    in
    Hashtbl.replace r.limiters aggregate l;
    r.rt.installed <- r.rt.installed + 1;
    (* After the feedback delay, if the aggregate still arrives well above
       the limit, recruit the upstream neighbors. *)
    ignore
      (Sim.after (Network.sim r.rt.net) r.rt.cfg.feedback_delay (fun () ->
           let arrival_rate = l.arrived_bytes /. r.rt.cfg.feedback_delay in
           if arrival_rate > r.rt.cfg.over_limit_factor *. l.rate then
             propagate r l))

(* --- congestion detection ----------------------------------------------- *)

let check_congestion r =
  let interval_traffic = r.traffic in
  let congested_port =
    let check (port : Node.port) =
      let link = port.Node.link in
      let key = Link.name link in
      let tx = Link.tx_packets link and dropped = Link.dropped_packets link in
      let prev_tx, prev_drop =
        match List.assoc_opt key r.port_history with
        | Some v -> v
        | None -> (0, 0)
      in
      r.port_history <-
        (key, (tx, dropped)) :: List.remove_assoc key r.port_history;
      let dtx = tx - prev_tx and ddrop = dropped - prev_drop in
      let total = dtx + ddrop in
      if total > 0 && float_of_int ddrop /. float_of_int total > r.rt.cfg.drop_threshold
      then Some link
      else None
    in
    List.find_map check r.node.Node.ports
  in
  (match congested_port with
  | None -> ()
  | Some link ->
    (* Highest-volume aggregate this interval is the culprit. *)
    let top =
      Hashtbl.fold
        (fun agg c best ->
          match best with
          | Some (_, t) when t >= c.total -> best
          | _ -> Some (agg, c.total))
        interval_traffic None
    in
    match top with
    | None -> ()
    | Some (aggregate, _) ->
      let rate = r.rt.cfg.limit_fraction *. Link.bandwidth link /. 8. in
      install_limiter r ~aggregate ~rate ~depth:r.rt.cfg.max_depth);
  r.traffic <- Hashtbl.create 16

(* --- deployment --------------------------------------------------------- *)

let deliver r prev (node : Node.t) (pkt : Packet.t) =
  match pkt.payload with
  | Pushback_request { aggregate; rate; depth } ->
    install_limiter r ~aggregate ~rate ~depth
  | _ -> prev node pkt

let deploy ?(config = default_config) net nodes =
  let t =
    { net; cfg = config; routers = Hashtbl.create 16; installed = 0; messages = 0 }
  in
  let sim = Network.sim net in
  let attach (node : Node.t) =
    let r =
      {
        rt = t;
        node;
        limiters = Hashtbl.create 8;
        traffic = Hashtbl.create 16;
        port_history = [];
        timer = None;
      }
    in
    Hashtbl.replace t.routers node.Node.id r;
    Node.add_hook node (hook r);
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <- deliver r prev;
    r.timer <-
      Some
        (Timer.periodic sim ~period:config.check_interval (fun () ->
             check_congestion r))
  in
  List.iter attach nodes;
  t

let limiters_installed t = t.installed

let live_limiters_of r ~now =
  Hashtbl.fold
    (fun _ l acc -> if now < l.expires_at then acc + 1 else acc)
    r.limiters 0

let active_limiters t =
  let now = Sim.now (Network.sim t.net) in
  Hashtbl.fold (fun _ r acc -> acc + live_limiters_of r ~now) t.routers 0

let routers_limiting t =
  let now = Sim.now (Network.sim t.net) in
  Hashtbl.fold
    (fun _ r acc -> if live_limiters_of r ~now > 0 then acc + 1 else acc)
    t.routers 0

let messages_sent t = t.messages

let limited_bytes t =
  Hashtbl.fold
    (fun _ r acc ->
      Hashtbl.fold (fun _ l acc -> acc +. l.dropped_bytes) r.limiters acc)
    t.routers 0.
