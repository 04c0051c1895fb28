module Sim = Aitf_engine.Sim
module Heap = Aitf_engine.Heap
module Ledger = Aitf_obs.Ledger

type t = {
  sim : Sim.t;
  (* Sharded mode (parallel engine): maps an AS id to the scheduler shard
     world owning that domain's links and timers. [None] = everything on
     [sim], which is the sequential engine bit for bit. *)
  sim_of_as : (int -> Sim.t) option;
  mutable nodes_rev : Node.t list;
  by_id : (int, Node.t) Hashtbl.t;
  by_addr : (Addr.t, Node.t) Hashtbl.t;
  mutable links_rev : Link.t list;
  mutable next_id : int;
}

let create ?sim_of_as sim =
  Aitf_obs.Metrics.if_attached sim
    (Ledger.register_metrics (Ledger.of_sim sim));
  {
    sim;
    sim_of_as;
    nodes_rev = [];
    by_id = Hashtbl.create 64;
    by_addr = Hashtbl.create 64;
    links_rev = [];
    next_id = 0;
  }

let sim t = t.sim

let sim_of_as t as_id =
  match t.sim_of_as with None -> t.sim | Some f -> f as_id

let sim_for t (node : Node.t) = sim_of_as t node.Node.as_id

(* Forwarding loop ------------------------------------------------------- *)

let rec run_hooks node pkt = function
  | [] -> Node.Continue
  | h :: rest -> (
    match h node pkt with
    | Node.Continue -> run_hooks node pkt rest
    | Node.Drop _ as d -> d)

(* [ledger] is that of the world owning [node], [cls] the packet's class. *)
let drop ledger cls node fate (pkt : Packet.t) =
  Node.count_drop node fate;
  Ledger.post ledger cls fate pkt.size

let forward ledger cls node (pkt : Packet.t) =
  match Lpm.lookup node.Node.fib pkt.dst with
  | None -> drop ledger cls node Ledger.No_route pkt
  | Some port ->
    node.Node.forwarded_packets <- node.Node.forwarded_packets + 1;
    Link.send port.Node.link pkt

let deliver ledger cls node (pkt : Packet.t) =
  node.Node.delivered_packets <- node.Node.delivered_packets + 1;
  Ledger.post ledger cls Ledger.Delivered pkt.size;
  node.Node.local_deliver node pkt

(* [sim] is the world owning [node]: the packet lands in its ledger. *)
let receive sim node (pkt : Packet.t) =
  let ledger = Ledger.of_sim sim and cls = Packet.cls pkt in
  Ledger.arrive ledger cls pkt.size;
  node.Node.rx_packets <- node.Node.rx_packets + 1;
  node.Node.rx_bytes <- node.Node.rx_bytes + pkt.size;
  if Addr.equal pkt.dst node.Node.addr then deliver ledger cls node pkt
  else
    match run_hooks node pkt node.Node.hooks with
    | Node.Drop fate -> drop ledger cls node fate pkt
    | Node.Continue ->
      pkt.ttl <- pkt.ttl - 1;
      if pkt.ttl <= 0 then drop ledger cls node Ledger.Ttl_expired pkt
      else forward ledger cls node pkt

(* Topology -------------------------------------------------------------- *)

let add_node t ~name ~addr ~as_id kind =
  if Hashtbl.mem t.by_addr addr then
    invalid_arg
      (Printf.sprintf "Network.add_node: duplicate address %s"
         (Addr.to_string addr));
  let node = Node.make ~id:t.next_id ~name ~addr ~as_id kind in
  t.next_id <- t.next_id + 1;
  t.nodes_rev <- node :: t.nodes_rev;
  Hashtbl.add t.by_id node.id node;
  Hashtbl.add t.by_addr addr node;
  Aitf_obs.Metrics.if_attached t.sim (Node.register_metrics node);
  node

let node t id = Hashtbl.find t.by_id id
let node_by_addr t addr = Hashtbl.find_opt t.by_addr addr

let node_by_name t name =
  List.find_opt (fun n -> n.Node.name = name) (List.rev t.nodes_rev)

let nodes t = List.rev t.nodes_rev
let links t = List.rev t.links_rev

let connect ?(queue_capacity = 65536) ?discipline ?name t a b ~bandwidth
    ~delay =
  let link_name dir =
    match name with
    | Some n -> n ^ dir
    | None -> Printf.sprintf "%s->%s" a.Node.name b.Node.name
  in
  (* Each directed link lives on the scheduler of its transmitting
     endpoint's AS: its queue, RED state and timers are then only ever
     touched by that shard. *)
  let sim_a = sim_of_as t a.Node.as_id and sim_b = sim_of_as t b.Node.as_id in
  let ab =
    Link.create ?discipline sim_a ~name:(link_name "") ~bandwidth ~delay
      ~queue_capacity
  in
  let ba =
    Link.create ?discipline sim_b
      ~name:(Printf.sprintf "%s->%s" b.Node.name a.Node.name)
      ~bandwidth ~delay ~queue_capacity
  in
  (* Each direction's [last_hop] value is built once here, not per
     delivery. *)
  let from_a = Some a.Node.addr and from_b = Some b.Node.addr in
  Link.set_deliver ab (fun pkt ->
      pkt.Packet.last_hop <- from_a;
      receive sim_b b pkt);
  Link.set_deliver ba (fun pkt ->
      pkt.Packet.last_hop <- from_b;
      receive sim_a a pkt);
  let inter_as = a.Node.as_id <> b.Node.as_id in
  a.Node.ports <-
    a.Node.ports @ [ { Node.link = ab; peer_id = b.Node.id; inter_as } ];
  b.Node.ports <-
    b.Node.ports @ [ { Node.link = ba; peer_id = a.Node.id; inter_as } ];
  t.links_rev <- ba :: ab :: t.links_rev;
  (ab, ba)

(* Routing --------------------------------------------------------------- *)

(* Dijkstra from [src] over propagation delays (plus a small per-hop bias so
   zero-delay topologies still prefer shorter hop counts) on the nodes
   [by_id], indexed by id. Returns, for every reachable node id, the
   distance and the first-hop port out of [src]. *)
let shortest_paths (by_id : Node.t array) (src : Node.t) =
  let n = Array.length by_id in
  let dist = Array.make n infinity in
  let first_port : Node.port option array = Array.make n None in
  let heap =
    Heap.create ~cmp:(fun (d1, _) (d2, _) -> Float.compare d1 d2)
  in
  dist.(src.Node.id) <- 0.;
  Heap.push heap (0., src.Node.id);
  let hop_bias = 1e-6 in
  let rec relax d id = function
    | [] -> ()
    | (port : Node.port) :: rest ->
      if Link.up port.Node.link then begin
        let nd = d +. Link.delay port.Node.link +. hop_bias in
        let peer = port.Node.peer_id in
        if nd < dist.(peer) then begin
          dist.(peer) <- nd;
          first_port.(peer) <-
            (if id = src.Node.id then Some port else first_port.(id));
          Heap.push heap (nd, peer)
        end
      end;
      relax d id rest
  in
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, id) ->
      if d <= dist.(id) then relax d id by_id.(id).Node.ports;
      loop ()
  in
  loop ();
  (dist, first_port)

let compute_routes t =
  let all = nodes t in
  let by_id = Array.of_list all in
  let advertisements =
    List.concat_map
      (fun (n : Node.t) ->
        List.map (fun (p, scope) -> (p, scope, n)) n.Node.advertised)
      all
  in
  let install (src : Node.t) =
    let dist, first_port = shortest_paths by_id src in
    Lpm.clear src.Node.fib;
    (* Best (nearest-owner) route per prefix. *)
    let best : (Addr.prefix, float * Node.port) Hashtbl.t =
      Hashtbl.create 64
    in
    let consider (prefix, scope, owner) =
      let visible =
        match scope with
        | Node.Global -> true
        | Node.As_local -> owner.Node.as_id = src.Node.as_id
      in
      if visible && owner.Node.id <> src.Node.id then
        match first_port.(owner.Node.id) with
        | None -> ()
        | Some port ->
          let d = dist.(owner.Node.id) in
          let better =
            match Hashtbl.find_opt best prefix with
            | None -> true
            | Some (d', _) -> d < d'
          in
          if better then Hashtbl.replace best prefix (d, port)
    in
    List.iter consider advertisements;
    Hashtbl.iter (fun prefix (_, port) -> Lpm.insert src.Node.fib prefix port)
      best
  in
  List.iter install all

(* Injection & admin ------------------------------------------------------ *)

let originate t (node : Node.t) (pkt : Packet.t) =
  let sim = sim_for t node in
  let ledger = Ledger.of_sim sim and cls = Packet.cls pkt in
  Ledger.offer ledger cls pkt.size;
  if Addr.equal pkt.dst node.Node.addr then begin
    (* In flight until the local-deliver event. *)
    Ledger.depart ledger cls pkt.size;
    ignore
      (Sim.after ~label:"local-deliver" sim 0. (fun () ->
           let ledger = Ledger.of_sim sim in
           Ledger.arrive ledger cls pkt.size;
           deliver ledger cls node pkt))
  end
  else forward ledger cls node pkt

let disconnect_port _t (node : Node.t) ~peer_id =
  match Node.port_to node ~peer_id with
  | None -> false
  | Some port ->
    Link.set_up port.Node.link false;
    let peer_port =
      let peer_node_id = node.Node.id in
      fun (p : Node.port) -> p.Node.peer_id = peer_node_id
    in
    (match
       List.find_opt peer_port
         (Hashtbl.find_opt _t.by_id peer_id
         |> Option.map (fun n -> n.Node.ports)
         |> Option.value ~default:[])
     with
    | Some p -> Link.set_up p.Node.link false
    | None -> ());
    true
