module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_core

type spec = {
  domains : int;
  tier1 : int;
  multihome : int;
  peer_p : float;
  core_bw : float;
  uplink_bw : float;
  access_bw : float;
  hop_delay : float;
  access_delay : float;
  queue_capacity : int;
}

let default_spec =
  {
    domains = 1000;
    tier1 = 4;
    multihome = 2;
    peer_p = 0.15;
    core_bw = 10e9;
    uplink_bw = 1e9;
    access_bw = 100e6;
    hop_delay = 0.010;
    access_delay = 0.002;
    queue_capacity = 65536;
  }

type t = {
  net : Network.t;
  spec : spec;
  routers : Node.t array;
  providers : int list array;  (* sorted ascending *)
  customers : int list array;
  peers : int list array;
  host_count : int array;  (* infra addresses handed out per domain *)
}

let net t = t.net
let spec t = t.spec
let n_domains t = Array.length t.routers

(* Domain d owns 4.0.0.0 + d*2^16 /16 — clear of the 10/172 hierarchy
   plans and the 31/32 swarm pools. *)
let domain_base d = Addr.of_octets (4 + (d lsr 8)) (d land 0xff) 0 0
let domain_prefix d = Addr.prefix (domain_base d) 16

let router t d = t.routers.(d)
let providers t d = t.providers.(d)
let customers t d = t.customers.(d)
let peers t d = t.peers.(d)

let degree t d =
  List.length t.providers.(d)
  + List.length t.customers.(d)
  + List.length t.peers.(d)

let is_stub t d = t.customers.(d) = []

(* --- generation ---------------------------------------------------------- *)

(* Generation is split from materialisation so sharded runs can partition
   the graph before any network object exists: [plan] performs every RNG
   draw (preferential attachment, peering) and records the edge list in
   creation order; [materialise] replays it against a network without
   touching the RNG. [build] composes the two, so the draw sequence — and
   therefore every downstream consumer of the stream — is unchanged from
   the pre-split code. *)

type plan = {
  p_spec : spec;
  p_providers : int list array;
  p_customers : int list array;
  p_peers : int list array;
  p_edges : (int * int * float) list;  (* (a, b, bandwidth), creation order *)
}

let check spec =
  if spec.tier1 < 2 then Error "AS graph: tier1 must be >= 2"
  else if spec.domains <= spec.tier1 then
    Error "AS graph: domains must outnumber the tier-1 providers"
  else if spec.domains > 16384 then
    Error (Printf.sprintf "AS graph: domains must be <= 16384, got %d" spec.domains)
  else if spec.multihome < 1 then Error "AS graph: multihome must be >= 1"
  else Ok ()

let plan rng spec =
  Result.iter_error invalid_arg (check spec);
  let n = spec.domains in
  let providers = Array.make n [] in
  let customers = Array.make n [] in
  let peers = Array.make n [] in
  let deg = Array.make n 0 in
  let edges = ref [] in
  let connect ?(bw = spec.uplink_bw) a b =
    edges := (a, b, bw) :: !edges;
    deg.(a) <- deg.(a) + 1;
    deg.(b) <- deg.(b) + 1
  in
  (* Tier-1 clique: mutual peers, the only domains without providers. *)
  for i = 0 to spec.tier1 - 1 do
    for j = i + 1 to spec.tier1 - 1 do
      peers.(i) <- j :: peers.(i);
      peers.(j) <- i :: peers.(j);
      connect ~bw:spec.core_bw i j
    done
  done;
  (* Preferential attachment: each new domain buys transit from [multihome]
     distinct existing domains chosen with probability proportional to
     degree + 1 — the rich get richer, yielding a power-law degree tail. *)
  for d = spec.tier1 to n - 1 do
    let m = Int.min spec.multihome d in
    let chosen = ref [] in
    while List.length !chosen < m do
      let total = ref 0 in
      for c = 0 to d - 1 do
        if not (List.mem c !chosen) then total := !total + deg.(c) + 1
      done;
      let r = ref (Rng.int rng !total) in
      let pick = ref (-1) in
      (try
         for c = 0 to d - 1 do
           if not (List.mem c !chosen) then begin
             r := !r - (deg.(c) + 1);
             if !r < 0 then begin
               pick := c;
               raise Exit
             end
           end
         done
       with Exit -> ());
      chosen := !pick :: !chosen
    done;
    let provs = List.sort compare !chosen in
    providers.(d) <- provs;
    List.iter
      (fun p ->
        customers.(p) <- d :: customers.(p);
        connect d p)
      provs;
    (* Lateral peering: with probability peer_p, one peer link to a
       uniformly chosen earlier non-tier-1, non-provider domain. The
       bernoulli draw happens for every domain so the stream position —
       hence the rest of the topology — does not depend on the outcome. *)
    if Rng.bernoulli rng ~p:spec.peer_p then begin
      let cands =
        List.filter
          (fun c -> not (List.mem c provs))
          (List.init (Int.max 0 (d - spec.tier1)) (fun i -> spec.tier1 + i))
      in
      match cands with
      | [] -> ()
      | _ ->
        let p = List.nth cands (Rng.int rng (List.length cands)) in
        peers.(d) <- p :: peers.(d);
        peers.(p) <- d :: peers.(p);
        connect d p
    end
  done;
  for d = 0 to n - 1 do
    customers.(d) <- List.sort compare customers.(d);
    peers.(d) <- List.sort compare peers.(d)
  done;
  {
    p_spec = spec;
    p_providers = providers;
    p_customers = customers;
    p_peers = peers;
    p_edges = List.rev !edges;
  }

let materialise ?sim_of_as sim plan =
  let spec = plan.p_spec in
  let n = spec.domains in
  let net = Network.create ?sim_of_as sim in
  let routers =
    Array.init n (fun d ->
        let r =
          Network.add_node net
            ~name:(Printf.sprintf "as%d" d)
            ~addr:(Addr.add (domain_base d) 1)
            ~as_id:d Node.Border_router
        in
        r.Node.advertised <- [ (domain_prefix d, Node.Global) ];
        r)
  in
  List.iter
    (fun (a, b, bw) ->
      ignore
        (Network.connect net routers.(a) routers.(b) ~bandwidth:bw
           ~delay:spec.hop_delay ~queue_capacity:spec.queue_capacity))
    plan.p_edges;
  let providers = plan.p_providers in
  let t =
    {
      net;
      spec;
      routers;
      providers;
      customers = plan.p_customers;
      peers = plan.p_peers;
      host_count = Array.make n 0;
    }
  in
  (* --- valley-free FIB installation (Gao–Rexford export rules) ---------
     Per destination d, BFS up the provider DAG from d: every ancestor v
     learns a customer route to d through the child it was first reached
     from (shortest, lowest-id tie-break). That pass also yields v's
     customer cone. Peer routes: v reaches the cone of each peer p in one
     lateral hop (p only exports customer routes to peers). Everything
     else defaults to the primary provider, which is always a valid
     provider route because every domain sits in some tier-1's cone and
     the tier-1 clique is fully meshed. *)
  let port_between a b =
    match Node.port_to routers.(a) ~peer_id:routers.(b).Node.id with
    | Some p -> p
    | None -> assert false
  in
  let in_cone = Array.init n (fun _ -> Bytes.make n '\000') in
  let cone = Array.make n [] in
  for d = 0 to n - 1 do
    let via = Array.make n (-1) in
    let q = Queue.create () in
    via.(d) <- d;
    Queue.push d q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun p ->
          if via.(p) < 0 then begin
            via.(p) <- u;
            Queue.push p q
          end)
        providers.(u)
    done;
    for v = 0 to n - 1 do
      if v <> d && via.(v) >= 0 then begin
        Bytes.set in_cone.(v) d '\001';
        cone.(v) <- d :: cone.(v);
        Lpm.insert routers.(v).Node.fib (domain_prefix d)
          (port_between v via.(v))
      end
    done
  done;
  for v = 0 to n - 1 do
    (* Customer beats peer: only cone gaps get lateral entries, and the
       lowest-id peer wins ties (peers are sorted). *)
    List.iter
      (fun p ->
        let port = port_between v p in
        List.iter
          (fun d ->
            if
              Bytes.get in_cone.(v) d = '\000'
              && Lpm.exact routers.(v).Node.fib (domain_prefix d) = None
            then Lpm.insert routers.(v).Node.fib (domain_prefix d) port)
          (p :: cone.(p)))
      t.peers.(v);
    match t.providers.(v) with
    | [] -> ()  (* tier-1: explicit routes cover the whole Internet *)
    | primary :: _ ->
      Lpm.insert routers.(v).Node.fib
        (Addr.prefix (Addr.of_octets 0 0 0 0) 0)
        (port_between v primary)
  done;
  t

let build sim rng spec = materialise sim (plan rng spec)

(* --- domain -> shard partitioner ------------------------------------------ *)

(* Weight-balanced region growing over the relationship graph, followed by
   a boundary-refinement pass — a deterministic min-cut-aware heuristic in
   the spirit of multi-seed BFS partitioning. Seeds are the heaviest
   domains (ties to the lowest id), regions grow by always extending the
   lightest shard from its BFS frontier (keeping each shard a connected,
   low-cut blob), and refinement then moves boundary domains to the shard
   owning most of their neighbors when that strictly reduces the edge cut
   without unbalancing the loads. Pure function of (plan, weights). *)
let partition plan ~shards ~weight =
  if shards < 1 then
    invalid_arg
      (Printf.sprintf "As_graph.partition: shards must be >= 1 (got %d)"
         shards);
  let n = plan.p_spec.domains in
  let assign = Array.make n 0 in
  if shards = 1 then assign
  else begin
    let k = Int.min shards n in
    let w =
      Array.init n (fun d ->
          let x = weight d in
          if Float.is_nan x || x < 0. then
            invalid_arg "As_graph.partition: weights must be >= 0";
          x)
    in
    let nbrs d =
      plan.p_providers.(d) @ plan.p_peers.(d) @ plan.p_customers.(d)
    in
    Array.fill assign 0 n (-1);
    (* Seeds: the k heaviest domains, lowest id on ties. *)
    let order = Array.init n (fun d -> d) in
    Array.sort
      (fun a b ->
        let c = Float.compare w.(b) w.(a) in
        if c <> 0 then c else compare a b)
      order;
    let load = Array.make k 0. in
    let counts = Array.make k 0 in
    let frontiers = Array.init k (fun _ -> Queue.create ()) in
    let assigned = ref 0 in
    let take s d =
      assign.(d) <- s;
      load.(s) <- load.(s) +. w.(d);
      counts.(s) <- counts.(s) + 1;
      incr assigned;
      List.iter
        (fun p -> if assign.(p) < 0 then Queue.push p frontiers.(s))
        (nbrs d)
    in
    for s = 0 to k - 1 do
      take s order.(s)
    done;
    (* Always grow the lightest shard; frontier entries may have been
       claimed meanwhile, so pop until a free domain appears. A shard with
       an exhausted frontier jumps to the lowest-id unassigned domain
       (disconnected leftovers). *)
    let next_free = ref 0 in
    while !assigned < n do
      let s = ref 0 in
      for c = 1 to k - 1 do
        if load.(c) < load.(!s) then s := c
      done;
      let s = !s in
      let rec pop () =
        match Queue.take_opt frontiers.(s) with
        | Some d when assign.(d) >= 0 -> pop ()
        | other -> other
      in
      match pop () with
      | Some d -> take s d
      | None ->
        while !next_free < n && assign.(!next_free) >= 0 do
          incr next_free
        done;
        if !next_free < n then take s !next_free
    done;
    (* Refinement: 2 sweeps in id order. *)
    let target = Array.fold_left ( +. ) 0. w /. float_of_int k in
    let cap = Float.max (target *. 1.15) (target +. 1e-9) in
    for _pass = 1 to 2 do
      for d = 0 to n - 1 do
        let cur = assign.(d) in
        let links = Array.make k 0 in
        List.iter (fun p -> links.(assign.(p)) <- links.(assign.(p)) + 1)
          (nbrs d);
        let best = ref cur in
        for c = 0 to k - 1 do
          if links.(c) > links.(!best) then best := c
        done;
        let best = !best in
        if
          best <> cur
          && links.(best) > links.(cur)
          && counts.(cur) > 1
          && load.(best) +. w.(d) <= cap
        then begin
          assign.(d) <- best;
          load.(cur) <- load.(cur) -. w.(d);
          load.(best) <- load.(best) +. w.(d);
          counts.(cur) <- counts.(cur) - 1;
          counts.(best) <- counts.(best) + 1
        end
      done
    done;
    assign
  end

(* --- path inspection ------------------------------------------------------ *)

let route t ~src ~dst =
  let dst_addr = t.routers.(dst).Node.addr in
  let rec walk node acc steps =
    if steps > 64 then None
    else if node == t.routers.(dst) then Some (List.rev (dst :: acc))
    else
      match Lpm.lookup node.Node.fib dst_addr with
      | None -> None
      | Some port ->
        let next = Network.node t.net port.Node.peer_id in
        walk next (node.Node.as_id :: acc) (steps + 1)
  in
  if src = dst then Some [ src ] else walk t.routers.(src) [] 0

let relationship t a b =
  if List.mem b t.providers.(a) then `Up
  else if List.mem b t.customers.(a) then `Down
  else if List.mem b t.peers.(a) then `Peer
  else `None

let valley_free t path =
  let rec check phase = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> (
      match (relationship t a b, phase) with
      | `Up, `Climbing -> check `Climbing rest
      | `Peer, `Climbing -> check `Descending rest
      | `Down, (`Climbing | `Descending) -> check `Descending rest
      | (`Up | `Peer), `Descending | `None, _ -> false)
  in
  check `Climbing path

(* --- hosts and pools ------------------------------------------------------ *)

let next_infra_addr t ~domain =
  let k = t.host_count.(domain) in
  t.host_count.(domain) <- k + 1;
  Addr.add (domain_base domain) (10 + k)

let attach_behind t ~domain ~name node_kind addr =
  let r = t.routers.(domain) in
  let h = Network.add_node t.net ~name ~addr ~as_id:domain node_kind in
  h.Node.advertised <- [ (Addr.host_prefix addr, Node.As_local) ];
  ignore
    (Network.connect t.net r h ~bandwidth:t.spec.access_bw
       ~delay:t.spec.access_delay ~queue_capacity:t.spec.queue_capacity);
  (match Node.port_to h ~peer_id:r.Node.id with
  | Some port ->
    Lpm.insert h.Node.fib (Addr.prefix (Addr.of_octets 0 0 0 0) 0) port
  | None -> assert false);
  h

let attach_host t ~domain =
  let addr = next_infra_addr t ~domain in
  let h =
    attach_behind t ~domain
      ~name:(Printf.sprintf "h%d_%d" domain (t.host_count.(domain) - 1))
      Node.Host addr
  in
  (match Node.port_to t.routers.(domain) ~peer_id:h.Node.id with
  | Some port -> Lpm.insert t.routers.(domain).Node.fib (Addr.host_prefix addr) port
  | None -> assert false);
  h

let attach_pool t ~domain ~range =
  if not (Addr.prefix_mem (domain_prefix domain) range.Addr.base) then
    invalid_arg "As_graph.attach_pool: range outside the domain prefix";
  let addr = next_infra_addr t ~domain in
  let p =
    attach_behind t ~domain
      ~name:(Printf.sprintf "pool%d_%d" domain (t.host_count.(domain) - 1))
      Node.Host addr
  in
  (match Node.port_to t.routers.(domain) ~peer_id:p.Node.id with
  | Some port -> Lpm.insert t.routers.(domain).Node.fib range port
  | None -> assert false);
  p

(* --- AITF deployment ------------------------------------------------------ *)

type deployed = { graph : t; gateways : Gateway.t array }

let deploy ?placement ?contract
    ?(policies = fun (_ : int) -> Policy.Cooperative) ~config ~rng t =
  let gateways =
    Array.mapi
      (fun d r ->
        let upstream =
          match t.providers.(d) with
          | [] -> None
          | primary :: _ -> Some t.routers.(primary).Node.addr
        in
        Gateway.create ~policy:(policies d) ?upstream ?placement
          ~clients:[ domain_prefix d ]
          ~config ~rng:(Rng.split rng) t.net r)
      t.routers
  in
  (* Provider-side R1/R2 contracts on every provider->customer edge: each
     customer AS gets the contracted request and counter-request rates at
     its providers instead of the config defaults. *)
  (match contract with
  | None -> ()
  | Some c ->
    Array.iteri
      (fun d gw ->
        List.iter
          (fun cust ->
            Contract.apply_provider_side gw
              ~client:t.routers.(cust).Node.addr c)
          t.customers.(d))
      gateways);
  { graph = t; gateways }
