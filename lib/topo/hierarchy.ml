module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_core

type spec = {
  isps : int;
  nets_per_isp : int;
  hosts_per_net : int;
  tail_bw : float;
  net_bw : float;
  core_bw : float;
  access_delay : float;
  hop_delay : float;
  queue_capacity : int;
}

let default_spec =
  {
    isps = 3;
    nets_per_isp = 4;
    hosts_per_net = 4;
    tail_bw = 10e6;
    net_bw = 100e6;
    core_bw = 1e9;
    access_delay = 0.005;
    hop_delay = 0.010;
    queue_capacity = 65536;
  }

type t = {
  net : Network.t;
  core : Node.t;
  isp_gws : Node.t array;
  net_gws : Node.t array array;
  hosts : Node.t array array array;
}

let net_prefix ~isp ~net = Addr.prefix (Addr.of_octets (10 + isp) net 0 0) 16
let isp_prefix ~isp = Addr.prefix (Addr.of_octets (10 + isp) 0 0 0) 8

(* AS numbering: core 1; ISP backbone i -> 100 + i; net (i, j) -> a unique
   id above 1000. *)
let net_as ~isp ~net = 1000 + (isp * 256) + net

let build sim spec =
  if spec.isps < 1 || spec.nets_per_isp < 1 || spec.hosts_per_net < 1 then
    invalid_arg "Hierarchy.build: all dimensions must be >= 1";
  if spec.nets_per_isp > 254 || spec.hosts_per_net > 200 then
    invalid_arg "Hierarchy.build: dimensions exceed the address plan";
  let net = Network.create sim in
  let core =
    Network.add_node net ~name:"core" ~addr:(Addr.of_octets 9 0 0 1) ~as_id:1
      Node.Router
  in
  let isp_gws =
    Array.init spec.isps (fun i ->
        let gw =
          Network.add_node net
            ~name:(Printf.sprintf "isp%d" i)
            ~addr:(Addr.of_octets (10 + i) 255 0 1)
            ~as_id:(100 + i) Node.Border_router
        in
        ignore
          (Network.connect net core gw ~bandwidth:spec.core_bw
             ~delay:spec.hop_delay ~queue_capacity:spec.queue_capacity);
        gw)
  in
  let net_gws =
    Array.init spec.isps (fun i ->
        Array.init spec.nets_per_isp (fun j ->
            let gw =
              Network.add_node net
                ~name:(Printf.sprintf "net%d_%d" i j)
                ~addr:(Addr.of_octets (10 + i) j 0 1)
                ~as_id:(net_as ~isp:i ~net:j) Node.Border_router
            in
            (* Aggregate: the /16 reaches the world via this gateway; host
               /32s stay inside the enterprise AS. *)
            gw.Node.advertised <-
              [ (net_prefix ~isp:i ~net:j, Node.Global);
                (Addr.host_prefix gw.Node.addr, Node.Global);
              ];
            ignore
              (Network.connect net isp_gws.(i) gw ~bandwidth:spec.net_bw
                 ~delay:spec.hop_delay ~queue_capacity:spec.queue_capacity);
            gw))
  in
  let hosts =
    Array.init spec.isps (fun i ->
        Array.init spec.nets_per_isp (fun j ->
            Array.init spec.hosts_per_net (fun k ->
                let h =
                  Network.add_node net
                    ~name:(Printf.sprintf "h%d_%d_%d" i j k)
                    ~addr:(Addr.of_octets (10 + i) j 0 (10 + k))
                    ~as_id:(net_as ~isp:i ~net:j) Node.Host
                in
                h.Node.advertised <-
                  [ (Addr.host_prefix h.Node.addr, Node.As_local) ];
                ignore
                  (Network.connect net net_gws.(i).(j) h
                     ~bandwidth:spec.tail_bw ~delay:spec.access_delay
                     ~queue_capacity:spec.queue_capacity);
                h)))
  in
  Network.compute_routes net;
  { net; core; isp_gws; net_gws; hosts }

let host t ~isp ~net ~host = t.hosts.(isp).(net).(host)

type deployed = {
  topo : t;
  net_gateways : Gateway.t array array;
  isp_gateways : Gateway.t array;
}

let deploy ?(policies = fun ~isp:_ ~net:_ -> Policy.Cooperative) ~config ~rng t
    =
  let isp_gateways =
    Array.mapi
      (fun i gw ->
        Gateway.create ~policy:Policy.Cooperative
          ~clients:[ isp_prefix ~isp:i ] ~config ~rng:(Rng.split rng) t.net gw)
      t.isp_gws
  in
  let net_gateways =
    Array.mapi
      (fun i row ->
        Array.mapi
          (fun j gw ->
            Gateway.create ~policy:(policies ~isp:i ~net:j)
              ~upstream:t.isp_gws.(i).Node.addr
              ~clients:[ net_prefix ~isp:i ~net:j ]
              ~config ~rng:(Rng.split rng) t.net gw)
          row)
      t.net_gws
  in
  { topo = t; net_gateways; isp_gateways }

let attach_victim ?td ?path_source d ~config ~isp ~net ~host =
  Host_agent.Victim.create ?td ?path_source
    ~gateway:d.topo.net_gws.(isp).(net).Node.addr
    ~config d.topo.net d.topo.hosts.(isp).(net).(host)

let attach_attacker ?strategy d ~config ~isp ~net ~host =
  Host_agent.Attacker.create ?strategy ~config d.topo.net
    d.topo.hosts.(isp).(net).(host)
