module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Series = Aitf_stats.Series
module Fluid = Aitf_flowsim.Fluid
module Sampler = Aitf_flowsim.Sampler
module Ledger = Aitf_obs.Ledger
open Aitf_net
open Aitf_core
open Aitf_topo

let fluid_plane config net gws rng =
  let eng = Fluid.create ~epoch:config.Config.hybrid_epoch net in
  List.iter
    (fun gw ->
      Fluid.attach_table eng ~node:(Gateway.node gw) (Gateway.filters gw))
    gws;
  (eng, Rng.split rng)

let attach_probe ~sim config frng eng agg =
  ignore
    (Sampler.attach ~rate:config.Config.hybrid_probe_rate ~sim
       ~rng:(Rng.split frng) eng agg)

let host_flow ~sim config fluid ~agent ~flow_id ~rate ~dst ~attack ~start net
    node =
  match fluid with
  | None ->
    let gate =
      match agent with
      | Some a -> Host_agent.Attacker.gate a
      | None -> fun _ -> true
    in
    ignore (Traffic.cbr ~gate ~start ~attack ~flow_id ~rate ~dst net node)
  | Some (eng, frng) ->
    let agg =
      Fluid.add_aggregate eng ~flow_id ~origin:node ~src_base:node.Node.addr
        ~n:1 ~rate ~dst ~attack ~start
    in
    Option.iter (Fluid_bridge.attach_attacker_strategy eng agg) agent;
    if attack then attach_probe ~sim config frng eng agg

let spoofed_pools (topo : Chain.t) (spec : Chain.spec) ~rate pools =
  let net = topo.Chain.net in
  let gws = Array.of_list topo.Chain.attacker_gws in
  let bandwidth = Float.max spec.Chain.core_bw (2. *. rate) in
  let nodes =
    Array.mapi
      (fun j (name, prefix) ->
        let n =
          Network.add_node net ~name
            ~addr:(Addr.of_octets 31 0 0 (j + 1))
            ~as_id:(5000 + j) Node.Host
        in
        n.Node.advertised <-
          [ (Addr.host_prefix n.Node.addr, Node.Global); (prefix, Node.Global) ];
        ignore
          (Network.connect net
             gws.(j mod Array.length gws)
             n ~bandwidth ~delay:spec.Chain.access_delay
             ~queue_capacity:spec.Chain.queue_capacity);
        n)
      pools
  in
  Network.compute_routes net;
  nodes

let start_metrics sim ~interval =
  Option.map
    (fun reg -> Aitf_obs.Sampler.start ~interval sim reg)
    (Sim.get sim Aitf_obs.Metrics.key)

let delivered sim fluid ~attack =
  let ledger = Ledger.of_sim sim
  and cls = if attack then Ledger.Attack else Ledger.Legit in
  match fluid with
  | Some (_ : Fluid.t) -> Ledger.fluid_bytes ledger cls Ledger.Delivered
  | None -> float_of_int (Ledger.packet_bytes ledger cls Ledger.Delivered)

let victim_rate sim ~period ~until fluid =
  let k = max 1 (Float.to_int (Float.round (1.0 /. period))) in
  let window = Array.make k 0. and i = ref 0 in
  let sum = ref 0. and last = ref 0. in
  let series = Series.create ~name:"victim-attack-rate" () in
  (* The n-th sample is at n periods, computed rather than summed, so the
     times do not drift. Sampling stops at the last whole period in
     [until], to within float rounding: a run of 30 s at 0.1 s has 300
     samples. The last is at [until] even where [n *. period] overshoots
     it by an ulp ([3. *. 0.1 > 0.3]). *)
  let samples = Float.to_int (Float.floor ((until /. period) +. 1e-9)) in
  let rec sample n =
    if n <= samples then
      let t = Float.min until (float_of_int n *. period) in
      ignore
        (Sim.at sim t (fun () ->
             let bytes = delivered sim fluid ~attack:true in
             let d = bytes -. !last in
             last := bytes;
             sum := !sum -. window.(!i);
             window.(!i) <- d;
             sum := !sum +. d;
             i := (!i + 1) mod k;
             Series.add series ~time:t
               (8. *. !sum /. (float_of_int k *. period));
             sample (n + 1)))
  in
  sample 1;
  series

let absorbed sim =
  Ledger.packets (Ledger.of_sim sim) Ledger.Control Ledger.Pool_absorb

let filter_installs gws =
  List.fold_left
    (fun acc gw ->
      acc + Gateway.count gw Gateway.Filter_temp
      + Gateway.count gw Gateway.Filter_long)
    0 gws
