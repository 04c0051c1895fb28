(* Tests for aitf_dpf: route-based (reverse-path) packet filtering. *)

module Sim = Aitf_engine.Sim
open Aitf_net
module Dpf = Aitf_dpf.Dpf

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

(*   h1 - r1 - r2 - h2
          |
          h3            a side branch so strict RPF has something to check *)
let rig () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let h1 = Network.add_node net ~name:"h1" ~addr:(addr "1.0.0.10") ~as_id:1 Node.Host in
  let h2 = Network.add_node net ~name:"h2" ~addr:(addr "2.0.0.10") ~as_id:2 Node.Host in
  let h3 = Network.add_node net ~name:"h3" ~addr:(addr "3.0.0.10") ~as_id:3 Node.Host in
  let r1 = Network.add_node net ~name:"r1" ~addr:(addr "1.0.0.1") ~as_id:4 Node.Border_router in
  let r2 = Network.add_node net ~name:"r2" ~addr:(addr "2.0.0.1") ~as_id:5 Node.Border_router in
  ignore (Network.connect net h1 r1 ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net h3 r1 ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net r1 r2 ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net r2 h2 ~bandwidth:1e9 ~delay:0.001);
  Network.compute_routes net;
  (sim, net, h1, h2, h3, r1, r2)

let send net src ~spoof ~dst =
  Network.originate net src
    (Packet.make
       ?spoofed_src:spoof
       ~src:src.Node.addr ~dst:dst.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = true }))

let test_genuine_passes () =
  let sim, net, h1, h2, _, r1, _ = rig () in
  let d = Dpf.install net r1 in
  let got = ref 0 in
  h2.Node.local_deliver <- (fun _ _ -> incr got);
  send net h1 ~spoof:None ~dst:h2;
  Sim.run sim;
  checki "delivered" 1 !got;
  checki "checked" 1 (Dpf.checked d);
  checki "no drops" 0 (Dpf.dropped d)

let test_strict_drops_onpath_spoof () =
  (* h1 claims to be h3: r1 routes to h3 via the h3 port, but the packet
     came from h1 — strict RPF must kill it. *)
  let sim, net, h1, h2, h3, r1, _ = rig () in
  let d = Dpf.install net r1 in
  let got = ref 0 in
  h2.Node.local_deliver <- (fun _ _ -> incr got);
  send net h1 ~spoof:(Some h3.Node.addr) ~dst:h2;
  Sim.run sim;
  checki "not delivered" 0 !got;
  checki "dropped" 1 (Dpf.dropped d);
  checki "accounted on node" 1 (Node.drop_count r1 Aitf_obs.Ledger.Dpf_spoof);
  checki "accounted in the ledger" 1
    Aitf_obs.Ledger.(packets (of_sim sim) Attack Dpf_spoof)

let test_bogon_dropped_in_both_modes () =
  let run mode =
    let sim, net, h1, h2, _, r1, _ = rig () in
    let d = Dpf.install ~mode net r1 in
    let got = ref 0 in
    h2.Node.local_deliver <- (fun _ _ -> incr got);
    send net h1 ~spoof:(Some (addr "99.9.9.9")) ~dst:h2;
    Sim.run sim;
    (!got, Dpf.dropped d)
  in
  let got_strict, dropped_strict = run Dpf.Strict in
  let got_loose, dropped_loose = run Dpf.Loose in
  checki "strict blocks bogon" 0 got_strict;
  checki "loose blocks bogon" 0 got_loose;
  checkb "both count" true (dropped_strict = 1 && dropped_loose = 1)

let test_loose_passes_routable_spoof () =
  let sim, net, h1, h2, h3, r1, _ = rig () in
  let d = Dpf.install ~mode:Dpf.Loose net r1 in
  let got = ref 0 in
  h2.Node.local_deliver <- (fun _ _ -> incr got);
  send net h1 ~spoof:(Some h3.Node.addr) ~dst:h2;
  Sim.run sim;
  checki "loose lets routable spoof pass" 1 !got;
  checki "no drop" 0 (Dpf.dropped d)

let test_downstream_router_agrees () =
  (* The spoof that fools r1 direction-wise is still caught at r2: traffic
     "from h3" must arrive at r2 via r1 — it does, so r2 passes it; this
     pins the semantics (DPF placement matters). *)
  let sim, net, h1, h2, h3, _, r2 = rig () in
  let d2 = Dpf.install net r2 in
  let got = ref 0 in
  h2.Node.local_deliver <- (fun _ _ -> incr got);
  send net h1 ~spoof:(Some h3.Node.addr) ~dst:h2;
  Sim.run sim;
  checki "r2 cannot tell" 1 !got;
  checki "r2 saw it" 1 (Dpf.checked d2)

let test_deploy_many () =
  let sim, net, h1, h2, h3, r1, r2 = rig () in
  let ds = Dpf.deploy net [ r1; r2 ] in
  checki "two installed" 2 (List.length ds);
  let got = ref 0 in
  h2.Node.local_deliver <- (fun _ _ -> incr got);
  send net h1 ~spoof:(Some h3.Node.addr) ~dst:h2;
  send net h1 ~spoof:None ~dst:h2;
  Sim.run sim;
  checki "only genuine arrives" 1 !got

let () =
  Alcotest.run "aitf_dpf"
    [
      ( "dpf",
        [
          Alcotest.test_case "genuine passes" `Quick test_genuine_passes;
          Alcotest.test_case "strict drops spoof" `Quick
            test_strict_drops_onpath_spoof;
          Alcotest.test_case "bogon both modes" `Quick
            test_bogon_dropped_in_both_modes;
          Alcotest.test_case "loose passes routable" `Quick
            test_loose_passes_routable_spoof;
          Alcotest.test_case "downstream semantics" `Quick
            test_downstream_router_agrees;
          Alcotest.test_case "deploy many" `Quick test_deploy_many;
        ] );
    ]
