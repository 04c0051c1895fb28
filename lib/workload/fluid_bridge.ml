module Sim = Aitf_engine.Sim
open Aitf_net
open Aitf_core
module Fluid = Aitf_flowsim.Fluid
module Flow_label = Aitf_filter.Flow_label

(* Glue between the fluid plane and the packet-level AITF agents — it lives
   in the workload layer because [Aitf_flowsim] cannot depend on the
   protocol messages in [Aitf_core]. *)

(* Mirror a packet-level attacker host's response strategy onto the
   aggregate's stage-0 (the source's own gate):
   - [Complies] acts through the agent's own filter table, so subscribing
     the fluid engine to it is enough;
   - [On_off] never touches a table — intercept the To_attacker requests
     the agent receives and mirror the off window onto the fluid mask;
   - [Ignores] does nothing, at either level. *)
let attach_attacker_strategy fluid agg agent =
  let node = Host_agent.Attacker.node agent in
  match Host_agent.Attacker.strategy agent with
  | Policy.Ignores -> ()
  | Policy.Complies ->
    Fluid.attach_table fluid ~node (Host_agent.Attacker.filters agent)
  | Policy.On_off { off_time } ->
    let sim = Network.sim (Fluid.network fluid) in
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <-
      (fun n (pkt : Packet.t) ->
        (match pkt.Packet.payload with
        | Message.Filtering_request
            { Message.target = Message.To_attacker; flow; _ } -> (
          match flow.Flow_label.src with
          | Flow_label.Host a -> (
            match Fluid.source_index agg a with
            | Some idx ->
              Fluid.set_block fluid agg ~idx ~stage:0 true;
              ignore
                (Sim.after sim off_time (fun () ->
                     Fluid.set_block fluid agg ~idx ~stage:0 false))
            | None -> ())
          | _ -> ())
        | _ -> ());
        prev n pkt)

(* Spoofed source pools have no hosts behind them: To_attacker requests
   routed into the pool's advertised range are absorbed at the pool node
   instead of dying on a missing route. *)
let absorb_pool_requests node =
  Node.add_hook node (fun _ (pkt : Packet.t) ->
      match pkt.Packet.payload with
      | Message.Filtering_request { Message.target = Message.To_attacker; _ }
        ->
        Node.Drop Aitf_obs.Ledger.Pool_absorb
      | _ -> Node.Continue)
