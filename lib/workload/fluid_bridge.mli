(** Glue between the fluid plane and the packet-level AITF agents.

    Lives in the workload layer because [Aitf_flowsim] cannot depend on the
    protocol messages in [Aitf_core]. *)

open Aitf_net
open Aitf_core
module Fluid = Aitf_flowsim.Fluid

val attach_attacker_strategy :
  Fluid.t -> Fluid.agg -> Host_agent.Attacker.t -> unit
(** Mirror the attacker host's response strategy ([Complies] / [Ignores] /
    [On_off]) onto the aggregate's stage 0 — the source's own gate. *)

val absorb_pool_requests : Node.t -> unit
(** Hook a spoofed-source pool node so To_attacker filtering requests
    routed into its advertised range are absorbed (the ledger's
    [Pool_absorb] fate) rather than dropped on a missing route. *)
