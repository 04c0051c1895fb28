module Formulas = Aitf_model.Formulas

type t = { r1 : float; r1_burst : float; r2 : float; r2_burst : float }

let v ?r1_burst ?r2_burst ~r1 ~r2 () =
  if r1 <= 0. || r2 <= 0. then invalid_arg "Contract.v: rates must be positive";
  let default_burst rate = Float.max rate 1. in
  {
    r1;
    r1_burst = Option.value ~default:(default_burst r1) r1_burst;
    r2;
    r2_burst = Option.value ~default:(default_burst r2) r2_burst;
  }

let paper_default = v ~r1:100. ~r2:1. ()

type provisioning = {
  protected_flows : int;
  provider_filters : int;
  provider_shadow : int;
  client_side_filters : int;
}

let provision t ~t_filter ~t_tmp =
  {
    protected_flows = Formulas.protected_flows ~r1:t.r1 ~t_filter;
    provider_filters = Formulas.victim_gateway_filters ~r1:t.r1 ~t_tmp;
    provider_shadow = Formulas.victim_gateway_shadow ~r1:t.r1 ~t_filter;
    client_side_filters = Formulas.attacker_gateway_filters ~r2:t.r2 ~t_filter;
  }

let apply_provider_side gw ~client t =
  Gateway.set_contract gw ~peer:client ~rate:t.r1 ~burst:t.r1_burst;
  Gateway.set_client_contract gw ~client ~rate:t.r2 ~burst:t.r2_burst

let sufficient t ~config =
  let p =
    provision t ~t_filter:config.Config.t_filter ~t_tmp:config.Config.t_tmp
  in
  p.provider_filters <= config.Config.filter_capacity
  && p.provider_shadow <= Config.shadow_capacity
  && p.client_side_filters <= config.Config.filter_capacity
