type filter_action = Block | Rate_limit of float

type traceback_mode = Path_in_request | Spie_query of Aitf_traceback.Spie.t

type engine = Packet | Hybrid

type t = {
  t_filter : float;
  t_tmp : float;
  grace : float;
  handshake : bool;
  handshake_timeout : float;
  disconnect : bool;
  disconnect_duration : float;
  r1 : float;
  r1_burst : float;
  r2 : float;
  r2_burst : float;
  remote_rate : float;
  remote_burst : float;
  filter_capacity : int;
  traceback : traceback_mode;
  min_report_gap : float;
  aggregate_on_pressure : bool;
  filter_action : filter_action;
  ctrl_retries : int;
  ctrl_rto : float;
  overload_manager : bool;
  overload_low : float;
  engine : engine;
  hybrid_epoch : float;
  hybrid_probe_rate : float;
  placement : Placement.policy;
  placement_epoch : float;
}

let max_rounds = 8
let shadow_capacity = 100_000
let ctrl_backoff = 2.0

let default =
  {
    t_filter = 60.0;
    t_tmp = 1.0;
    grace = 0.5;
    handshake = true;
    handshake_timeout = 1.0;
    disconnect = false;
    disconnect_duration = 300.0;
    r1 = 100.0;
    r1_burst = 100.0;
    r2 = 1.0;
    r2_burst = 10.0;
    remote_rate = 1000.0;
    remote_burst = 1000.0;
    filter_capacity = 1000;
    traceback = Path_in_request;
    min_report_gap = 1.0;
    aggregate_on_pressure = false;
    filter_action = Block;
    ctrl_retries = 0;
    ctrl_rto = 0.5;
    overload_manager = false;
    overload_low = 0.6;
    engine = Packet;
    hybrid_epoch = 0.1;
    hybrid_probe_rate = 0.0;
    placement = Placement.Vanilla;
    placement_epoch = 0.5;
  }

let with_timescale c k =
  (* The handshake timeout and grace period are lower-bounded by network
     round trips, which a timescale change does not shrink — scaling them
     below the RTT would break every verification. *)
  {
    c with
    t_filter = c.t_filter *. k;
    t_tmp = Float.max (c.t_tmp *. k) 0.5;
    disconnect_duration = c.disconnect_duration *. k;
    min_report_gap = Float.max (c.min_report_gap *. k) 0.2;
  }
