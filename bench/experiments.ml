(* Reproduction harness: one function per table/figure of the paper.

   Every experiment prints a table with the paper's (analytic) value next to
   the simulator's measurement. Absolute protocol latencies differ from the
   authors' assumptions, so the claims under test are the *shapes*: who ends
   up filtering, how resources scale with R1/R2/T, where the crossovers are.

   Experiment ids follow DESIGN.md: F1, E1..E9, A1, A2. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Span = Aitf_obs.Span
module Table = Aitf_stats.Table
open Aitf_net
open Aitf_filter
open Aitf_core
open Aitf_topo
module Traffic = Aitf_workload.Traffic
module Request_driver = Aitf_workload.Request_driver
module Scenarios = Aitf_workload.Scenarios
module Runner = Aitf_workload.Runner
module Formulas = Aitf_model.Formulas
module Pushback = Aitf_pushback.Pushback

let pct a b = if b = 0. then 0. else 100. *. a /. b

(* Optional CSV mirroring of every printed table (enabled by --csv-dir). *)
let csv_dir : string option ref = ref None

(* Optional machine-readable collection of every printed table (enabled by
   --json; main.ml serialises the accumulated list at exit). *)
let collect_json : bool ref = ref false
let json_tables : Table.t list ref = ref []

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> fun s ->
  (* squeeze runs of '-' and trim *)
  let b = Buffer.create (String.length s) in
  let prev_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !prev_dash then Buffer.add_char b '-';
        prev_dash := true
      end
      else begin
        Buffer.add_char b c;
        prev_dash := false
      end)
    s;
  let out = Buffer.contents b in
  let n = String.length out in
  if n > 0 && out.[n - 1] = '-' then String.sub out 0 (n - 1) else out

let emit table =
  Table.print table;
  if !collect_json then json_tables := table :: !json_tables;
  match !csv_dir with
  | None -> ()
  | Some dir ->
    let file = Filename.concat dir (slug (Table.title table) ^ ".csv") in
    let oc = open_out file in
    output_string oc (Table.to_csv table);
    close_out oc

(* Default experiment timescale: T = 6 s so that multi-cycle runs finish
   quickly; resource experiments state their own rates against this T. *)
let cfg =
  { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 }

let chain_params =
  {
    Scenarios.default_chain with
    Scenarios.config = cfg;
    duration = 60.;
    td = 0.1;
    seed = 42;
  }

(* ------------------------------------------------------------------ F1 -- *)

(* Figure 1 + Section II-D: the example attack path walk-through. The
   "figure" here is the protocol timeline; we reproduce it as the causal
   span timeline of the request and check the round-1 outcome: blocked at
   B_gw1. *)
let f1 () =
  let spans = Span.create () in
  Span.attach spans;
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config:cfg ~rng topo in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:1.0 ~attack:true ~flow_id:1 ~rate:2e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  Sim.run ~until:6.0 sim;
  Span.detach ();
  print_endline "== F1  Figure-1 walk-through (protocol timeline) ==";
  print_string (Span.timeline spans);
  print_newline ();
  let b_gw1 = List.hd d.Chain.attacker_gateways in
  let verdict =
    Table.create ~title:"F1  round-1 outcome"
      ~columns:[ "check (paper, Section II-D)"; "expected"; "measured" ]
  in
  Table.add_row verdict
    [
      "flow blocked at B_gw1 (closest AITF node)";
      "yes";
      Table.cell_bool (Gateway.count b_gw1 Gateway.Filter_long >= 1);
    ];
  Table.add_row verdict
    [
      "attacker stopped at the source";
      "yes";
      Table.cell_bool
        (Host_agent.Attacker.(count d.Chain.attacker_agent Flow_stopped) >= 1);
    ];
  Table.add_row verdict
    [
      "victim gateway's filter was temporary";
      "yes";
      Table.cell_bool
        (Filter_table.occupancy
           (Gateway.filters (List.hd d.Chain.victim_gateways))
        = 0);
    ];
  Table.add_row verdict
    [
      "escalation needed";
      "no";
      Table.cell_bool
        (Scenarios.counter_total d.Chain.victim_gateways
           Gateway.Escalated <> 0);
    ];
  emit verdict

(* ------------------------------------------------------------------ E1 -- *)

(* Section IV-A.1: effective bandwidth of an undesired flow,
   r ~= n (Td + Tr) / T. Two sweeps: T at n = 1, and n with an on-off
   attacker behind non-cooperating gateways. *)
let e1 () =
  let tr = Chain.default_spec.Chain.access_delay in
  let td = chain_params.Scenarios.td in
  let table =
    Table.create
      ~title:
        "E1  effective bandwidth ratio r vs T   (n = 1: attacker ignores, \
         gateways cooperate)"
      ~columns:
        [ "T (s)"; "r paper = (Td+Tr)/T"; "r measured"; "requests"; "escalations" ]
  in
  List.iter
    (fun t_filter ->
      let config = { cfg with Config.t_filter } in
      let r =
        Scenarios.run_chain
          { chain_params with Scenarios.config; duration = 10. *. t_filter }
      in
      Table.add_row table
        [
          Table.cell_float t_filter;
          Table.cell_float ~digits:3
            (Formulas.effective_bandwidth_ratio ~n:1 ~td ~tr ~t_filter);
          Table.cell_float ~digits:3 r.Scenarios.r_measured;
          Table.cell_int r.Scenarios.requests_sent;
          Table.cell_int r.Scenarios.escalations;
        ])
    [ 3.; 6.; 15.; 30.; 60. ];
  emit table;
  (* The paper's worked example at full scale: Tr = 50 ms, T = 60 s. *)
  let example =
    Table.create ~title:"E1  paper worked example (T = 60 s, Tr = 50 ms)"
      ~columns:[ "quantity"; "paper"; "measured" ]
  in
  let config = { cfg with Config.t_filter = 60. } in
  let r =
    Scenarios.run_chain
      { chain_params with Scenarios.config; duration = 600.; td = 0.01 }
  in
  Table.add_row example
    [
      "r (steady state, Td ~= 0)";
      Table.cell_float ~digits:2
        (Formulas.effective_bandwidth_ratio ~n:1 ~td:0. ~tr ~t_filter:60.);
      Table.cell_float ~digits:2 r.Scenarios.r_measured;
    ];
  emit example;
  let sweep_n =
    Table.create
      ~title:
        "E1  r vs n   (on-off attacker, n-1 unresponsive gateways; T = 6 s)"
      ~columns:
        [
          "n (non-cooperating)";
          "r paper bound = n(Td+Tr)/T";
          "r measured";
          "escalations / cycle";
        ]
  in
  List.iter
    (fun n ->
      let r =
        Scenarios.run_chain
          {
            chain_params with
            Scenarios.n_non_coop_gws = n - 1;
            attacker_strategy =
              (if n = 1 then Policy.Ignores
               else Policy.On_off { off_time = cfg.Config.t_tmp +. 0.2 });
          }
      in
      let cycles =
        chain_params.Scenarios.duration /. cfg.Config.t_filter
      in
      Table.add_row sweep_n
        [
          Table.cell_int n;
          Table.cell_float ~digits:3
            (Formulas.effective_bandwidth_ratio ~n ~td ~tr
               ~t_filter:cfg.Config.t_filter);
          Table.cell_float ~digits:3 r.Scenarios.r_measured;
          Table.cell_float ~digits:2
            (float_of_int r.Scenarios.escalations /. cycles);
        ])
    [ 1; 2; 3 ];
  emit sweep_n;
  print_endline
    "Note: the simulator's gateways escalate off the shadow cache the moment\n\
     a flow reappears, so measured r sits below the paper's per-level\n\
     (Td+Tr) bound while keeping its 1/T shape; the n-dependence shows up\n\
     in escalations per cycle, one per non-cooperating level.\n"

(* ------------------------------------------------------------------ E2 -- *)

(* Section IV-A.2: a client with contract rate R1 is protected against
   Nv = R1 * T simultaneous undesired flows. *)
let e2 () =
  let r1 = 5.0 in
  let t_filter = cfg.Config.t_filter in
  let nv = Formulas.protected_flows ~r1 ~t_filter in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E2  flows blocked within one T   (R1 = %.0f/s, T = %.0f s => Nv = %d)"
           r1 t_filter nv)
      ~columns:
        [
          "simultaneous flows M";
          "paper: min(M, Nv)";
          "blocked (measured)";
          "requests admitted";
        ]
  in
  List.iter
    (fun m ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed:7 in
      let topo = Chain.build sim Chain.default_spec in
      let config = { cfg with Config.r1; r1_burst = r1 } in
      let d = Chain.deploy ~victim_td:0.05 ~config ~rng topo in
      for i = 0 to m - 1 do
        ignore
          (Traffic.cbr
             ~spoof:(fun () -> Some (Addr.add (Addr.of_octets 20 0 1 0) i))
             ~start:0.5 ~attack:true ~flow_id:(100 + i)
             ~rate:(2e6 /. float_of_int m)
             ~dst:topo.Chain.victim.Node.addr topo.Chain.net
             topo.Chain.attacker)
      done;
      Sim.run ~until:(0.5 +. t_filter) sim;
      let blocked =
        Filter_table.occupancy
          (Gateway.filters (List.hd d.Chain.attacker_gateways))
      in
      Table.add_row table
        [
          Table.cell_int m;
          Table.cell_int (Int.min m nv);
          Table.cell_int blocked;
          Table.cell_int (Host_agent.Victim.requests_sent d.Chain.victim_agent);
        ])
    [ nv / 2; nv; 2 * nv ];
  emit table

(* ------------------------------------------------------------------ E3 -- *)

(* Section IV-B: the victim's gateway needs nv = R1*Ttmp filters and
   mv = R1*T shadow entries to honor a contract of R1 requests/s. *)
let e3 () =
  let r1 = 40.0 in
  let t_tmp = cfg.Config.t_tmp in
  let t_filter = cfg.Config.t_filter in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let topo = Chain.build sim Chain.default_spec in
  let config = { cfg with Config.r1; r1_burst = 2. } in
  let d = Chain.deploy ~config ~rng topo in
  let victim = topo.Chain.victim in
  let b_gw1_addr = (List.hd topo.Chain.attacker_gws).Node.addr in
  let mk i =
    {
      Message.flow =
        Flow_label.host_pair (Addr.add (Addr.of_octets 30 0 0 0) i)
          victim.Node.addr;
      target = Message.To_victim_gateway;
      duration = t_filter;
      path = [ b_gw1_addr ];
      hops = 0;
      requestor = victim.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let (_ : Request_driver.t) =
    Request_driver.create ~rate:r1 ~dst:(List.hd topo.Chain.victim_gws).Node.addr
      ~make_request:mk topo.Chain.net victim
  in
  Sim.run ~until:(2.5 *. t_filter) sim;
  let vgw = List.hd d.Chain.victim_gateways in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E3  victim's gateway resources   (R1 = %.0f/s, Ttmp = %.1f s, T = %.0f s)"
           r1 t_tmp t_filter)
      ~columns:[ "resource"; "paper"; "measured peak" ]
  in
  Table.add_row table
    [
      "wire-speed filters nv = R1*Ttmp";
      Table.cell_int (Formulas.victim_gateway_filters ~r1 ~t_tmp);
      Table.cell_int (Filter_table.peak_occupancy (Gateway.filters vgw));
    ];
  Table.add_row table
    [
      "shadow entries mv = R1*T";
      Table.cell_int (Formulas.victim_gateway_shadow ~r1 ~t_filter);
      Table.cell_int (Gateway.shadow_peak vgw);
    ];
  Table.add_row table
    [
      "paper example: R1=100/s, Ttmp=0.6s, T=60s -> nv";
      Table.cell_int (Formulas.victim_gateway_filters ~r1:100. ~t_tmp:0.6);
      "(formula)";
    ];
  Table.add_row table
    [
      "paper example: mv";
      Table.cell_int (Formulas.victim_gateway_shadow ~r1:100. ~t_filter:60.);
      "(formula)";
    ];
  emit table

(* ------------------------------------------------------------------ E4 -- *)

(* Section IV-C: the attacker's gateway needs na = R2*T filters for a
   client contract of R2 requests/s. *)
let e4 () =
  let r2 = 5.0 in
  let t_filter = cfg.Config.t_filter in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:13 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~config:cfg ~rng topo in
  let driver_node = topo.Chain.victim in
  let b_gw1 = List.hd d.Chain.attacker_gateways in
  let b_gw1_node = List.hd topo.Chain.attacker_gws in
  (* The contract between the requesting side and this gateway: R2. *)
  Gateway.set_contract b_gw1 ~peer:driver_node.Node.addr ~rate:r2 ~burst:1.;
  let mk i =
    {
      Message.flow =
        Flow_label.host_pair (Addr.add (Addr.of_octets 20 0 0 100) i)
          driver_node.Node.addr;
      target = Message.To_attacker_gateway;
      duration = t_filter;
      path = [ b_gw1_node.Node.addr ];
      hops = 0;
      requestor = driver_node.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let (_ : Request_driver.t) =
    Request_driver.create ~rate:(3. *. r2) (* offered above contract *)
      ~dst:b_gw1_node.Node.addr ~make_request:mk topo.Chain.net driver_node
  in
  Sim.run ~until:(2.5 *. t_filter) sim;
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E4  attacker's gateway resources   (R2 = %.0f/s, T = %.0f s; offered 3x R2)"
           r2 t_filter)
      ~columns:[ "quantity"; "paper"; "measured" ]
  in
  Table.add_row table
    [
      "filters na = R2*T (peak)";
      Table.cell_int (Formulas.attacker_gateway_filters ~r2 ~t_filter);
      Table.cell_int (Filter_table.peak_occupancy (Gateway.filters b_gw1));
    ];
  let policed = Gateway.count b_gw1 Gateway.Req_policed in
  let total = Gateway.count b_gw1 Gateway.Req_attacker_role in
  Table.add_row table
    [
      "requests policed away";
      "~2/3 of offered";
      Printf.sprintf "%d of %d (%.0f%%)" policed total
        (100. *. float_of_int policed /. float_of_int (Int.max 1 total));
    ];
  Table.add_row table
    [
      "paper example: R2=1/s, T=60s -> na";
      Table.cell_int (Formulas.attacker_gateway_filters ~r2:1. ~t_filter:60.);
      "(formula)";
    ];
  emit table

(* ------------------------------------------------------------------ E5 -- *)

(* Section IV-D: the compliant attacker host itself needs na = R2*T
   outbound filters. *)
let e5 () =
  let r2 = 5.0 in
  let t_filter = cfg.Config.t_filter in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:17 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config:cfg ~rng topo in
  let attacker = topo.Chain.attacker in
  let gw_node = List.hd topo.Chain.attacker_gws in
  let mk i =
    {
      Message.flow =
        Flow_label.host_pair attacker.Node.addr
          (Addr.add (Addr.of_octets 10 0 0 100) i);
      target = Message.To_attacker;
      duration = t_filter;
      path = [];
      hops = 0;
      requestor = gw_node.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let (_ : Request_driver.t) =
    Request_driver.create ~rate:r2 ~dst:attacker.Node.addr ~make_request:mk
      topo.Chain.net gw_node
  in
  Sim.run ~until:(2.5 *. t_filter) sim;
  let agent = d.Chain.attacker_agent in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E5  compliant attacker's own resources   (R2 = %.0f/s, T = %.0f s)" r2
           t_filter)
      ~columns:[ "quantity"; "paper"; "measured" ]
  in
  Table.add_row table
    [
      "outbound filters na = R2*T (peak)";
      Table.cell_int (Formulas.attacker_gateway_filters ~r2 ~t_filter);
      Table.cell_int
        (Filter_table.peak_occupancy (Host_agent.Attacker.filters agent));
    ];
  Table.add_row table
    [
      "requests honored";
      "all";
      Printf.sprintf "%d / %d"
        (Host_agent.Attacker.count agent Flow_stopped)
        (Host_agent.Attacker.count agent Request_received);
    ];
  emit table

(* ------------------------------------------------------------------ E6 -- *)

(* Sections II-B/II-D: escalation pushes filtering to the (k+1)-th AITF
   node when k gateways refuse; time to relief grows with k but stays
   bounded. *)
let e6 () =
  let table =
    Table.create
      ~title:"E6  escalation vs non-cooperating gateways   (on-off attacker)"
      ~columns:
        [
          "unresponsive gws k";
          "paper: blocked at";
          "blocked at (measured)";
          "rounds used";
          "time to first relief (s)";
          "r measured";
        ]
  in
  List.iter
    (fun k ->
      let r =
        Scenarios.run_chain
          {
            chain_params with
            Scenarios.n_non_coop_gws = k;
            attacker_strategy =
              (if k = 0 then Policy.Ignores
               else Policy.On_off { off_time = cfg.Config.t_tmp +. 0.2 });
            duration = 30.;
          }
      in
      let d = r.Scenarios.deployed in
      let blocked_at =
        let attacker_side =
          List.mapi
            (fun i gw -> (Printf.sprintf "B_gw%d" (i + 1), gw))
            d.Chain.attacker_gateways
        in
        let victim_side =
          List.mapi
            (fun i gw -> (Printf.sprintf "G_gw%d" (i + 1), gw))
            d.Chain.victim_gateways
        in
        match
          List.find_opt
            (fun (_, gw) ->
              Gateway.count gw Gateway.Filter_long > 0
              || Gateway.count gw Gateway.Filter_long_self > 0)
            (attacker_side @ List.rev victim_side)
        with
        | Some (name, _) -> name
        | None -> "nowhere"
      in
      let expected =
        if k < 3 then Printf.sprintf "B_gw%d" (k + 1) else "G_gw3 (terminal)"
      in
      let tts =
        match Scenarios.time_to_suppress r ~threshold:0.05 with
        | Some t -> Printf.sprintf "%.2f" (t -. chain_params.Scenarios.attack_start)
        | None -> "never"
      in
      let cycles = 30. /. cfg.Config.t_filter in
      let rounds =
        1
        + int_of_float
            (Float.round (float_of_int r.Scenarios.escalations /. cycles))
      in
      Table.add_row table
        [
          Table.cell_int k;
          expected;
          blocked_at;
          Table.cell_int rounds;
          tts;
          Table.cell_float ~digits:3 r.Scenarios.r_measured;
        ])
    [ 0; 1; 2; 3 ];
  emit table

(* ------------------------------------------------------------------ E7 -- *)

(* Sections II-E/III-B: forged requests cannot interrupt a legitimate flow
   when the 3-way handshake is on. *)
let e7 () =
  let run ~handshake =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:7 in
    let topo = Chain.build sim Chain.default_spec in
    let m =
      Network.add_node topo.Chain.net ~name:"M" ~addr:(Addr.of_octets 20 0 0 99)
        ~as_id:101 Node.Host
    in
    ignore
      (Network.connect topo.Chain.net (List.hd topo.Chain.attacker_gws) m
         ~bandwidth:1e7 ~delay:0.01);
    Network.compute_routes topo.Chain.net;
    let config = { cfg with Config.handshake } in
    let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config ~rng topo in
    let (_ : Traffic.t) =
      Traffic.cbr ~start:0. ~flow_id:1 ~rate:1e6
        ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
    in
    let b_gw1_node = List.hd topo.Chain.attacker_gws in
    let forged =
      {
        Message.flow =
          Flow_label.host_pair topo.Chain.attacker.Node.addr
            topo.Chain.victim.Node.addr;
        target = Message.To_attacker_gateway;
        duration = config.Config.t_filter;
        path = [ b_gw1_node.Node.addr ];
        hops = 0;
        requestor = m.Node.addr;
        corr = 0;
        auth = 0L;
      }
    in
    for i = 0 to 7 do
      ignore
        (Sim.at sim
           (2.0 +. float_of_int i)
           (fun () ->
             Network.originate topo.Chain.net m
               (Message.packet ~src:m.Node.addr ~dst:b_gw1_node.Node.addr
                  (Message.Filtering_request forged))))
    done;
    Sim.run ~until:12.0 sim;
    let b_gw1 = List.hd d.Chain.attacker_gateways in
    ( Runner.delivered sim None ~attack:false,
      1e6 *. 12.0 /. 8.,
      Gateway.count b_gw1 Gateway.Handshake_fail,
      Gateway.count b_gw1 Gateway.Filter_long )
  in
  let on, offered, fails, filt_on = run ~handshake:true in
  let off, _, _, filt_off = run ~handshake:false in
  let table =
    Table.create
      ~title:"E7  forged filtering requests   (off-path forger M inside B_net)"
      ~columns:
        [
          "handshake";
          "legit flow delivered";
          "forged filters installed";
          "forgeries rejected";
          "paper expectation";
        ]
  in
  Table.add_row table
    [
      "on";
      Printf.sprintf "%.0f%%" (pct on offered);
      Table.cell_int filt_on;
      Table.cell_int fails;
      "flow unharmed";
    ];
  Table.add_row table
    [
      "off";
      Printf.sprintf "%.0f%%" (pct off offered);
      Table.cell_int filt_off;
      "0";
      "flow killed (why the handshake exists)";
    ];
  emit table

(* ------------------------------------------------------------------ E8 -- *)

(* Section V: AITF vs Pushback — nodes involved, filter placement, victim
   goodput, collateral damage to traffic sharing the aggregate. *)
let e8 () =
  let duration = 30.0 in
  let legit_rate = 3e5 in
  let spec =
    { Chain.default_spec with Chain.tail_bw = 1e6; attacker_tail_bw = 1e7 }
  in
  (* Every data packet is addressed to the victim, so the ledger's
     delivered bytes are what the victim received. *)
  let delivered sim =
    ( Runner.delivered sim None ~attack:false,
      Runner.delivered sim None ~attack:true )
  in
  let traffic ?gate topo =
    ignore
      (Traffic.cbr ~start:0. ~flow_id:2 ~rate:legit_rate
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.bystander);
    ignore
      (Traffic.cbr ?gate ~start:1. ~attack:true ~flow_id:1 ~rate:5e6
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
  in
  (* none *)
  let sim = Sim.create () in
  let topo = Chain.build sim spec in
  traffic topo;
  Sim.run ~until:duration sim;
  let legit0, attack0 = delivered sim in
  let base = (legit0, attack0, 0, 0, 0) in
  (* aitf *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let topo = Chain.build sim spec in
  let d = Chain.deploy ~victim_td:0.1 ~config:cfg ~rng topo in
  traffic ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent) topo;
  Sim.run ~until:duration sim;
  let aitf_nodes =
    List.length
      (List.filter
         (fun gw -> Filter_table.installs (Gateway.filters gw) > 0)
         (d.Chain.victim_gateways @ d.Chain.attacker_gateways))
  in
  let aitf_msgs =
    Scenarios.counter_total d.Chain.victim_gateways Gateway.Req_propagated
    + Host_agent.Victim.requests_sent d.Chain.victim_agent
  in
  let aitf =
    let legit, attack = delivered sim in
    ( legit,
      attack,
      aitf_nodes,
      aitf_msgs,
      0 )
  in
  (* pushback *)
  let sim = Sim.create () in
  let topo = Chain.build sim spec in
  let pb =
    Pushback.deploy topo.Chain.net (topo.Chain.victim_gws @ topo.Chain.attacker_gws)
  in
  traffic topo;
  Sim.run ~until:duration sim;
  let push =
    let legit, attack = delivered sim in
    ( legit,
      attack,
      Pushback.routers_limiting pb,
      Pushback.messages_sent pb,
      Pushback.limiters_installed pb )
  in
  let offered_legit = legit_rate *. duration /. 8. in
  let table =
    Table.create
      ~title:
        "E8  AITF vs Pushback   (5 Mbit/s flood into a 1 Mbit/s tail; legit \
         flow shares the aggregate)"
      ~columns:
        [
          "defense";
          "legit goodput";
          "attack delivered (kB)";
          "nodes involved";
          "control msgs";
          "filters/limiters";
        ]
  in
  let row name (legit, attack, nodes, msgs, limiters) extra =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f%%" (pct legit offered_legit);
        Printf.sprintf "%.0f" (attack /. 1e3);
        Table.cell_int nodes;
        Table.cell_int msgs;
        (match extra with Some s -> s | None -> Table.cell_int limiters);
      ]
  in
  row "none" base (Some "0");
  row "AITF" aitf (Some "2 (1 temp + 1 at B_gw1)");
  row "Pushback" push None;
  emit table;
  print_endline
    "Pushback rate-limits the whole victim-bound aggregate hop by hop, so\n\
     the innocent flow inside the aggregate is squeezed too and every\n\
     router on the path holds state; AITF blocks the exact flow at the\n\
     attacker's gateway — the Section V contrast.\n"

(* ------------------------------------------------------------------ E9 -- *)

(* Section III-C: scaling — a provider's filtering work tracks its own
   (misbehaving) clients, not Internet size; nothing accumulates at the
   core. *)
let e9 () =
  let zombies_per_net = 2 in
  let table =
    Table.create
      ~title:
        "E9  scaling with Internet size   (fixed 2 zombies per enterprise; \
         growing #ISPs)"
      ~columns:
        [
          "ISPs";
          "zombies";
          "filters per zombie gw (max)";
          "filters at ISP gws";
          "filters at core";
          "victim goodput";
        ]
  in
  List.iter
    (fun isps ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed:23 in
      let spec =
        {
          Hierarchy.default_spec with
          Hierarchy.isps;
          nets_per_isp = 2;
          hosts_per_net = 3;
        }
      in
      let t = Hierarchy.build sim spec in
      let d = Hierarchy.deploy ~config:cfg ~rng t in
      let victim_node = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
      let (_ : Host_agent.Victim.t) =
        Hierarchy.attach_victim ~td:0.05 d ~config:cfg ~isp:0 ~net:0 ~host:0
      in
      (* Legit flow from the same enterprise: the only legit traffic. *)
      ignore
        (Traffic.cbr ~start:0. ~flow_id:1 ~rate:2e5 ~dst:victim_node.Node.addr
           t.Hierarchy.net
           (Hierarchy.host t ~isp:0 ~net:0 ~host:1));
      (* Zombies: every ISP except the victim's contributes. *)
      let zombie_count = ref 0 in
      for isp = 1 to isps - 1 do
        for net = 0 to 1 do
          for host = 0 to zombies_per_net - 1 do
            incr zombie_count;
            let agent =
              Hierarchy.attach_attacker ~strategy:Policy.Ignores d ~config:cfg
                ~isp ~net ~host
            in
            ignore
              (Traffic.cbr
                 ~gate:(Host_agent.Attacker.gate agent)
                 ~start:0.5 ~attack:true
                 ~flow_id:(1000 + !zombie_count)
                 ~rate:4e5 ~dst:victim_node.Node.addr t.Hierarchy.net
                 (Hierarchy.host t ~isp ~net ~host))
          done
        done
      done;
      Sim.run ~until:6.0 sim;
      let max_leaf =
        Array.fold_left
          (fun acc row ->
            Array.fold_left
              (fun acc gw ->
                Int.max acc (Filter_table.peak_occupancy (Gateway.filters gw)))
              acc row)
          0 d.Hierarchy.net_gateways
      in
      let isp_filters =
        Array.fold_left
          (fun acc gw -> acc + Gateway.count gw Gateway.Filter_long)
          0 d.Hierarchy.isp_gateways
      in
      let offered = 2e5 *. 6.0 /. 8. in
      Table.add_row table
        [
          Table.cell_int isps;
          Table.cell_int !zombie_count;
          Table.cell_int max_leaf;
          Table.cell_int isp_filters;
          "0 (core runs no AITF)";
          Printf.sprintf "%.0f%%"
            (pct (Runner.delivered sim None ~attack:false) offered);
        ])
    [ 2; 4; 8 ];
  emit table;
  print_endline
    "Per-gateway filter load stays pinned at its own zombie count while the\n\
     Internet (and the total attack volume) grows — filtering capacity\n\
     follows the provider's client base, Section III-C.\n"

(* ------------------------------------------------------------------ A1 -- *)

(* Ablation: traceback mechanisms. The paper assumes traceback ([CG00]
   route record makes it free; [SWKA00]/[SPS+01] cost time that Ttmp must
   cover). *)
let a1 () =
  let table =
    Table.create
      ~title:"A1  traceback ablation   (single attacker; time until the \
              attacker-side filter lands)"
      ~columns:
        [
          "mechanism";
          "paper cost model";
          "time to attacker-gw filter (s)";
          "leaked bytes";
          "extra cost";
        ]
  in
  let run ~label ~paper_cost ~make =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:29 in
    let topo = Chain.build sim Chain.default_spec in
    let config, path_source, extra = make sim topo in
    let d =
      Chain.deploy ~victim_td:0.1 ~path_source ~config ~rng topo
    in
    let (_ : Traffic.t) =
      Traffic.cbr
        ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
        ~start:1.0 ~attack:true ~flow_id:1 ~rate:1e6
        ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
    in
    (* Poll for the filter at B_gw1. *)
    let b_gw1 = List.hd d.Chain.attacker_gateways in
    let landed = ref None in
    let rec poll t =
      if t < 10. then
        ignore
          (Sim.at sim t (fun () ->
               if
                 !landed = None
                 && Gateway.count b_gw1 Gateway.Filter_long > 0
               then landed := Some t;
               poll (t +. 0.01)))
    in
    poll 1.0;
    Sim.run ~until:10.0 sim;
    Table.add_row table
      [
        label;
        paper_cost;
        (match !landed with
        | Some t -> Printf.sprintf "%.2f" (t -. 1.0)
        | None -> "never");
        Printf.sprintf "%.0f" (Runner.delivered sim None ~attack:true);
        extra ();
      ]
  in
  run ~label:"route record [CG00]" ~paper_cost:"0 (in-packet)" ~make:(fun _ _ ->
      (cfg, Host_agent.From_route_record, fun () -> "16 B header space"));
  run ~label:"SPIE digests [SPS+01]" ~paper_cost:"query round trips"
    ~make:(fun _ topo ->
      let spie = Aitf_traceback.Spie.deploy topo.Chain.net in
      ( { cfg with Config.traceback = Config.Spie_query spie },
        Host_agent.Gateway_traceback,
        fun () ->
          Printf.sprintf "%d digest queries" (Aitf_traceback.Spie.queries spie) ));
  run ~label:"PPM marking [SWKA00]" ~paper_cost:"sample convergence"
    ~make:(fun _ topo ->
      let mark_rng = Rng.create ~seed:31 in
      List.iter
        (fun gw -> Aitf_traceback.Ppm.install ~p:0.2 ~rng:mark_rng gw)
        (topo.Chain.victim_gws @ topo.Chain.attacker_gws);
      let collector = Aitf_traceback.Ppm.Collector.create () in
      ( cfg,
        Host_agent.From_ppm collector,
        fun () ->
          Printf.sprintf "%d marked packets"
            (Aitf_traceback.Ppm.Collector.samples collector) ));
  emit table;
  print_endline
    "Ttmp must cover the traceback latency (Section IV-B): the route record\n\
     is effectively free, SPIE costs query round trips at the gateway, and\n\
     PPM delays the victim's first request until enough marks arrive.\n"

(* ------------------------------------------------------------------ A2 -- *)

(* Ablation: the DRAM shadow cache (keeping requests for T while filtering
   only for Ttmp). *)
let a2 () =
  let run shadow_t =
    let config = { cfg with Config.t_filter = shadow_t } in
    Scenarios.run_chain
      {
        chain_params with
        Scenarios.config;
        duration = 60.;
        n_non_coop_gws = 1;
        attacker_strategy = Policy.On_off { off_time = cfg.Config.t_tmp +. 0.2 };
      }
  in
  let full = run cfg.Config.t_filter in
  let short = run (2.5 *. cfg.Config.t_tmp) in
  let table =
    Table.create
      ~title:
        "A2  shadow-cache ablation   (on-off attacker behind an unresponsive \
         gateway)"
      ~columns:
        [ "shadow horizon"; "r measured"; "escalations"; "victim requests" ]
  in
  let row label (r : Scenarios.chain_result) =
    Table.add_row table
      [
        label;
        Table.cell_float ~digits:3 r.Scenarios.r_measured;
        Table.cell_int r.Scenarios.escalations;
        Table.cell_int r.Scenarios.requests_sent;
      ]
  in
  row "full T (paper design)" full;
  row "barely past Ttmp" short;
  emit table;
  print_endline
    "Without a long shadow the gateway forgets the request as soon as its\n\
     temporary filter dies, so the on-off game works: more leakage, no\n\
     escalation past the complicit gateway, and the victim burns its R1\n\
     budget re-requesting.\n"

(* ----------------------------------------------------------------- E10 -- *)

(* Section III-A: the economic incentive for ingress/egress filtering — a
   provider that stops spoofed flows from exiting its network reduces the
   filtering requests it will later have to satisfy. *)
let e10 () =
  let spoof_pool = 20 in
  let run ~egress =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:37 in
    let topo = Chain.build sim Chain.default_spec in
    let d = Chain.deploy ~victim_td:0.05 ~config:cfg ~rng topo in
    let b_gw1_node = List.hd topo.Chain.attacker_gws in
    let guard =
      if egress then
        Some
          (Ingress.install ~ingress:false topo.Chain.net b_gw1_node
             ~cone:[ Addr.prefix (Addr.of_octets 20 0 0 0) 24 ])
      else None
    in
    (* A spoofed flood rotating through a pool of outside source addresses,
       plus one genuine-source attack flow. *)
    let k = ref 0 in
    ignore
      (Traffic.cbr
         ~spoof:(fun () ->
           incr k;
           Some (Addr.add (Addr.of_octets 77 0 0 1) (!k mod spoof_pool)))
         ~start:0.5 ~attack:true ~flow_id:1 ~rate:2e6
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker);
    ignore
      (Traffic.cbr
         ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
         ~start:0.5 ~attack:true ~flow_id:2 ~rate:5e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker);
    Sim.run ~until:8.0 sim;
    let b_gw1 = List.hd d.Chain.attacker_gateways in
    ( Runner.delivered sim None ~attack:true,
      Host_agent.Victim.requests_sent d.Chain.victim_agent,
      Gateway.count b_gw1 Gateway.Req_attacker_role,
      Gateway.count b_gw1 Gateway.Filter_long,
      match guard with Some g -> Ingress.egress_drops g | None -> 0 )
  in
  let d_off, req_off, srv_off, filt_off, _ = run ~egress:false in
  let d_on, req_on, srv_on, filt_on, dropped_on = run ~egress:true in
  let table =
    Table.create
      ~title:
        "E10  ingress/egress filtering economics   (rotating-spoof flood + 1 \
         genuine flow)"
      ~columns:
        [
          "egress filtering at B_gw1";
          "attack delivered (kB)";
          "victim requests";
          "requests served by provider";
          "filters provider installs";
          "spoofed exits stopped";
        ]
  in
  Table.add_row table
    [
      "off";
      Printf.sprintf "%.0f" (d_off /. 1e3);
      Table.cell_int req_off;
      Table.cell_int srv_off;
      Table.cell_int filt_off;
      "0";
    ];
  Table.add_row table
    [
      "on (BCP 38)";
      Printf.sprintf "%.0f" (d_on /. 1e3);
      Table.cell_int req_on;
      Table.cell_int srv_on;
      Table.cell_int filt_on;
      Table.cell_int dropped_on;
    ];
  emit table;
  print_endline
    "With egress filtering the provider stops the spoofed flood at the\n\
     source network, so the filtering requests it must later satisfy drop\n\
     to the one genuine flow — the Section III-A incentive, measured.\n"

(* ----------------------------------------------------------------- E11 -- *)

(* Section V vs [PL01]: DPF is proactive (spoofed flows die en route), AITF
   is reactive (any undesired flow is blocked after detection); they
   compose. *)
let e11 () =
  let duration = 8.0 in
  let run ~dpf ~aitf =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:41 in
    let topo = Chain.build sim Chain.default_spec in
    let d =
      if aitf then Some (Chain.deploy ~victim_td:0.05 ~config:cfg ~rng topo)
      else None
    in
    let dpf_state =
      if dpf then
        Aitf_dpf.Dpf.deploy topo.Chain.net
          (topo.Chain.victim_gws @ topo.Chain.attacker_gws)
      else []
    in
    (* Count at the victim directly so the no-AITF runs measure too. *)
    let spoofed = ref 0. and genuine = ref 0. in
    let victim = topo.Chain.victim in
    let prev = victim.Node.local_deliver in
    victim.Node.local_deliver <-
      (fun node (pkt : Packet.t) ->
        (match pkt.Packet.payload with
        | Packet.Data { flow_id = 1; _ } ->
          spoofed := !spoofed +. float_of_int pkt.Packet.size
        | Packet.Data { flow_id = 2; _ } ->
          genuine := !genuine +. float_of_int pkt.Packet.size
        | _ -> ());
        prev node pkt);
    (* Spoofed flood claiming to be the bystander (a real, routable host in
       the same enterprise — loose RPF would pass it). *)
    ignore
      (Traffic.cbr
         ~spoof:(fun () -> Some topo.Chain.bystander.Node.addr)
         ~start:0.5 ~attack:true ~flow_id:1 ~rate:2e6
         ~dst:victim.Node.addr topo.Chain.net topo.Chain.attacker);
    let gate =
      match d with
      | Some d -> Host_agent.Attacker.gate d.Chain.attacker_agent
      | None -> fun _ -> true
    in
    ignore
      (Traffic.cbr ~gate ~start:0.5 ~attack:true ~flow_id:2 ~rate:2e6
         ~dst:victim.Node.addr topo.Chain.net topo.Chain.attacker);
    Sim.run ~until:duration sim;
    let dpf_drops =
      List.fold_left (fun acc s -> acc + Aitf_dpf.Dpf.dropped s) 0 dpf_state
    in
    (!spoofed /. 1e3, !genuine /. 1e3, dpf_drops)
  in
  let table =
    Table.create
      ~title:
        "E11  DPF [PL01] vs AITF   (one spoofed-source flood + one \
         genuine-source flood)"
      ~columns:
        [
          "defense";
          "spoofed delivered (kB)";
          "genuine delivered (kB)";
          "dropped proactively";
          "paper expectation";
        ]
  in
  let row name (s, g, drops) expect =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" s;
        Printf.sprintf "%.0f" g;
        Table.cell_int drops;
        expect;
      ]
  in
  row "none" (run ~dpf:false ~aitf:false) "both land";
  row "DPF only" (run ~dpf:true ~aitf:false) "spoofed dies, genuine lands";
  row "AITF only" (run ~dpf:false ~aitf:true) "both blocked reactively";
  row "DPF + AITF" (run ~dpf:true ~aitf:true)
    "spoofed never leaves; genuine blocked reactively";
  emit table;
  print_endline
    "DPF kills infeasible (spoofed) packets in flight but is blind to a\n\
     genuine-source flood; AITF blocks anything but only after Td + a\n\
     round trip. The combination is strictly better — the complementarity\n\
     claimed in Section V.\n"

(* ----------------------------------------------------------------- E12 -- *)

(* Robustness: the structural claims should not depend on the regular
   chain/tree shape. Random multi-homed two-tier internets, several seeds. *)
let e12 () =
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let zombies_per_run = 6 in
  let run ~rogue_stub_fraction seed =
    let sim = Sim.create () in
    let rng = Rng.create ~seed in
    let topo = Random_net.build sim rng Random_net.default_spec in
    let n_stubs = Array.length topo.Random_net.stub_gws in
    let policy_rng = Rng.split rng in
    let rogue = Array.init n_stubs (fun _ ->
        Rng.bernoulli policy_rng ~p:rogue_stub_fraction)
    in
    rogue.(0) <- false (* the victim's own stub cooperates *);
    let d =
      Random_net.deploy
        ~policies:(fun ~stub ->
          if rogue.(stub) then Policy.Unresponsive else Policy.Cooperative)
        ~config:cfg ~rng topo
    in
    let victim_node = Random_net.host topo ~stub:0 ~host:0 in
    let (_ : Host_agent.Victim.t) =
      Random_net.attach_victim ~td:0.05 d ~config:cfg ~stub:0 ~host:0
    in
    (* Zombies in distinct random non-victim stubs. *)
    let stubs = Array.init (n_stubs - 1) (fun i -> i + 1) in
    Rng.shuffle rng stubs;
    let offered = ref 0. in
    for z = 0 to zombies_per_run - 1 do
      let stub = stubs.(z mod Array.length stubs) in
      let agent =
        Random_net.attach_attacker ~strategy:Policy.Ignores d ~config:cfg
          ~stub ~host:(z mod 2)
      in
      offered := !offered +. (4e5 *. 7.5 /. 8.);
      ignore
        (Traffic.cbr
           ~gate:(Host_agent.Attacker.gate agent)
           ~start:0.5 ~attack:true ~flow_id:(500 + z) ~rate:4e5
           ~dst:victim_node.Node.addr topo.Random_net.net
           (Random_net.host topo ~stub ~host:(z mod 2)))
    done;
    Sim.run ~until:8.0 sim;
    let count_filters gws =
      Array.fold_left
        (fun acc gw ->
          acc
          + Gateway.count gw Gateway.Filter_long
          + Gateway.count gw Gateway.Filter_long_self)
        0 gws
    in
    let at_stubs = count_filters d.Random_net.stub_gateways in
    let at_transits = count_filters d.Random_net.transit_gateways in
    (at_stubs, at_transits)
  in
  let table =
    Table.create
      ~title:
        "E12  random multi-homed topologies   (8 seeds, 6 zombies each; \
         where does filtering land?)"
      ~columns:
        [
          "stub cooperation";
          "filters at stub edges";
          "filters at transits";
          "expectation";
        ]
  in
  let total f =
    List.fold_left
      (fun (a, b) seed ->
        let x, y = f seed in
        (a + x, b + y))
      (0, 0) seeds
  in
  let coop_stubs, coop_transits = total (run ~rogue_stub_fraction:0.) in
  let rogue_stubs, rogue_transits = total (run ~rogue_stub_fraction:0.4) in
  Table.add_row table
    [
      "all cooperative";
      Table.cell_int coop_stubs;
      Table.cell_int coop_transits;
      "all filtering at the edge";
    ];
  Table.add_row table
    [
      "40% of stubs rogue";
      Table.cell_int rogue_stubs;
      Table.cell_int rogue_transits;
      "escalation moves rogue stubs' share to transits";
    ];
  emit table;
  print_endline
    "Across randomised internets the leaf-first placement and the\n\
     escalation fallback hold independent of topology regularity.\n"

(* ------------------------------------------------------------------ A3 -- *)

(* Ablation: wildcard aggregation when the victim gateway runs out of
   hardware filters. *)
let a3 () =
  let flows = 20 in
  let capacity = 4 in
  let run ~aggregate =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:43 in
    let topo = Chain.build sim Chain.default_spec in
    let config =
      { cfg with Config.aggregate_on_pressure = aggregate; r1 = 1000.; r1_burst = 1000. }
    in
    let d =
      Chain.deploy ~victim_td:0.05 ~victim_filter_capacity:capacity ~config
        ~rng topo
    in
    for i = 0 to flows - 1 do
      ignore
        (Traffic.cbr
           ~spoof:(fun () -> Some (Addr.add (Addr.of_octets 20 0 2 0) i))
           ~start:0.5 ~attack:true ~flow_id:(300 + i) ~rate:2e5
           ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
    done;
    (* A legitimate flow towards the same victim: collateral probe. *)
    ignore
      (Traffic.cbr ~start:0. ~flow_id:9 ~rate:2e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.bystander);
    Sim.run ~until:6.0 sim;
    let vgw = List.hd d.Chain.victim_gateways in
    ( Runner.delivered sim None ~attack:true,
      Runner.delivered sim None ~attack:false,
      Gateway.count vgw Gateway.Filter_full,
      Gateway.count vgw Gateway.Filter_aggregated )
  in
  let atk_off, good_off, full_off, _ = run ~aggregate:false in
  let atk_on, good_on, _, agg_on = run ~aggregate:true in
  let good_offered = 2e5 *. 6.0 /. 8. in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "A3  wildcard aggregation under filter pressure   (%d flows, %d \
            hardware slots)"
           flows capacity)
      ~columns:
        [
          "aggregation";
          "attack delivered (kB)";
          "legit delivered";
          "capacity misses";
          "aggregates installed";
        ]
  in
  Table.add_row table
    [
      "off";
      Printf.sprintf "%.0f" (atk_off /. 1e3);
      Printf.sprintf "%.0f%%" (pct good_off good_offered);
      Table.cell_int full_off;
      "0";
    ];
  Table.add_row table
    [
      "on";
      Printf.sprintf "%.0f" (atk_on /. 1e3);
      Printf.sprintf "%.0f%%" (pct good_on good_offered);
      "-";
      Table.cell_int agg_on;
    ];
  emit table;
  print_endline
    "The wildcard (any source -> victim) keeps the tail circuit alive when\n\
     exact filters run out, at the price of briefly blocking legitimate\n\
     traffic to the same victim — the classic precision/coverage trade the\n\
     paper's wildcarded flow labels enable.\n"

(* ----------------------------------------------------------------- E13 -- *)

(* Service quality under attack: the transaction-level view of the tail
   circuit. Raw goodput understates the damage — transactions need all
   their packets — so this is the "severely disrupted, if not fail
   completely" of the paper's introduction, quantified. *)
let e13 () =
  let duration = 30.0 in
  let run ~with_aitf =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:47 in
    let spec =
      { Chain.default_spec with Chain.tail_bw = 1e6; attacker_tail_bw = 1e7 }
    in
    let topo = Chain.build sim spec in
    (* The server application must see requests before the AITF victim
       agent takes over delivery, so attach it first; both chain to the
       previous handler for payloads they do not own. *)
    let (_ : Aitf_workload.App.Server.t) =
      Aitf_workload.App.Server.create ~reply_packets:4 topo.Chain.net
        topo.Chain.victim
    in
    let d =
      if with_aitf then Some (Chain.deploy ~victim_td:0.1 ~config:cfg ~rng topo)
      else None
    in
    let client =
      Aitf_workload.App.Client.create ~period:0.25 ~timeout:1.0 ~retries:1
        ~stop:(duration -. 2.) ~server:topo.Chain.victim.Node.addr
        topo.Chain.net topo.Chain.bystander
    in
    let gate =
      match d with
      | Some d -> Host_agent.Attacker.gate d.Chain.attacker_agent
      | None -> fun _ -> true
    in
    ignore
      (Traffic.cbr ~gate ~start:2. ~attack:true ~flow_id:1 ~rate:5e6
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker);
    Sim.run ~until:duration sim;
    client
  in
  let table =
    Table.create
      ~title:
        "E13  transaction service quality   (request/4-packet-response app \
         on a 1 Mbit/s tail under a 5 Mbit/s flood)"
      ~columns:
        [
          "defense";
          "transactions ok";
          "failed";
          "completion rate";
          "latency p50 (ms)";
          "latency p99 (ms)";
        ]
  in
  let row name client =
    let lat =
      Aitf_stats.Summary.of_list (Aitf_workload.App.Client.latencies client)
    in
    Table.add_row table
      [
        name;
        Table.cell_int (Aitf_workload.App.Client.completed client);
        Table.cell_int (Aitf_workload.App.Client.failed client);
        Printf.sprintf "%.0f%%"
          (100. *. Aitf_workload.App.Client.completion_rate client);
        Printf.sprintf "%.1f" (1e3 *. lat.Aitf_stats.Summary.p50);
        Printf.sprintf "%.1f" (1e3 *. lat.Aitf_stats.Summary.p99);
      ]
  in
  let none_client = run ~with_aitf:false in
  let aitf_client = run ~with_aitf:true in
  row "none" none_client;
  row "AITF" aitf_client;
  emit table;
  let histogram name client =
    let h =
      Aitf_stats.Histogram.create
        ~bounds:(Aitf_stats.Histogram.log_bounds ~lo:0.1 ~hi:4.0 ~per_decade:4)
    in
    List.iter (Aitf_stats.Histogram.add h)
      (Aitf_workload.App.Client.latencies client);
    Printf.printf "latency distribution, %s (s):\n%s\n" name
      (Aitf_stats.Histogram.render ~width:30 h)
  in
  histogram "no defense" none_client;
  histogram "AITF" aitf_client;
  print_endline
    "Packet goodput alone hides half the story: under the flood, surviving\n\
     transactions also queue behind the attack (latency blows up) and most\n\
     fail outright. AITF restores both completion rate and latency.\n"

(* ------------------------------------------------------------------ A4 -- *)

(* Ablation: the victim tail's queue discipline. Orthogonal to AITF, but
   part of any real deployment conversation: does smarter queueing change
   what the victim experiences before/without filtering? *)
let a4 () =
  let duration = 20.0 in
  let run discipline =
    let sim = Sim.create () in
    let spec =
      {
        Chain.default_spec with
        Chain.tail_bw = 1e6;
        attacker_tail_bw = 1e7;
        tail_discipline = discipline;
      }
    in
    let topo = Chain.build sim spec in
    let (_ : Aitf_workload.App.Server.t) =
      Aitf_workload.App.Server.create ~reply_packets:4 topo.Chain.net
        topo.Chain.victim
    in
    let client =
      Aitf_workload.App.Client.create ~period:0.25 ~timeout:1.0 ~retries:1
        ~stop:(duration -. 2.) ~server:topo.Chain.victim.Node.addr
        topo.Chain.net topo.Chain.bystander
    in
    ignore
      (Traffic.cbr ~start:1. ~attack:true ~flow_id:1 ~rate:3e6
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker);
    Sim.run ~until:duration sim;
    (client, Link.early_drops topo.Chain.victim_tail)
  in
  let table =
    Table.create
      ~title:
        "A4  victim-tail queue discipline under flood (no AITF)   (3 Mbit/s \
         flood into 1 Mbit/s)"
      ~columns:
        [
          "discipline";
          "transactions ok";
          "completion rate";
          "latency p50 (ms)";
          "early drops";
        ]
  in
  let row name (client, early) =
    let lat =
      Aitf_stats.Summary.of_list (Aitf_workload.App.Client.latencies client)
    in
    Table.add_row table
      [
        name;
        Table.cell_int (Aitf_workload.App.Client.completed client);
        Printf.sprintf "%.0f%%"
          (100. *. Aitf_workload.App.Client.completion_rate client);
        Printf.sprintf "%.1f" (1e3 *. lat.Aitf_stats.Summary.p50);
        Table.cell_int early;
      ]
  in
  row "drop-tail" (run Link.Drop_tail);
  row "RED"
    (run (Link.Red { min_th = 8000; max_th = 32000; max_p = 0.3 }));
  emit table;
  print_endline
    "RED keeps the standing queue (and so the latency) down, but with a\n\
     non-adaptive flood its random early drops hit the innocent flow just\n\
     as blindly — completion actually falls. No queue discipline recovers\n\
     capacity taken by a flood; filtering (AITF, E13) remains the fix.\n"

(* ------------------------------------------------------------------ A5 -- *)

(* Ablation: blocking vs rate-limiting filters (footnote 10). The paper
   argues DoS traffic should be blocked outright, not rate-limited the way
   pushback treats flash crowds. *)
let a5 () =
  let run action =
    let config = { cfg with Config.filter_action = action } in
    Scenarios.run_chain
      { chain_params with Scenarios.config; duration = 30. }
  in
  let blocked = run Config.Block in
  let limited = run (Config.Rate_limit 12_500.) (* 100 kbit/s *) in
  let table =
    Table.create
      ~title:
        "A5  block vs rate-limit at the attacker's gateway   (1 Mbit/s \
         undesired flow; limit = 100 kbit/s)"
      ~columns:
        [ "filter action"; "attack delivered (kB)"; "r measured";
          "escalations"; "victim requests" ]
  in
  let row name (r : Scenarios.chain_result) =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" (r.Scenarios.attack_received_bytes /. 1e3);
        Table.cell_float ~digits:3 r.Scenarios.r_measured;
        Table.cell_int r.Scenarios.escalations;
        Table.cell_int r.Scenarios.requests_sent;
      ]
  in
  row "block" blocked;
  row "rate-limit" limited;
  Table.print table;
  print_endline
    "Rate-limiting destabilises the protocol: the residual trickle keeps\n\
     hitting the victim gateway's shadow cache, which (correctly) reads\n\
     traffic-after-handoff as non-cooperation and escalates round after\n\
     round, burning requests and filters on every gateway up the path.\n\
     Blocking converges in one quiet round per T. Footnote 10's \"it makes\n\
     sense to block it\" is not just about leak volume — a zero-traffic\n\
     handoff signal is what lets the victim's gateway tell cooperation\n\
     from defection at all.\n"

(* ----------------------------------------------------------------- E14 -- *)

(* The introduction's motivating claim: "manual filter propagation becomes
   unacceptably slow or even infeasible" against an attack that changes
   shape faster than a human responds. A shape-shifting flood (new spoofed
   identity every 2 s) against three defenses: none, a human operator, and
   AITF. *)
let e14 () =
  let duration = 60.0 in
  let shift_period = 2.0 in
  let rate = 1e6 in
  let run ~pool ~defense =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:53 in
    let topo = Chain.build sim Chain.default_spec in
    let d =
      match defense with
      | `Aitf -> Some (Chain.deploy ~victim_td:0.1 ~config:cfg ~rng topo)
      | `None | `Manual _ -> None
    in
    let manual =
      match defense with
      | `Manual response_time ->
        Some
          (Aitf_workload.Manual_defense.deploy ~response_time
             ~gateway:(List.hd topo.Chain.victim_gws) ~victim:topo.Chain.victim
             topo.Chain.net)
      | `None | `Aitf -> None
    in
    let shifter =
      Aitf_workload.Shape_shifter.create ~pool ~shift_period ~start:1.
        ?gate:
          (Option.map
             (fun d -> Host_agent.Attacker.gate d.Chain.attacker_agent)
             d)
        ~flow_id:1 ~rate ~dst:topo.Chain.victim.Node.addr
        ~spoof_base:(Addr.of_octets 20 0 5 0) topo.Chain.net
        topo.Chain.attacker
    in
    Sim.run ~until:duration sim;
    let offered = rate *. (duration -. 1.) /. 8. in
    let filters =
      match (d, manual) with
      | Some d, _ ->
        Scenarios.counter_total d.Chain.attacker_gateways Gateway.Filter_long
      | _, Some m -> Aitf_workload.Manual_defense.filters_installed m
      | _ -> 0
    in
    ( 100. *. Runner.delivered sim None ~attack:true /. offered,
      Aitf_workload.Shape_shifter.shapes_used shifter,
      filters )
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E14  shape-shifting attack vs response speed   (new identity \
            every %.0f s for %.0f s)"
           shift_period duration)
      ~columns:
        [
          "defense";
          "spoof pool";
          "attack delivered";
          "shapes seen";
          "filters installed";
        ]
  in
  let row name ~pool ~defense =
    let pct_v, shapes, filters = run ~pool ~defense in
    Table.add_row table
      [
        name;
        Table.cell_int pool;
        Printf.sprintf "%.0f%%" pct_v;
        Table.cell_int shapes;
        Table.cell_int filters;
      ]
  in
  row "none" ~pool:1000 ~defense:`None;
  row "manual operator (30 s/filter)" ~pool:1000 ~defense:(`Manual 30.);
  row "manual operator (30 s/filter)" ~pool:8 ~defense:(`Manual 30.);
  row "manual operator (5 s/filter)" ~pool:1000 ~defense:(`Manual 5.);
  row "AITF" ~pool:1000 ~defense:`Aitf;
  Table.print table;
  print_endline
    "Against fresh identities every 2 s the human never catches up — every\n\
     filter lands after its flow is gone (with a small recycling pool the\n\
     operator eventually covers it, at one filter per identity). AITF\n\
     answers at protocol speed: each shape leaks only its detection window.\n\
     This is the introduction's case for automating filter propagation.\n"

(* ----------------------------------------------------------------- E15 -- *)

(* Control-plane reliability under loss. AITF's filtering requests and
   handshake messages cross the very tail circuit the flood congests, so
   the protocol must survive losing them (Section III's robustness
   discussion). Sweep i.i.d. control-packet loss on the victim's tail from
   0 to 30% and compare time-to-suppression with the classic single-shot
   control plane against the retransmitting one (4 retries, 300 ms initial
   RTO, exponential backoff). Single-shot recovery leans on detection
   re-firing after min_report_gap; retransmission reacts at RTO speed and
   should keep the time-to-filter near its lossless value. *)
let e15 () =
  let losses = [ 0.0; 0.05; 0.1; 0.2; 0.3 ] in
  let run ~loss ~retries =
    let r =
      Scenarios.run_chain
        {
          chain_params with
          Scenarios.duration = 60.;
          attack_rate = 1e6;
          config = { cfg with Config.ctrl_retries = retries; ctrl_rto = 0.3 };
          ctrl_faults =
            (if loss > 0. then [ Aitf_fault.Fault.Loss loss ] else []);
        }
    in
    (Scenarios.time_to_suppress r ~threshold:0.05, r)
  in
  let table =
    Table.create
      ~title:
        "E15  time-to-filter vs control-plane loss   (i.i.d. loss on the \
         victim tail, single-shot vs 4 retries @ 300 ms RTO)"
      ~columns:
        [
          "ctrl loss";
          "drops injected";
          "single-shot: suppressed (s)";
          "retrans: suppressed (s)";
          "retransmissions";
        ]
  in
  let cell_ttf = function
    | Some t -> Printf.sprintf "%.2f" t
    | None -> "never"
  in
  List.iter
    (fun loss ->
      let ttf0, _ = run ~loss ~retries:0 in
      let ttf4, r4 = run ~loss ~retries:4 in
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100. *. loss);
          Table.cell_int r4.Scenarios.faults_injected;
          cell_ttf ttf0;
          cell_ttf ttf4;
          Table.cell_int
            (r4.Scenarios.requests_retransmitted
            + r4.Scenarios.ctrl_retransmits);
        ])
    losses;
  emit table;
  print_endline
    "Retransmission holds the time-to-filter near its lossless value across\n\
     the sweep; the single-shot control plane recovers only at detection\n\
     re-report speed (min_report_gap), and its tail latency grows with the\n\
     loss rate. Either way the protocol converges: a lost request delays\n\
     filtering, it does not defeat it.\n"

(* ----------------------------------------------------------------- E16 -- *)

(* Surviving an attack on AITF itself: a botnet rotates spoofed sources to
   exhaust the victim gateway's nv = R1*Ttmp filter slots (Section III).
   With the table 32 slots deep and only two gateways on the path, a pool
   of 4x capacity overwhelms every exact-filter budget in the network; the
   sweep compares the overload manager's watermark-driven prefix
   aggregation + priority eviction against the plain refuse-installs
   baseline, and prices the aggregates' collateral damage. *)
let e16 () =
  let capacity = 32 in
  let run ~sources ~manager =
    Scenarios.run_chain
      {
        chain_params with
        Scenarios.spec =
          { Chain.default_spec with Chain.depth = 1 };
        config =
          {
            cfg with
            Config.t_tmp = 0.5;
            filter_capacity = capacity;
            overload_manager = manager;
            overload_low = 0.5;
          };
        duration = 30.;
        attack_rate = 2e7;
        legit_rate = 6e6;
        in_pool_legit_rate = 5e5;
        adversaries =
          [ Aitf_adversary.Adversary.Slot_exhaustion { sources; rate = 2e7 } ];
      }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E16  filter-slot exhaustion vs the overload manager   (capacity \
            %d, 20 Mbit/s rotating-spoof attack, 10 Mbit/s victim tail)"
           capacity)
      ~columns:
        [
          "spoofed sources";
          "x capacity";
          "off: goodput";
          "off: attack leaked";
          "on: goodput";
          "on: attack leaked";
          "aggregations";
          "evictions";
          "collateral (pkts)";
        ]
  in
  List.iter
    (fun sources ->
      let off = run ~sources ~manager:false in
      let on = run ~sources ~manager:true in
      let goodput r =
        Printf.sprintf "%.1f%%"
          (pct r.Scenarios.good_received_bytes r.Scenarios.good_offered_bytes)
      in
      let leaked r =
        Printf.sprintf "%.1f%%"
          (pct r.Scenarios.attack_received_bytes
             r.Scenarios.attack_offered_bytes)
      in
      Table.add_row table
        [
          Table.cell_int sources;
          Printf.sprintf "%.0fx" (float_of_int sources /. float_of_int capacity);
          goodput off;
          leaked off;
          goodput on;
          leaked on;
          Table.cell_int on.Scenarios.overload_aggregations;
          Table.cell_int on.Scenarios.overload_evictions;
          Table.cell_int on.Scenarios.collateral_packets;
        ])
    [ 32; 64; 128; 256 ];
  emit table;
  print_endline
    "At 1-2x capacity the exact-filter budget still stretches across the\n\
     path, so the manager's aggregates only add collateral and it slightly\n\
     trails the baseline -- degraded mode is not free, which is why the\n\
     watermarks keep it off until the table actually fills. From 4x on the\n\
     baseline leaks double-digit shares of the attack through its full\n\
     tables while the manager folds the spoof pool into a handful of prefix\n\
     aggregates and keeps victim goodput strictly above the baseline; the\n\
     price is the collateral column -- a legitimate host unlucky enough to\n\
     live inside the spoofed prefix loses its traffic to the aggregate.\n"

(* ----------------------------------------------------------------- E17 -- *)

(* Hybrid fluid/packet engine (lib/flowsim). Two claims:

   (a) on the flooding chain scenarios the hybrid engine agrees with the
       packet engine — time-to-filter and victim goodput within 10% —
       while processing far fewer discrete events;
   (b) the fluid plane scales the attacker population to 10^5..10^6
       sources in seconds of wall-clock, a regime the packet engine cannot
       represent at all.

   The sweep's largest population is capped by E17_MAX_SOURCES (CI runs
   the smaller configs; the default reaches 10^6). *)

let e17_max_sources () =
  match Sys.getenv_opt "E17_MAX_SOURCES" with
  | Some s -> ( try max 1000 (int_of_string s) with Failure _ -> 1_000_000)
  | None -> 1_000_000

let e17 () =
  let tolerance = 0.10 in
  let agree =
    Table.create
      ~title:
        "E17  engine agreement   (20 Mbit/s flood vs 10 Mbit/s tail, 1 \
         Mbit/s legit, 30 s)"
      ~columns:
        [ "scenario"; "metric"; "packet"; "hybrid"; "diff %"; "verdict" ]
  in
  let compare_engines (name, strategy) =
    let base =
      {
        chain_params with
        Scenarios.attacker_strategy = strategy;
        attack_rate = 20e6;
        legit_rate = 1e6;
        duration = 30.;
      }
    in
    let packet = Scenarios.run_chain base in
    let hybrid =
      Scenarios.run_chain
        {
          base with
          Scenarios.config =
            { base.Scenarios.config with Config.engine = Config.Hybrid };
        }
    in
    let row metric pv hv fmt =
      let diff =
        if pv = 0. then if hv = 0. then 0. else infinity
        else abs_float (hv -. pv) /. pv
      in
      Table.add_row agree
        [
          name;
          metric;
          fmt pv;
          fmt hv;
          Printf.sprintf "%.1f" (100. *. diff);
          (if diff <= tolerance then "AGREE" else "DISAGREE");
        ]
    in
    let tts r =
      match Scenarios.time_to_suppress r ~threshold:0.05 with
      | Some t -> t -. base.Scenarios.attack_start
      | None -> base.Scenarios.duration
    in
    row "time-to-filter (s)" (tts packet) (tts hybrid) (fun v ->
        Printf.sprintf "%.2f" v);
    row "victim goodput (MB)"
      (packet.Scenarios.good_received_bytes /. 1e6)
      (hybrid.Scenarios.good_received_bytes /. 1e6)
      (fun v -> Printf.sprintf "%.2f" v);
    Table.add_row agree
      [
        name;
        "events processed";
        string_of_int packet.Scenarios.events_processed;
        string_of_int hybrid.Scenarios.events_processed;
        "";
        "";
      ]
  in
  List.iter compare_engines
    [
      ("complying attacker", Policy.Complies);
      ("ignoring attacker", Policy.Ignores);
    ];
  emit agree;
  (* (b) population scaling under the fluid plane. *)
  let sweep =
    Table.create
      ~title:
        "E17  hybrid scaling   (20 Mbit/s total over N spoofed sources, 8 \
         pools, 30 s simulated)"
      ~columns:
        [
          "sources";
          "wall-clock (s)";
          "peak heap (MB)";
          "events";
          "events/sim-s";
          "filters";
          "requests";
          "tts (s)";
          "good recv (MB)";
        ]
  in
  (* The swarm spoofs from /12 pools, so per-source filters can never cover
     the population — exactly the regime the overload manager's prefix
     aggregation exists for. Enable it so the sweep shows AITF actually
     suppressing the flood at scale. *)
  let hybrid_cfg =
    {
      cfg with
      Config.engine = Config.Hybrid;
      overload_manager = true;
      aggregate_on_pressure = true;
      (* Small enough that the population drives the tables into degraded
         mode, so prefix aggregation — not per-source filters, which R1*T
         caps at ~600 — is what suppresses the flood. *)
      filter_capacity = 128;
    }
  in
  let cap = e17_max_sources () in
  List.iter
    (fun n ->
      if n <= cap then begin
        let t0 = Unix.gettimeofday () in
        let r =
          Scenarios.run_swarm
            {
              Scenarios.default_swarm with
              Scenarios.swarm_config = hybrid_cfg;
              swarm_sources = n;
              swarm_pools = 8;
              swarm_attack_rate = 20e6;
              swarm_legit_rate = 1e6;
              swarm_duration = 30.;
            }
        in
        let wall = Unix.gettimeofday () -. t0 in
        let heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8)
          /. 1e6
        in
        let tts =
          let limit = 0.05 *. 20e6 in
          let start = r.Scenarios.swarm_params.Scenarios.swarm_attack_start in
          let points =
            List.filter
              (fun (t, _) -> t >= start)
              (Aitf_stats.Series.points r.Scenarios.swarm_victim_rate)
          in
          let rec drop_until_seen = function
            | (_, v) :: rest when v < limit -> drop_until_seen rest
            | pts -> pts
          in
          match
            List.find_opt (fun (_, v) -> v < limit) (drop_until_seen points)
          with
          | Some (t, _) -> Printf.sprintf "%.2f" (t -. start)
          | None -> "never"
        in
        Table.add_row sweep
          [
            string_of_int n;
            Printf.sprintf "%.2f" wall;
            Printf.sprintf "%.1f" heap_mb;
            string_of_int r.Scenarios.swarm_events;
            Printf.sprintf "%.0f"
              (float_of_int r.Scenarios.swarm_events /. 30.);
            string_of_int r.Scenarios.swarm_filters;
            string_of_int r.Scenarios.swarm_requests_sent;
            tts;
            Printf.sprintf "%.2f"
              (r.Scenarios.swarm_good_received_bytes /. 1e6);
          ]
      end)
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  emit sweep

(* ----------------------------------------------------------------- E18 -- *)

(* Filter placement at Internet scale (lib/topo + the Placement seam,
   docs/TOPOLOGY.md and docs/PLACEMENT.md). One seeded 1000-domain AS-level
   Internet — power-law degree, valley-free routing — with the victim in a
   stub domain and the attack population spread as fluid pools over 40
   domains, re-run under each of the three placement policies. Scored on
   the three axes the placement papers compare on: collateral damage
   (legitimate traffic lost), filter-slot usage (peak occupancy summed
   over every gateway) and time-to-filter (victim relief).

   Expected shape: vanilla AITF cannot cover a spoofed million-source
   population with per-flow filters, so it never suppresses the flood and
   the victim tail stays saturated (the 'collateral' is queue loss, not
   filtering); Optimal covers the attack /17s at the source gateways for
   ~1 slot per attack domain and near-zero collateral; Adaptive starts
   from a coarse victim-side wildcard (instant relief, real collateral)
   and walks it out to the sources, landing between the two.

   The largest population is capped by E18_MAX_SOURCES (CI runs 10^5; the
   default reaches the paper-scale 10^6). *)

let e18_max_sources () =
  match Sys.getenv_opt "E18_MAX_SOURCES" with
  | Some s -> ( try max 10_000 (int_of_string s) with Failure _ -> 1_000_000)
  | None -> 1_000_000

let e18 () =
  let module As_scenario = Aitf_workload.As_scenario in
  let table =
    Table.create
      ~title:
        "E18  filter placement at Internet scale   (1000 domains, 40 attack \
         domains, 200 Mbit/s attack vs 100 Mbit/s victim tail, 30 s)"
      ~columns:
        [
          "sources";
          "policy";
          "tts (s)";
          "collateral %";
          "slots peak";
          "installs";
          "reports";
          "events";
          "wall (s)";
        ]
  in
  let cap = e18_max_sources () in
  List.iter
    (fun n ->
      if n <= cap then
        List.iter
          (fun policy ->
            let t0 = Unix.gettimeofday () in
            let r =
              As_scenario.run
                {
                  As_scenario.default with
                  As_scenario.as_config =
                    {
                      Config.default with
                      Config.engine = Config.Hybrid;
                      placement = policy;
                    };
                  as_sources = n;
                }
            in
            let wall = Unix.gettimeofday () -. t0 in
            Table.add_row table
              [
                string_of_int n;
                Placement.policy_to_string policy;
                (match r.As_scenario.r_time_to_filter with
                | Some t -> Printf.sprintf "%.2f" t
                | None -> "never");
                Printf.sprintf "%.1f"
                  (100. *. r.As_scenario.r_collateral_fraction);
                string_of_int r.As_scenario.r_slots_peak;
                string_of_int r.As_scenario.r_filters_installed;
                string_of_int r.As_scenario.r_reports;
                string_of_int r.As_scenario.r_events;
                Printf.sprintf "%.2f" wall;
              ])
          Placement.all_policies)
    [ 100_000; 1_000_000 ];
  emit table

(* The golden-trace differential matrix as a perf trajectory
   (lib/workload/matrix.ml, docs/GOLDENS.md). Every cell of the
   topology x engine x fault x adversary x placement matrix runs
   instrumented — wall-clock, GC-allocated bytes, peak event-queue
   depth, events executed — and the per-cell trajectory lands in
   BENCH_E19.json (schema aitf.matrix-bench/1), the artifact CI uploads
   per commit and diffs against the previous run for >20% wall-clock
   regressions. Golden status is reported per cell (drift details via
   `aitf_sim matrix`, intentional changes via `--bless`); the agreement
   rows extend E17's 10% packet-vs-hybrid gate across every pristine
   engine pair in the matrix.

   E19_SMOKE=1 restricts to the reduced CI cell set; E19_GOLDENS
   overrides the goldens directory (default test/goldens, resolved
   against the working directory — run from the repo root). *)

let e19 () =
  let module Matrix = Aitf_workload.Matrix in
  let smoke = Sys.getenv_opt "E19_SMOKE" <> None in
  let goldens_dir =
    match Sys.getenv_opt "E19_GOLDENS" with
    | Some d -> d
    | None -> "test/goldens"
  in
  let s = Matrix.run ~smoke ~goldens_dir () in
  emit
    (Matrix.cells_table
       ~title:"E19  golden-trace matrix: perf trajectory per cell" s);
  emit
    (Matrix.pairs_table
       ~title:"E19  matrix-wide engine agreement   (E17 gate, 10% on goodput)"
       s);
  Aitf_obs.Report.write_json "BENCH_E19.json" (Matrix.bench_json s);
  Printf.printf
    "wrote BENCH_E19.json  (%d cells, %d drifted, %d missing, %d gated \
     disagreements)\n"
    (List.length s.Matrix.s_results)
    s.Matrix.s_drifted s.Matrix.s_missing s.Matrix.s_disagreements

(* ----------------------------------------------------------------- E20 -- *)

(* Verifiable filtering contracts under Byzantine gateways
   (lib/contract, docs/CONTRACTS.md). The validated verification regime —
   a 60-domain Internet whose victim gateway is capacity-constrained so
   a lying first-hop gateway's traffic is visible at the victim, with the
   fast audit clock (deadline 0.75 s, grace 0.35 s) — re-run with 0%,
   10%, 20% and 30% of the attack-side gateways forging install receipts
   (the affirmative-evidence lying mode: every engaged liar must be
   convicted by signature checks alone, independent of escalation
   timing).

   Three gates, asserted by CI over BENCH_E20.json (schema
   aitf.contract-bench/1):
   - detection: every corrupted gateway flagged, zero honest gateways
     flagged (missed = false_positives = 0 at every fraction);
   - recovery: the victim reaches time-to-filter at every fraction
     (failover routes around the liars instead of stalling);
   - goodput: legitimate bytes delivered stay within 10% of the
     all-honest baseline (ratio >= 0.9). *)

let e20 () =
  let module Scenario = Aitf_workload.Scenario in
  let module As_scenario = Aitf_workload.As_scenario in
  let module As_graph = Aitf_topo.As_graph in
  let module Auditor = Aitf_contract.Auditor in
  let module Adversary = Aitf_adversary.Adversary in
  let module Json = Aitf_obs.Json in
  let table =
    Table.create
      ~title:
        "E20  verifiable contracts vs Byzantine gateways   (60 domains, 8 \
         attack domains, forge mode, audit 0.75/0.35 s)"
      ~columns:
        [
          "byz %";
          "corrupted";
          "flagged";
          "missed";
          "false pos";
          "failovers";
          "tts (s)";
          "goodput MB";
          "ratio";
          "wall (s)";
        ]
  in
  (* The auditor's verdicts come from the scenario's canonical outcome
     fields, the same ones the matrix's contract cells pin. *)
  let run_fraction f =
    let t0 = Unix.gettimeofday () in
    let o =
      Scenario.run
        (Scenario.Internet
           {
             As_scenario.default with
             As_scenario.as_spec =
               { As_graph.default_spec with As_graph.domains = 60 };
             as_config =
               {
                 Config.default with
                 Config.engine = Config.Hybrid;
                 filter_capacity = 150;
               };
             as_seed = 42;
             as_duration = 15.;
             as_sources = 400;
             as_attack_domains = 8;
             as_legit_domains = 4;
             as_contracts = true;
             as_byzantine_fraction = f;
             as_lying_mode = Adversary.Forge;
             as_audit =
               { Auditor.default_config with deadline = 0.75; grace = 0.35 };
           })
    in
    (o.Scenario.fields, Unix.gettimeofday () -. t0)
  in
  let goodput fields =
    Option.value ~default:0.
      (Json.get_float (List.assoc "good_received_bytes" fields))
  in
  let fractions = [ 0.; 0.1; 0.2; 0.3 ] in
  let runs = List.map (fun f -> (f, run_fraction f)) fractions in
  let baseline_goodput =
    match runs with (_, (f0, _)) :: _ -> goodput f0 | [] -> 0.
  in
  let rows =
    List.map
      (fun (f, (fields, wall)) ->
        let get k = List.assoc k fields in
        let cell k =
          match get k with
          | Json.Int n -> string_of_int n
          | Json.Float t -> Printf.sprintf "%.2f" t
          | _ -> "never"
        in
        let ratio =
          if baseline_goodput <= 0. then 0.
          else goodput fields /. baseline_goodput
        in
        let pick = List.map (fun k -> (k, get k)) in
        Table.add_row table
          [
            Printf.sprintf "%.0f" (100. *. f);
            cell "byzantine";
            cell "flagged";
            cell "missed";
            cell "false_positives";
            cell "failovers";
            cell "time_to_filter";
            Printf.sprintf "%.2f" (goodput fields /. 1e6);
            Printf.sprintf "%.3f" ratio;
            Printf.sprintf "%.2f" wall;
          ];
        Json.Obj
          ([
             ("byzantine_fraction", Json.Float f);
             ("corrupted", get "byzantine");
           ]
          @ pick
              [
                "flagged"; "missed"; "false_positives"; "failovers";
                "time_to_filter"; "good_received_bytes";
              ]
          @ [ ("goodput_ratio", Json.Float ratio) ]
          @ pick [ "receipts_verified"; "receipts_rejected" ]
          @ [ ("wall_seconds", Json.Float wall) ]))
      runs
  in
  emit table;
  Aitf_obs.Report.write_json "BENCH_E20.json"
    (Json.Obj
       [
         ("schema", Json.String "aitf.contract-bench/1");
         ("sweep", Json.List rows);
       ]);
  Printf.printf "wrote BENCH_E20.json  (%d fractions)\n" (List.length rows)

(* ----------------------------------------------------------------- E21 -- *)

(* Multicore parallel engine: shard sweep on the Internet-scale scenario
   (lib/engine/parallel, docs/PARALLEL.md). The 1000-domain AS graph is
   partitioned over 1/2/4/8 event-queue shards synchronized by
   conservative lookahead windows (the inter-domain hop delay); each
   population runs every shard count and reports wall-clock, speedup
   against its own 1-shard run, the barrier-stall fraction and the
   cross-shard message volume. The agreement columns hold the E17-style
   10% tolerance on victim goodput versus the 1-shard run.

   Speedup is hardware-bound: on fewer cores than shards the sweep still
   checks determinism and agreement, but the wall-clock gate does not
   apply — BENCH_E21.json records [cores] and a per-row
   [gate_applicable] so CI can condition the >= 1.5x (4 shards) and
   >= 3x (8 shards) gates on the machine actually having the cores.

   E21_MAX_SOURCES caps the population sweep (CI runs 10^5; the 10^6
   point is the scoreboard run). E21_SHARDS overrides the shard list
   (comma-separated). *)

let e21 () =
  let module As_scenario = Aitf_workload.As_scenario in
  let module Sched = Aitf_parallel.Sched in
  let module Json = Aitf_obs.Json in
  let cap =
    match Sys.getenv_opt "E21_MAX_SOURCES" with
    | Some s -> (try int_of_string s with _ -> 1_000_000)
    | None -> 1_000_000
  in
  let shard_counts =
    match Sys.getenv_opt "E21_SHARDS" with
    | Some s ->
      List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1; 2; 4; 8 ]
  in
  let cores = Domain.recommended_domain_count () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E21  parallel engine shard sweep   (1000 domains, conservative \
            lookahead; %d core(s))"
           cores)
      ~columns:
        [
          "sources";
          "shards";
          "wall (s)";
          "speedup";
          "stall %";
          "windows";
          "messages";
          "goodput MB";
          "agree";
          "events";
        ]
  in
  let rows = ref [] in
  List.iter
    (fun n ->
      if n <= cap then begin
        let base_wall = ref 0. and base_good = ref 0. in
        List.iter
          (fun shards ->
            let t0 = Unix.gettimeofday () in
            let r =
              As_scenario.run
                {
                  As_scenario.default with
                  As_scenario.as_config =
                    { Config.default with Config.engine = Config.Hybrid };
                  as_sources = n;
                  as_shards = shards;
                }
            in
            let wall = Unix.gettimeofday () -. t0 in
            let good = r.As_scenario.r_good_received_bytes in
            if shards = 1 then begin
              base_wall := wall;
              base_good := good
            end;
            let speedup = if wall > 0. then !base_wall /. wall else 0. in
            let st = r.As_scenario.r_sched_stats in
            let stall_frac =
              if wall > 0. then st.Sched.stall_seconds /. wall else 0.
            in
            let agree =
              !base_good = 0.
              || Float.abs ((good -. !base_good) /. !base_good) <= 0.10
            in
            Table.add_row table
              [
                string_of_int n;
                string_of_int shards;
                Printf.sprintf "%.2f" wall;
                Printf.sprintf "%.2f" speedup;
                Printf.sprintf "%.1f" (100. *. stall_frac);
                string_of_int st.Sched.windows;
                string_of_int st.Sched.messages;
                Printf.sprintf "%.2f" (good /. 1e6);
                (if agree then "AGREE" else "DISAGREE");
                string_of_int r.As_scenario.r_events;
              ];
            rows :=
              Json.Obj
                [
                  ("sources", Json.Int n);
                  ("shards", Json.Int shards);
                  ("wall_seconds", Json.Float wall);
                  ("speedup_vs_1shard", Json.Float speedup);
                  ("stall_fraction", Json.Float stall_frac);
                  ("windows", Json.Int st.Sched.windows);
                  ("global_batches", Json.Int st.Sched.global_batches);
                  ("messages", Json.Int st.Sched.messages);
                  ("deferred", Json.Int st.Sched.deferred);
                  ("good_received_bytes", Json.Float good);
                  ("goodput_agrees_10pct", Json.Bool agree);
                  ("events", Json.Int r.As_scenario.r_events);
                  ("gate_applicable", Json.Bool (cores >= shards));
                ]
              :: !rows)
          shard_counts
      end)
    [ 100_000; 1_000_000 ];
  emit table;
  Aitf_obs.Report.write_json "BENCH_E21.json"
    (Json.Obj
       [
         ("schema", Json.String "aitf.parallel-bench/1");
         ("cores", Json.Int cores);
         ("sweep", Json.List (List.rev !rows));
       ]);
  Printf.printf "wrote BENCH_E21.json  (%d rows, %d cores)\n"
    (List.length !rows) cores

(* ----------------------------------------------------------------- E22 -- *)

(* Sharded-tracing overhead and invariance: the same Internet-scale run,
   untraced and with the causal span collector attached, at each shard
   count. Tracing must be (a) cheap — the traced run's wall-clock is
   gated at <= 1.25x the untraced run — and (b) inert and canonical: the
   traced run's outcome is bit-identical to the untraced one, and the
   merged span-forest digest is the same at every shard count (workers
   record into per-shard collectors merged canonically after the run;
   docs/OBSERVABILITY.md).

   Digest invariance is asserted across the sharded counts (> 1): their
   barrier grid is identical, so the merged trace must be byte-equal
   whatever the layout. The 1-shard digest is reported as
   [digest_matches_sequential] but not gated: at this population the
   barrier-deferred fluid mirror legitimately shifts marginal detection
   times versus the immediate sequential application (the documented
   docs/PARALLEL.md relaxation), and the trace faithfully records that.

   The overhead gate only applies when the machine has the cores for the
   shard count (otherwise barrier scheduling noise dominates), mirrored
   per-row in [gate_applicable]. E22_MAX_SOURCES caps the population
   (default 10^5); E22_SHARDS overrides the shard list. *)

let e22 () =
  let module As_scenario = Aitf_workload.As_scenario in
  let module Json = Aitf_obs.Json in
  let sources =
    match Sys.getenv_opt "E22_MAX_SOURCES" with
    | Some s -> (try min 100_000 (int_of_string s) with _ -> 100_000)
    | None -> 100_000
  in
  let shard_counts =
    match Sys.getenv_opt "E22_SHARDS" with
    | Some s ->
      List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1; 4 ]
  in
  let cores = Domain.recommended_domain_count () in
  let params shards =
    {
      As_scenario.default with
      As_scenario.as_config =
        { Config.default with Config.engine = Config.Hybrid };
      as_sources = sources;
      as_shards = shards;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E22  sharded tracing overhead   (%d sources; %d core(s))"
           sources cores)
      ~columns:
        [
          "shards";
          "untraced (s)";
          "traced (s)";
          "overhead x";
          "identical";
          "roots";
          "digest";
        ]
  in
  let rows = ref [] in
  let digests = ref [] in
  List.iter
    (fun shards ->
      let t0 = Unix.gettimeofday () in
      let plain = As_scenario.run (params shards) in
      let wall_plain = Unix.gettimeofday () -. t0 in
      let sp = Span.create () in
      Span.attach sp;
      let t1 = Unix.gettimeofday () in
      let traced =
        Fun.protect ~finally:Span.detach (fun () ->
            As_scenario.run (params shards))
      in
      let wall_traced = Unix.gettimeofday () -. t1 in
      let digest = Span.digest sp in
      let roots = List.length (Span.roots sp) in
      let identical =
        plain.As_scenario.r_good_received_bytes
        = traced.As_scenario.r_good_received_bytes
        && plain.As_scenario.r_attack_received_bytes
           = traced.As_scenario.r_attack_received_bytes
        && plain.As_scenario.r_events = traced.As_scenario.r_events
      in
      let overhead =
        if wall_plain > 0. then wall_traced /. wall_plain else 0.
      in
      digests := (shards, digest) :: !digests;
      Table.add_row table
        [
          string_of_int shards;
          Printf.sprintf "%.2f" wall_plain;
          Printf.sprintf "%.2f" wall_traced;
          Printf.sprintf "%.2f" overhead;
          (if identical then "YES" else "NO");
          string_of_int roots;
          String.sub digest 0 12;
        ];
      rows :=
        Json.Obj
          [
            ("shards", Json.Int shards);
            ("untraced_wall_seconds", Json.Float wall_plain);
            ("traced_wall_seconds", Json.Float wall_traced);
            ("tracing_overhead", Json.Float overhead);
            ("traced_identical_to_untraced", Json.Bool identical);
            ("span_roots", Json.Int roots);
            ("span_digest", Json.String digest);
            ("gate_applicable", Json.Bool (cores >= shards));
          ]
        :: !rows)
    shard_counts;
  let digest_invariant =
    match List.filter (fun (s, _) -> s > 1) !digests with
    | [] -> true
    | (_, d) :: rest -> List.for_all (fun (_, d') -> String.equal d' d) rest
  in
  let matches_sequential =
    match
      (List.assoc_opt 1 !digests, List.filter (fun (s, _) -> s > 1) !digests)
    with
    | Some d1, (_, dn) :: _ -> Some (String.equal d1 dn)
    | _ -> None
  in
  emit table;
  Printf.printf "span digest invariant across sharded layouts: %s%s\n"
    (if digest_invariant then "YES" else "NO")
    (match matches_sequential with
    | Some true -> "  (and equal to the sequential trace)"
    | Some false -> "  (sequential trace differs: deferred-mirror drift)"
    | None -> "");
  Aitf_obs.Report.write_json "BENCH_E22.json"
    (Json.Obj
       ([
          ("schema", Json.String "aitf.tracing-bench/1");
          ("cores", Json.Int cores);
          ("sources", Json.Int sources);
          ("digest_invariant", Json.Bool digest_invariant);
        ]
       @ (match matches_sequential with
         | Some b -> [ ("digest_matches_sequential", Json.Bool b) ]
         | None -> [])
       @ [ ("sweep", Json.List (List.rev !rows)) ]));
  Printf.printf "wrote BENCH_E22.json  (%d rows, %d cores)\n"
    (List.length !rows) cores
