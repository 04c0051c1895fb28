(* The three traceback mechanisms, side by side (Section II-F's assumption).

   AITF needs to know the attack path. The paper assumes "an efficient
   traceback technique" and cites three ways to get one; this example runs
   the same attack under each and shows what the mechanism costs and how
   fast the request lands at the attacker's gateway. Run with:

     dune exec examples/traceback_modes.exe
*)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Table = Aitf_stats.Table
open Aitf_net
open Aitf_core
open Aitf_topo
module Traffic = Aitf_workload.Traffic
module Runner = Aitf_workload.Runner

let base_config =
  { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 }

type outcome = {
  landed_after : float option;  (* s after attack start *)
  leaked : float;
  requests : int;
  cost : string;
}

let run ~make =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:29 in
  let topo = Chain.build sim Chain.default_spec in
  let config, path_source, cost = make topo in
  let d = Chain.deploy ~victim_td:0.1 ~path_source ~config ~rng topo in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:1.0 ~attack:true ~flow_id:1 ~rate:1e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  let b_gw1 = List.hd d.Chain.attacker_gateways in
  let landed = ref None in
  let rec poll t =
    if t < 10. then
      ignore
        (Sim.at sim t (fun () ->
             if
               !landed = None
               && Gateway.count b_gw1 Gateway.Filter_long > 0
             then landed := Some (t -. 1.0);
             poll (t +. 0.01)))
  in
  poll 1.0;
  Sim.run ~until:10.0 sim;
  {
    landed_after = !landed;
    leaked = Runner.delivered sim None ~attack:true;
    requests = Host_agent.Victim.requests_sent d.Chain.victim_agent;
    cost = cost ();
  }

let () =
  print_endline "=== traceback mechanisms under the same attack ===\n";
  let route_record =
    run ~make:(fun _ ->
        (base_config, Host_agent.From_route_record, fun () -> "16 B of header"))
  in
  let spie =
    run ~make:(fun topo ->
        let spie = Aitf_traceback.Spie.deploy topo.Chain.net in
        ( { base_config with Config.traceback = Config.Spie_query spie },
          Host_agent.Gateway_traceback,
          fun () ->
            Printf.sprintf "%d digest queries" (Aitf_traceback.Spie.queries spie)
        ))
  in
  let ppm =
    run ~make:(fun topo ->
        let mark_rng = Rng.create ~seed:31 in
        List.iter
          (fun gw -> Aitf_traceback.Ppm.install ~p:0.2 ~rng:mark_rng gw)
          (topo.Chain.victim_gws @ topo.Chain.attacker_gws);
        let collector = Aitf_traceback.Ppm.Collector.create () in
        ( base_config,
          Host_agent.From_ppm collector,
          fun () ->
            Printf.sprintf "%d marked packets observed"
              (Aitf_traceback.Ppm.Collector.samples collector) ))
  in
  let table =
    Table.create ~title:"traceback comparison"
      ~columns:
        [ "mechanism"; "request landed after (s)"; "leaked (kB)"; "requests";
          "mechanism cost" ]
  in
  let row name (o : outcome) =
    Table.add_row table
      [
        name;
        (match o.landed_after with
        | Some t -> Printf.sprintf "%.2f" t
        | None -> "never");
        Printf.sprintf "%.0f" (o.leaked /. 1e3);
        string_of_int o.requests;
        o.cost;
      ]
  in
  row "route record [CG00]" route_record;
  row "SPIE digests [SPS+01]" spie;
  row "PPM marking [SWKA00]" ppm;
  Table.print table;
  print_endline
    "The route record makes traceback free but costs header space on every\n\
     packet; SPIE moves the cost to the gateways (digest memory + query\n\
     round trips at request time); PPM costs the victim convergence time\n\
     before its first request. Whatever the choice, Ttmp must cover it\n\
     (Section IV-B)."
