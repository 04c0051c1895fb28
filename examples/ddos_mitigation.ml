(* A distributed attack against a web server, with and without AITF.

   Twelve zombies scattered over two ISPs flood a server's 10 Mbit/s tail
   circuit while legitimate clients keep using it. The example runs the
   same scenario twice — AITF disabled, then enabled — and prints the
   legitimate goodput and where the filtering ended up, followed by a
   sampled timeline of the AITF run (the "watching an attack in real
   time" walk-through of docs/OBSERVABILITY.md). Run with:

     dune exec examples/ddos_mitigation.exe
*)

module Table = Aitf_stats.Table
module Series = Aitf_stats.Series
module Metrics = Aitf_obs.Metrics
module Sampler = Aitf_obs.Sampler
module Scenarios = Aitf_workload.Scenarios

let params =
  {
    Scenarios.default_flood with
    Scenarios.zombies = 12;
    zombie_rate = 2e6;
    legit_clients = 4;
    legit_rate = 2e5;
    flood_duration = 20.;
    attack_start = 2.;
  }

let () =
  Printf.printf
    "=== DDoS mitigation: %d zombies x %.0f Mbit/s vs a 10 Mbit/s tail ===\n\n"
    params.Scenarios.zombies
    (params.Scenarios.zombie_rate /. 1e6);
  let off = Scenarios.run_flood { params with Scenarios.with_aitf = false } in
  (* One fresh registry per run: attach it around the AITF run only, so
     every gateway and agent self-registers as the topology deploys. *)
  let reg = Metrics.create () in
  Metrics.attach reg;
  let on = Scenarios.run_flood params in
  Metrics.detach ();
  let table =
    Table.create ~title:"with vs without AITF"
      ~columns:
        [ "setup"; "legit goodput"; "attack delivered";
          "leaf filter installs"; "ISP filters" ]
  in
  let row label (o : Scenarios.flood_result) =
    Table.add_row table
      [
        label;
        Printf.sprintf "%.0f kB (%.0f%% of offered)"
          (o.Scenarios.legit_received_bytes /. 1e3)
          (100. *. o.Scenarios.legit_received_bytes
          /. Float.max 1. o.Scenarios.legit_offered_bytes);
        Printf.sprintf "%.0f kB" (o.Scenarios.flood_attack_received_bytes /. 1e3);
        string_of_int o.Scenarios.leaf_filters;
        string_of_int o.Scenarios.isp_filters;
      ]
  in
  row "no AITF" off;
  row "AITF" on;
  Table.print table;
  (* Watching the attack in real time: replay the sampled series from the
     AITF run as a timeline. Every column is pulled from the registry the
     scenario sampled on the virtual clock. *)
  (match on.Scenarios.flood_sampler with
  | None -> ()
  | Some sampler ->
    let duration = params.Scenarios.flood_duration in
    let grid s = Series.resample s ~step:1. ~until:duration in
    let value_at points t =
      match List.assoc_opt t points with Some v -> v | None -> 0.
    in
    (* Attack bytes the ledger saw delivered (all to the victim), per
       second of the grid. *)
    let attack_rate =
      Option.map grid (Sampler.find_series sampler "ledger.attack.delivered")
      |> Option.value ~default:[]
      |> List.fold_left_map (fun prev (t, b) -> (b, (t, 8. *. (b -. prev)))) 0.
      |> snd
    in
    (* Long-filter installs, local self-installs included, summed over
       every gateway in the hierarchy. *)
    let suffixes =
      Aitf_core.Gateway.
        [ "." ^ counter_name Filter_long; "." ^ counter_name Filter_long_self ]
    in
    let installs =
      Sampler.series sampler
      |> List.filter_map (fun (name, s) ->
             if List.exists (fun suffix -> String.ends_with ~suffix name) suffixes
             then Some (grid s)
             else None)
    in
    let timeline =
      Table.create ~title:"AITF run timeline (sampled metrics)"
        ~columns:[ "t (s)"; "attack at victim (Mbit/s)"; "long filters installed" ]
    in
    List.iter
      (fun (t, rate) ->
        let total_installs =
          List.fold_left (fun acc pts -> acc +. value_at pts t) 0. installs
        in
        Table.add_row timeline
          [
            Printf.sprintf "%.0f" t;
            Printf.sprintf "%.2f" (rate /. 1e6);
            Printf.sprintf "%.0f" total_installs;
          ])
      attack_rate;
    Table.print timeline);
  print_endline
    "Every zombie is blocked by its own enterprise gateway, once per T\n\
     cycle while it keeps attacking; nothing accumulates in the ISPs or\n\
     the core — the scaling argument of Section III-C."
