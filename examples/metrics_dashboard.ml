(* The observability layer end to end, on one short attack.

   Attach a metrics registry, run a 20-second single-attacker chain
   scenario with an on-off attacker (so filters install, expire and
   re-install), then read everything back three ways:

   - the final snapshot, rendered as a table;
   - a handful of sampled series resampled onto a coarse grid — a
     text-mode dashboard of the attack as it unfolded;
   - the time-to-filter histogram at the attacker's gateway.

   Run with:

     dune exec examples/metrics_dashboard.exe

   The same data is available machine-readable: see docs/OBSERVABILITY.md
   and `aitf_sim run --metrics out.json`. *)

module Table = Aitf_stats.Table
module Series = Aitf_stats.Series
module Metrics = Aitf_obs.Metrics
module Sampler = Aitf_obs.Sampler
module Config = Aitf_core.Config
module Policy = Aitf_core.Policy
module Scenarios = Aitf_workload.Scenarios

let duration = 20.

let params =
  {
    Scenarios.default_chain with
    Scenarios.config =
      { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 };
    duration;
    attack_rate = 1e6;
    legit_rate = 2e5;
    attacker_strategy = Policy.On_off { off_time = 1.0 };
    sample_period = 0.25;
  }

let () =
  (* One fresh registry per run, attached before the scenario builds its
     topology so every component self-registers at creation. *)
  let reg = Metrics.create () in
  Metrics.attach reg;
  let r = Scenarios.run_chain params in
  Metrics.detach ();

  Printf.printf
    "=== Metrics dashboard: on-off attacker vs the chain topology ===\n\n";

  (* 1. A text dashboard: key series resampled onto a 2-second grid. *)
  (match r.Scenarios.sampler with
  | None -> ()
  | Some sampler ->
    let col name =
      match Sampler.find_series sampler name with
      | Some s -> Series.resample s ~step:2. ~until:duration
      | None -> []
    in
    (* Attack bytes the ledger saw delivered (all to the victim), as the
       mean bit rate over each grid step. *)
    let attack =
      col "ledger.attack.delivered"
      |> List.fold_left_map
           (fun prev (t, b) -> (b, (t, 8. *. (b -. prev) /. 2.)))
           0.
      |> snd
    in
    let filters = col "gateway.B_gw1.filters.occupancy" in
    let shadow = col "gateway.G_gw1.shadow.occupancy" in
    let blocked = col "gateway.B_gw1.filters.blocked_packets" in
    let at points t =
      match List.assoc_opt t points with Some v -> v | None -> 0.
    in
    let dash =
      Table.create ~title:"attack timeline (sampled every 0.25 s, shown every 2 s)"
        ~columns:
          [ "t (s)"; "attack at victim, 2 s mean (Mbit/s)"; "B_gw1 filters";
            "G_gw1 shadow"; "B_gw1 blocked pkts" ]
    in
    List.iter
      (fun (t, v) ->
        Table.add_row dash
          [
            Printf.sprintf "%.0f" t;
            Printf.sprintf "%.2f" (v /. 1e6);
            Printf.sprintf "%.0f" (at filters t);
            Printf.sprintf "%.0f" (at shadow t);
            Printf.sprintf "%.0f" (at blocked t);
          ])
      attack;
    Table.print dash);

  (* 2. The time-to-filter histogram at the attacker-side gateway. *)
  (match Metrics.value reg "gateway.B_gw1.time_to_filter" with
  | Some (Metrics.Histogram { count; sum; buckets }) when count > 0 ->
    Printf.printf
      "time to filter at B_gw1: %d installs, mean %.3f s\n" count
      (sum /. float_of_int count);
    List.iter
      (fun (le, n) ->
        if n > 0 then
          if le = infinity then Printf.printf "  <= inf   : %d\n" n
          else Printf.printf "  <= %-6.3g: %d\n" le n)
      buckets;
    print_newline ()
  | _ -> ());

  (* 3. The full final snapshot, filtered to the non-zero entries so the
     table stays readable (the JSON report keeps everything). *)
  let interesting (name, v) =
    match v with
    | Metrics.Counter x | Metrics.Gauge x ->
      x <> 0.
      && (not (String.length name > 5 && String.sub name 0 5 = "link."))
      && not (String.length name > 5 && String.sub name 0 5 = "node.")
    | Metrics.Histogram { count; _ } -> count > 0
  in
  let snapshot =
    Table.create ~title:"final snapshot (non-zero, gateways and hosts)"
      ~columns:[ "metric"; "value" ]
  in
  List.iter
    (fun ((name, v) as entry) ->
      if interesting entry then
        let value =
          match v with
          | Metrics.Counter x | Metrics.Gauge x -> Printf.sprintf "%.6g" x
          | Metrics.Histogram { count; sum; _ } ->
            Printf.sprintf "%d samples, mean %.4g" count
              (sum /. float_of_int count)
        in
        Table.add_row snapshot [ name; value ])
    (Metrics.snapshot reg);
  Table.print snapshot;

  Printf.printf
    "r (received/offered attack bytes) = %.4f; %d requests, %d escalations\n"
    r.Scenarios.r_measured r.Scenarios.requests_sent r.Scenarios.escalations
