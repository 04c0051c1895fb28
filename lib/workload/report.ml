module Sim = Aitf_engine.Sim
module Table = Aitf_stats.Table
open Aitf_net

let drops_summary (n : Node.t) =
  Aitf_obs.Ledger.fates
  |> List.filter_map (fun f ->
         match Node.drop_count n f with
         | 0 -> None
         | k -> Some (Printf.sprintf "%s=%d" (Aitf_obs.Ledger.fate_name f) k))
  |> String.concat " "

let node_table net =
  let t =
    Table.create ~title:"nodes"
      ~columns:[ "node"; "kind"; "rx pkts"; "forwarded"; "delivered"; "drops" ]
  in
  List.iter
    (fun (n : Node.t) ->
      Table.add_row t
        [
          n.Node.name;
          (match n.Node.kind with
          | Node.Host -> "host"
          | Node.Router -> "router"
          | Node.Border_router -> "border");
          string_of_int n.Node.rx_packets;
          string_of_int n.Node.forwarded_packets;
          string_of_int n.Node.delivered_packets;
          drops_summary n;
        ])
    (Network.nodes net);
  t

let link_table ?(busy_only = true) net =
  let now = Sim.now (Network.sim net) in
  let t =
    Table.create ~title:"links"
      ~columns:
        [ "link"; "tx pkts"; "tx bytes"; "dropped"; "utilisation"; "state" ]
  in
  List.iter
    (fun l ->
      if (not busy_only) || Link.tx_packets l > 0 || Link.dropped_packets l > 0
      then
        Table.add_row t
          [
            Link.name l;
            string_of_int (Link.tx_packets l);
            string_of_int (Link.tx_bytes l);
            string_of_int (Link.dropped_packets l);
            Printf.sprintf "%.1f%%" (100. *. Link.utilization l ~now);
            (if Link.up l then "up" else "down");
          ])
    (Network.links net);
  t

let gateway_table gws =
  let t =
    Table.create ~title:"AITF gateways"
      ~columns:
        [ "gateway"; "filters (now/peak)"; "shadow peak"; "requests";
          "active flows"; "counters" ]
  in
  List.iter
    (fun gw ->
      let filters = Aitf_core.Gateway.filters gw in
      (* [Req_received] has its own column. *)
      let counters =
        Aitf_core.Gateway.(
          List.filter (( <> ) Req_received) all_counters
          |> List.map (fun c -> (counter_name c, count gw c)))
        |> List.filter (fun (_, v) -> v > 0)
        |> List.sort compare
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      let active =
        Aitf_core.Gateway.active_flows gw
        |> List.map (fun (_, phase) -> phase)
        |> List.sort_uniq String.compare
        |> String.concat ","
      in
      Table.add_row t
        [
          (Aitf_core.Gateway.node gw).Node.name;
          Printf.sprintf "%d/%d"
            (Aitf_filter.Filter_table.occupancy filters)
            (Aitf_filter.Filter_table.peak_occupancy filters);
          string_of_int (Aitf_core.Gateway.shadow_peak gw);
          string_of_int Aitf_core.Gateway.(count gw Req_received);
          (if active = "" then "-"
           else
             Printf.sprintf "%d (%s)"
               (List.length (Aitf_core.Gateway.active_flows gw))
               active);
          counters;
        ])
    gws;
  t

let metrics_table registry =
  let t =
    Table.create ~title:"metrics" ~columns:[ "metric"; "kind"; "value"; "unit" ]
  in
  let module M = Aitf_obs.Metrics in
  List.iter
    (fun (name, v) ->
      let unit_ = Option.value ~default:"" (M.unit_of registry name) in
      let kind, value =
        match v with
        | M.Counter v -> ("counter", Printf.sprintf "%.6g" v)
        | M.Gauge v -> ("gauge", Printf.sprintf "%.6g" v)
        | M.Histogram { count; sum; _ } ->
          ( "histogram",
            if count = 0 then "0 samples"
            else
              Printf.sprintf "%d samples, mean %.4g" count
                (sum /. float_of_int count) )
      in
      Table.add_row t [ name; kind; value; unit_ ])
    (M.snapshot registry);
  t
