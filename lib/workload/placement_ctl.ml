module Sim = Aitf_engine.Sim
open Aitf_net
open Aitf_core
open Aitf_filter
module Fluid = Aitf_flowsim.Fluid

(* One attack aggregate's walking filter: [pos] indexes the gateway chain
   (0 = source-domain gateway), [placed] is where our filter currently
   sits. *)
type frontier = {
  mutable pos : int;
  mutable idle : int;  (* consecutive epochs with no suspect traffic *)
  mutable placed : (Gateway.t * Flow_label.t) option;
}

type t = {
  policy : Placement.policy;
  fluid : Fluid.t;
  sim : Sim.t;
  config : Config.t;
  suspect_rate : float;
  handle : Placement.t;
  by_node : (int, Gateway.t) Hashtbl.t;
  by_addr : (Addr.t, Gateway.t) Hashtbl.t;
  victims : (Addr.t, unit) Hashtbl.t;
  owned : (int * Flow_label.t, unit) Hashtbl.t;
      (* (node id, label) of every filter we currently intend to keep *)
  frontiers : (Addr.t * Addr.t, frontier) Hashtbl.t;  (* (src_base, victim) *)
  roots : (Addr.t, Gateway.t) Hashtbl.t;  (* victim -> reporting gateway *)
  flagged : (Addr.t, unit) Hashtbl.t;
      (* gateways convicted by a contract auditor: zero capacity to us *)
  mutable removing : bool;  (* our own removal in flight (subscribe feed) *)
  mutable installs : int;
  mutable reclaims : int;
  mutable pushes : int;
}

let handle t = t.handle
let evidence t = Placement.reports t.handle
let installs t = t.installs
let reclaims t = t.reclaims
let pushes t = t.pushes

let duration t = 2.0 *. t.config.Config.placement_epoch
let root_label v = Flow_label.v Flow_label.Any (Flow_label.Host v)

(* Hashtbl.fold enumerates bindings in hash-bucket order, which depends on
   the OCaml version and hash seed. Every traversal that drives filter
   installs/removes must pass through here so a controller's placements
   are a pure function of the scenario, never of the bucket layout. *)
let sorted_bindings ~cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort cmp

(* The canonical order on (node id, flow label) candidate keys — also the
   greedy knapsack's tie-break. *)
let key_compare (n1, l1) (n2, l2) =
  if n1 <> n2 then compare (n1 : int) n2 else Flow_label.compare l1 l2

(* Smallest prefix covering the aggregate's contiguous source range. *)
let cover agg =
  let base = Fluid.src_base agg in
  let last = Addr.add base (Fluid.n_sources agg - 1) in
  let len = ref 32 in
  while !len > 0 && not (Addr.prefix_mem (Addr.prefix base !len) last) do
    decr len
  done;
  Addr.prefix base !len

let usable t gw = not (Hashtbl.mem t.flagged (Gateway.addr gw))

(* The aggregate's path restricted to registered gateways, source side
   first. Stage 0 (the pool node) carries no gateway, so element 0 is the
   source domain's gateway and the last element the victim's. Flagged
   (Byzantine) gateways are invisible — zero capacity to the planner. *)
let chain_of t agg =
  Array.of_list
    (List.filter_map
       (fun nd ->
         match Hashtbl.find_opt t.by_node nd.Node.id with
         | Some gw when usable t gw -> Some gw
         | Some _ | None -> None)
       (Fluid.stage_nodes agg))

let install_at t gw label =
  let tbl = Gateway.filters gw in
  match Filter_table.install tbl label ~duration:(duration t) with
  | Ok _ ->
    t.installs <- t.installs + 1;
    Hashtbl.replace t.owned ((Gateway.node gw).Node.id, label) ();
    true
  | Error `Table_full -> false

let remove_at t gw label =
  let key = ((Gateway.node gw).Node.id, label) in
  (match Filter_table.find (Gateway.filters gw) label with
  | Some h ->
    t.removing <- true;
    Filter_table.remove (Gateway.filters gw) h;
    t.removing <- false;
    t.reclaims <- t.reclaims + 1
  | None -> ());
  Hashtbl.remove t.owned key

(* The first gateway an aggregate's traffic crosses — Optimal's placement
   point (blocking at the source domain costs one slot and zero transit). *)
let source_gateway t agg =
  let rec first = function
    | [] -> None
    | nd :: rest -> (
      match Hashtbl.find_opt t.by_node nd.Node.id with
      | Some gw when usable t gw -> Some gw
      | Some _ | None -> first rest)
  in
  first (Fluid.stage_nodes agg)

(* --- Optimal: per-epoch re-solve from the oracle attack-source set ------ *)

let epoch_optimal t =
  if Hashtbl.length t.victims > 0 then begin
    (* Candidate set: one covering-prefix filter per active attack
       aggregate towards a known victim, at its source gateway. *)
    let desired = Hashtbl.create 64 in
    Fluid.iter_aggregates t.fluid (fun agg ->
        if
          Fluid.attack agg && Fluid.active agg
          && Hashtbl.mem t.victims (Fluid.dst agg)
        then
          match source_gateway t agg with
          | None -> ()
          | Some gw ->
            let label = Flow_label.from_net (cover agg) (Fluid.dst agg) in
            let key = ((Gateway.node gw).Node.id, label) in
            (match Hashtbl.find_opt desired key with
            | Some (_, r) -> r := !r +. Fluid.total_rate agg
            | None -> Hashtbl.replace desired key (gw, ref (Fluid.total_rate agg))));
    (* Retire filters the new solution no longer wants. *)
    sorted_bindings ~cmp:(fun (k1, ()) (k2, ()) -> key_compare k1 k2) t.owned
    |> List.iter (fun (((nid, label) as key), ()) ->
           if not (Hashtbl.mem desired key) then
             match Hashtbl.find_opt t.by_node nid with
             | Some gw -> remove_at t gw label
             | None -> Hashtbl.remove t.owned key);
    (* Greedy knapsack: highest blocked rate first, until each gateway's
       slot budget runs out ([`Table_full] skips the candidate). *)
    sorted_bindings
      ~cmp:(fun (k1, (_, r1)) (k2, (_, r2)) ->
        if !r1 <> !r2 then compare !r2 !r1 else key_compare k1 k2)
      desired
    |> List.iter (fun ((_, label), (gw, _)) -> ignore (install_at t gw label))
  end

(* --- Adaptive: feedback-driven frontier walk ---------------------------- *)

let epoch_adaptive t =
  if Hashtbl.length t.victims > 0 then begin
    let needed = Hashtbl.create 8 in
    Fluid.iter_aggregates t.fluid (fun agg ->
        let v = Fluid.dst agg in
        if Hashtbl.mem t.victims v then begin
          let key = (Fluid.src_base agg, v) in
          (* No oracle: an aggregate is suspect when the traffic the
             gateways observe from its range towards the victim exceeds
             the rate threshold — the fluid rates stand in for per-prefix
             rate measurement at the routers. *)
          let suspect =
            Fluid.active agg && Fluid.total_rate agg >= t.suspect_rate
          in
          match (Hashtbl.find_opt t.frontiers key, suspect) with
          | None, false -> ()
          | fr_opt, true ->
            let fr =
              match fr_opt with
              | Some fr -> fr
              | None ->
                let fr = { pos = max_int; idle = 0; placed = None } in
                Hashtbl.replace t.frontiers key fr;
                fr
            in
            fr.idle <- 0;
            let chain = chain_of t agg in
            let len = Array.length chain in
            if len > 0 then begin
              let label = Flow_label.from_net (cover agg) v in
              let target = Int.max 0 (Int.min fr.pos len - 1) in
              if install_at t chain.(target) label then begin
                (match fr.placed with
                | Some (g, l)
                  when not (g == chain.(target) && Flow_label.equal l label)
                  ->
                  remove_at t g l;
                  t.pushes <- t.pushes + 1
                | Some _ | None -> ());
                fr.placed <- Some (chain.(target), label);
                fr.pos <- target
              end
              else begin
                (* No slot closer in: keep renewing where we stand. *)
                match fr.placed with
                | Some (g, l) -> ignore (install_at t g l)
                | None -> ()
              end;
              if fr.pos > 0 then Hashtbl.replace needed v ()
            end
          | Some fr, false ->
            fr.idle <- fr.idle + 1;
            if fr.idle >= 2 then begin
              (match fr.placed with
              | Some (g, l) -> remove_at t g l
              | None -> ());
              Hashtbl.remove t.frontiers key
            end
        end);
    (* The coarse root wildcard protects the victim only while some
       frontier is still short of its source gateway. *)
    sorted_bindings ~cmp:(fun (a, _) (b, _) -> Addr.compare a b) t.roots
    |> List.iter (fun (v, gw) ->
           if Hashtbl.mem needed v then
             ignore (install_at t gw (root_label v))
           else begin
             remove_at t gw (root_label v);
             Hashtbl.remove t.roots v
           end)
  end

(* A contract auditor convicted this gateway: forget every filter we
   placed there (it was not honouring them anyway) and never plan through
   it again. The next epoch re-solves around the hole — Optimal re-scores
   with the liar's candidates gone, Adaptive's frontier walks re-derive
   their chains without it. *)
let flag_gateway t addr =
  if not (Hashtbl.mem t.flagged addr) then begin
    Hashtbl.replace t.flagged addr ();
    match Hashtbl.find_opt t.by_addr addr with
    | None -> ()
    | Some gw ->
      let nid = (Gateway.node gw).Node.id in
      sorted_bindings ~cmp:(fun (k1, ()) (k2, ()) -> key_compare k1 k2) t.owned
      |> List.iter (fun ((n, label), ()) -> if n = nid then remove_at t gw label)
  end

let flagged_gateway t addr = Hashtbl.mem t.flagged addr

let epoch t =
  match t.policy with
  | Placement.Optimal -> epoch_optimal t
  | Placement.Adaptive -> epoch_adaptive t
  | Placement.Vanilla -> ()

let on_evidence t (e : Placement.evidence) =
  match e.Placement.flow.Flow_label.dst with
  | Flow_label.Host v -> (
    let fresh = not (Hashtbl.mem t.victims v) in
    if fresh then Hashtbl.replace t.victims v ();
    match t.policy with
    | Placement.Adaptive ->
      (* Immediate relief: plant the coarse wildcard at the reporting
         gateway; the epochs then walk it towards the sources. *)
      if not (Hashtbl.mem t.roots v) then (
        match Hashtbl.find_opt t.by_addr e.Placement.reporter with
        | Some gw when usable t gw ->
          if install_at t gw (root_label v) then
            Hashtbl.replace t.roots v gw
        | Some _ | None -> ())
    | Placement.Optimal ->
      (* Don't wait an epoch to cover a new victim. *)
      if fresh then epoch_optimal t
    | Placement.Vanilla -> ())
  | Flow_label.Net _ | Flow_label.Any -> ()

let create ?(defer = fun f -> f ()) ?(suspect_rate = 10e6) ~policy ~fluid
    config =
  (match policy with
  | Placement.Vanilla ->
    invalid_arg "Placement_ctl.create: Vanilla is unmanaged"
  | Placement.Optimal | Placement.Adaptive -> ());
  let sim = Network.sim (Fluid.network fluid) in
  let report_ref = ref (fun (_ : Placement.evidence) -> ()) in
  let t =
    {
      policy;
      fluid;
      sim;
      config;
      suspect_rate;
      (* Evidence arrives from gateways — shard-phase code in parallel
         runs — so the report crosses into controller state through
         [defer] (immediate by default). *)
      handle =
        Placement.create ~policy ~report:(fun e ->
            defer (fun () -> !report_ref e));
      by_node = Hashtbl.create 64;
      by_addr = Hashtbl.create 64;
      victims = Hashtbl.create 8;
      owned = Hashtbl.create 64;
      frontiers = Hashtbl.create 64;
      roots = Hashtbl.create 8;
      flagged = Hashtbl.create 4;
      removing = false;
      installs = 0;
      reclaims = 0;
      pushes = 0;
    }
  in
  report_ref := on_evidence t;
  let rec tick () =
    epoch t;
    ignore (Sim.after t.sim t.config.Config.placement_epoch tick)
  in
  ignore (Sim.after sim config.Config.placement_epoch tick);
  t

let register_gateways ?(defer = fun f -> f ()) t gws =
  Array.iter
    (fun gw ->
      let nid = (Gateway.node gw).Node.id in
      if not (Hashtbl.mem t.by_node nid) then begin
        Hashtbl.replace t.by_node nid gw;
        Hashtbl.replace t.by_addr (Gateway.addr gw) gw;
        Filter_table.subscribe (Gateway.filters gw) (fun ch ->
            match ch with
            | Filter_table.Removed h ->
              defer (fun () ->
                  let key = (nid, Filter_table.label h) in
                  if not t.removing then Hashtbl.remove t.owned key)
            | Filter_table.Installed _ | Filter_table.Refreshed _ -> ())
      end)
    gws
