module Sim = Aitf_engine.Sim
module Counters = Aitf_obs.Counters
open Aitf_net

type policy = {
  high_watermark : float;
  low_watermark : float;
  max_per_requestor : int;
  min_aggregate : int;
}

let default_policy =
  {
    high_watermark = 0.9;
    low_watermark = 0.6;
    max_per_requestor = max_int;
    min_aggregate = 2;
  }

type counter =
  | Degraded
  | Aggregate
  | Evict
  | Evict_requestor_cap
  | Evict_subsumed

let counter_name = function
  | Degraded -> "overload-degraded"
  | Aggregate -> "overload-aggregate"
  | Evict -> "overload-evict"
  | Evict_requestor_cap -> "overload-evict-requestor-cap"
  | Evict_subsumed -> "overload-evict-subsumed"

let evicted = [ Evict; Evict_requestor_cap; Evict_subsumed ]

type t = {
  sim : Sim.t;
  table : Filter_table.t;
  policy : policy;
  mutable degraded : bool;
  counters : counter Counters.t;
  mutable collateral_packets : int;
  mutable collateral_bytes : int;
  aggregates : (Flow_label.t, unit) Hashtbl.t;
      (* labels of the wildcard aggregates this manager installed — the
         entries whose drops count as (potential) collateral damage *)
  owners : (Addr.t, Filter_table.handle list ref) Hashtbl.t;
}

let create ?(policy = default_policy) sim table =
  if
    not
      (policy.low_watermark <= policy.high_watermark
      && policy.low_watermark >= 0.)
  then invalid_arg "Overload.create: watermarks";
  if policy.max_per_requestor < 1 then
    invalid_arg "Overload.create: max_per_requestor";
  if policy.min_aggregate < 2 then invalid_arg "Overload.create: min_aggregate";
  {
    sim;
    table;
    policy;
    degraded = false;
    counters =
      Counters.create ~name:counter_name ~all:(Degraded :: Aggregate :: evicted)
        sim;
    collateral_packets = 0;
    collateral_bytes = 0;
    aggregates = Hashtbl.create 8;
    owners = Hashtbl.create 16;
  }

let occupancy_frac t =
  float_of_int (Filter_table.occupancy t.table)
  /. float_of_int (Filter_table.capacity t.table)

(* Eviction priority: lowest observed hit rate first (a filter that blocks
   nothing protects nobody), nearest expiry breaking ties, then the label's
   total order so the choice is deterministic. *)
let cheapest t hs =
  let now = Sim.now t.sim in
  let score h =
    let age = Float.max (now -. Filter_table.installed_at h) 1e-9 in
    float_of_int (Filter_table.hits h) /. age
  in
  let order h b =
    let c = Float.compare (score h) (score b) in
    let c =
      if c <> 0 then c
      else Float.compare (Filter_table.expires_at h) (Filter_table.expires_at b)
    in
    if c <> 0 then c
    else Flow_label.compare (Filter_table.label h) (Filter_table.label b)
  in
  List.fold_left
    (fun best h ->
      match best with Some b when order h b >= 0 -> best | _ -> Some h)
    None hs

let eviction_candidate ?sparing t =
  let keep h =
    match sparing with
    | Some l -> not (Flow_label.equal (Filter_table.label h) l)
    | None -> true
  in
  cheapest t (List.filter keep (Filter_table.live_entries t.table))

(* Count the eviction and span-trace it against the request that installed
   the filter, so the victim's trace shows who paid for the table pressure.
   Recorded on the root, not an open span: the eviction happens at the
   table's gateway while the request's open spans may live on other nodes
   (and, sharded, in other collectors), so root attachment is the only
   placement independent of the shard layout. *)
let evict t c h =
  Counters.bump_root ?corr:(Filter_table.corr h) t.counters c;
  Filter_table.remove t.table h

let priority_evict ?sparing t =
  match eviction_candidate ?sparing t with
  | None -> false
  | Some h ->
    evict t Evict h;
    true

(* Length of the common prefix of two addresses, MSB first. *)
let lcp_len a b =
  let rec go i = if i >= 32 || Addr.bit a i <> Addr.bit b i then i else go (i + 1) in
  go 0

(* The aggregation move: take the destination with the most live exact
   filters, replace them all with one prefix wildcard — the longest common
   prefix of their sources, towards that destination — and evict what it
   subsumes. Returns the aggregate's handle, or [None] when no destination
   has [min_aggregate] exact entries to fold. *)
let try_aggregate t =
  let exacts =
    List.filter
      (fun h -> Flow_label.is_exact (Filter_table.label h))
      (Filter_table.live_entries t.table)
  in
  let groups : (Addr.t, (Addr.t list * float) ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun h ->
      let l = Filter_table.label h in
      match (l.Flow_label.src, l.Flow_label.dst) with
      | Flow_label.Host s, Flow_label.Host d ->
        let cell =
          match Hashtbl.find_opt groups d with
          | Some c -> c
          | None ->
            let c = ref ([], 0.) in
            Hashtbl.replace groups d c;
            c
        in
        let srcs, horizon = !cell in
        cell := (s :: srcs, Float.max horizon (Filter_table.expires_at h))
      | _ -> ())
    exacts;
  (* live_entries is label-sorted, so fold order — and the tie-break on
     equal group sizes (lowest destination wins) — is deterministic. *)
  let best =
    Hashtbl.fold
      (fun d cell best ->
        let srcs, horizon = !cell in
        let n = List.length srcs in
        match best with
        | Some (_, _, _, bn) when bn > n -> best
        | Some (bd, _, _, bn) when bn = n && Addr.compare bd d <= 0 -> best
        | _ -> Some (d, srcs, horizon, n))
      groups None
  in
  match best with
  | Some (dst, (s0 :: _ as srcs), horizon, n) when n >= t.policy.min_aggregate
    ->
    let len = List.fold_left (fun acc s -> min acc (lcp_len s0 s)) 32 srcs in
    let agg = Flow_label.v (Flow_label.Net (Addr.prefix s0 len)) (Flow_label.Host dst) in
    let duration = Float.max (horizon -. Sim.now t.sim) 0. in
    let evicted = Filter_table.evict_subsumed t.table agg in
    (match Filter_table.install t.table agg ~duration with
    | Ok h ->
      Counters.bump t.counters Aggregate;
      for _ = 1 to evicted do Counters.bump t.counters Evict_subsumed done;
      Hashtbl.replace t.aggregates agg ();
      Some h
    | Error `Table_full -> None)
  | _ -> None

(* Watermark hysteresis. Entering degraded mode immediately compacts the
   table (aggregation passes) until occupancy falls back under the low
   watermark or nothing is left to fold. *)
let rec refresh_mode t =
  if (not t.degraded) && occupancy_frac t >= t.policy.high_watermark then begin
    t.degraded <- true;
    Counters.bump t.counters Degraded;
    compact t
  end
  else if t.degraded && occupancy_frac t <= t.policy.low_watermark then
    t.degraded <- false

and compact t =
  if occupancy_frac t > t.policy.low_watermark then
    match try_aggregate t with
    | Some _ -> compact t
    | None -> ()

let live_aggregate_covering t label =
  Hashtbl.fold
    (fun agg () best ->
      if Flow_label.subsumes agg label then
        match Filter_table.find t.table agg with
        | Some h -> (
          match best with
          | Some b
            when Flow_label.compare (Filter_table.label b) agg <= 0 ->
            best
          | _ -> Some h)
        | None -> best
      else best)
    t.aggregates None

let owned t requestor =
  match Hashtbl.find_opt t.owners requestor with
  | Some cell ->
    cell := List.filter Filter_table.live !cell;
    cell
  | None ->
    let cell = ref [] in
    Hashtbl.replace t.owners requestor cell;
    cell

(* A requestor at its cap pays for its next filter with its own least
   valuable one, instead of squeezing everyone else out of the table. *)
let enforce_requestor_cap t requestor =
  let cell = owned t requestor in
  if List.length !cell >= t.policy.max_per_requestor then
    match cheapest t !cell with
    | Some h ->
      evict t Evict_requestor_cap h;
      cell := List.filter Filter_table.live !cell
    | None -> ()

let install ?rate_limit ?corr ?requestor t label ~duration =
  refresh_mode t;
  if not t.degraded then
    Filter_table.install ?rate_limit ?corr t.table label ~duration
  else begin
    Option.iter (enforce_requestor_cap t) requestor;
    let record h =
      (match requestor with
      | Some r ->
        let cell = owned t r in
        if not (List.memq h !cell) then cell := h :: !cell
      | None -> ());
      refresh_mode t;
      Ok h
    in
    (* Already covered by one of our aggregates? Refresh the aggregate
       instead of re-growing the exact population it replaced. *)
    match live_aggregate_covering t label with
    | Some agg ->
      ignore
        (Filter_table.install t.table (Filter_table.label agg) ~duration);
      record agg
    | None -> (
      let plain () =
        Filter_table.install ?rate_limit ?corr t.table label ~duration
      in
      match plain () with
      | Ok h -> record h
      | Error `Table_full -> (
        let after_aggregate =
          match try_aggregate t with
          | Some agg when Flow_label.subsumes (Filter_table.label agg) label ->
            `Use agg
          | Some _ -> (
            match plain () with Ok h -> `Use h | Error `Table_full -> `Full)
          | None -> `Full
        in
        match after_aggregate with
        | `Use h -> record h
        | `Full ->
          if priority_evict ~sparing:label t then
            match plain () with
            | Ok h -> record h
            | Error `Table_full -> Error `Table_full
          else Error `Table_full))
  end

let note_blocked t h (pkt : Packet.t) =
  if Hashtbl.mem t.aggregates (Filter_table.label h) then
    match pkt.Packet.payload with
    | Packet.Data { attack = false; _ } ->
      t.collateral_packets <- t.collateral_packets + 1;
      t.collateral_bytes <- t.collateral_bytes + pkt.Packet.size
    | _ -> ()

(* A pure read: mode transitions happen on install events only, never on a
   metrics pull — sampling a run must not change it. *)
let degraded t = t.degraded

let count t c = Counters.count t.counters c
let counters t = t.counters
let evictions t = Counters.sum t.counters evicted
let collateral_packets t = t.collateral_packets
let collateral_bytes t = t.collateral_bytes

let register_metrics t reg ~prefix =
  let open Aitf_obs.Metrics in
  let p metric = prefix ^ "." ^ metric in
  register_gauge reg (p "degraded") ~unit_:"bool"
    ~help:"1 while the table sits between its watermarks in degraded mode"
    (fun () -> if degraded t then 1. else 0.);
  Counters.register t.counters reg ~prefix;
  register_counter reg (p "collateral_packets") ~unit_:"packets"
    ~help:
      "Estimated legitimate packets dropped by manager-installed aggregates"
    (fun () -> float_of_int t.collateral_packets);
  register_counter reg (p "collateral_bytes") ~unit_:"bytes"
    ~help:"Estimated legitimate bytes dropped by manager-installed aggregates"
    (fun () -> float_of_int t.collateral_bytes)
