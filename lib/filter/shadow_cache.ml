module Sim = Aitf_engine.Sim
open Aitf_net

type 'a entry = {
  label : Flow_label.t;
  mutable expires_at : float;
  mutable alive : bool;
  mutable data : 'a;
  mutable expiry_event : Sim.handle option;
}

type 'a t = {
  sim : Sim.t;
  capacity : int;
  exact : 'a entry Exact_index.t;
  mutable wildcards : 'a entry list;
  by_label : (Flow_label.t, 'a entry) Hashtbl.t;
  mutable occupancy : int;
  mutable peak : int;
  mutable inserts : int;
  mutable rejected : int;
  mutable hits : int;
  mutable misses : int;
}

let create sim ~capacity =
  if capacity <= 0 then invalid_arg "Shadow_cache.create: capacity";
  {
    sim;
    capacity;
    exact = Exact_index.create 256;
    wildcards = [];
    by_label = Hashtbl.create 256;
    occupancy = 0;
    peak = 0;
    inserts = 0;
    rejected = 0;
    hits = 0;
    misses = 0;
  }

let detach t e =
  if e.alive then begin
    e.alive <- false;
    (match e.expiry_event with Some ev -> Sim.cancel ev | None -> ());
    e.expiry_event <- None;
    Hashtbl.remove t.by_label e.label;
    if Flow_label.is_exact e.label then Exact_index.remove t.exact e.label
    else t.wildcards <- List.filter (fun w -> w != e) t.wildcards;
    t.occupancy <- t.occupancy - 1
  end

let arm t e =
  (match e.expiry_event with Some ev -> Sim.cancel ev | None -> ());
  e.expiry_event <-
    Some
      (Sim.at ~label:"shadow-expiry" t.sim e.expires_at (fun () ->
           detach t e))

let insert t label ~ttl data =
  let now = Sim.now t.sim in
  match Hashtbl.find_opt t.by_label label with
  | Some e ->
    e.data <- data;
    e.expires_at <- Float.max e.expires_at (now +. ttl);
    arm t e;
    t.inserts <- t.inserts + 1;
    Ok e
  | None ->
    if t.occupancy >= t.capacity then begin
      t.rejected <- t.rejected + 1;
      Error `Full
    end
    else begin
      let e =
        {
          label;
          expires_at = now +. ttl;
          alive = true;
          data;
          expiry_event = None;
        }
      in
      Hashtbl.replace t.by_label label e;
      if Flow_label.is_exact label then Exact_index.replace t.exact label e
      else t.wildcards <- e :: t.wildcards;
      t.occupancy <- t.occupancy + 1;
      if t.occupancy > t.peak then t.peak <- t.occupancy;
      t.inserts <- t.inserts + 1;
      arm t e;
      Ok e
    end

let find t label =
  match Hashtbl.find_opt t.by_label label with
  | Some e when e.alive -> Some e
  | _ -> None

let rec scan_wildcards pkt = function
  | [] -> None
  | e :: rest ->
    if e.alive && Flow_label.matches e.label pkt then Some e
    else scan_wildcards pkt rest

(* Same order as [Filter_table.matching_entry]: host pair, host pair +
   proto, then the wildcards (newest first). *)
let match_packet t (pkt : Packet.t) =
  let result =
    match Exact_index.probe t.exact pkt with
    | Some _ as found -> found
    | None -> scan_wildcards pkt t.wildcards
  in
  (match result with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  result

let remove t e = detach t e

let refresh t e ~ttl =
  if e.alive then begin
    let deadline = Sim.now t.sim +. ttl in
    if deadline > e.expires_at then begin
      e.expires_at <- deadline;
      arm t e
    end
  end

let data e = e.data
let label e = e.label
let expires_at e = e.expires_at
let live e = e.alive

let occupancy t = t.occupancy
let capacity t = t.capacity
let peak_occupancy t = t.peak
let rejected t = t.rejected
let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let register_metrics t reg ~prefix =
  let open Aitf_obs.Metrics in
  let p metric = prefix ^ "." ^ metric in
  register_gauge reg (p "occupancy") ~unit_:"entries"
    ~help:"Live shadow-cache entries" (fun () -> float_of_int t.occupancy);
  register_gauge reg (p "peak_occupancy") ~unit_:"entries"
    ~help:"High-water mark of live entries (compare with mv = R1*T)"
    (fun () -> float_of_int t.peak);
  register_counter reg (p "inserts") ~unit_:"entries"
    ~help:"Inserts, refreshes included" (fun () -> float_of_int t.inserts);
  register_counter reg (p "rejected") ~unit_:"entries"
    ~help:"Inserts refused because the cache was full" (fun () ->
      float_of_int t.rejected);
  register_counter reg (p "hits") ~unit_:"lookups"
    ~help:"Data-path lookups that matched a live entry" (fun () ->
      float_of_int t.hits);
  register_counter reg (p "misses") ~unit_:"lookups"
    ~help:"Data-path lookups that matched nothing" (fun () ->
      float_of_int t.misses);
  register_gauge reg (p "hit_rate") ~unit_:"ratio"
    ~help:"hits / (hits + misses); 0 before any lookup" (fun () -> hit_rate t)

let iter t f =
  Hashtbl.iter (fun _ e -> if e.alive then f e) t.by_label
