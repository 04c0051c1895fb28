module Sim = Aitf_engine.Sim
open Aitf_net

type handle = {
  label : Flow_label.t;
  installed_at : float;
  mutable expires_at : float;
  mutable alive : bool;
  mutable hits : int;
  mutable hit_bytes : int;
  mutable last_hit : float option;
  mutable expiry_event : Sim.handle option;
  mutable limiter : Token_bucket.t option;  (* None = block outright *)
  mutable corr : int option;
      (* correlation id of the filtering request that installed this entry;
         carried so table observers (span tracing, fluid mirroring) can
         attribute install/removal to the right request *)
}

type change = Installed of handle | Refreshed of handle | Removed of handle

type t = {
  sim : Sim.t;
  capacity : int;
  exact : handle Exact_index.t;
  mutable wildcards : handle list;
  by_label : (Flow_label.t, handle) Hashtbl.t;
  mutable occupancy : int;
  mutable peak : int;
  mutable installs : int;
  mutable rejected : int;
  mutable blocked_packets : int;
  mutable blocked_bytes : int;
  mutable observers : (change -> unit) list;
}

let create sim ~capacity =
  if capacity <= 0 then invalid_arg "Filter_table.create: capacity";
  {
    sim;
    capacity;
    exact = Exact_index.create 64;
    wildcards = [];
    by_label = Hashtbl.create 64;
    occupancy = 0;
    peak = 0;
    installs = 0;
    rejected = 0;
    blocked_packets = 0;
    blocked_bytes = 0;
    observers = [];
  }

let subscribe t f = t.observers <- f :: t.observers
let notify t ev = List.iter (fun f -> f ev) t.observers

let detach t h =
  if h.alive then begin
    h.alive <- false;
    (match h.expiry_event with Some e -> Sim.cancel e | None -> ());
    h.expiry_event <- None;
    Hashtbl.remove t.by_label h.label;
    if Flow_label.is_exact h.label then Exact_index.remove t.exact h.label
    else t.wildcards <- List.filter (fun w -> w != h) t.wildcards;
    t.occupancy <- t.occupancy - 1;
    notify t (Removed h)
  end

(* Hoisted: one [Some] shared by every armed expiry. *)
let expiry_label = Some "filter-expiry"

let arm_expiry t h =
  (match h.expiry_event with Some e -> Sim.cancel e | None -> ());
  h.expiry_event <-
    Some (Sim.at ?label:expiry_label t.sim h.expires_at (fun () -> detach t h))

let evict_subsumed t label =
  let victims =
    Hashtbl.fold
      (fun _ h acc ->
        if h.alive && Flow_label.subsumes label h.label then h :: acc else acc)
      t.by_label []
    (* detach fires the removal handlers, so evict in label order, not
       hash-bucket order *)
    |> List.sort (fun a b -> Flow_label.compare a.label b.label)
  in
  List.iter (detach t) victims;
  List.length victims

(* One second of burst, floored at a packet. *)
let make_limiter rate = Token_bucket.create ~rate ~burst:(Float.max rate 1500.)

(* The wildcard scan goes most-specific-first, ties broken by the label's
   total order — so a broad aggregate never shadows a narrower filter, and
   the match is independent of install order. *)
let wildcard_before a b =
  let c =
    Int.compare (Flow_label.specificity b.label) (Flow_label.specificity a.label)
  in
  (if c <> 0 then c else Flow_label.compare a.label b.label) <= 0

let rec insert_wildcard h = function
  | [] -> [ h ]
  | x :: _ as l when wildcard_before h x -> h :: l
  | x :: rest -> x :: insert_wildcard h rest

let install ?rate_limit ?corr t label ~duration =
  let now = Sim.now t.sim in
  match Hashtbl.find_opt t.by_label label with
  | Some h ->
    h.expires_at <- Float.max h.expires_at (now +. duration);
    (match corr with Some _ -> h.corr <- corr | None -> ());
    (* A refresh that names a rate honors it (replacing a limiter only when
       the rate changed, so conforming state survives a same-rate refresh);
       a refresh without one keeps the original action. *)
    let action_changed =
      match (rate_limit, h.limiter) with
      | None, _ -> false
      | Some rate, Some old when Token_bucket.rate old = rate -> false
      | Some rate, _ ->
        h.limiter <- Some (make_limiter rate);
        true
    in
    arm_expiry t h;
    t.installs <- t.installs + 1;
    (* Observers hear about every refresh; one that changed the action
       (block <-> rate-limit, or a new rate) is reported as an install. *)
    notify t (if action_changed then Installed h else Refreshed h);
    Ok h
  | None ->
    (* A full table is not final: a label subsuming live entries can make
       its own room — the compaction move aggregation relies on. *)
    if t.occupancy >= t.capacity then ignore (evict_subsumed t label);
    if t.occupancy >= t.capacity then begin
      t.rejected <- t.rejected + 1;
      Error `Table_full
    end
    else begin
      let limiter = Option.map make_limiter rate_limit in
      let h =
        {
          label;
          installed_at = now;
          expires_at = now +. duration;
          alive = true;
          hits = 0;
          hit_bytes = 0;
          last_hit = None;
          expiry_event = None;
          limiter;
          corr;
        }
      in
      Hashtbl.replace t.by_label label h;
      if Flow_label.is_exact label then Exact_index.replace t.exact label h
      else t.wildcards <- insert_wildcard h t.wildcards;
      t.occupancy <- t.occupancy + 1;
      if t.occupancy > t.peak then t.peak <- t.occupancy;
      t.installs <- t.installs + 1;
      arm_expiry t h;
      notify t (Installed h);
      Ok h
    end

let remove t h = detach t h

let find t label =
  match Hashtbl.find_opt t.by_label label with
  | Some h when h.alive -> Some h
  | _ -> None

let live_entries t =
  Hashtbl.fold (fun _ h acc -> if h.alive then h :: acc else acc) t.by_label []
  |> List.sort (fun a b -> Flow_label.compare a.label b.label)

let sim t = t.sim
let label h = h.label
let corr h = h.corr
let rate_limit h = Option.map Token_bucket.rate h.limiter
let installed_at h = h.installed_at
let expires_at h = h.expires_at
let live h = h.alive
let hits h = h.hits
let hit_bytes h = h.hit_bytes
let last_hit h = h.last_hit

(* Exact labels first (host pair, then host pair + proto), then the
   wildcards in their most-specific-first order. Neither step allocates
   unless it finds an entry. *)
let rec scan_wildcards pkt = function
  | [] -> None
  | h :: rest ->
    if h.alive && Flow_label.matches h.label pkt then Some h
    else scan_wildcards pkt rest

let matching_entry t pkt =
  match Exact_index.probe t.exact pkt with
  | Some _ as found -> found
  | None -> scan_wildcards pkt t.wildcards

(* --- range classification ---------------------------------------------- *)

let u32 = Addr.to_unsigned

(* The unsigned source block a selector covers ([Addr.prefix] bases are
   always masked to their length). *)
let src_block : Flow_label.sel -> int * int = function
  | Any -> (0, 0xFFFF_FFFF)
  | Host a -> (u32 a, u32 a)
  | Net p ->
    let base = u32 p.base in
    (base, base + (1 lsl (32 - p.len)) - 1)

let qual_accepts q (v : int) = match q with None -> true | Some x -> x = v

(* Does the wildcard accept a header with this [dst], [proto] and ports 0,
   whatever its source? *)
let accepts ~dst ~proto h =
  let l = h.label in
  h.alive
  && Flow_label.sel_matches l.dst dst
  && qual_accepts l.proto proto && qual_accepts l.sport 0
  && qual_accepts l.dport 0

(* The wildcards accepting the header, in scan order, each with its source
   block clipped to [lo..hi]. *)
let range_candidates t ~dst ~proto ~lo ~hi =
  List.filter_map
    (fun h ->
      if accepts ~dst ~proto h then
        let a, b = src_block h.label.src in
        let a = max a lo and b = min b hi in
        if a <= b then Some (a, b, Some h) else None
      else None)
    t.wildcards

(* The sources in [lo..hi] with an exact entry towards [dst], ascending,
   each with the entry the probe finds. A range no longer than the index
   probes each address; a longer one folds the index once for the
   sources it names. *)
let exact_points t ~dst ~proto ~lo ~hi =
  let n = Exact_index.length t.exact and d = u32 dst in
  let sources =
    if n = 0 then []
    else if hi - lo < n then List.init (hi - lo + 1) (fun i -> lo + i)
    else
      Exact_index.fold
        (fun (l : Flow_label.t) _ acc ->
          match (l.src, l.dst) with
          | Host s, Host d' when u32 d' = d && lo <= u32 s && u32 s <= hi ->
            u32 s :: acc
          | _ -> acc)
        t.exact []
      |> List.sort_uniq Int.compare
  in
  List.filter_map
    (fun x ->
      match Exact_index.find t.exact ~src:x ~dst:d ~proto with
      | Some _ as e -> Some (x, e)
      | None -> None)
    sources

(* Every source where the answer can change starts a segment: each
   candidate block's ends and each exact point and its successor. A
   segment's answer is its exact entry, else the first candidate covering
   its start (no block ends inside it), so match order holds by
   construction. Adjacent segments with one answer merge into a run. *)
let classify_range t ~dst ~proto ~lo ~hi f =
  if lo < 0 || hi > 0xFFFF_FFFF || lo > hi then
    invalid_arg "Filter_table.classify_range: bad source range";
  let cands = range_candidates t ~dst ~proto ~lo ~hi in
  let points = exact_points t ~dst ~proto ~lo ~hi in
  let starts =
    List.concat_map (fun (a, b, _) -> [ a; b + 1 ]) cands
    @ List.concat_map (fun (x, _) -> [ x; x + 1 ]) points
    |> List.filter (fun s -> lo < s && s <= hi)
    |> List.sort_uniq Int.compare
  in
  let rec cover s = function
    | [] -> None
    | (a, b, e) :: rest -> if a <= s && s <= b then e else cover s rest
  in
  let entry_at s = function
    | (x, e) :: rest when x = s -> (e, rest)
    | points -> (cover s cands, points)
  in
  let rec go run_lo run_e points = function
    | [] -> f run_lo hi run_e
    | s :: starts ->
      let e, points = entry_at s points in
      if Option.equal ( == ) e run_e then go run_lo run_e points starts
      else begin
        f run_lo (s - 1) run_e;
        go s e points starts
      end
  in
  let e, points = entry_at lo points in
  go lo e points starts

let record_hit t h (pkt : Packet.t) =
  h.hits <- h.hits + 1;
  h.hit_bytes <- h.hit_bytes + pkt.size;
  h.last_hit <- Some (Sim.now t.sim);
  t.blocked_packets <- t.blocked_packets + 1;
  t.blocked_bytes <- t.blocked_bytes + pkt.size

let blocking_entry t pkt =
  match matching_entry t pkt with
  | None -> None
  | Some h as found -> (
    match h.limiter with
    | None ->
      record_hit t h pkt;
      found
    | Some bucket ->
      if
        Token_bucket.allow bucket ~now:(Sim.now t.sim)
          ~cost:(float_of_int pkt.Packet.size)
      then None
      else begin
        record_hit t h pkt;
        found
      end)

let blocks t pkt = Option.is_some (blocking_entry t pkt)

let would_block t pkt = Option.is_some (matching_entry t pkt)

let occupancy t = t.occupancy
let capacity t = t.capacity
let peak_occupancy t = t.peak
let installs t = t.installs
let rejected t = t.rejected
let blocked_packets t = t.blocked_packets
let blocked_bytes t = t.blocked_bytes

let register_metrics t reg ~prefix =
  let open Aitf_obs.Metrics in
  let p metric = prefix ^ "." ^ metric in
  register_gauge reg (p "occupancy") ~unit_:"filters"
    ~help:"Live hardware filters" (fun () -> float_of_int t.occupancy);
  register_gauge reg (p "peak_occupancy") ~unit_:"filters"
    ~help:"High-water mark of live filters (compare with nv/na)" (fun () ->
      float_of_int t.peak);
  register_counter reg (p "installs") ~unit_:"filters"
    ~help:"Successful installs, refreshes included" (fun () ->
      float_of_int t.installs);
  register_counter reg (p "rejected") ~unit_:"filters"
    ~help:"Installs refused because the table was full" (fun () ->
      float_of_int t.rejected);
  register_counter reg (p "blocked_packets") ~unit_:"packets"
    ~help:"Packets dropped by a matching filter" (fun () ->
      float_of_int t.blocked_packets);
  register_counter reg (p "blocked_bytes") ~unit_:"bytes"
    ~help:"Bytes dropped by a matching filter" (fun () ->
      float_of_int t.blocked_bytes)
