module Histogram = Aitf_stats.Histogram

type timer = { tm_mu : Mutex.t; hist : Histogram.t; mutable sum : float }

type source =
  | Pull_counter of (unit -> float)
  | Pull_gauge of (unit -> float)
  | Push_timer of timer

type metric = { m_unit : string; m_help : string; source : source }

(* The registry is shared across domains under the parallel engine
   (shard-phase component constructors self-register, gateways push timer
   observations), so every table access and timer mutation is serialized
   on a mutex. Uncontended Mutex.lock is cheap, and registry operations
   are far off the simulation hot path. *)
type t = { mu : Mutex.t; tbl : (string, metric) Hashtbl.t }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

type value =
  | Counter of float
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

let register t name metric =
  if name = "" then invalid_arg "Metrics.register: empty name";
  locked t (fun () ->
      if Hashtbl.mem t.tbl name then
        invalid_arg
          (Printf.sprintf "Metrics.register: duplicate metric %S" name);
      Hashtbl.replace t.tbl name metric)

let register_counter t ?(unit_ = "") ?(help = "") name read =
  register t name { m_unit = unit_; m_help = help; source = Pull_counter read }

let register_gauge t ?(unit_ = "") ?(help = "") name read =
  register t name { m_unit = unit_; m_help = help; source = Pull_gauge read }

let default_bounds = Histogram.log_bounds ~lo:1e-3 ~hi:100. ~per_decade:5

let timer t ?(unit_ = "s") ?(help = "") ?(bounds = default_bounds) name =
  let tm = { tm_mu = Mutex.create (); hist = Histogram.create ~bounds; sum = 0. } in
  register t name { m_unit = unit_; m_help = help; source = Push_timer tm };
  tm

let observe tm v =
  Mutex.lock tm.tm_mu;
  Histogram.add tm.hist v;
  tm.sum <- tm.sum +. v;
  Mutex.unlock tm.tm_mu

let registered t name = locked t (fun () -> Hashtbl.mem t.tbl name)
let size t = locked t (fun () -> Hashtbl.length t.tbl)

let names t =
  locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
  |> List.sort String.compare

let sample metric =
  match metric.source with
  | Pull_counter read -> Counter (read ())
  | Pull_gauge read -> Gauge (read ())
  | Push_timer tm ->
    Mutex.lock tm.tm_mu;
    let v =
      Histogram
        {
          count = Histogram.count tm.hist;
          sum = tm.sum;
          buckets = Histogram.buckets tm.hist;
        }
    in
    Mutex.unlock tm.tm_mu;
    v

let value t name =
  Option.map sample (locked t (fun () -> Hashtbl.find_opt t.tbl name))

let snapshot t =
  List.map
    (fun name -> (name, sample (locked t (fun () -> Hashtbl.find t.tbl name))))
    (names t)

let unit_of t name =
  Option.map (fun m -> m.m_unit) (locked t (fun () -> Hashtbl.find_opt t.tbl name))

let help_of t name =
  Option.map (fun m -> m.m_help) (locked t (fun () -> Hashtbl.find_opt t.tbl name))

(* --- attachment ------------------------------------------------------------- *)

module Sim = Aitf_engine.Sim

let key : t option Sim.Key.t = Sim.Key.create (fun () -> None)
let attach t = Sim.set_ambient key (Some t)
let detach () = Sim.set_ambient key None
let attached () = Sim.ambient key

let with_attached t f =
  attach t;
  Fun.protect ~finally:detach f

let if_attached sim f = match Sim.get sim key with None -> () | Some t -> f t

let timer_if_attached ?unit_ ?help ?bounds sim name =
  match Sim.get sim key with
  | None -> None
  | Some t -> Some (timer t ?unit_ ?help ?bounds name)
