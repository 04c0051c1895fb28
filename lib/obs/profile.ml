module Sim = Aitf_engine.Sim

type bucket = { mutable n : int; mutable secs : float }

type t = {
  tbl : (string, bucket) Hashtbl.t;
  mutable events : int;
  mutable seconds : float;
  mutable peak_pending : int;
}

let create () =
  { tbl = Hashtbl.create 16; events = 0; seconds = 0.; peak_pending = 0 }

let other = "other"

let probe t label secs pending =
  let key = match label with Some l -> l | None -> other in
  let b =
    match Hashtbl.find_opt t.tbl key with
    | Some b -> b
    | None ->
      let b = { n = 0; secs = 0. } in
      Hashtbl.replace t.tbl key b;
      b
  in
  b.n <- b.n + 1;
  b.secs <- b.secs +. secs;
  t.events <- t.events + 1;
  t.seconds <- t.seconds +. secs;
  if pending > t.peak_pending then t.peak_pending <- pending

(* Sum [t]'s buckets and totals into [m] (peak queue depth: the max). *)
let add_into m t =
  Hashtbl.iter
    (fun k b ->
      let acc =
        match Hashtbl.find_opt m.tbl k with
        | Some acc -> acc
        | None ->
          let acc = { n = 0; secs = 0. } in
          Hashtbl.replace m.tbl k acc;
          acc
      in
      acc.n <- acc.n + b.n;
      acc.secs <- acc.secs +. b.secs)
    t.tbl;
  m.events <- m.events + t.events;
  m.seconds <- m.seconds +. t.seconds;
  if t.peak_pending > m.peak_pending then m.peak_pending <- t.peak_pending

let merge ts =
  let m = create () in
  List.iter (add_into m) ts;
  m

(* A shard world times its events into a fresh profiler, installed as its
   probe; the join adds the shard profilers into the parent's. *)
let key : t option Sim.Key.t =
  Sim.Key.create
    ~fork:(fun child ~shard:_ ->
      Option.map (fun _ ->
          let p = create () in
          Sim.set child Sim.profiler (Some (probe p));
          p))
    ~join:(fun m shards ->
      Option.iter (fun m -> List.iter (Option.iter (add_into m)) shards) m)
    (fun () -> None)

let attach t =
  Sim.set_ambient key (Some t);
  Sim.set_ambient Sim.profiler (Some (probe t))

let detach () =
  Sim.set_ambient key None;
  Sim.set_ambient Sim.profiler None

let enabled sim = Option.is_some (Sim.get sim Sim.profiler)

let events t = t.events
let seconds t = t.seconds
let peak_pending t = t.peak_pending

let buckets t =
  Hashtbl.fold (fun k b acc -> (k, (b.n, b.secs)) :: acc) t.tbl []
  |> List.sort (fun (ka, (_, sa)) (kb, (_, sb)) ->
         let c = Float.compare sb sa in
         if c <> 0 then c else String.compare ka kb)

let report t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "== engine profile: %d event(s), %.4f s wall, peak queue %d ==\n"
       t.events t.seconds t.peak_pending);
  Buffer.add_string buf
    (Printf.sprintf "%-20s %10s %12s %7s\n" "category" "events" "seconds" "%");
  List.iter
    (fun (label, (n, secs)) ->
      let pct = if t.seconds > 0. then 100. *. secs /. t.seconds else 0. in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %10d %12.6f %6.1f%%\n" label n secs pct))
    (buckets t);
  Buffer.contents buf

let register_metrics t reg ~prefix =
  let p m = prefix ^ "." ^ m in
  Metrics.register_counter reg (p "events") ~unit_:"events"
    ~help:"Events timed by the engine profiler" (fun () ->
      float_of_int t.events);
  Metrics.register_counter reg (p "seconds") ~unit_:"s"
    ~help:
      "Real (wall-clock, not CPU) seconds spent executing events, by the \
       run's clock (nondeterministic)"
    (fun () -> t.seconds);
  Metrics.register_gauge reg (p "peak_pending") ~unit_:"events"
    ~help:"Peak live event-queue depth observed by the profiler" (fun () ->
      float_of_int t.peak_pending)
