module Sim = Aitf_engine.Sim
module Timer = Aitf_engine.Timer
module Series = Aitf_stats.Series

type t = {
  sim : Sim.t;
  registry : Metrics.t;
  interval : float;
  series : (string, Series.t) Hashtbl.t;
  mutable ticks : int;
  mutable timer : Timer.t option;
}

let series_for t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = Series.create ~name () in
    Hashtbl.replace t.series name s;
    s

let tick t () =
  let now = Sim.now t.sim in
  t.ticks <- t.ticks + 1;
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter v | Metrics.Gauge v ->
        Series.add (series_for t name) ~time:now v
      | Metrics.Histogram { count; _ } ->
        Series.add (series_for t (name ^ ".count")) ~time:now
          (float_of_int count))
    (Metrics.snapshot t.registry)

let start ?(interval = 0.1) sim registry =
  if interval <= 0. then invalid_arg "Sampler.start: interval must be positive";
  let t =
    {
      sim;
      registry;
      interval;
      series = Hashtbl.create 64;
      ticks = 0;
      timer = None;
    }
  in
  Metrics.register_counter registry "sim.events_processed" ~unit_:"events"
    ~help:"Events executed by the simulation loop" (fun () ->
      float_of_int (Sim.events_processed sim));
  Metrics.register_gauge registry "sim.pending_events" ~unit_:"events"
    ~help:"Event-queue depth (including cancelled, uncollected entries)"
    (fun () -> float_of_int (Sim.pending sim));
  Metrics.register_gauge registry "sim.peak_pending_events" ~unit_:"events"
    ~help:"Peak live event-queue depth observed so far" (fun () ->
      float_of_int (Sim.peak_pending sim));
  Metrics.register_counter registry "sim.cancelled_events" ~unit_:"events"
    ~help:"Scheduled events cancelled before firing" (fun () ->
      float_of_int (Sim.total_cancelled sim));
  t.timer <- Some (Timer.periodic sim ~period:interval (tick t));
  t

let stop t =
  match t.timer with
  | Some timer ->
    Timer.cancel timer;
    t.timer <- None
  | None -> ()

let interval t = t.interval
let ticks t = t.ticks

let series t =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.series []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_series t name = Hashtbl.find_opt t.series name
