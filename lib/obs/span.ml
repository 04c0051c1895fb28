type stage =
  | Detect
  | Request
  | Temp_filter
  | Verification
  | Counter_request
  | Permanent_filter

let stage_name = function
  | Detect -> "detect"
  | Request -> "request"
  | Temp_filter -> "temp-filter"
  | Verification -> "verification"
  | Counter_request -> "counter-request"
  | Permanent_filter -> "permanent-filter"

let stage_index = function
  | Detect -> 0
  | Request -> 1
  | Temp_filter -> 2
  | Verification -> 3
  | Counter_request -> 4
  | Permanent_filter -> 5

let all_stages =
  [ Detect; Request; Temp_filter; Verification; Counter_request; Permanent_filter ]

type event = { at : float; label : string; by : string option }

type span = {
  span_corr : int;
  stage : stage;
  node : string;
  started_at : float;
  mutable finished_at : float option;
  mutable span_events : event list;
}

type root = {
  corr : int;
  mutable flow : string;
  mutable victim : string;
  mutable opened_at : float;
  mutable completed_at : float option;
  mutable spans : span list;
  mutable root_events : event list;
  mutable orphan : bool;
}

type t = {
  tbl : (int, root) Hashtbl.t;
  open_spans : (int * stage, span list ref) Hashtbl.t;
      (* stack of still-open spans per (corr, stage); several can be open
         at once on different nodes during escalation *)
  nonces : (int64, int) Hashtbl.t;
  mutable slo : (float * (root -> unit)) option;
  mutable allow_orphans : bool;
}

let create () =
  {
    tbl = Hashtbl.create 64;
    open_spans = Hashtbl.create 64;
    nonces = Hashtbl.create 32;
    slo = None;
    allow_orphans = false;
  }

let set_allow_orphans t v = t.allow_orphans <- v

(* --- shard merge ------------------------------------------------------------ *)

(* Canonical root order: the order a sequential run would have minted in —
   chronological by opening time at the victim, ties broken by identity
   rather than by shard-dependent raw corr. *)
let canonical_root_compare a b =
  let c = Float.compare a.opened_at b.opened_at in
  if c <> 0 then c
  else
    let c = String.compare a.victim b.victim in
    if c <> 0 then c
    else
      let c = String.compare a.flow b.flow in
      if c <> 0 then c else Int.compare a.corr b.corr

let span_compare a b =
  let c = Float.compare a.started_at b.started_at in
  if c <> 0 then c
  else
    let c = Int.compare (stage_index a.stage) (stage_index b.stage) in
    if c <> 0 then c
    else
      let c = String.compare a.node b.node in
      if c <> 0 then c
      else
        Option.compare Float.compare a.finished_at b.finished_at

let event_compare (a : event) (b : event) =
  let c = Float.compare a.at b.at in
  if c <> 0 then c else String.compare a.label b.label

let merge_into master others =
  let collectors = master :: others in
  (* Real roots win the identity; orphan placeholders (shards that only
     saw spans) contribute their spans, events and completion times. *)
  let reals = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun corr r -> if not r.orphan then Hashtbl.replace reals corr r)
        c.tbl)
    collectors;
  let merged = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun corr r ->
          match Hashtbl.find_opt reals corr with
          | None -> () (* orphan with no real root anywhere: forged corr *)
          | Some real ->
            let acc =
              match Hashtbl.find_opt merged corr with
              | Some acc -> acc
              | None ->
                let acc =
                  {
                    corr;
                    flow = real.flow;
                    victim = real.victim;
                    opened_at = real.opened_at;
                    completed_at = None;
                    spans = [];
                    root_events = [];
                    orphan = false;
                  }
                in
                Hashtbl.replace merged corr acc;
                acc
            in
            acc.spans <- r.spans @ acc.spans;
            acc.root_events <- r.root_events @ acc.root_events;
            (match (r.completed_at, acc.completed_at) with
            | Some x, Some y -> acc.completed_at <- Some (Float.min x y)
            | Some x, None -> acc.completed_at <- Some x
            | None, _ -> ()))
        c.tbl)
    collectors;
  let roots = Hashtbl.fold (fun _ r acc -> r :: acc) merged [] in
  let roots = List.sort canonical_root_compare roots in
  (* Re-key to the canonical 1..N ids a sequential run would have used, and
     put spans/events into deterministic (time, stage, node) order. *)
  let rekeyed =
    List.mapi
      (fun i r ->
        let corr = i + 1 in
        let spans =
          List.sort span_compare (List.rev_map (fun s -> s) r.spans)
          |> List.map (fun s ->
                 {
                   s with
                   span_corr = corr;
                   span_events =
                     List.rev (List.sort event_compare s.span_events);
                 })
        in
        {
          r with
          corr;
          spans = List.rev spans;
          root_events = List.rev (List.sort event_compare r.root_events);
        })
      roots
  in
  (* Nonce bindings follow their root to its canonical id. *)
  let corr_map = Hashtbl.create 64 in
  List.iteri
    (fun i r -> Hashtbl.replace corr_map r.corr (i + 1))
    roots;
  let nonces = Hashtbl.create 32 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun nonce corr ->
          match Hashtbl.find_opt corr_map corr with
          | Some corr' -> Hashtbl.replace nonces nonce corr'
          | None -> ())
        c.nonces)
    collectors;
  Hashtbl.reset master.tbl;
  Hashtbl.reset master.open_spans;
  Hashtbl.reset master.nonces;
  List.iter (fun r -> Hashtbl.replace master.tbl r.corr r) rekeyed;
  Hashtbl.iter (fun n c -> Hashtbl.replace master.nonces n c) nonces;
  (* Completions recorded in shard collectors bypassed the master's SLO
     callback mid-run; fire it now, deterministically, in canonical
     order. *)
  (match master.slo with
  | None -> ()
  | Some (slo, on_breach) ->
    List.iter
      (fun r ->
        match r.completed_at with
        | Some c when c -. r.opened_at > slo -> on_breach r
        | Some _ | None -> ())
      rekeyed)

module Sim = Aitf_engine.Sim

(* Correlation ids are minted unconditionally (protocol messages carry one
   whether or not a collector is attached), off a plain per-world counter
   — no randomness, so traced and untraced runs see identical protocol
   state, and each world's ids start at 1 whatever ran before it in the
   process. The shards of a parallel run mint from disjoint bases,
   [(shard + 1) lsl 24], which keep ids inside the 32-bit wire encoding:
   ids stay unique and deterministic without a shared atomic, at the
   price of being shard-dependent — which is why every cross-shard-count
   comparison goes through the canonical re-keying of
   [merge_into]/[digest] rather than raw ids. *)
let minted : int ref Sim.Key.t =
  Sim.Key.create
    ~fork:(fun _ ~shard _ -> ref ((shard + 1) lsl 24))
    (fun () -> ref 0)

let mint sim =
  let n = Sim.get sim minted in
  incr n;
  !n

(* A shard world records into its own collector, in orphan mode; so does
   the parent's from the fork to the join (global events and barrier
   replays record shard-minted ids), leaving it even if the merge raises. *)
let key : t option Sim.Key.t =
  Sim.Key.create
    ~fork:(fun _ ~shard:_ ->
      Option.map (fun master ->
          master.allow_orphans <- true;
          let c = create () in
          c.allow_orphans <- true;
          c))
    ~join:(fun master shards ->
      Option.iter
        (fun m ->
          Fun.protect
            ~finally:(fun () -> m.allow_orphans <- false)
            (fun () -> merge_into m (List.filter_map Fun.id shards)))
        master)
    (fun () -> None)

let attach t = Sim.set_ambient key (Some t)
let detach () = Sim.set_ambient key None
let enabled sim = Option.is_some (Sim.get sim key)
let with_t sim f = match Sim.get sim key with None -> () | Some t -> f t

let new_root t ~corr ~flow ~victim ~now ~orphan =
  let r =
    {
      corr;
      flow;
      victim;
      opened_at = now;
      completed_at = None;
      spans = [];
      root_events = [];
      orphan;
    }
  in
  Hashtbl.replace t.tbl corr r;
  r

(* The root for [corr], creating an orphan placeholder when permitted —
   shard collectors see spans for requests whose root opened in another
   shard's collector; [merge_into] later reunites them (and drops
   placeholders that never find a real root, e.g. forged corr 0). *)
let find_or_orphan t ~corr ~now =
  match Hashtbl.find_opt t.tbl corr with
  | Some r -> Some r
  | None ->
    if t.allow_orphans then
      Some (new_root t ~corr ~flow:"" ~victim:"" ~now ~orphan:true)
    else None

let root sim ~corr ~flow ~victim =
  let now = Sim.now sim in
  with_t sim (fun t ->
      match Hashtbl.find_opt t.tbl corr with
      | None -> ignore (new_root t ~corr ~flow ~victim ~now ~orphan:false)
      | Some r ->
        (* First real writer wins; an orphan placeholder gets its identity
           filled in (recording raced ahead of the root on this shard). *)
        if r.orphan then begin
          r.flow <- flow;
          r.victim <- victim;
          r.opened_at <- now;
          r.orphan <- false
        end)

let start sim ~corr ~stage ~node =
  let now = Sim.now sim in
  with_t sim (fun t ->
      match find_or_orphan t ~corr ~now with
      | None -> ()
      | Some r ->
        let s =
          {
            span_corr = corr;
            stage;
            node;
            started_at = now;
            finished_at = None;
            span_events = [];
          }
        in
        r.spans <- s :: r.spans;
        let stack =
          match Hashtbl.find_opt t.open_spans (corr, stage) with
          | Some st -> st
          | None ->
            let st = ref [] in
            Hashtbl.replace t.open_spans (corr, stage) st;
            st
        in
        stack := s :: !stack)

let pop_open t ?node ~corr ~stage () =
  match Hashtbl.find_opt t.open_spans (corr, stage) with
  | None -> None
  | Some stack -> (
    let matches s =
      match node with None -> true | Some n -> String.equal s.node n
    in
    match List.find_opt matches !stack with
    | None -> None
    | Some s ->
      stack := List.filter (fun x -> x != s) !stack;
      Some s)

let finish ?node sim ~corr ~stage =
  let now = Sim.now sim in
  with_t sim (fun t ->
      match pop_open t ?node ~corr ~stage () with
      | None -> ()
      | Some s -> s.finished_at <- Some now)

let peek_open t ?node ~corr ~stage () =
  match Hashtbl.find_opt t.open_spans (corr, stage) with
  | None -> None
  | Some stack ->
    let matches s =
      match node with None -> true | Some n -> String.equal s.node n
    in
    List.find_opt matches !stack

(* Newest open span for this corr on any stage (on [node] when given). *)
let newest_open t ?node ~corr () =
  List.fold_left
    (fun best stage ->
      match peek_open t ?node ~corr ~stage () with
      | None -> best
      | Some s -> (
        match best with
        | Some b when b.started_at >= s.started_at -> best
        | _ -> Some s))
    None all_stages

let event ?node sim ~corr label =
  let now = Sim.now sim in
  with_t sim (fun t ->
      let e = { at = now; label; by = node } in
      match newest_open t ?node ~corr () with
      | Some s -> s.span_events <- e :: s.span_events
      | None -> (
        match find_or_orphan t ~corr ~now with
        | Some r -> r.root_events <- e :: r.root_events
        | None -> ()))

let root_event sim ~corr label =
  let now = Sim.now sim in
  with_t sim (fun t ->
      match find_or_orphan t ~corr ~now with
      | Some r ->
        r.root_events <- { at = now; label; by = None } :: r.root_events
      | None -> ())

let bind_nonce sim ~corr ~nonce =
  with_t sim (fun t -> Hashtbl.replace t.nonces nonce corr)

let corr_of_nonce sim ~nonce =
  match Sim.get sim key with
  | None -> None
  | Some t -> Hashtbl.find_opt t.nonces nonce

let event_by_nonce sim ~nonce label =
  match corr_of_nonce sim ~nonce with
  | None -> ()
  | Some corr -> event sim ~corr label

let complete sim ~corr =
  let now = Sim.now sim in
  with_t sim (fun t ->
      match find_or_orphan t ~corr ~now with
      | None -> ()
      | Some r ->
        if r.completed_at = None then begin
          r.completed_at <- Some now;
          (* SLO evaluation is meaningless on an orphan placeholder (its
             opened_at is the first local sighting, not the victim's):
             [merge_into] re-evaluates on the reunited root instead. *)
          if not r.orphan then
            match t.slo with
            | Some (slo, on_breach) when now -. r.opened_at > slo ->
              on_breach r
            | Some _ | None -> ()
        end)

let set_slo t ~seconds f = t.slo <- Some (seconds, f)

(* --- queries ---------------------------------------------------------------- *)

let roots t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl []
  |> List.sort (fun a b -> Int.compare a.corr b.corr)

let find_root t corr = Hashtbl.find_opt t.tbl corr
let spans_of r = List.rev r.spans
let events_of s = List.rev s.span_events

let duration s =
  match s.finished_at with None -> None | Some f -> Some (f -. s.started_at)

let completed_roots t =
  List.filter (fun r -> r.completed_at <> None) (roots t)

(* --- canonical digest --------------------------------------------------------- *)

(* A fingerprint of the span forest that is independent of raw correlation
   ids (shard-dependent) and of hash-table iteration order: roots in
   canonical order re-keyed 1..N, spans and events in deterministic order,
   times printed round-trip exactly. Equal digests at different shard
   counts mean the merged trace is the same trace. *)
let digest t =
  let buf = Buffer.create 4096 in
  let fl x = Printf.sprintf "%.17g" x in
  let opt = function None -> "-" | Some x -> fl x in
  let rs = List.sort canonical_root_compare (roots t) in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "root %d %s %s %s %s\n" (i + 1) r.flow r.victim
           (fl r.opened_at) (opt r.completed_at));
      let spans = List.sort span_compare (List.rev r.spans) in
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "  span %s %s %s %s\n" (stage_name s.stage)
               s.node (fl s.started_at) (opt s.finished_at));
          List.iter
            (fun (e : event) ->
              Buffer.add_string buf
                (Printf.sprintf "    ev %s %s\n" (fl e.at) e.label))
            (List.sort event_compare (List.rev s.span_events)))
        spans;
      List.iter
        (fun (e : event) ->
          Buffer.add_string buf
            (Printf.sprintf "  rev %s %s\n" (fl e.at) e.label))
        (List.sort event_compare (List.rev r.root_events)))
    rs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- Chrome trace-event export ---------------------------------------------- *)

(* https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   One trace "process" per simulated node, one "thread" per flow (the
   thread id is the correlation id). Durations are complete ("X") events
   in microseconds; point annotations become instant ("i") events. *)

let us t = Json.Float (t *. 1e6)

let to_chrome_trace ~now t =
  let rs = roots t in
  (* Deterministic pid assignment: nodes sorted by name, 1-based. *)
  let node_names = Hashtbl.create 16 in
  let note_node n = if not (Hashtbl.mem node_names n) then Hashtbl.replace node_names n () in
  List.iter
    (fun r ->
      note_node r.victim;
      List.iter (fun s -> note_node s.node) r.spans)
    rs;
  let sorted_nodes =
    Hashtbl.fold (fun k () acc -> k :: acc) node_names []
    |> List.sort String.compare
  in
  let pids = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace pids n (i + 1)) sorted_nodes;
  let pid n = Json.Int (Hashtbl.find pids n) in
  let meta =
    List.concat_map
      (fun n ->
        [
          Json.Obj
            [
              ("name", Json.String "process_name");
              ("ph", Json.String "M");
              ("pid", pid n);
              ("args", Json.Obj [ ("name", Json.String n) ]);
            ];
        ])
      sorted_nodes
  in
  let thread_meta =
    (* Name the (pid, tid) lanes after the flow they trace. *)
    List.concat_map
      (fun r ->
        let nodes =
          List.sort_uniq String.compare
            (r.victim :: List.map (fun s -> s.node) r.spans)
        in
        List.map
          (fun n ->
            Json.Obj
              [
                ("name", Json.String "thread_name");
                ("ph", Json.String "M");
                ("pid", pid n);
                ("tid", Json.Int r.corr);
                ("args", Json.Obj [ ("name", Json.String r.flow) ]);
              ])
          nodes)
      rs
  in
  let complete ~name ~node ~tid ~start ~stop ~args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "aitf");
        ("ph", Json.String "X");
        ("ts", us start);
        ("dur", us (Float.max 0. (stop -. start)));
        ("pid", pid node);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let instant ~name ~node ~tid ~at =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "aitf");
        ("ph", Json.String "i");
        ("ts", us at);
        ("pid", pid node);
        ("tid", Json.Int tid);
        ("s", Json.String "t");
      ]
  in
  let per_root r =
    let stop = Option.value ~default:now r.completed_at in
    let root_ev =
      complete ~name:"filtering-request" ~node:r.victim ~tid:r.corr
        ~start:r.opened_at ~stop
        ~args:
          [
            ("corr", Json.Int r.corr);
            ("flow", Json.String r.flow);
            ( "completed",
              Json.Bool (Option.is_some r.completed_at) );
          ]
    in
    let span_evs =
      List.concat_map
        (fun s ->
          let stop = Option.value ~default:now s.finished_at in
          complete ~name:(stage_name s.stage) ~node:s.node ~tid:r.corr
            ~start:s.started_at ~stop
            ~args:
              [
                ("corr", Json.Int r.corr);
                ("flow", Json.String r.flow);
                ("open", Json.Bool (s.finished_at = None));
              ]
          :: List.map
               (fun (e : event) ->
                 instant ~name:e.label ~node:s.node ~tid:r.corr ~at:e.at)
               (events_of s))
        (spans_of r)
    in
    let root_point_evs =
      List.rev_map
        (fun (e : event) ->
          instant ~name:e.label ~node:r.victim ~tid:r.corr ~at:e.at)
        r.root_events
    in
    (root_ev :: span_evs) @ root_point_evs
  in
  let events = meta @ thread_meta @ List.concat_map per_root rs in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]

(* --- critical-path summary --------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.round rank) in
    sorted.(Int.min (n - 1) (Int.max 0 lo))
  end

let summary ?(percentiles = [ 50.; 90.; 99. ]) t =
  let rs = roots t in
  let completed = List.length (completed_roots t) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== span summary: %d request(s), %d completed ==\n"
       (List.length rs) completed);
  let stage_durs stage =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun s -> if s.stage = stage then duration s else None)
          r.spans)
      rs
    |> List.sort Float.compare |> Array.of_list
  in
  let cols = List.map (fun p -> Printf.sprintf "p%g" p) percentiles in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %6s %s %10s\n" "stage" "count"
       (String.concat " "
          (List.map (fun c -> Printf.sprintf "%10s" c) cols))
       "max");
  let by_stage =
    List.map (fun stage -> (stage, stage_durs stage)) all_stages
  in
  List.iter
    (fun (stage, durs) ->
      let n = Array.length durs in
      let cells =
        List.map
          (fun p ->
            if n = 0 then Printf.sprintf "%10s" "-"
            else Printf.sprintf "%10.4f" (percentile durs p))
          percentiles
      in
      let mx =
        if n = 0 then Printf.sprintf "%10s" "-"
        else Printf.sprintf "%10.4f" durs.(n - 1)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-18s %6d %s %s\n" (stage_name stage) n
           (String.concat " " cells) mx))
    by_stage;
  (* Which stage dominates time-to-filter at each percentile. *)
  List.iter
    (fun p ->
      let dominant =
        List.fold_left
          (fun best (stage, durs) ->
            if Array.length durs = 0 then best
            else
              let v = percentile durs p in
              match best with
              | Some (_, bv) when bv >= v -> best
              | _ -> Some (stage, v))
          None by_stage
      in
      match dominant with
      | None -> ()
      | Some (stage, v) ->
        Buffer.add_string buf
          (Printf.sprintf "dominant stage at p%g: %s (%.4f s)\n" p
             (stage_name stage) v))
    percentiles;
  Buffer.contents buf

(* --- timeline ---------------------------------------------------------------- *)

(* Each root contributes its lines in causal order (open, then per span:
   start, events, finish), so the stable sort keeps that order on ties. *)
let timeline t =
  let lines = ref [] in
  List.iter
    (fun r ->
      let add at node what =
        lines := (at, node, Printf.sprintf "#%d %s" r.corr what) :: !lines
      in
      let by e default = Option.value e.by ~default in
      add r.opened_at r.victim ("open " ^ r.flow);
      List.iter
        (fun e -> add e.at (by e r.victim) e.label)
        (List.rev r.root_events);
      List.iter
        (fun s ->
          let stage = stage_name s.stage in
          add s.started_at s.node ("start " ^ stage);
          List.iter (fun e -> add e.at (by e s.node) e.label) (events_of s);
          Option.iter (fun at -> add at s.node ("finish " ^ stage)) s.finished_at)
        (spans_of r))
    (roots t);
  List.rev !lines
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  |> List.map (fun (at, node, msg) ->
         Printf.sprintf "%10.4f  [%-12s] %s\n" at node msg)
  |> String.concat ""
