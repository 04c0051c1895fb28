module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Series = Aitf_stats.Series
module Fluid = Aitf_flowsim.Fluid
module Json = Aitf_obs.Json
open Aitf_net
open Aitf_core
open Aitf_topo

(* --- traces ---------------------------------------------------------------- *)

type pool = {
  p_id : string;
  p_base : Addr.t;
  p_n : int;
  p_rate : float;  (* bits/s per source *)
  p_attack : bool;
}

type action = On | Off | Join of int | Leave of int
type event = { ev_time : float; ev_pool : string; ev_action : action }

type trace = {
  tr_seed : int;
  tr_duration : float;
  tr_pools : pool list;
  tr_events : event list;
}

let equal (a : trace) (b : trace) = a = b

(* --- codec ----------------------------------------------------------------- *)

let magic = "aitf-replay/1"

(* Canonical text: fixed field order, floats through the report codec's
   shortest-roundtrip printer, one line per declaration/event — so
   serializing is a bijection on parsed traces and goldens containing a
   trace are byte-stable. *)
let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s seed=%d duration=%s\n" magic t.tr_seed
       (Json.float_repr t.tr_duration));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "pool %s base=%s n=%d rate=%s attack=%b\n" p.p_id
           (Addr.to_string p.p_base) p.p_n (Json.float_repr p.p_rate)
           p.p_attack))
    t.tr_pools;
  List.iter
    (fun e ->
      let act =
        match e.ev_action with
        | On -> "on"
        | Off -> "off"
        | Join k -> Printf.sprintf "join %d" k
        | Leave k -> Printf.sprintf "leave %d" k
      in
      Buffer.add_string buf
        (Printf.sprintf "at %s %s %s\n" (Json.float_repr e.ev_time) e.ev_pool
           act))
    t.tr_events;
  Buffer.contents buf

(* A pool the runners can place: at most 2^20 sources (what one origin
   node's advertised range is sized for) and a source range inside the
   32-bit address space. *)
let pool_error p =
  if p.p_n > 1 lsl 20 then
    Some (Printf.sprintf "pool %s has %d sources, more than 2^20" p.p_id p.p_n)
  else if Addr.to_unsigned p.p_base + p.p_n - 1 > 0xFFFF_FFFF then
    Some (Printf.sprintf "pool %s runs past 255.255.255.255" p.p_id)
  else None

exception Bad of string

let parse text =
  let fail ln msg = raise (Bad (Printf.sprintf "line %d: %s" ln msg)) in
  let kv ln key tok =
    match String.index_opt tok '=' with
    | Some i when String.sub tok 0 i = key ->
      String.sub tok (i + 1) (String.length tok - i - 1)
    | _ -> fail ln (Printf.sprintf "expected %s=..., got %S" key tok)
  in
  let int_of ln what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail ln (Printf.sprintf "bad %s %S" what s)
  in
  let float_of ln what s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v -> v
    | _ -> fail ln (Printf.sprintf "bad %s %S" what s)
  in
  let bool_of ln what s =
    match bool_of_string_opt s with
    | Some v -> v
    | None -> fail ln (Printf.sprintf "bad %s %S" what s)
  in
  let header = ref None in
  let pools = ref [] in
  let events = ref [] in
  let last_t = ref 0. in
  let parse_line ln line =
    match
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    with
    | [] -> ()
    | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> ()
    | m :: rest when m = magic ->
      if !header <> None then fail ln "duplicate header";
      (match rest with
      | [ s; d ] ->
        let seed = int_of ln "seed" (kv ln "seed" s) in
        let duration = float_of ln "duration" (kv ln "duration" d) in
        if duration <= 0. then fail ln "duration must be positive";
        header := Some (seed, duration)
      | _ -> fail ln "header wants: seed=<int> duration=<float>")
    | "pool" :: id :: rest ->
      if !header = None then fail ln "pool before header";
      if List.exists (fun p -> p.p_id = id) !pools then
        fail ln (Printf.sprintf "duplicate pool %S" id);
      (match rest with
      | [ b; n; r; a ] ->
        let base =
          let s = kv ln "base" b in
          try Addr.of_string s
          with _ -> fail ln (Printf.sprintf "bad base %S" s)
        in
        let n = int_of ln "n" (kv ln "n" n) in
        if n < 1 then fail ln "n must be >= 1";
        let rate = float_of ln "rate" (kv ln "rate" r) in
        if rate < 0. then fail ln "rate must be >= 0";
        let attack = bool_of ln "attack" (kv ln "attack" a) in
        let pool =
          { p_id = id; p_base = base; p_n = n; p_rate = rate;
            p_attack = attack }
        in
        Option.iter (fail ln) (pool_error pool);
        pools := pool :: !pools
      | _ -> fail ln "pool wants: base=<addr> n=<int> rate=<float> attack=<bool>")
    | "at" :: t :: id :: rest ->
      if !header = None then fail ln "event before header";
      if not (List.exists (fun p -> p.p_id = id) !pools) then
        fail ln (Printf.sprintf "event names undeclared pool %S" id);
      let t = float_of ln "time" t in
      if t < 0. then fail ln "time must be >= 0";
      if t < !last_t then fail ln "timestamps must be non-decreasing";
      last_t := t;
      let action =
        match rest with
        | [ "on" ] -> On
        | [ "off" ] -> Off
        | [ "join"; k ] ->
          let k = int_of ln "join count" k in
          if k < 1 then fail ln "join count must be >= 1";
          Join k
        | [ "leave"; k ] ->
          let k = int_of ln "leave count" k in
          if k < 1 then fail ln "leave count must be >= 1";
          Leave k
        | _ -> fail ln "action wants: on | off | join <k> | leave <k>"
      in
      events := { ev_time = t; ev_pool = id; ev_action = action } :: !events
    | tok :: _ -> fail ln (Printf.sprintf "unknown directive %S" tok)
  in
  try
    List.iteri
      (fun i line -> parse_line (i + 1) line)
      (String.split_on_char '\n' text);
    match !header with
    | None -> Error "missing header line"
    | Some (tr_seed, tr_duration) ->
      Ok
        {
          tr_seed;
          tr_duration;
          tr_pools = List.rev !pools;
          tr_events = List.rev !events;
        }
  with Bad msg -> Error msg

(* --- synthesizers ---------------------------------------------------------- *)

(* Pool j's sources live in their own /12 (32.0.0.0, 32.16.0.0, ...) so
   multi-pool traces walk disjoint prefix ranges — the same address plan
   as the swarm scenario. *)
let synth_base j = Addr.of_octets 32 (16 * j) 0 0

let synth_pool ?(attack = true) ~rate ~n j id =
  {
    p_id = Printf.sprintf "%s%d" id j;
    p_base = synth_base j;
    p_n = n;
    p_rate = rate /. float_of_int n;
    p_attack = attack;
  }

(* Events are generated per pool then merged; the stable sort keeps the
   pool order on simultaneous timestamps, so the trace (and everything
   downstream) is a pure function of the arguments. *)
let merge_events evs =
  List.stable_sort (fun a b -> Float.compare a.ev_time b.ev_time) evs

let synth_pulse ?(pools = 1) ?(period = 4.) ?(duty = 0.5) ~seed ~duration
    ~rate ~n () =
  let rng = Rng.create ~seed in
  let evs = ref [] in
  let ps =
    List.init pools (fun j ->
        let p = synth_pool ~rate ~n j "pulse" in
        let phase = Rng.float (Rng.split rng) period in
        let t = ref phase in
        while !t < duration do
          evs := { ev_time = !t; ev_pool = p.p_id; ev_action = On } :: !evs;
          let off = !t +. (duty *. period) in
          if off < duration then
            evs :=
              { ev_time = off; ev_pool = p.p_id; ev_action = Off } :: !evs;
          t := !t +. period
        done;
        p)
  in
  {
    tr_seed = seed;
    tr_duration = duration;
    tr_pools = ps;
    tr_events = merge_events (List.rev !evs);
  }

let synth_churn ?(mean_gap = 0.5) ~seed ~duration ~rate ~n () =
  let rng = Rng.create ~seed in
  let p = synth_pool ~rate ~n 0 "churn" in
  let evs = ref [ { ev_time = 1.0; ev_pool = p.p_id; ev_action = On } ] in
  let t = ref 1.0 in
  let cohort = Int.max 1 (n / 4) in
  let continue = ref true in
  while !continue do
    t := !t +. Rng.exponential rng ~rate:(1. /. mean_gap);
    if !t >= duration then continue := false
    else begin
      let k = 1 + Rng.int rng cohort in
      let action = if Rng.bool rng then Join k else Leave k in
      evs := { ev_time = !t; ev_pool = p.p_id; ev_action = action } :: !evs
    end
  done;
  {
    tr_seed = seed;
    tr_duration = duration;
    tr_pools = [ p ];
    tr_events = List.rev !evs;
  }

let synth_booter ?(bursts = 4) ?(burst_len = 2.) ~seed ~duration ~rate ~n ()
    =
  let rng = Rng.create ~seed in
  let p = synth_pool ~rate ~n 0 "boot" in
  let horizon = Float.max burst_len (duration -. burst_len) in
  let starts =
    List.init bursts (fun _ -> 1. +. Rng.float rng (horizon -. 1.))
    |> List.sort Float.compare
  in
  (* Coalesce overlapping salvos so on/off pairs nest cleanly. *)
  let rec intervals = function
    | [] -> []
    | s :: rest ->
      let e = s +. burst_len in
      let rec absorb e = function
        | s' :: rest when s' <= e -> absorb (Float.max e (s' +. burst_len)) rest
        | rest -> (e, rest)
      in
      let e, rest = absorb e rest in
      (s, e) :: intervals rest
  in
  let evs =
    List.concat_map
      (fun (s, e) ->
        { ev_time = s; ev_pool = p.p_id; ev_action = On }
        ::
        (if e < duration then
           [ { ev_time = e; ev_pool = p.p_id; ev_action = Off } ]
         else []))
      (intervals starts)
  in
  { tr_seed = seed; tr_duration = duration; tr_pools = [ p ]; tr_events = evs }

let synth_carpet ?(pools = 4) ?(slot = 3.) ~seed ~duration ~rate ~n () =
  let rng = Rng.create ~seed in
  let ps = List.init pools (fun j -> synth_pool ~rate ~n j "car") in
  let order = Array.init pools (fun j -> j) in
  Rng.shuffle rng order;
  let ids = Array.of_list (List.map (fun p -> p.p_id) ps) in
  let evs = ref [] in
  let t = ref 1.0 in
  let s = ref 0 in
  while !t < duration do
    let cur = ids.(order.(!s mod pools)) in
    if !s > 0 then begin
      let prev = ids.(order.((!s - 1) mod pools)) in
      evs := { ev_time = !t; ev_pool = prev; ev_action = Off } :: !evs
    end;
    evs := { ev_time = !t; ev_pool = cur; ev_action = On } :: !evs;
    incr s;
    t := !t +. slot
  done;
  {
    tr_seed = seed;
    tr_duration = duration;
    tr_pools = ps;
    tr_events = List.rev !evs;
  }

(* --- analytic offered load ------------------------------------------------- *)

let offered_bytes trace ~attack =
  List.fold_left
    (fun acc p ->
      if p.p_attack <> attack then acc
      else begin
        let bits = ref 0. in
        let sending = ref false in
        let active = ref p.p_n in
        let last = ref 0. in
        let step t =
          if !sending then
            bits :=
              !bits
              +. (float_of_int !active *. p.p_rate *. (t -. !last));
          last := t
        in
        List.iter
          (fun e ->
            if e.ev_pool = p.p_id && e.ev_time < trace.tr_duration then begin
              step e.ev_time;
              match e.ev_action with
              | On -> sending := true
              | Off -> sending := false
              | Join k -> active := Int.min p.p_n (!active + k)
              | Leave k -> active := Int.max 0 (!active - k)
            end)
          trace.tr_events;
        step trace.tr_duration;
        acc +. (!bits /. 8.)
      end)
    0. trace.tr_pools

(* --- running --------------------------------------------------------------- *)

type result = {
  rr_attack_offered_bytes : float;
  rr_attack_received_bytes : float;
  rr_good_offered_bytes : float;
  rr_good_received_bytes : float;
  rr_requests_sent : int;
  rr_filters : int;
  rr_absorbed : int;
  rr_events : int;
  rr_victim_rate : Series.t;
  rr_ledger : Aitf_obs.Ledger.t;
}

(* Smallest prefix covering the pool's contiguous source range — what the
   pool node advertises so reverse control traffic routes back to it. *)
let cover p =
  let last = Addr.add p.p_base (p.p_n - 1) in
  let len = ref 32 in
  while !len > 0 && not (Addr.prefix_mem (Addr.prefix p.p_base !len) last) do
    decr len
  done;
  Addr.prefix p.p_base !len

(* Live membership of one pool as the run unfolds. Sources 0..live-1 are
   the ones on the wire, under both engines: the packet gate admits
   spoofed indices below [live], the fluid plane unblocks exactly those
   stage-0 gates. *)
type pstate = { mutable sending : bool; mutable active : int; mutable live : int }

let effective st = if st.sending then st.active else 0

let check trace =
  match List.find_map pool_error trace.tr_pools with
  | Some e -> Error ("replay: " ^ e)
  | None -> Ok ()

let run ?(spec = Chain.default_spec) ?(config = Config.default) ?(td = 0.1)
    ?(sample_period = 0.5) trace =
  Result.iter_error invalid_arg (check trace);
  let sim = Sim.create () in
  let rng = Rng.create ~seed:trace.tr_seed in
  let topo = Chain.build sim spec in
  let net = topo.Chain.net in
  let pools = Array.of_list trace.tr_pools in
  let total_rate =
    Array.fold_left
      (fun acc p -> acc +. (p.p_rate *. float_of_int p.p_n))
      0. pools
  in
  let nodes =
    Runner.spoofed_pools topo spec ~rate:total_rate
      (Array.map (fun p -> ("replay-" ^ p.p_id, cover p)) pools)
  in
  let deployed = Chain.deploy ~victim_td:td ~config ~rng topo in
  let all_gws =
    deployed.Chain.victim_gateways @ deployed.Chain.attacker_gateways
  in
  let victim_addr = topo.Chain.victim.Node.addr in
  Array.iter Fluid_bridge.absorb_pool_requests nodes;
  let states =
    Array.map (fun p -> { sending = false; active = p.p_n; live = 0 }) pools
  in
  (* Engine-specific data plane; [apply j] re-syncs pool j's wire state
     after a membership event. *)
  let fluid_ctx, apply =
    match config.Config.engine with
    | Config.Hybrid ->
      let eng, frng = Runner.fluid_plane config net all_gws rng in
      let aggs =
        Array.mapi
          (fun j p ->
            let agg =
              Fluid.add_aggregate eng ~flow_id:(1000 + j) ~origin:nodes.(j)
                ~src_base:p.p_base ~n:p.p_n
                ~rate:(p.p_rate *. float_of_int p.p_n)
                ~dst:victim_addr ~attack:p.p_attack ~start:0.
            in
            (* Everyone starts off the wire; events open the gates. *)
            for i = 0 to p.p_n - 1 do
              Fluid.set_block eng agg ~idx:i ~stage:0 true
            done;
            if p.p_attack then Runner.attach_probe ~sim config frng eng agg;
            agg)
          pools
      in
      let apply j =
        let st = states.(j) in
        let e = Int.min pools.(j).p_n (effective st) in
        if e > st.live then
          for i = st.live to e - 1 do
            Fluid.set_block eng aggs.(j) ~idx:i ~stage:0 false
          done
        else if e < st.live then
          for i = e to st.live - 1 do
            Fluid.set_block eng aggs.(j) ~idx:i ~stage:0 true
          done;
        st.live <- e
      in
      (Some eng, apply)
    | Config.Packet ->
      let counters = Array.make (Array.length pools) 0 in
      Array.iteri
        (fun j p ->
          let st = states.(j) in
          let spoof () =
            let i = counters.(j) mod p.p_n in
            counters.(j) <- counters.(j) + 1;
            Some (Addr.add p.p_base i)
          in
          (* The spoofed header index decides membership: round-robin
             spoofing makes the admitted rate exactly proportional to the
             live count over every n-packet cycle. *)
          let gate pkt =
            st.live > 0
            && Int32.to_int (Int32.sub pkt.Packet.src p.p_base) < st.live
          in
          ignore
            (Traffic.cbr ~gate ~spoof ~start:0. ~attack:p.p_attack
               ~flow_id:(1000 + j)
               ~rate:(p.p_rate *. float_of_int p.p_n)
               ~dst:victim_addr net nodes.(j)))
        pools;
      let apply j =
        let st = states.(j) in
        st.live <- Int.min pools.(j).p_n (effective st)
      in
      (None, apply)
  in
  let index_of id =
    let found = ref (-1) in
    Array.iteri (fun j p -> if p.p_id = id then found := j) pools;
    !found
  in
  List.iter
    (fun e ->
      if e.ev_time < trace.tr_duration then
        let j = index_of e.ev_pool in
        ignore
          (Sim.at sim e.ev_time (fun () ->
               let st = states.(j) in
               (match e.ev_action with
               | On -> st.sending <- true
               | Off -> st.sending <- false
               | Join k -> st.active <- Int.min pools.(j).p_n (st.active + k)
               | Leave k -> st.active <- Int.max 0 (st.active - k));
               apply j)))
    trace.tr_events;
  let rr_victim_rate =
    Runner.victim_rate sim ~period:sample_period ~until:trace.tr_duration
      fluid_ctx
  in
  Sim.run ~until:trace.tr_duration sim;
  {
    rr_attack_offered_bytes = offered_bytes trace ~attack:true;
    rr_attack_received_bytes = Runner.delivered sim fluid_ctx ~attack:true;
    rr_good_offered_bytes = offered_bytes trace ~attack:false;
    rr_good_received_bytes = Runner.delivered sim fluid_ctx ~attack:false;
    rr_requests_sent =
      Host_agent.Victim.requests_sent deployed.Chain.victim_agent;
    rr_filters = Runner.filter_installs all_gws;
    rr_absorbed = Runner.absorbed sim;
    rr_events = Sim.events_processed sim;
    rr_victim_rate;
    rr_ledger = Aitf_obs.Ledger.of_sim sim;
  }
