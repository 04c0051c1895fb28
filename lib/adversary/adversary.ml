module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Counters = Aitf_obs.Counters
open Aitf_net
open Aitf_filter
open Aitf_core

type lying_mode = Accept_ignore | Partial of float | Forge | Replay

type playbook =
  | Slot_exhaustion of { sources : int; rate : float }
  | Shadow_exhaustion of { flows : int; rate : float }
  | Request_flood of { rate : float }
  | Reply_replay of { delay : float; guess_rate : float }
  | Route_forgery of { innocent : Addr.t }
  | Lying_filter_node of { mode : lying_mode; fraction : float }

type env = {
  net : Network.t;
  attacker : Node.t;
  insider : Node.t;
  tap : Node.t;
  victim : Addr.t;
  victim_gw : Addr.t;
  spoof_base : Addr.t;
}

type counter =
  | Packet_sent | Request_sent | Replay_sent | Guess_sent | Stamp_forged

let counter_name = function
  | Packet_sent -> "packet-sent"
  | Request_sent -> "request-sent"
  | Replay_sent -> "replay-sent"
  | Guess_sent -> "guess-sent"
  | Stamp_forged -> "stamp-forged"

type t = {
  sim : Sim.t;
  playbook : playbook;
  counters : counter Counters.t;
}

let kind = function
  | Slot_exhaustion _ -> "slot-exhaustion"
  | Shadow_exhaustion _ -> "shadow-exhaustion"
  | Request_flood _ -> "request-flood"
  | Reply_replay _ -> "reply-replay"
  | Route_forgery _ -> "route-forgery"
  | Lying_filter_node _ -> "lying-filter-node"

let behavior_of_mode = function
  | Accept_ignore -> Gateway.Accept_ignore
  | Partial leak -> Gateway.Partial_policing leak
  | Forge -> Gateway.Forge_receipts
  | Replay -> Gateway.Replay_receipts

(* The Byzantine filter node is not an injector with its own traffic loop:
   it corrupts the compliance behaviour of already-contracted gateways, so
   it plugs in at scenario setup rather than through {!launch}. *)
let corrupt ~mode gateways =
  List.iter
    (fun gw -> Gateway.set_contract_behavior gw (behavior_of_mode mode))
    gateways;
  List.length gateways

let attack_pkt_size = 1000

(* Periodic emission driven purely off the virtual clock; randomness, where
   a playbook needs any, comes only from the seeded [rng] passed to
   {!launch}, so identical seeds replay bit-identically. *)
let every t ~start ~gap f =
  let rec arm at =
    ignore
      (Sim.at t.sim at (fun () ->
           f ();
           arm (at +. gap)))
  in
  arm start

(* Botnet rotating spoofed sources towards the victim: every packet is real
   attack traffic, but the header source walks a pool of [sources]
   addresses, so the victim's gateway needs one temporary filter per pool
   member — pressure aimed at the nv = R1·Ttmp slot budget. *)
let launch_slot_exhaustion t ~rng ~start env ~sources ~rate =
  if sources < 1 then invalid_arg "Adversary: sources must be >= 1";
  let gap = float_of_int (attack_pkt_size * 8) /. rate in
  every t ~start ~gap (fun () ->
      let spoofed = Addr.add env.spoof_base (Rng.int rng sources) in
      Counters.bump t.counters Packet_sent;
      Network.originate env.net env.attacker
        (Packet.make ~spoofed_src:spoofed ~src:env.attacker.Node.addr
           ~dst:env.victim ~size:attack_pkt_size
           (Packet.Data { flow_id = 900; attack = true })))

(* A compromised client flooding its own gateway with filtering requests
   for flows that do not exist. Each request names the insider itself as
   requestor and destination, so it passes the cone check and burns the
   insider's own R1 contract; the admitted residue costs the gateway one
   shadow entry (TTL = T) and one temporary filter per distinct flow. *)
let launch_request_flood t ~rng ~start env ~pool ~rate =
  let gap = 1. /. rate in
  every t ~start ~gap (fun () ->
      let src = Addr.add env.spoof_base (Rng.int rng pool) in
      let flow =
        Flow_label.host_pair src env.insider.Node.addr
      in
      Counters.bump t.counters Request_sent;
      Network.originate env.net env.insider
        (Message.packet ~src:env.insider.Node.addr ~dst:env.victim_gw
           (Message.Filtering_request
              {
                Message.flow;
                target = Message.To_victim_gateway;
                duration = 60.;
                path = [];
                hops = 0;
                requestor = env.insider.Node.addr;
                (* forged: carries no correlation id, so span tracing sees
                   nothing — exactly like a pre-AITF sender *)
                corr = 0;
                auth = 0L;
              })))

(* A compromised on-path router attacking the 3-way handshake: snoop
   verification replies it forwards, replay each one [delay] seconds later
   (spoofing the original source), and fire off replies with guessed nonces
   at [guess_rate] for the flows it has seen queried. The handshake's nonce
   table classifies the replays as duplicates and the guesses as bogus —
   the defended-against cases; an on-path adversary who also injects the
   requests remains outside AITF's threat model (see docs/ADVERSARY.md). *)
let launch_reply_replay t ~rng ~start env ~delay ~guess_rate =
  let seen_queries : (Flow_label.t * Addr.t) list ref = ref [] in
  Node.add_hook env.tap (fun _node (pkt : Packet.t) ->
      (match pkt.Packet.payload with
      | Message.Verification_reply { flow; nonce } ->
        let src = pkt.Packet.src and dst = pkt.Packet.dst in
        ignore
          (Sim.after t.sim delay (fun () ->
               Counters.bump t.counters Replay_sent;
               Network.originate env.net env.tap
                 (Packet.make ~spoofed_src:src
                    ~src:env.tap.Node.addr ~dst ~proto:Message.protocol_number
                    ~size:Message.message_size
                    (Message.Verification_reply { flow; nonce }))))
      | Message.Verification_query { flow; _ } ->
        if
          not
            (List.exists
               (fun (f, _) -> Flow_label.equal f flow)
               !seen_queries)
        then seen_queries := (flow, pkt.Packet.src) :: !seen_queries
      | _ -> ());
      Node.Continue);
  if guess_rate > 0. then
    every t ~start ~gap:(1. /. guess_rate) (fun () ->
        match !seen_queries with
        | [] -> ()
        | l ->
          let flow, querier = List.nth l (Rng.int rng (List.length l)) in
          Counters.bump t.counters Guess_sent;
          Network.originate env.net env.tap
            (Packet.make ~spoofed_src:env.victim ~src:env.tap.Node.addr
               ~dst:querier ~proto:Message.protocol_number
               ~size:Message.message_size
               (Message.Verification_reply { flow; nonce = Rng.nonce rng })))

(* A compromised legacy router whose forwarding plane rewrites the route
   record on attack packets, pointing the traceback at an innocent address.
   Round 0 of the victim's response is then wasted on a gateway that never
   answers; escalation climbs the honest remainder of the stamps and
   protection lands victim-side instead of attacker-side. *)
let launch_route_forgery t env ~innocent =
  Node.add_hook env.tap (fun _node (pkt : Packet.t) ->
      (match pkt.Packet.payload with
      | Packet.Data { attack = true; _ } ->
        Counters.bump t.counters Stamp_forged;
        (* A single stamp reads the same in either order. *)
        pkt.Packet.route_record <- [ innocent ]
      | _ -> ());
      Node.Continue)

let launch ?(start = 1.) ~rng env playbook =
  let sim = Network.sim env.net in
  let counters =
    Counters.create ~prefix:("adversary." ^ kind playbook) ~name:counter_name
      ~all:[ Packet_sent; Request_sent; Replay_sent; Guess_sent; Stamp_forged ]
      sim
  in
  let t = { sim; playbook; counters } in
  (match playbook with
  | Slot_exhaustion { sources; rate } ->
    launch_slot_exhaustion t ~rng ~start env ~sources ~rate
  | Shadow_exhaustion { flows; rate } ->
    launch_request_flood t ~rng ~start env ~pool:flows ~rate
  | Request_flood { rate } ->
    (* Fresh-looking flow per request with overwhelming probability: the
       point is the R1 burn, not the shadow fill. *)
    launch_request_flood t ~rng ~start env ~pool:1_000_000 ~rate
  | Reply_replay { delay; guess_rate } ->
    launch_reply_replay t ~rng ~start env ~delay ~guess_rate
  | Route_forgery { innocent } -> launch_route_forgery t env ~innocent
  | Lying_filter_node _ ->
    invalid_arg
      "Adversary.launch: lying-filter-node corrupts contracted gateways at \
       scenario setup (aitf_sim internet --contracts --byzantine-fraction); \
       use Adversary.corrupt");
  t

let playbook t = t.playbook
let count t c = Counters.count t.counters c
let counters t = t.counters

(* --- CLI spec parsing ----------------------------------------------------- *)

let default_innocent = Addr.of_string "192.0.2.1"

let playbook_of_string s =
  let name, kvs =
    match String.index_opt s ':' with
    | None -> (s, [])
    | Some i ->
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1)
        |> String.split_on_char ','
        |> List.filter (fun w -> w <> "")
        |> List.map (fun kv ->
               match String.index_opt kv '=' with
               | None -> (kv, "")
               | Some j ->
                 ( String.sub kv 0 j,
                   String.sub kv (j + 1) (String.length kv - j - 1) )) )
  in
  let num key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad %s=%S" key v))
  in
  let ( let* ) = Result.bind in
  let known allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
    | Some (k, _) ->
      Error (Printf.sprintf "unknown key %S for playbook %s" k name)
    | None -> Ok ()
  in
  match name with
  | "slot-exhaustion" ->
    let* () = known [ "sources"; "rate" ] in
    let* sources = num "sources" 128. in
    let* rate = num "rate" 2e6 in
    Ok (Slot_exhaustion { sources = int_of_float sources; rate })
  | "shadow-exhaustion" ->
    let* () = known [ "flows"; "rate" ] in
    let* flows = num "flows" 4096. in
    let* rate = num "rate" 200. in
    Ok (Shadow_exhaustion { flows = int_of_float flows; rate })
  | "request-flood" ->
    let* () = known [ "rate" ] in
    let* rate = num "rate" 1000. in
    Ok (Request_flood { rate })
  | "reply-replay" ->
    let* () = known [ "delay"; "guess-rate" ] in
    let* delay = num "delay" 0.5 in
    let* guess_rate = num "guess-rate" 50. in
    Ok (Reply_replay { delay; guess_rate })
  | "route-forgery" -> (
    let* () = known [ "innocent" ] in
    match List.assoc_opt "innocent" kvs with
    | None -> Ok (Route_forgery { innocent = default_innocent })
    | Some v -> (
      try Ok (Route_forgery { innocent = Addr.of_string v })
      with Invalid_argument _ -> Error (Printf.sprintf "bad innocent=%S" v)))
  | "lying-filter-node" ->
    let* () = known [ "mode"; "fraction"; "leak" ] in
    let* fraction = num "fraction" 0.2 in
    let* () =
      if fraction >= 0. && fraction <= 1. then Ok ()
      else Error (Printf.sprintf "fraction=%g not in [0,1]" fraction)
    in
    (* leak: residual bytes/s a partial policer lets through (default one
       megabit). Ignored by the other modes. *)
    let* leak = num "leak" 125_000. in
    let* mode =
      match
        Option.value ~default:"accept-ignore" (List.assoc_opt "mode" kvs)
      with
      | "accept-ignore" -> Ok Accept_ignore
      | "partial" -> Ok (Partial leak)
      | "forge" -> Ok Forge
      | "replay" -> Ok Replay
      | m ->
        Error
          (Printf.sprintf
             "unknown mode %S (expected accept-ignore, partial, forge or \
              replay)"
             m)
    in
    Ok (Lying_filter_node { mode; fraction })
  | _ ->
    Error
      (Printf.sprintf
         "unknown playbook %S (expected slot-exhaustion, shadow-exhaustion, \
          request-flood, reply-replay, route-forgery or lying-filter-node)"
         name)

let playbook_to_string = function
  | Slot_exhaustion { sources; rate } ->
    Printf.sprintf "slot-exhaustion:sources=%d,rate=%g" sources rate
  | Shadow_exhaustion { flows; rate } ->
    Printf.sprintf "shadow-exhaustion:flows=%d,rate=%g" flows rate
  | Request_flood { rate } -> Printf.sprintf "request-flood:rate=%g" rate
  | Reply_replay { delay; guess_rate } ->
    Printf.sprintf "reply-replay:delay=%g,guess-rate=%g" delay guess_rate
  | Route_forgery { innocent } ->
    Printf.sprintf "route-forgery:innocent=%s" (Addr.to_string innocent)
  | Lying_filter_node { mode = Partial leak; fraction } ->
    Printf.sprintf "lying-filter-node:mode=partial,fraction=%g,leak=%g"
      fraction leak
  | Lying_filter_node { mode; fraction } ->
    Printf.sprintf "lying-filter-node:mode=%s,fraction=%g"
      (match mode with
      | Accept_ignore -> "accept-ignore"
      | Forge -> "forge"
      | Replay -> "replay"
      | Partial _ -> assert false)
      fraction
