module Sim = Aitf_engine.Sim
module Counters = Aitf_obs.Counters
module Victim = Host_agent.Victim
open Aitf_net
open Aitf_filter

type t = {
  net : Network.t;
  sim : Sim.t;
  gateway : Gateway.t;
  protected_prefixes : unit Lpm.t;
  detection : Detection.t option ref;
  bucket : Token_bucket.t;
  requested : (Flow_label.t, float) Hashtbl.t;  (* flow -> expiry *)
  corrs : (Flow_label.t, int) Hashtbl.t;
      (* per-flow correlation id for span tracing, minted on first request
         since the proxy fills the victim's role for a legacy host *)
  counters : Victim.counter Counters.t;
      (* the victim's decisions, taken on the legacy host's behalf *)
}

let protects t a = Option.is_some (Lpm.lookup t.protected_prefixes a)

let node t = Gateway.node t.gateway

let send t ~dst payload =
  Network.originate t.net (node t)
    (Message.packet ~src:(node t).Node.addr ~dst payload)

let requested_live t flow =
  match Hashtbl.find_opt t.requested flow with
  | Some expiry when Sim.now t.sim < expiry -> true
  | Some _ ->
    Hashtbl.remove t.requested flow;
    false
  | None -> false

(* Originate a request exactly as the victim would have; the gateway node
   delivers it to its own AITF agent locally. *)
let on_detect t flow (pkt : Packet.t) =
  if Token_bucket.allow t.bucket ~now:(Sim.now t.sim) then begin
    let config = Gateway.config t.gateway in
    Counters.bump t.counters Victim.Request_sent;
    Hashtbl.replace t.requested flow (Sim.now t.sim +. config.Config.t_filter);
    let corr =
      match Hashtbl.find_opt t.corrs flow with
      | Some c -> c
      | None ->
        let c = Aitf_obs.Span.mint t.sim in
        Hashtbl.replace t.corrs flow c;
        if Aitf_obs.Span.enabled t.sim then
          Aitf_obs.Span.root t.sim ~corr:c
            ~flow:(Format.asprintf "%a" Flow_label.pp flow)
            ~victim:(node t).Node.name;
        c
    in
    Aitf_obs.Span.start t.sim ~corr ~stage:Aitf_obs.Span.Request
      ~node:(node t).Node.name;
    send t ~dst:(node t).Node.addr
      (Message.Filtering_request
         {
           Message.flow;
           target = Message.To_victim_gateway;
           duration = config.Config.t_filter;
           path = Packet.recorded_route pkt;
           hops = 0;
           requestor = (node t).Node.addr;
           corr;
           auth = 0L;
         })
  end

let hook t (_node : Node.t) (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Data { attack = true; _ } when protects t pkt.dst ->
    (match !(t.detection) with
    | Some d -> Detection.observe d pkt
    | None -> ());
    Node.Continue
  | Message.Verification_query { flow; nonce } when protects t pkt.dst ->
    (* Answer on the legacy victim's behalf — the gateway is on the path,
       which is all the handshake verifies — and consume the query so the
       AITF-oblivious host never sees it. *)
    if requested_live t flow then begin
      Counters.bump t.counters Victim.Victim_confirmed;
      send t ~dst:pkt.src (Message.Verification_reply { flow; nonce })
    end;
    Node.Drop Aitf_obs.Ledger.Legacy_proxy_query
  | _ -> Node.Continue

let attach ?(td = 0.1) ~protect ~gateway net =
  let sim = Network.sim net in
  let prefixes = Lpm.create () in
  List.iter (fun p -> Lpm.insert prefixes p ()) protect;
  let config = Gateway.config gateway in
  let t =
    {
      net;
      sim;
      gateway;
      protected_prefixes = prefixes;
      detection = ref None;
      bucket =
        Token_bucket.create ~rate:config.Config.r1 ~burst:config.Config.r1_burst;
      requested = Hashtbl.create 32;
      corrs = Hashtbl.create 32;
      counters =
        Counters.create
          ~prefix:("legacy." ^ (Gateway.node gateway).Node.name)
          ~name:Victim.counter_name ~all:Victim.all_counters sim;
    }
  in
  t.detection :=
    Some
      (Detection.create sim ~td ~min_report_gap:config.Config.min_report_gap
         ~on_detect:(fun flow pkt -> on_detect t flow pkt));
  Node.add_hook (node t) (hook t);
  t

let count t c = Counters.count t.counters c
let counters t = t.counters

let flows_detected t =
  match !(t.detection) with Some d -> Detection.flows_seen d | None -> 0
