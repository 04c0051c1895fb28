module Sim = Aitf_engine.Sim
module Ppm = Aitf_traceback.Ppm
module Span = Aitf_obs.Span
module Counters = Aitf_obs.Counters
open Aitf_net
open Aitf_filter

type path_source =
  | From_route_record
  | From_ppm of Ppm.Collector.t
  | Gateway_traceback

module Victim = struct
  type counter =
    | Request_sent | Request_suppressed | Victim_retransmit | Victim_gave_up
    | Victim_confirmed

  let counter_name = function
    | Request_sent -> "request-sent"
    | Request_suppressed -> "request-suppressed"
    | Victim_retransmit -> "victim-retransmit"
    | Victim_gave_up -> "victim-gave-up"
    | Victim_confirmed -> "victim-confirmed"

  let all_counters =
    [ Request_sent; Request_suppressed; Victim_retransmit; Victim_gave_up;
      Victim_confirmed ]

  type t = {
    net : Network.t;
    sim : Sim.t;
    node : Node.t;
    gateway : Addr.t;
    config : Config.t;
    path_source : path_source;
    detection : Detection.t option ref;
        (* ref to tie the knot: detection's callback needs [t] *)
    bucket : Token_bucket.t;
    requested : (Flow_label.t, float) Hashtbl.t;  (* flow -> expiry *)
    awaiting_path : (Flow_label.t, unit) Hashtbl.t;
    last_seen : (Flow_label.t, float) Hashtbl.t;
        (* when an attack packet of this flow last arrived — the evidence
           the retransmitter reads: still arriving => request had no effect *)
    retrying : (Flow_label.t, unit) Hashtbl.t;
        (* flows with an armed retransmission schedule, to avoid overlap *)
    corrs : (Flow_label.t, int) Hashtbl.t;
        (* correlation id minted per attack flow seen — the key every span
           of the flow's filtering request hangs from. Minted
           unconditionally (a plain counter, no randomness) so traced and
           untraced runs make identical random/scheduling decisions. *)
    mutable signer : (Bytes.t -> int64) option;
        (* contract layer: keyed digest over canonical request bytes *)
    mutable receipt_sink : (Message.receipt -> unit) option;
    mutable request_observer : (Message.request -> unit) option;
    mutable arrival_observer : (Flow_label.t -> float -> unit) option;
        (* the auditor's evidence feed: every attack arrival, with time *)
    mutable last_ppm_path : Addr.t list option;
    mutable ppm_stable : int;
    counters : counter Counters.t;
  }

  let node t = t.node
  let counters t = t.counters
  let count t c = Counters.count t.counters c

  let send t ~dst payload =
    Network.originate t.net t.node
      (Message.packet ~src:t.node.Node.addr ~dst payload)

  let requested_live t flow =
    match Hashtbl.find_opt t.requested flow with
    | Some expiry when Sim.now t.sim < expiry -> true
    | Some _ ->
      Hashtbl.remove t.requested flow;
      false
    | None -> false

  let corr_of t flow =
    match Hashtbl.find_opt t.corrs flow with Some c -> c | None -> 0

  (* Count a decision about [flow] and trace it on the flow's request. *)
  let bump t flow c = Counters.bump ~corr:(corr_of t flow) t.counters c

  let request_message t flow path =
    let req =
      {
        Message.flow;
        target = Message.To_victim_gateway;
        duration = t.config.Config.t_filter;
        path;
        hops = 0;
        requestor = t.node.Node.addr;
        corr = corr_of t flow;
        auth = 0L;
      }
    in
    let req =
      match t.signer with
      | None -> req
      | Some sign -> (
        match Wire.signing_bytes (Message.Filtering_request req) with
        | Ok b -> { req with Message.auth = sign b }
        | Error _ -> req)
    in
    Message.Filtering_request req

  (* The request to the gateway crosses the very tail circuit the attack is
     flooding, so it is the likeliest control message to drown. While the
     flow keeps arriving after a request (evidence the request, or its
     effect, was lost), resend with exponential backoff up to the retry
     cap. Retransmissions consume the same R1 bucket as fresh requests —
     reliability must not become a way around the contract. *)
  let arm_retry t flow path =
    if t.config.Config.ctrl_retries > 0 && not (Hashtbl.mem t.retrying flow)
    then begin
      Hashtbl.replace t.retrying flow ();
      let sent_at = ref (Sim.now t.sim) in
      let rec arm rto attempt =
        ignore
          (Sim.after ~label:"victim-retry" t.sim rto (fun () ->
               let still_arriving =
                 match Hashtbl.find_opt t.last_seen flow with
                 | Some ts -> ts > !sent_at
                 | None -> false
               in
               if requested_live t flow && still_arriving then
                 if attempt <= t.config.Config.ctrl_retries then begin
                   if Token_bucket.allow t.bucket ~now:(Sim.now t.sim) then begin
                     bump t flow Victim_retransmit;
                     send t ~dst:t.gateway (request_message t flow path)
                   end
                   else bump t flow Request_suppressed;
                   sent_at := Sim.now t.sim;
                   arm (rto *. Config.ctrl_backoff) (attempt + 1)
                 end
                 else begin
                   bump t flow Victim_gave_up;
                   Hashtbl.remove t.retrying flow
                 end
               else Hashtbl.remove t.retrying flow))
      in
      arm t.config.Config.ctrl_rto 1
    end

  let send_request t flow path =
    if Token_bucket.allow t.bucket ~now:(Sim.now t.sim) then begin
      Counters.bump t.counters Request_sent;
      Hashtbl.replace t.requested flow
        (Sim.now t.sim +. t.config.Config.t_filter);
      Span.start t.sim ~corr:(corr_of t flow) ~stage:Span.Request
        ~node:t.node.Node.name;
      let payload = request_message t flow path in
      (match (t.request_observer, payload) with
      | Some f, Message.Filtering_request req -> f req
      | _, _ -> ());
      send t ~dst:t.gateway payload;
      arm_retry t flow path
    end
    else bump t flow Request_suppressed

  (* PPM reconstructions start as prefixes of the true path (the victim-
     nearest edges converge first), so a path is only trusted once it has
     been identical across several consecutive observations. *)
  let ppm_stability_threshold = 5

  let ppm_path_ready t collector =
    let p = Ppm.Collector.reconstruct collector in
    if p <> None && p = t.last_ppm_path then
      t.ppm_stable <- t.ppm_stable + 1
    else begin
      t.last_ppm_path <- p;
      t.ppm_stable <- 0
    end;
    if t.ppm_stable >= ppm_stability_threshold then p else None

  (* Detection fired (first time after Td, or instantly on reappearance):
     assemble the attack path per the configured traceback source. *)
  let on_detect t flow (pkt : Packet.t) =
    Span.finish t.sim ~node:t.node.Node.name ~corr:(corr_of t flow)
      ~stage:Span.Detect;
    match t.path_source with
    | From_route_record -> send_request t flow (Packet.recorded_route pkt)
    | Gateway_traceback -> send_request t flow []
    | From_ppm collector -> (
      match ppm_path_ready t collector with
      | Some path -> send_request t flow path
      | None -> Hashtbl.replace t.awaiting_path flow ())

  (* PPM convergence: retry pending reconstructions as marks accumulate. *)
  let retry_awaiting t collector =
    if Hashtbl.length t.awaiting_path > 0 then begin
      match ppm_path_ready t collector with
      | None -> ()
      | Some path ->
        let flows =
          Hashtbl.fold (fun f () acc -> f :: acc) t.awaiting_path []
          |> List.sort Flow_label.compare
          (* requests fire in label order, not hash-bucket order *)
        in
        List.iter
          (fun flow ->
            Hashtbl.remove t.awaiting_path flow;
            send_request t flow path)
          flows
    end

  let on_attack_packet t (pkt : Packet.t) =
    let now = Sim.now t.sim in
    let label = Flow_label.host_pair pkt.src pkt.dst in
    if not (Hashtbl.mem t.corrs label) then begin
      (* First attack packet of this flow: mint the flow's correlation id
         and open its request tree. Detection starts counting here. *)
      let corr = Span.mint t.sim in
      Hashtbl.replace t.corrs label corr;
      if Span.enabled t.sim then begin
        Span.root t.sim ~corr
          ~flow:(Format.asprintf "%a" Flow_label.pp label)
          ~victim:t.node.Node.name;
        Span.start t.sim ~corr ~stage:Span.Detect ~node:t.node.Node.name
      end
    end;
    Hashtbl.replace t.last_seen label now;
    (match t.arrival_observer with Some f -> f label now | None -> ());
    (match t.path_source with
    | From_ppm collector ->
      Ppm.Collector.observe collector pkt;
      retry_awaiting t collector
    | From_route_record | Gateway_traceback -> ());
    match !(t.detection) with
    | Some d -> Detection.observe d pkt
    | None -> ()

  let deliver t prev (node : Node.t) (pkt : Packet.t) =
    match pkt.payload with
    | Packet.Data { attack = true; _ } -> on_attack_packet t pkt
    | Packet.Data _ -> ()
    | Message.Verification_query { flow; nonce } ->
      (* "Do you really not want this flow?" — confirm iff we asked. *)
      if requested_live t flow then begin
        bump t flow Victim_confirmed;
        send t ~dst:pkt.src (Message.Verification_reply { flow; nonce })
      end
    | Message.Install_receipt r -> (
      match t.receipt_sink with Some f -> f r | None -> ())
    | _ -> prev node pkt

  let create ?(td = 0.1) ?(path_source = From_route_record) ~gateway ~config
      net node =
    let sim = Network.sim_for net node in
    let t =
      {
        net;
        sim;
        node;
        gateway;
        config;
        path_source;
        detection = ref None;
        bucket =
          Token_bucket.create ~rate:config.Config.r1
            ~burst:config.Config.r1_burst;
        requested = Hashtbl.create 32;
        awaiting_path = Hashtbl.create 8;
        last_seen = Hashtbl.create 32;
        retrying = Hashtbl.create 8;
        corrs = Hashtbl.create 32;
        signer = None;
        receipt_sink = None;
        request_observer = None;
        arrival_observer = None;
        last_ppm_path = None;
        ppm_stable = 0;
        counters =
          Counters.create ~node:node.Node.name
            ~prefix:("victim." ^ node.Node.name) ~name:counter_name
            ~all:all_counters sim;
      }
    in
    t.detection :=
      Some
        (Detection.create sim ~td ~min_report_gap:config.Config.min_report_gap
           ~on_detect:(fun flow pkt -> on_detect t flow pkt));
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <- deliver t prev;
    t

  let attack_flows_seen t = Hashtbl.length t.corrs
  let set_signer t f = t.signer <- Some f
  let set_receipt_sink t f = t.receipt_sink <- Some f
  let set_request_observer t f = t.request_observer <- Some f
  let set_arrival_observer t f = t.arrival_observer <- Some f
  let requests_sent t = count t Request_sent
end

module Attacker = struct
  type counter = Request_received | Flow_stopped

  let counter_name = function
    | Request_received -> "request-received"
    | Flow_stopped -> "flow-stopped"

  type t = {
    sim : Sim.t;
    node : Node.t;
    strategy : Policy.attacker_response;
    filters : Filter_table.t;
    off_until : (Flow_label.t, float) Hashtbl.t;
    counters : counter Counters.t;
  }

  let node t = t.node
  let strategy t = t.strategy
  let filters t = t.filters
  let counters t = t.counters
  let count t c = Counters.count t.counters c

  let gate t (pkt : Packet.t) =
    match t.strategy with
    | Policy.Ignores -> true
    | Policy.Complies -> not (Filter_table.blocks t.filters pkt)
    | Policy.On_off _ -> (
      let label = Flow_label.host_pair pkt.src pkt.dst in
      match Hashtbl.find_opt t.off_until label with
      | Some until when Sim.now t.sim < until -> false
      | Some _ ->
        Hashtbl.remove t.off_until label;
        true
      | None -> true)

  let on_request t (req : Message.request) =
    Counters.bump t.counters Request_received;
    (* The counter-request reached the attacking host — however it responds,
       the Counter_request leg (gateway -> attacker) is over. *)
    Span.finish t.sim ~corr:req.Message.corr ~stage:Span.Counter_request;
    match t.strategy with
    | Policy.Ignores -> ()
    | Policy.Complies -> (
      match
        Filter_table.install t.filters req.Message.flow
          ~duration:req.Message.duration
      with
      | Ok _ -> Counters.bump t.counters Flow_stopped
      | Error `Table_full -> ())
    | Policy.On_off { off_time } ->
      Counters.bump t.counters Flow_stopped;
      Hashtbl.replace t.off_until req.Message.flow
        (Sim.now t.sim +. off_time)

  let deliver t prev (node : Node.t) (pkt : Packet.t) =
    match pkt.payload with
    | Message.Filtering_request ({ Message.target = Message.To_attacker; _ } as req)
      ->
      on_request t req
    | _ -> prev node pkt

  let create ?(strategy = Policy.Complies) ?filter_capacity ~config net node =
    let sim = Network.sim_for net node in
    let capacity =
      Option.value ~default:config.Config.filter_capacity filter_capacity
    in
    let t =
      {
        sim;
        node;
        strategy;
        filters = Filter_table.create sim ~capacity;
        off_until = Hashtbl.create 8;
        counters =
          Counters.create ~prefix:("attacker." ^ node.Node.name)
            ~name:counter_name ~all:[ Request_received; Flow_stopped ] sim;
      }
    in
    let prev = node.Node.local_deliver in
    node.Node.local_deliver <- deliver t prev;
    t
end
