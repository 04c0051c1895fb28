module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Spie = Aitf_traceback.Spie
module Span = Aitf_obs.Span
open Aitf_net
open Aitf_filter

(* Per-flow protocol state at a gateway acting as (possibly escalated)
   victim's gateway. Lives as shadow-cache data so it expires with the
   logged request. *)
type flow_phase =
  | Filtering  (* temporary filter installed, waiting for handover *)
  | Monitoring  (* shadow only: a hit means the attacker side failed us *)
  | Delegated  (* escalated upstream; no longer our responsibility *)
  | Awaiting_path  (* SPIE mode: need to capture a packet to trace *)

type flow_entry = {
  flow : Flow_label.t;
  mutable path : Addr.t list;
  mutable round : int;
  mutable phase : flow_phase;
  mutable gen : int;  (* invalidates stale Ttmp-expiry and retry events *)
  mutable duration : float;
  mutable engaged_at : float;  (* when the current round was engaged *)
  mutable temp_handle : Filter_table.handle option;
      (* this round's temporary filter; its hit counter is the evidence the
         control-plane retransmitter reads *)
  mutable sent_hits : int;  (* temp-filter hits at the last transmission *)
  requestor : Addr.t;
  corr : int;  (* correlation id of the originating request (span tracing) *)
}

(* Verifiable-contract layer (docs/CONTRACTS.md). [Honest] is the only
   behaviour protocol code assumes; the lying variants model the
   Byzantine filter node of the Lying_filter_node playbook. *)
type contract_behavior =
  | Honest
  | Accept_ignore  (* accept the request, install nothing, stay silent *)
  | Partial_policing of float  (* rate-limit to this leak (bytes/s) *)
  | Forge_receipts  (* no filter; receipts fabricated without the key *)
  | Replay_receipts  (* brief install; replay the first receipt forever *)

type contract_state = {
  cs_sign : Bytes.t -> int64;  (* keyed digest under this gateway's key *)
  cs_verify : Addr.t -> Bytes.t -> int64 -> bool;
  cs_refresh : float;  (* receipt refresh period (s) *)
  mutable cs_behavior : contract_behavior;
  mutable cs_seq : int;  (* per-gateway receipt sequence number *)
  cs_streams : (Flow_label.t, unit) Hashtbl.t;
      (* labels with a live receipt-refresh loop, so an epoch-refreshed
         install does not stack a second stream on the first *)
}

type counter =
  | Req_received | Req_victim_role | Req_attacker_role | Req_propagated
  | Req_duplicate | Req_policed | Req_policed_client | Req_invalid
  | Req_not_on_path | Req_no_path | Req_bad_auth | Req_to_attacker
  | Req_to_attacker_ignored | Policer_overflow | Ignored_unresponsive
  | Handshake_ok | Handshake_fail | Handshake_unverifiable
  | Handshake_retransmit | Handshake_duplicate_reply | Handshake_bogus_reply
  | Filter_temp | Filter_long | Filter_long_self | Filter_full
  | Filter_aggregated | Shadow_full | Escalated
  | Terminal_filter | Disconnect_host | Disconnect_peer | Ctrl_retransmit
  | Ctrl_gave_up | Traceback_pending | Traceback_done | Traceback_failed
  | Placement_report | Receipt_issued | Receipt_forged | Receipt_replayed
  | Contract_ignored | Contract_partial | Contract_failover | Peer_flagged
  | Flagged_skipped

let counter_name = function
  | Req_received -> "req-received"
  | Req_victim_role -> "req-victim-role"
  | Req_attacker_role -> "req-attacker-role"
  | Req_propagated -> "req-propagated"
  | Req_duplicate -> "req-duplicate"
  | Req_policed -> "req-policed"
  | Req_policed_client -> "req-policed-client"
  | Req_invalid -> "req-invalid"
  | Req_not_on_path -> "req-not-on-path"
  | Req_no_path -> "req-no-path"
  | Req_bad_auth -> "req-bad-auth"
  | Req_to_attacker -> "req-to-attacker"
  | Req_to_attacker_ignored -> "req-to-attacker-ignored"
  | Policer_overflow -> "policer-overflow"
  | Ignored_unresponsive -> "ignored-unresponsive"
  | Handshake_ok -> "handshake-ok"
  | Handshake_fail -> "handshake-fail"
  | Handshake_unverifiable -> "handshake-unverifiable"
  | Handshake_retransmit -> "handshake-retransmit"
  | Handshake_duplicate_reply -> "handshake-duplicate-reply"
  | Handshake_bogus_reply -> "handshake-bogus-reply"
  | Filter_temp -> "filter-temp"
  | Filter_long -> "filter-long"
  | Filter_long_self -> "filter-long-self"
  | Filter_full -> "filter-full"
  | Filter_aggregated -> "filter-aggregated"
  | Shadow_full -> "shadow-full"
  | Escalated -> "escalated"
  | Terminal_filter -> "terminal-filter"
  | Disconnect_host -> "disconnect-host"
  | Disconnect_peer -> "disconnect-peer"
  | Ctrl_retransmit -> "ctrl-retransmit"
  | Ctrl_gave_up -> "ctrl-gave-up"
  | Traceback_pending -> "traceback-pending"
  | Traceback_done -> "traceback-done"
  | Traceback_failed -> "traceback-failed"
  | Placement_report -> "placement-report"
  | Receipt_issued -> "receipt-issued"
  | Receipt_forged -> "receipt-forged"
  | Receipt_replayed -> "receipt-replayed"
  | Contract_ignored -> "contract-ignored"
  | Contract_partial -> "contract-partial"
  | Contract_failover -> "contract-failover"
  | Peer_flagged -> "peer-flagged"
  | Flagged_skipped -> "flagged-skipped"

let all_counters =
  [
    Req_received; Req_victim_role; Req_attacker_role; Req_propagated;
    Req_duplicate; Req_policed; Req_policed_client; Req_invalid;
    Req_not_on_path; Req_no_path; Req_bad_auth; Req_to_attacker;
    Req_to_attacker_ignored; Policer_overflow; Ignored_unresponsive;
    Handshake_ok; Handshake_fail; Handshake_unverifiable;
    Handshake_retransmit; Handshake_duplicate_reply; Handshake_bogus_reply;
    Filter_temp; Filter_long; Filter_long_self; Filter_full;
    Filter_aggregated; Shadow_full; Escalated; Terminal_filter;
    Disconnect_host; Disconnect_peer; Ctrl_retransmit; Ctrl_gave_up;
    Traceback_pending; Traceback_done; Traceback_failed; Placement_report;
    Receipt_issued; Receipt_forged; Receipt_replayed; Contract_ignored;
    Contract_partial; Contract_failover; Peer_flagged; Flagged_skipped
  ]

type t = {
  net : Network.t;
  sim : Sim.t;
  node : Node.t;
  config : Config.t;
  policy : Policy.gateway_policy;
  upstream : Addr.t option;
  placement : Placement.t option;
      (* managed handle: report evidence to a placement controller instead
         of propagating/escalating; None (or a Vanilla handle) keeps the
         propagation paths bit-identical *)
  client_cone : unit Lpm.t;
  filters : Filter_table.t;
  overload : Overload.t option;
      (* graceful-degradation manager wrapped around [filters]; None keeps
         raw-table behaviour bit-identical *)
  shadow : flow_entry Shadow_cache.t;
  handshakes : Handshake.t;
  rng : Rng.t;
  policers : (Addr.t, Token_bucket.t) Hashtbl.t;
  overflow_policer : Token_bucket.t;
      (* shared bucket for requestors beyond the tracking bound *)
  client_policers : (Addr.t, Token_bucket.t) Hashtbl.t;
  overrides : (Addr.t, float * float) Hashtbl.t;
  client_overrides : (Addr.t, float * float) Hashtbl.t;
  verifying : (Flow_label.t, unit) Hashtbl.t;
      (* flows with an in-flight 3-way handshake, to coalesce repeats *)
  mutable contracts : contract_state option;
      (* None (the default) keeps every path bit-identical to the
         pre-contract protocol: no signing, no receipts, no verification *)
  flagged : (Addr.t, unit) Hashtbl.t;
      (* peers the auditor convicted of lying; engage skips them *)
  blocklist : (Addr.t, float) Hashtbl.t;
  counters : counter Aitf_obs.Counters.t;
  ttf : Aitf_obs.Metrics.timer option;
      (* time-to-filter histogram; None when no registry was attached *)
}

let node t = t.node
let addr t = t.node.Node.addr
let config t = t.config
let policy t = t.policy
let filters t = t.filters
let overload t = t.overload

(* Every protocol-driven filter install goes through here so the overload
   manager (when configured) can apply its degradation moves; without one
   this is exactly a plain table install. *)
let filter_install ?rate_limit ?corr ?requestor t label ~duration =
  match t.overload with
  | Some mgr ->
    Overload.install ?rate_limit ?corr ?requestor mgr label ~duration
  | None -> Filter_table.install ?rate_limit ?corr t.filters label ~duration
let shadow_peak t = Shadow_cache.peak_occupancy t.shadow
let count t c = Aitf_obs.Counters.count t.counters c

(* Count a decision; given the request's correlation id, also trace it as
   a span event under the same name. *)
let bump ?corr t c = Aitf_obs.Counters.bump ?corr t.counters c

let tracked_requestors t = Hashtbl.length t.policers

let phase_name = function
  | Filtering -> "filtering"
  | Monitoring -> "monitoring"
  | Delegated -> "delegated"
  | Awaiting_path -> "awaiting-path"

let active_flows t =
  let acc = ref [] in
  Shadow_cache.iter t.shadow (fun entry ->
      let e = Shadow_cache.data entry in
      acc := (e.flow, phase_name e.phase) :: !acc);
  List.sort (fun (a, _) (b, _) -> Flow_label.compare a b) !acc

let in_cone t a = Option.is_some (Lpm.lookup t.client_cone a)

let set_contract t ~peer ~rate ~burst =
  Hashtbl.replace t.overrides peer (rate, burst);
  Hashtbl.remove t.policers peer

let set_client_contract t ~client ~rate ~burst =
  Hashtbl.replace t.client_overrides client (rate, burst);
  Hashtbl.remove t.client_policers client

(* Requestor policing: clients get the R1 contract, remote gateways the
   remote default, unless an explicit contract override exists.

   The table itself must not become a resource-exhaustion target: a forger
   rotating the requestor field could otherwise allocate one bucket per
   forgery. Beyond a bound, unknown requestors share a single overflow
   bucket — collectively policed, which is exactly what an address-spraying
   forger deserves. *)
let max_tracked_requestors = 4096

let policer_for t requestor =
  match Hashtbl.find_opt t.policers requestor with
  | Some b -> b
  | None ->
    let rate, burst =
      match Hashtbl.find_opt t.overrides requestor with
      | Some rb -> rb
      | None ->
        if in_cone t requestor then (t.config.Config.r1, t.config.Config.r1_burst)
        else (t.config.Config.remote_rate, t.config.Config.remote_burst)
    in
    if
      Hashtbl.length t.policers >= max_tracked_requestors
      && not (Hashtbl.mem t.overrides requestor)
      && not (in_cone t requestor)
    then begin
      bump t Policer_overflow;
      t.overflow_policer
    end
    else begin
      let b = Token_bucket.create ~rate ~burst in
      Hashtbl.replace t.policers requestor b;
      b
    end

(* R2 policing towards one of our clients. *)
let client_policer_for t client =
  match Hashtbl.find_opt t.client_policers client with
  | Some b -> b
  | None ->
    let rate, burst =
      match Hashtbl.find_opt t.client_overrides client with
      | Some rb -> rb
      | None -> (t.config.Config.r2, t.config.Config.r2_burst)
    in
    let b = Token_bucket.create ~rate ~burst in
    Hashtbl.replace t.client_policers client b;
    b

let send t ~dst payload =
  Network.originate t.net t.node (Message.packet ~src:(addr t) ~dst payload)

let blocklisted t a =
  match Hashtbl.find_opt t.blocklist a with
  | None -> false
  | Some expiry ->
    if Sim.now t.sim >= expiry then begin
      Hashtbl.remove t.blocklist a;
      false
    end
    else true

let disconnect_host t a =
  Hashtbl.replace t.blocklist a
    (Sim.now t.sim +. t.config.Config.disconnect_duration);
  bump t Disconnect_host

(* --- verifiable-contract layer (docs/CONTRACTS.md) ----------------------- *)

let enable_contracts ?(refresh = 5.0) t ~sign ~verify =
  if Option.is_some t.contracts then
    invalid_arg "Gateway.enable_contracts: already enabled";
  t.contracts <-
    Some
      {
        cs_sign = sign;
        cs_verify = verify;
        cs_refresh = refresh;
        cs_behavior = Honest;
        cs_seq = 0;
        cs_streams = Hashtbl.create 8;
      }

let set_contract_behavior t behavior =
  match t.contracts with
  | None -> invalid_arg "Gateway.set_contract_behavior: contracts not enabled"
  | Some cs -> cs.cs_behavior <- behavior

let flag_peer t peer =
  if not (Hashtbl.mem t.flagged peer) then begin
    Hashtbl.replace t.flagged peer ();
    bump t Peer_flagged
  end

(* Sign an outgoing request under this gateway's key; [0L] (unsigned) when
   the contract layer is off, which is every pre-contract configuration. *)
let sign_request t (req : Message.request) =
  match t.contracts with
  | None -> req
  | Some cs -> (
    match Wire.signing_bytes (Message.Filtering_request req) with
    | Ok b -> { req with Message.auth = cs.cs_sign b }
    | Error _ -> req)

let request_authentic t (req : Message.request) =
  match t.contracts with
  | None -> true
  | Some cs -> (
    match Wire.signing_bytes (Message.Filtering_request req) with
    | Ok b -> cs.cs_verify req.Message.requestor b req.Message.auth
    | Error _ -> false)

let receipt_signed cs (r : Message.receipt) =
  match Wire.signing_bytes (Message.Install_receipt r) with
  | Ok b -> { r with Message.rc_auth = cs.cs_sign b }
  | Error _ -> r

(* The receipt stream for one contracted flow: one receipt now, a refresh
   every [cs_refresh] while [live ()] holds. [mk] builds each receipt (and
   names the counter to bump), so the lying behaviours can fabricate or
   replay through the same loop. At most one stream per label
   ([cs_streams]), so a refreshed install does not stack a second one. *)
let start_receipt_stream t cs ~flow ~victim ~corr ~mk ~live =
  if not (Hashtbl.mem cs.cs_streams flow) then begin
    Hashtbl.replace cs.cs_streams flow ();
    let send_one () =
      let r, counter = mk () in
      bump ~corr t counter;
      send t ~dst:victim (Message.Install_receipt r)
    in
    send_one ();
    let rec arm () =
      ignore
        (Sim.after ~label:"gw-receipt" t.sim cs.cs_refresh (fun () ->
             if live () then begin
               send_one ();
               arm ()
             end
             else Hashtbl.remove cs.cs_streams flow))
    in
    arm ()
  end

(* --- victim's-gateway role ---------------------------------------------- *)

let install_temp t (e : flow_entry) =
  (* A re-engage supersedes the previous round's temp-filter span. *)
  Span.finish t.sim ~node:t.node.Node.name ~corr:e.corr ~stage:Span.Temp_filter;
  (match
     filter_install ~requestor:e.requestor ~corr:e.corr t e.flow
       ~duration:t.config.Config.t_tmp
   with
  | Ok h ->
    bump t Filter_temp;
    e.temp_handle <- Some h
  | Error `Table_full ->
    e.temp_handle <- None;
    if t.config.Config.aggregate_on_pressure then begin
      (* Last-ditch protection: one wildcard filter covering every source
         towards this victim, evicting the exact filters it subsumes to
         make room. Collateral damage, but the tail circuit survives. *)
      let aggregate = Flow_label.v Flow_label.Any e.flow.Flow_label.dst in
      ignore (Filter_table.evict_subsumed t.filters aggregate);
      match
        Filter_table.install t.filters aggregate
          ~duration:t.config.Config.t_tmp
      with
      | Ok h ->
        bump t Filter_aggregated;
        (* The aggregate's hits over-approximate this flow's leakage — good
           enough for the silence detector, which only asks "still leaking?". *)
        e.temp_handle <- Some h
      | Error `Table_full -> bump ~corr:e.corr t Filter_full
    end
    else bump ~corr:e.corr t Filter_full);
  if Option.is_some e.temp_handle then
    Span.start t.sim ~corr:e.corr ~stage:Span.Temp_filter ~node:t.node.Node.name;
  e.gen <- e.gen + 1;
  e.phase <- Filtering;
  let gen = e.gen in
  ignore
    (Sim.after ~label:"gw-ttmp-expiry" t.sim t.config.Config.t_tmp (fun () ->
         if e.gen = gen then begin
           Span.finish t.sim ~node:t.node.Node.name ~corr:e.corr
             ~stage:Span.Temp_filter;
           if e.phase = Filtering then e.phase <- Monitoring
         end))

let long_rate_limit t =
  match t.config.Config.filter_action with
  | Config.Block -> None
  | Config.Rate_limit r -> Some r

let install_long t (e : flow_entry) =
  match
    filter_install ?rate_limit:(long_rate_limit t) ~requestor:e.requestor
      ~corr:e.corr t e.flow ~duration:e.duration
  with
  | Ok _ ->
    bump t Filter_long;
    Span.start t.sim ~corr:e.corr ~stage:Span.Permanent_filter
      ~node:t.node.Node.name;
    (* A victim-side long filter ends the request's story even when nobody
       closer to the attacker cooperated. No-op if comply already fired. *)
    Span.complete t.sim ~corr:e.corr
  | Error `Table_full -> bump ~corr:e.corr t Filter_full

(* Last resort: nobody closer to the attacker will filter. Keep a full-T
   filter ourselves and, when enforcement is on, disconnect the peering
   that delivers the flow. *)
let terminal t (e : flow_entry) =
  bump t Terminal_filter;
  install_long t e;
  e.phase <- Delegated;
  if t.config.Config.disconnect then begin
    match e.flow.Flow_label.src with
    | Flow_label.Host a -> (
      match Lpm.lookup t.node.Node.fib a with
      | Some port when port.Node.inter_as ->
        if Network.disconnect_port t.net t.node ~peer_id:port.Node.peer_id
        then bump t Disconnect_peer
      | Some _ | None -> ())
    | Flow_label.Any | Flow_label.Net _ -> ()
  end

let entry_hits (e : flow_entry) =
  match e.temp_handle with Some h -> Filter_table.hits h | None -> 0

(* The placement handle, iff it actually takes over long-filter placement
   (Optimal/Adaptive). A Vanilla handle is inert by construction. *)
let managed_placement t =
  match t.placement with
  | Some p when Placement.managed p -> Some p
  | Some _ | None -> None

(* Hand the flow to the placement controller: the gateway keeps only its
   temporary local protection; the controller owns the long filters. *)
let delegate_to_placement t (e : flow_entry) p =
  bump t Placement_report;
  e.phase <- Delegated;
  Placement.report p
    {
      Placement.flow = e.flow;
      path = e.path;
      duration = e.duration;
      reporter = addr t;
      at = Sim.now t.sim;
    }

(* Engage round [e.round]: protect the victim with a temporary filter and
   hand the request to this round's attacker-side gateway. *)
let rec engage t (e : flow_entry) =
  (* Byzantine failover: a path entry the auditor has flagged is skipped
     outright, so the request goes straight to the next AS on the recorded
     route. The guard keeps the un-flagged (and contract-less) path
     bit-identical. *)
  if Hashtbl.length t.flagged > 0 then begin
    let rec skip () =
      match List.nth_opt e.path e.round with
      | Some gw when Hashtbl.mem t.flagged gw && not (Addr.equal gw (addr t))
        ->
        bump t Flagged_skipped;
        e.round <- e.round + 1;
        skip ()
      | Some _ | None -> ()
    in
    skip ()
  end;
  e.engaged_at <- Sim.now t.sim;
  install_temp t e;
  if e.round >= Config.max_rounds then terminal t e
  else
    match List.nth_opt e.path e.round with
    | None -> terminal t e
    | Some gw when Addr.equal gw (addr t) ->
      (* The path has climbed up to us: filter here for the full T. *)
      bump t Filter_long_self;
      install_long t e;
      e.phase <- Delegated
    | Some gw -> (
      match managed_placement t with
      | Some p -> delegate_to_placement t e p
      | None ->
      bump t Req_propagated;
      let req =
        sign_request t
          {
            Message.flow = e.flow;
            target = Message.To_attacker_gateway;
            duration = e.duration;
            path = e.path;
            hops = e.round;
            requestor = addr t;
            corr = e.corr;
            auth = 0L;
          }
      in
      send t ~dst:gw (Message.Filtering_request req);
      arm_ctrl_retry t e
        ~resend:(fun () -> send t ~dst:gw (Message.Filtering_request req))
        ~gave_up:(fun () -> escalate t e))

(* A shadow hit while monitoring: the attacker's side did not take over
   (non-cooperation or an on-off game). Re-protect and escalate. *)
and escalate t (e : flow_entry) =
  e.round <- e.round + 1;
  bump ~corr:e.corr t Escalated;
  if e.round >= Config.max_rounds then terminal t e
  else
    match managed_placement t with
    | Some p ->
      (* The flow reappeared while the controller owned it: re-protect
         locally and re-report — fresh evidence for the next epoch. *)
      install_temp t e;
      delegate_to_placement t e p
    | None -> (
    match t.upstream with
    | Some up ->
      install_temp t e;
      e.phase <- Delegated;
      let req =
        sign_request t
          {
            Message.flow = e.flow;
            target = Message.To_victim_gateway;
            duration = e.duration;
            path = e.path;
            hops = e.round;
            requestor = addr t;
            corr = e.corr;
            auth = 0L;
          }
      in
      send t ~dst:up (Message.Filtering_request req);
      arm_ctrl_retry t e
        ~resend:(fun () -> send t ~dst:up (Message.Filtering_request req))
        ~gave_up:(fun () ->
          (* The whole upstream direction is silent: nobody above us will
             help, so keep a terminal filter ourselves. *)
          terminal t e)
    | None ->
      (* Top-level gateway: play the next round ourselves. *)
      engage t e)

(* Control-plane loss tolerance (Section III under loss): after handing a
   request to a counterpart, watch this round's temporary filter. New hits
   after the transmission mean the flow is still arriving, i.e. the
   counterpart has not taken over — the request (or its effect) was lost,
   or the peer is unreachable. Resend with exponential backoff; when the
   retry budget is exhausted and the flow still leaks, treat silence like
   non-cooperation ([gave_up] escalates or goes terminal). A quiet filter
   ends the schedule: either the counterpart complied or the attack
   stopped, and in both cases there is nothing left to chase. [e.gen]
   invalidates the schedule when a newer round re-engages the flow. *)
and arm_ctrl_retry t (e : flow_entry) ~resend ~gave_up =
  if t.config.Config.ctrl_retries > 0 then begin
    let gen = e.gen in
    e.sent_hits <- entry_hits e;
    let rec arm rto attempt =
      ignore
        (Sim.after ~label:"gw-ctrl-retry" t.sim rto (fun () ->
             if e.gen = gen then begin
               let hits = entry_hits e in
               if hits > e.sent_hits then
                 if attempt <= t.config.Config.ctrl_retries then begin
                   bump ~corr:e.corr t Ctrl_retransmit;
                   e.sent_hits <- hits;
                   resend ();
                   arm (rto *. Config.ctrl_backoff) (attempt + 1)
                 end
                 else begin
                   bump ~corr:e.corr t Ctrl_gave_up;
                   gave_up ()
                 end
             end))
    in
    arm t.config.Config.ctrl_rto 1
  end

(* Byzantine failover: re-engage every flow whose current round points at
   [peer]. Called (after {!flag_peer}) at the victim's gateway once the
   auditor convicts [peer]; engage's skip-over-flagged then routes each
   request to the next AS on its recorded path. Entries already delegated
   upstream are the upstream's responsibility — its own [fail_over] covers
   them. Deterministic order by flow label. Returns the flows re-engaged. *)
let fail_over t ~peer =
  let stuck = ref [] in
  Shadow_cache.iter t.shadow (fun entry ->
      let e = Shadow_cache.data entry in
      match e.phase with
      | Filtering | Monitoring -> (
        match List.nth_opt e.path e.round with
        | Some gw when Addr.equal gw peer -> stuck := e :: !stuck
        | Some _ | None -> ())
      | Delegated | Awaiting_path -> ());
  let stuck = List.sort (fun a b -> Flow_label.compare a.flow b.flow) !stuck in
  List.iter
    (fun e ->
      bump t Contract_failover;
      engage t e)
    stuck;
  List.length stuck

let victim_role t (req : Message.request) =
  bump t Req_victim_role;
  (* The request reached a victim's gateway: the Request leg is over,
     whatever we decide to do with it. No-op on duplicates. *)
  Span.finish t.sim ~corr:req.Message.corr ~stage:Span.Request;
  let duplicate_of =
    (* A request for a flow we are already actively filtering is a
       retransmission or a duplicated packet. Recognise it before touching
       the requestor's contract: the reliability layer's retries must be
       idempotent, and an acknowledged no-op must not double-bill R1. *)
    match Shadow_cache.find t.shadow req.Message.flow with
    | Some entry as found -> (
      match (Shadow_cache.data entry).phase with
      | Filtering | Awaiting_path -> found
      | Monitoring | Delegated -> None)
    | None -> None
  in
  match duplicate_of with
  | Some entry ->
    Shadow_cache.refresh t.shadow entry ~ttl:t.config.Config.t_filter;
    bump t Req_duplicate
  | None -> (
  let bucket = policer_for t req.Message.requestor in
  if not (Token_bucket.allow bucket ~now:(Sim.now t.sim)) then
    bump ~corr:req.Message.corr t Req_policed
  else if
    (* Trivial verification via ingress filtering: the requestor and the
       flow's target must both be our customers. *)
    not
      (in_cone t req.Message.requestor
      &&
      match req.Message.flow.Flow_label.dst with
      | Flow_label.Host d -> in_cone t d
      | Flow_label.Any | Flow_label.Net _ -> false)
  then bump t Req_invalid
  else
    match Shadow_cache.find t.shadow req.Message.flow with
    | Some entry ->
      let e = Shadow_cache.data entry in
      Shadow_cache.refresh t.shadow entry ~ttl:t.config.Config.t_filter;
      e.round <- Int.max e.round req.Message.hops;
      if req.Message.path <> [] && List.length req.Message.path > List.length e.path
      then e.path <- req.Message.path;
      engage t e
    | None -> (
      let e =
        {
          flow = req.Message.flow;
          path = req.Message.path;
          round = req.Message.hops;
          phase = Filtering;
          gen = 0;
          duration = req.Message.duration;
          engaged_at = Sim.now t.sim;
          temp_handle = None;
          sent_hits = 0;
          requestor = req.Message.requestor;
          corr = req.Message.corr;
        }
      in
      match
        Shadow_cache.insert t.shadow req.Message.flow
          ~ttl:t.config.Config.t_filter e
      with
      | Error `Full -> bump t Shadow_full
      | Ok _ -> (
        match (req.Message.path, t.config.Config.traceback) with
        | [], Config.Spie_query _ ->
          bump t Traceback_pending;
          install_temp t e;
          e.phase <- Awaiting_path
        | [], Config.Path_in_request ->
          (* Nothing to propagate to; protect locally only. *)
          bump t Req_no_path;
          install_temp t e
        | _ :: _, _ -> engage t e)))

(* --- attacker's-gateway role -------------------------------------------- *)

(* The genuine compliance path. [leak] overrides the configured filter
   action with a Partial_policing rate limit; [receipts] starts the install-
   receipt stream owed under a verifiable contract. *)
let comply_install ?leak ?receipts t ~received_at (req : Message.request) =
  let rate_limit =
    match leak with Some l -> Some l | None -> long_rate_limit t
  in
  match
    filter_install ?rate_limit ~corr:req.Message.corr
      ~requestor:req.Message.requestor t req.Message.flow
      ~duration:req.Message.duration
  with
  | Error `Table_full ->
    (* Out of filters: we cannot honor the request; escalation will route
       around us. *)
    bump ~corr:req.Message.corr t Filter_full;
    Span.finish t.sim ~node:t.node.Node.name ~corr:req.Message.corr
      ~stage:Span.Verification
  | Ok handle ->
    bump t Filter_long;
    let now = Sim.now t.sim in
    (match t.ttf with
    | Some tm -> Aitf_obs.Metrics.observe tm (now -. received_at)
    | None -> ());
    (* The Verification span runs receipt -> install, so its duration is
       by construction the time-to-filter observation above. *)
    Span.finish t.sim ~node:t.node.Node.name ~corr:req.Message.corr
      ~stage:Span.Verification;
    Span.start t.sim ~corr:req.Message.corr ~stage:Span.Permanent_filter
      ~node:t.node.Node.name;
    Span.complete t.sim ~corr:req.Message.corr;
    (match (receipts, req.Message.flow.Flow_label.dst) with
    | Some cs, Flow_label.Host victim ->
      let flow = req.Message.flow in
      start_receipt_stream t cs ~flow ~victim ~corr:req.Message.corr
        ~live:(fun () -> Filter_table.live handle)
        ~mk:(fun () ->
          cs.cs_seq <- cs.cs_seq + 1;
          ( receipt_signed cs
              {
                Message.rc_flow = flow;
                rc_gateway = addr t;
                rc_victim = victim;
                rc_seq = cs.cs_seq;
                rc_installed_at = Filter_table.installed_at handle;
                rc_expires_at = Filter_table.expires_at handle;
                rc_hits = Filter_table.hits handle;
                rc_auth = 0L;
              },
            Receipt_issued ))
    | _ -> ());
    (match req.Message.flow.Flow_label.src with
    | Flow_label.Host client when in_cone t client ->
      let bucket = client_policer_for t client in
      if Token_bucket.allow bucket ~now:(Sim.now t.sim) then begin
        bump t Req_to_attacker;
        Span.start t.sim ~corr:req.Message.corr ~stage:Span.Counter_request
          ~node:t.node.Node.name;
        send t ~dst:client
          (Message.Filtering_request
             (sign_request t
                {
                  req with
                  Message.target = Message.To_attacker;
                  requestor = addr t;
                  auth = 0L;
                }))
      end
      else bump ~corr:req.Message.corr t Req_policed_client;
      (* Compliance monitoring: a client still hitting the filter after the
         grace period gets disconnected. *)
      if t.config.Config.disconnect then begin
        let grace = t.config.Config.grace in
        ignore
          (Sim.after ~label:"gw-grace" t.sim grace (fun () ->
               let hits_at_grace = Filter_table.hits handle in
               ignore
                 (Sim.after ~label:"gw-grace" t.sim grace (fun () ->
                      if
                        Filter_table.live handle
                        && Filter_table.hits handle > hits_at_grace
                        && not (blocklisted t client)
                      then disconnect_host t client))))
      end
    | Flow_label.Host _ | Flow_label.Any | Flow_label.Net _ -> ())

(* The Lying_filter_node behaviours: the handshake has already succeeded,
   so from here the gateway controls what (if anything) really happens. *)
let comply_byzantine t cs ~received_at (req : Message.request) =
  let finish_span () =
    Span.finish t.sim ~node:t.node.Node.name ~corr:req.Message.corr
      ~stage:Span.Verification
  in
  match cs.cs_behavior with
  | Honest | Partial_policing _ -> assert false (* dispatched in [comply] *)
  | Accept_ignore ->
    (* Accept-then-ignore: the requestor moved on believing we took over,
       nothing was installed, and no receipt will ever arrive. Silence is
       the tell the auditor keys on. *)
    bump t Contract_ignored;
    finish_span ()
  | Forge_receipts -> (
    bump t Contract_ignored;
    finish_span ();
    match req.Message.flow.Flow_label.dst with
    | Flow_label.Any | Flow_label.Net _ -> ()
    | Flow_label.Host victim ->
      (* Fabricated receipts: correct shape and schedule, but the digest is
         produced without this gateway's key material, so signature
         verification fails at the auditor. *)
      let flow = req.Message.flow in
      let now = Sim.now t.sim in
      let until = now +. req.Message.duration in
      start_receipt_stream t cs ~flow ~victim ~corr:req.Message.corr
        ~live:(fun () -> Sim.now t.sim < until)
        ~mk:(fun () ->
          cs.cs_seq <- cs.cs_seq + 1;
          let r =
            receipt_signed cs
              {
                Message.rc_flow = flow;
                rc_gateway = addr t;
                rc_victim = victim;
                rc_seq = cs.cs_seq;
                rc_installed_at = now;
                rc_expires_at = until;
                rc_hits = 0;
                rc_auth = 0L;
              }
          in
          ( { r with Message.rc_auth = Int64.lognot r.Message.rc_auth },
            Receipt_forged )))
  | Replay_receipts -> (
    (* Install just long enough for the first receipt to be genuine, then
       replay that exact receipt — stale sequence number and all — at every
       refresh while the filter itself has long lapsed. *)
    match req.Message.flow.Flow_label.dst with
    | Flow_label.Any | Flow_label.Net _ ->
      bump t Contract_ignored;
      finish_span ()
    | Flow_label.Host victim -> (
      let flow = req.Message.flow in
      let short = Float.min cs.cs_refresh req.Message.duration in
      match
        filter_install ~corr:req.Message.corr
          ~requestor:req.Message.requestor t flow ~duration:short
      with
      | Error `Table_full ->
        bump t Filter_full;
        finish_span ()
      | Ok handle ->
        bump t Filter_long;
        (match t.ttf with
        | Some tm ->
          Aitf_obs.Metrics.observe tm (Sim.now t.sim -. received_at)
        | None -> ());
        finish_span ();
        let until = Sim.now t.sim +. req.Message.duration in
        cs.cs_seq <- cs.cs_seq + 1;
        let first =
          receipt_signed cs
            {
              Message.rc_flow = flow;
              rc_gateway = addr t;
              rc_victim = victim;
              rc_seq = cs.cs_seq;
              rc_installed_at = Filter_table.installed_at handle;
              (* the lie: claims the full T *)
              rc_expires_at = until;
              rc_hits = 0;
              rc_auth = 0L;
            }
        in
        let sent = ref false in
        start_receipt_stream t cs ~flow ~victim ~corr:req.Message.corr
          ~live:(fun () -> Sim.now t.sim < until)
          ~mk:(fun () ->
            let counter = if !sent then Receipt_replayed else Receipt_issued in
            sent := true;
            (first, counter))))

let comply t ~received_at (req : Message.request) =
  match t.contracts with
  | None -> comply_install t ~received_at req
  | Some cs -> (
    match cs.cs_behavior with
    | Honest -> comply_install ~receipts:cs t ~received_at req
    | Partial_policing leak ->
      (* Installs a rate-limited filter but issues receipts claiming full
         policing; caught by the auditor's arrival evidence. *)
      bump t Contract_partial;
      comply_install ~leak ~receipts:cs t ~received_at req
    | Accept_ignore | Forge_receipts | Replay_receipts ->
      comply_byzantine t cs ~received_at req)

let attacker_role t (req : Message.request) =
  bump t Req_attacker_role;
  let received_at = Sim.now t.sim in
  if Option.is_some (Filter_table.find t.filters req.Message.flow) then begin
    (* Already blocking this flow; just refresh. Classified before the
       policer so that a retransmitted request is a free no-op — the
       reliability layer must not double-bill the requestor's contract. The
       refresh re-states the configured action so a rate-limited filter
       keeps its limit across cycles. *)
    ignore
      (Filter_table.install ?rate_limit:(long_rate_limit t) t.filters
         req.Message.flow ~duration:req.Message.duration);
    bump t Req_duplicate
  end
  else if Hashtbl.mem t.verifying req.Message.flow then
    (* A handshake for this flow is already in flight; the duplicate
       neither starts a second one nor costs the requestor anything. *)
    bump t Req_duplicate
  else
    let bucket = policer_for t req.Message.requestor in
  if not (Token_bucket.allow bucket ~now:(Sim.now t.sim)) then
    bump ~corr:req.Message.corr t Req_policed
  else if t.policy = Policy.Unresponsive then
    bump t Ignored_unresponsive
  else if
    not
      (List.exists (Addr.equal (addr t)) req.Message.path
      ||
      match req.Message.flow.Flow_label.src with
      | Flow_label.Host a -> in_cone t a
      | Flow_label.Any | Flow_label.Net _ -> false)
  then bump t Req_not_on_path
  else if not t.config.Config.handshake then begin
    Span.start t.sim ~corr:req.Message.corr ~stage:Span.Verification
      ~node:t.node.Node.name;
    comply t ~received_at req
  end
  else
    match req.Message.flow.Flow_label.dst with
    | Flow_label.Host victim ->
      Hashtbl.replace t.verifying req.Message.flow ();
      Span.start t.sim ~corr:req.Message.corr ~stage:Span.Verification
        ~node:t.node.Node.name;
      let first_tx = ref true in
      ignore
        (Handshake.start t.handshakes ~flow:req.Message.flow
           ~send:(fun nonce ->
             if !first_tx then begin
               first_tx := false;
               Span.bind_nonce t.sim ~corr:req.Message.corr ~nonce
             end
             else bump ~corr:req.Message.corr t Handshake_retransmit;
             send t ~dst:victim
               (Message.Verification_query { flow = req.Message.flow; nonce }))
           ~on_result:(fun ok ->
             Hashtbl.remove t.verifying req.Message.flow;
             if ok then begin
               bump t Handshake_ok;
               comply t ~received_at req
             end
             else begin
               bump ~corr:req.Message.corr t Handshake_fail;
               Span.finish t.sim ~node:t.node.Node.name ~corr:req.Message.corr
                 ~stage:Span.Verification
             end))
    | Flow_label.Any | Flow_label.Net _ ->
      (* No single victim to query; treat as unverifiable. *)
      bump t Handshake_unverifiable

(* --- message dispatch & forwarding hook --------------------------------- *)

let on_request t (req : Message.request) =
  bump t Req_received;
  if not (request_authentic t req) then
    (* With contracts on, an unsigned or tampered request is dropped before
       it can spend anyone's R1 budget or install anything. *)
    bump ~corr:req.Message.corr t Req_bad_auth
  else
    match req.Message.target with
  | Message.To_victim_gateway -> victim_role t req
  | Message.To_attacker_gateway -> attacker_role t req
  | Message.To_attacker ->
    (* Gateways are not traffic sources; nothing to stop. *)
    bump t Req_to_attacker_ignored

(* SPIE capture: the first packet blocked (or shadow-matched) for a flow
   whose path we still owe is the traceback specimen. *)
let capture_for_traceback t (pkt : Packet.t) =
  match t.config.Config.traceback with
  | Config.Path_in_request -> ()
  | Config.Spie_query spie -> (
    match Shadow_cache.match_packet t.shadow pkt with
    | Some entry when (Shadow_cache.data entry).phase = Awaiting_path ->
      let e = Shadow_cache.data entry in
      e.phase <- Filtering;
      let path, latency = Spie.reconstruct spie ~from:t.node pkt in
      ignore
        (Sim.after ~label:"gw-traceback" t.sim latency (fun () ->
             if path = [] then bump t Traceback_failed
             else begin
               bump t Traceback_done;
               e.path <- path;
               engage t e
             end))
    | Some _ | None -> ())

let hook t (_node : Node.t) (pkt : Packet.t) =
  if blocklisted t pkt.src then Node.Drop Aitf_obs.Ledger.Aitf_disconnected
  else
    match Filter_table.blocking_entry t.filters pkt with
    | Some h ->
      (match t.overload with
      | Some mgr -> Overload.note_blocked mgr h pkt
      | None -> ());
      capture_for_traceback t pkt;
      Node.Drop Aitf_obs.Ledger.Aitf_filter
    | None -> begin
    (match Shadow_cache.match_packet t.shadow pkt with
    | Some entry -> (
      let e = Shadow_cache.data entry in
      match e.phase with
      | Monitoring ->
        if Sim.now t.sim >= e.engaged_at +. e.duration then
          (* The blocking interval T has legitimately elapsed; this is a new
             attack cycle. It must cost the victim a fresh request (that is
             the R1·T accounting), not be mistaken for non-cooperation. *)
          Shadow_cache.remove t.shadow entry
        else begin
          Shadow_cache.refresh t.shadow entry ~ttl:t.config.Config.t_filter;
          escalate t e
        end
      | Awaiting_path -> capture_for_traceback t pkt
      | Filtering | Delegated -> ())
    | None -> ());
    Packet.record_route pkt t.node.Node.addr;
    Node.Continue
  end

let deliver t prev (node : Node.t) (pkt : Packet.t) =
  match pkt.payload with
  | Message.Filtering_request req -> on_request t req
  | Message.Verification_reply { flow; nonce } ->
    (match Handshake.handle_reply t.handshakes ~flow ~nonce with
    | Handshake.Verified -> ()
    | Handshake.Duplicate -> bump t Handshake_duplicate_reply
    | Handshake.Bogus -> bump t Handshake_bogus_reply)
  | Message.Verification_query { flow; nonce } ->
    (* Only meaningful if the "victim" of an escalated round is this
       gateway itself; confirm iff we logged the request. *)
    if Option.is_some (Shadow_cache.find t.shadow flow) then
      send t ~dst:pkt.src (Message.Verification_reply { flow; nonce })
  | _ -> prev node pkt

let create ?(policy = Policy.Cooperative) ?upstream ?placement ~clients
    ~config ~rng net node =
  let sim = Network.sim_for net node in
  let cone = Lpm.create () in
  List.iter (fun p -> Lpm.insert cone p ()) clients;
  let prefix = "gateway." ^ node.Node.name in
  let ttf =
    Aitf_obs.Metrics.timer_if_attached sim
      (prefix ^ ".time_to_filter")
      ~unit_:"s"
      ~help:
        "Request receipt at this (attacker-side) gateway to long-filter \
         install; includes the handshake round-trip"
  in
  let filters =
    Filter_table.create sim ~capacity:config.Config.filter_capacity
  in
  let overload =
    if config.Config.overload_manager then
      Some
        (Overload.create
           ~policy:
             {
               Overload.default_policy with
               low_watermark = config.Config.overload_low;
             }
           sim filters)
    else None
  in
  let t =
    {
      net;
      sim;
      node;
      config;
      policy;
      upstream;
      placement;
      client_cone = cone;
      filters;
      overload;
      shadow = Shadow_cache.create sim ~capacity:Config.shadow_capacity;
      handshakes =
        Handshake.create ~retries:config.Config.ctrl_retries sim rng
          ~timeout:config.Config.handshake_timeout;
      rng;
      policers = Hashtbl.create 16;
      overflow_policer =
        Token_bucket.create ~rate:config.Config.remote_rate
          ~burst:config.Config.remote_burst;
      client_policers = Hashtbl.create 16;
      overrides = Hashtbl.create 8;
      client_overrides = Hashtbl.create 8;
      verifying = Hashtbl.create 8;
      contracts = None;
      flagged = Hashtbl.create 4;
      blocklist = Hashtbl.create 8;
      counters =
        Aitf_obs.Counters.create ~node:node.Node.name ~prefix
          ~name:counter_name ~all:all_counters sim;
      ttf;
    }
  in
  (* Close Permanent_filter spans when the filter actually leaves the table
     (explicit removal, expiry, or eviction). Subscribing to the table keeps
     this engine-agnostic: the hybrid engine's fluid mirror watches the same
     seam, so both engines close the same spans. Only when a collector is
     attached at build time, so untraced runs pay nothing. *)
  if Span.enabled sim then
    Filter_table.subscribe filters (fun change ->
        match change with
        | Filter_table.Removed h -> (
          match Filter_table.corr h with
          | Some corr ->
            Span.finish sim ~node:node.Node.name ~corr
              ~stage:Span.Permanent_filter
          | None -> ())
        | Filter_table.Installed _ | Filter_table.Refreshed _ -> ());
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      let open Aitf_obs.Metrics in
      let p metric = prefix ^ "." ^ metric in
      Filter_table.register_metrics t.filters reg ~prefix:(p "filters");
      (match t.overload with
      | Some mgr -> Overload.register_metrics mgr reg ~prefix:(p "overload")
      | None -> ());
      Shadow_cache.register_metrics t.shadow reg ~prefix:(p "shadow");
      register_gauge reg (p "tracked_requestors") ~unit_:"requestors"
        ~help:"Requestors with a dedicated policer bucket" (fun () ->
          float_of_int (tracked_requestors t)));
  Node.add_hook node (hook t);
  let prev = node.Node.local_deliver in
  node.Node.local_deliver <- deliver t prev;
  t
