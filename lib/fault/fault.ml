module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Ledger = Aitf_obs.Ledger
open Aitf_net

type model =
  | Loss of float
  | Burst_loss of {
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }
  | Jitter of { max_jitter : float }
  | Duplicate of float

let burst ?(loss_good = 0.) ?(loss_bad = 1.) ~p_enter ~p_exit () =
  if p_enter < 0. || p_enter > 1. || p_exit < 0. || p_exit > 1. then
    invalid_arg "Fault.burst: transition probabilities must be in [0,1]";
  Burst_loss { p_enter; p_exit; loss_good; loss_bad }

let ctrl_only = Packet.is_control

type t = {
  sim : Sim.t;
  rng : Rng.t;
  link : Link.t;
  models : model list;
  only : Packet.t -> bool;
  mutable bad_state : bool;
  mutable drops_injected : int;
  mutable dups_injected : int;
  mutable delayed : int;
}

let validate = function
  | Loss p | Duplicate p ->
    if p < 0. || p > 1. then
      invalid_arg "Fault.inject: probability must be in [0,1]"
  | Burst_loss { p_enter; p_exit; loss_good; loss_bad } ->
    if
      List.exists
        (fun p -> p < 0. || p > 1.)
        [ p_enter; p_exit; loss_good; loss_bad ]
    then invalid_arg "Fault.inject: probability must be in [0,1]"
  | Jitter { max_jitter } ->
    if max_jitter < 0. then invalid_arg "Fault.inject: negative jitter"

type verdict = Dropped | Deliver of { extra_delay : float; copies : int }

(* One verdict per packet. Every model consumes randomness in declaration
   order, and the burst channel advances exactly once per packet, so a run
   is a deterministic function of the seed. *)
let decide t =
  let rec go models extra_delay copies =
    match models with
    | [] -> Deliver { extra_delay; copies }
    | Loss p :: rest ->
      if Rng.bernoulli t.rng ~p then Dropped else go rest extra_delay copies
    | Burst_loss { p_enter; p_exit; loss_good; loss_bad } :: rest ->
      t.bad_state <-
        (if t.bad_state then not (Rng.bernoulli t.rng ~p:p_exit)
         else Rng.bernoulli t.rng ~p:p_enter);
      let p = if t.bad_state then loss_bad else loss_good in
      if Rng.bernoulli t.rng ~p then Dropped else go rest extra_delay copies
    | Jitter { max_jitter } :: rest ->
      let d = if max_jitter > 0. then Rng.float t.rng max_jitter else 0. in
      go rest (extra_delay +. d) copies
    | Duplicate p :: rest ->
      go rest extra_delay (if Rng.bernoulli t.rng ~p then copies + 1 else copies)
  in
  go t.models 0. 1

(* A dropped control message is exactly the moment a span tree goes quiet;
   annotate the right request so the trace explains the retransmission that
   follows. Requests carry their correlation id; handshake messages only
   carry the nonce, resolved through the binding the gateway registered. *)
let note_ctrl_drop t (pkt : Packet.t) =
  let module Message = Aitf_core.Message in
  match pkt.Packet.payload with
  | Message.Filtering_request req when req.Message.corr <> 0 ->
    Aitf_obs.Span.event t.sim ~corr:req.Message.corr "fault-dropped-request"
  | Message.Verification_query { nonce; _ } ->
    Aitf_obs.Span.event_by_nonce t.sim ~nonce "fault-dropped-query"
  | Message.Verification_reply { nonce; _ } ->
    Aitf_obs.Span.event_by_nonce t.sim ~nonce "fault-dropped-reply"
  | _ -> ()

(* In the ledger the packet is in flight from its link until a node takes
   it: a drop here lands it, each extra copy departs anew. *)
let process t next (pkt : Packet.t) =
  let ledger = Ledger.of_sim t.sim and cls = Packet.cls pkt in
  match decide t with
  | Dropped ->
    t.drops_injected <- t.drops_injected + 1;
    Ledger.arrive ledger cls pkt.size;
    Ledger.post ledger cls Ledger.Fault_loss pkt.size;
    if Aitf_obs.Span.enabled t.sim then note_ctrl_drop t pkt
  | Deliver { extra_delay; copies } ->
    if copies > 1 then t.dups_injected <- t.dups_injected + (copies - 1);
    for _ = 2 to copies do
      Ledger.post ledger cls Ledger.Fault_duplicate pkt.size;
      Ledger.depart ledger cls pkt.size
    done;
    if extra_delay > 0. then begin
      t.delayed <- t.delayed + 1;
      for _ = 1 to copies do
        ignore (Sim.after t.sim extra_delay (fun () -> next pkt))
      done
    end
    else
      for _ = 1 to copies do
        next pkt
      done

let inject ?(only = fun _ -> true) ~rng sim link models =
  List.iter validate models;
  let t =
    {
      sim;
      rng;
      link;
      models;
      only;
      bad_state = false;
      drops_injected = 0;
      dups_injected = 0;
      delayed = 0;
    }
  in
  Link.wrap_deliver link (fun next pkt ->
      if t.only pkt then process t next pkt else next pkt);
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      let open Aitf_obs.Metrics in
      let p metric =
        Printf.sprintf "fault.%s.%s" (Link.name link) metric
      in
      register_counter reg (p "drops_injected") ~unit_:"packets"
        ~help:"Packets discarded by the injected fault models" (fun () ->
          float_of_int t.drops_injected);
      register_counter reg (p "dups_injected") ~unit_:"packets"
        ~help:"Extra packet copies created by the duplication model" (fun () ->
          float_of_int t.dups_injected);
      register_counter reg (p "delayed") ~unit_:"packets"
        ~help:"Packets whose delivery the jitter model postponed" (fun () ->
          float_of_int t.delayed));
  t

let link t = t.link
let drops_injected t = t.drops_injected
let dups_injected t = t.dups_injected
let delayed t = t.delayed
let in_bad_state t = t.bad_state

(* --- Scheduled link flaps ------------------------------------------------- *)

type flapper = {
  f_sim : Sim.t;
  f_links : Link.t list;
  period : float;
  down_for : float;
  mutable flaps : int;
  mutable stopped : bool;
}

let rec flap_cycle f at =
  ignore
    (Sim.at f.f_sim at (fun () ->
         if not f.stopped then begin
           f.flaps <- f.flaps + 1;
           List.iter (fun l -> Link.set_up l false) f.f_links;
           ignore
             (Sim.after f.f_sim f.down_for (fun () ->
                  if not f.stopped then
                    List.iter (fun l -> Link.set_up l true) f.f_links));
           flap_cycle f (at +. f.period)
         end))

let flap ?(start = 0.) sim links ~period ~down_for =
  if period <= down_for then
    invalid_arg "Fault.flap: period must exceed down_for";
  let f =
    { f_sim = sim; f_links = links; period; down_for; flaps = 0; stopped = false }
  in
  flap_cycle f (Float.max start (Sim.now sim));
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      match links with
      | first :: _ ->
        Aitf_obs.Metrics.register_counter reg
          (Printf.sprintf "fault.%s.flaps" (Link.name first))
          ~unit_:"flaps" ~help:"Scheduled link-down episodes begun" (fun () ->
            float_of_int f.flaps)
      | [] -> ());
  f

let stop_flapping f =
  f.stopped <- true;
  List.iter (fun l -> Link.set_up l true) f.f_links

let flaps f = f.flaps
