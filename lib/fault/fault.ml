module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Ledger = Aitf_obs.Ledger
module Counters = Aitf_obs.Counters
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

type counter =
  | Dropped_request | Dropped_query | Dropped_reply | Dropped_other
  | Duplicated | Delayed | Flap

let counter_name = function
  | Dropped_request -> "fault-dropped-request"
  | Dropped_query -> "fault-dropped-query"
  | Dropped_reply -> "fault-dropped-reply"
  | Dropped_other -> "fault-dropped-other"
  | Duplicated -> "fault-duplicated"
  | Delayed -> "fault-delayed"
  | Flap -> "fault-flap"

let dropped = [ Dropped_request; Dropped_query; Dropped_reply; Dropped_other ]

type t = {
  sim : Sim.t;
  rng : Rng.t;
  models : model list;
  only : Packet.t -> bool;
  mutable bad_state : bool;
  counters : counter Counters.t;
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
let count_drop t (pkt : Packet.t) =
  let module Message = Aitf_core.Message in
  match pkt.Packet.payload with
  | Message.Filtering_request req when req.Message.corr <> 0 ->
    Counters.bump ~corr:req.Message.corr t.counters Dropped_request
  | Message.Filtering_request _ -> Counters.bump t.counters Dropped_request
  | Message.Verification_query { nonce; _ } ->
    Counters.bump_nonce t.counters ~nonce Dropped_query
  | Message.Verification_reply { nonce; _ } ->
    Counters.bump_nonce t.counters ~nonce Dropped_reply
  | _ -> Counters.bump t.counters Dropped_other

(* In the ledger the packet is in flight from its link until a node takes
   it: a drop here lands it, each extra copy departs anew. *)
let process t next (pkt : Packet.t) =
  let ledger = Ledger.of_sim t.sim and cls = Packet.cls pkt in
  match decide t with
  | Dropped ->
    Ledger.arrive ledger cls pkt.size;
    Ledger.post ledger cls Ledger.Fault_loss pkt.size;
    count_drop t pkt
  | Deliver { extra_delay; copies } ->
    for _ = 2 to copies do
      Counters.bump t.counters Duplicated;
      Ledger.post ledger cls Ledger.Fault_duplicate pkt.size;
      Ledger.depart ledger cls pkt.size
    done;
    if extra_delay > 0. then begin
      Counters.bump t.counters Delayed;
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
  let all = dropped @ [ Duplicated; Delayed ] in
  let prefix = "fault." ^ Link.name link in
  let counters = Counters.create ~prefix ~name:counter_name ~all sim in
  let t = { sim; rng; models; only; bad_state = false; counters } in
  Link.wrap_deliver link (fun next pkt ->
      if t.only pkt then process t next pkt else next pkt);
  t

let count t c = Counters.count t.counters c
let counters t = t.counters
let drops t = Counters.sum t.counters dropped
let in_bad_state t = t.bad_state

(* --- Scheduled link flaps ------------------------------------------------- *)

type flapper = {
  f_sim : Sim.t;
  f_links : Link.t list;
  period : float;
  down_for : float;
  flaps : counter Counters.t;
  mutable stopped : bool;
}

let rec flap_cycle f at =
  ignore
    (Sim.at f.f_sim at (fun () ->
         if not f.stopped then begin
           Counters.bump f.flaps Flap;
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
  let prefix =
    match links with first :: _ -> Some ("fault." ^ Link.name first) | [] -> None
  in
  let flaps = Counters.create ?prefix ~name:counter_name ~all:[ Flap ] sim in
  let f =
    { f_sim = sim; f_links = links; period; down_for; flaps; stopped = false }
  in
  flap_cycle f (Float.max start (Sim.now sim));
  f

let stop_flapping f =
  f.stopped <- true;
  List.iter (fun l -> Link.set_up l true) f.f_links

let flapper_count f c = Counters.count f.flaps c
