module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_filter

type pending = {
  flow : Flow_label.t;
  on_result : bool -> unit;
  send : int64 -> unit;
  mutable attempts : int;  (* transmissions so far, including the first *)
  mutable timeout_event : Sim.handle option;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  timeout : float;
  retries : int;
  table : (int64, pending) Hashtbl.t;
  completed : (int64, Flow_label.t) Hashtbl.t;
      (* verified nonces, kept so a replayed reply is recognised as a
         duplicate (a no-op) rather than a forgery *)
}

type reply = Verified | Duplicate | Bogus

let create ?(retries = 0) sim rng ~timeout =
  if retries < 0 then invalid_arg "Handshake.create: negative retries";
  {
    sim;
    rng;
    timeout;
    retries;
    table = Hashtbl.create 32;
    completed = Hashtbl.create 32;
  }

let rec fresh_nonce t =
  let n = Rng.nonce t.rng in
  if Hashtbl.mem t.table n || Hashtbl.mem t.completed n then fresh_nonce t
  else n

(* Arm the timeout for the current attempt. On expiry: retransmit with the
   backed-off timeout while the retry budget lasts, then fail exactly once. *)
let rec arm t nonce (p : pending) rto =
  p.timeout_event <-
    Some
      (Sim.after ~label:"handshake-rto" t.sim rto (fun () ->
           if Hashtbl.mem t.table nonce then begin
             if p.attempts - 1 < t.retries then begin
               p.attempts <- p.attempts + 1;
               p.send nonce;
               arm t nonce p (rto *. Config.ctrl_backoff)
             end
             else begin
               Hashtbl.remove t.table nonce;
               p.on_result false
             end
           end))

let start t ~flow ~send ~on_result =
  let nonce = fresh_nonce t in
  let p = { flow; on_result; send; attempts = 1; timeout_event = None } in
  Hashtbl.replace t.table nonce p;
  send nonce;
  arm t nonce p t.timeout;
  nonce

let handle_reply t ~flow ~nonce =
  match Hashtbl.find_opt t.table nonce with
  | Some p when Flow_label.equal p.flow flow ->
    Hashtbl.remove t.table nonce;
    Option.iter Sim.cancel p.timeout_event;
    Hashtbl.replace t.completed nonce p.flow;
    p.on_result true;
    Verified
  | Some _ -> Bogus
  | None -> (
    match Hashtbl.find_opt t.completed nonce with
    | Some f when Flow_label.equal f flow ->
      (* Replay of an already-verified reply (retransmitted query answered
         twice, or a duplicated packet): a no-op by design. *)
      Duplicate
    | Some _ | None -> Bogus)

let pending t = Hashtbl.length t.table
