module Sim = Aitf_engine.Sim
open Aitf_net
open Aitf_filter

type t = {
  sim : Sim.t;
  filters : Filter_table.t;
  filter_duration : float;
  response_time : float;
  seen : (Flow_label.t, unit) Hashtbl.t;
  mutable installed : int;
  mutable pending : int;
}

let deploy ?(filter_capacity = 1000) ?(filter_duration = 1e9) ~response_time
    ~gateway ~victim net =
  let sim = Network.sim net in
  let t =
    {
      sim;
      filters = Filter_table.create sim ~capacity:filter_capacity;
      filter_duration;
      response_time;
      seen = Hashtbl.create 64;
      installed = 0;
      pending = 0;
    }
  in
  Node.add_hook gateway (fun _ pkt ->
      if Filter_table.blocks t.filters pkt then
        Node.Drop Aitf_obs.Ledger.Manual_filter
      else Node.Continue);
  let prev = victim.Node.local_deliver in
  victim.Node.local_deliver <-
    (fun node (pkt : Packet.t) ->
      (match pkt.Packet.payload with
      | Packet.Data { attack = true; _ } ->
        let label = Flow_label.host_pair pkt.Packet.src pkt.Packet.dst in
        if not (Hashtbl.mem t.seen label) then begin
          Hashtbl.replace t.seen label ();
          t.pending <- t.pending + 1;
          (* The operator gets to it eventually. *)
          ignore
            (Sim.after sim t.response_time (fun () ->
                 t.pending <- t.pending - 1;
                 match
                   Filter_table.install t.filters label
                     ~duration:t.filter_duration
                 with
                 | Ok _ -> t.installed <- t.installed + 1
                 | Error `Table_full -> ()))
        end
      | _ -> ());
      prev node pkt);
  t

let filters t = t.filters
let flows_seen t = Hashtbl.length t.seen
let filters_installed t = t.installed
let pending t = t.pending
