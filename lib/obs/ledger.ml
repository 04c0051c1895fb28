module Sim = Aitf_engine.Sim

type cls = Attack | Legit | Control

type fate =
  | Delivered
  | In_flight
  | Gated
  | Fault_loss
  | Fault_duplicate
  | Rate_limited
  | Queue_overflow
  | Red_early_drop
  | Link_down
  | Fluid_loss
  | No_route
  | Ttl_expired
  | Aitf_filter
  | Aitf_disconnected
  | Ingress_spoof
  | Egress_spoof
  | Legacy_proxy_query
  | Pool_absorb
  | Manual_filter
  | Pushback_limit
  | Dpf_spoof

let classes = [ Attack; Legit; Control ]

let fates =
  [
    Delivered;
    In_flight;
    Gated;
    Fault_loss;
    Fault_duplicate;
    Rate_limited;
    Queue_overflow;
    Red_early_drop;
    Link_down;
    Fluid_loss;
    No_route;
    Ttl_expired;
    Aitf_filter;
    Aitf_disconnected;
    Ingress_spoof;
    Egress_spoof;
    Legacy_proxy_query;
    Pool_absorb;
    Manual_filter;
    Pushback_limit;
    Dpf_spoof;
  ]

let n_fates = List.length fates

let fate_index = function
  | Delivered -> 0
  | In_flight -> 1
  | Gated -> 2
  | Fault_loss -> 3
  | Fault_duplicate -> 4
  | Rate_limited -> 5
  | Queue_overflow -> 6
  | Red_early_drop -> 7
  | Link_down -> 8
  | Fluid_loss -> 9
  | No_route -> 10
  | Ttl_expired -> 11
  | Aitf_filter -> 12
  | Aitf_disconnected -> 13
  | Ingress_spoof -> 14
  | Egress_spoof -> 15
  | Legacy_proxy_query -> 16
  | Pool_absorb -> 17
  | Manual_filter -> 18
  | Pushback_limit -> 19
  | Dpf_spoof -> 20

let fate_name = function
  | Delivered -> "delivered"
  | In_flight -> "in-flight"
  | Gated -> "gated"
  | Fault_loss -> "fault-loss"
  | Fault_duplicate -> "fault-duplicate"
  | Rate_limited -> "rate-limited"
  | Queue_overflow -> "queue-overflow"
  | Red_early_drop -> "red-early-drop"
  | Link_down -> "link-down"
  | Fluid_loss -> "fluid-loss"
  | No_route -> "no-route"
  | Ttl_expired -> "ttl-expired"
  | Aitf_filter -> "aitf-filter"
  | Aitf_disconnected -> "aitf-disconnected"
  | Ingress_spoof -> "ingress-spoof"
  | Egress_spoof -> "egress-spoof"
  | Legacy_proxy_query -> "legacy-proxy-query"
  | Pool_absorb -> "fluid-pool-absorb"
  | Manual_filter -> "manual-filter"
  | Pushback_limit -> "pushback-limit"
  | Dpf_spoof -> "dpf-spoof"

let cls_index = function Attack -> 0 | Legit -> 1 | Control -> 2

let cls_name = function
  | Attack -> "attack"
  | Legit -> "legit"
  | Control -> "control"

type plane = {
  offered_bytes : cls -> float;
  fate_bytes : cls -> fate -> float;
}

(* Cells are indexed [cls * stride + cell]: cell 0 is the offered count,
   cell [1 + fate_index f] the fate's. *)
type t = {
  packets : int array;
  bytes : int array;
  mutable planes : plane list;  (* in the order added *)
}

let stride = n_fates + 1
let cell cls fate = (cls_index cls * stride) + 1 + fate_index fate
let offered_cell cls = cls_index cls * stride

let create () =
  let n = List.length classes * stride in
  { packets = Array.make n 0; bytes = Array.make n 0; planes = [] }

let add_into dst src =
  Array.iteri (fun i n -> dst.packets.(i) <- dst.packets.(i) + n) src.packets;
  Array.iteri (fun i n -> dst.bytes.(i) <- dst.bytes.(i) + n) src.bytes

let key =
  Sim.Key.create
    ~fork:(fun _ ~shard:_ _ -> create ())
    ~join:(fun parent shards -> List.iter (add_into parent) shards)
    create

let of_sim sim = Sim.get sim key

(* [i] comes from [cell] or [offered_cell], always in bounds. *)
let bump t i n size =
  Array.unsafe_set t.packets i (Array.unsafe_get t.packets i + n);
  Array.unsafe_set t.bytes i (Array.unsafe_get t.bytes i + (n * size))

let offer t cls size = bump t (offered_cell cls) 1 size
let post t cls fate size = bump t (cell cls fate) 1 size
let depart t cls size = bump t (cell cls In_flight) 1 size
let arrive t cls size = bump t (cell cls In_flight) (-1) size
let add_plane t p = t.planes <- t.planes @ [ p ]
let fluid_epsilon = 1e-9
let packets t cls fate = t.packets.(cell cls fate)
let offered_packets t cls = t.packets.(offered_cell cls)
let packet_bytes t cls fate = t.bytes.(cell cls fate)

let sum_planes t read =
  List.fold_left (fun acc p -> acc +. read p) 0. t.planes

let fluid_bytes t cls fate = sum_planes t (fun p -> p.fate_bytes cls fate)

let bytes t cls fate =
  float_of_int (packet_bytes t cls fate) +. fluid_bytes t cls fate

let offered_bytes t cls =
  float_of_int t.bytes.(offered_cell cls)
  +. sum_planes t (fun p -> p.offered_bytes cls)

(* Both sides of the law for one class: offered plus duplicates, and every
   other fate. *)
let sides read_offered read_fate add zero cls =
  List.fold_left
    (fun (src, fates) f ->
      let v = read_fate cls f in
      if f = Fault_duplicate then (add src v, fates) else (src, add fates v))
    (read_offered cls, zero) fates

let check t =
  let violation cls =
    let exact arr =
      sides (fun c -> arr.(offered_cell c)) (fun c f -> arr.(cell c f)) ( + ) 0
        cls
    in
    let p_src, p_sunk = exact t.packets and b_src, b_sunk = exact t.bytes in
    let f_src, f_sunk =
      sides
        (fun c -> sum_planes t (fun p -> p.offered_bytes c))
        (fluid_bytes t) ( +. ) 0. cls
    in
    (* A packet departs before it lands, so a world's count in flight is
       never negative. A shard world's alone can be, as its packets land in
       other shards; the joined one cannot, unless a shard was lost. *)
    let flying = t.packets.(cell cls In_flight) in
    if p_src <> p_sunk || b_src <> b_sunk then
      Some
        (Printf.sprintf
           "packets not conserved: offered + duplicated = %d (%d bytes), \
            fates = %d (%d bytes)"
           p_src b_src p_sunk b_sunk)
    else if flying < 0 then
      Some (Printf.sprintf "%d packets in flight" flying)
    else if Float.abs (f_src -. f_sunk) > fluid_epsilon *. Float.max f_src 1.
    then
      Some
        (Printf.sprintf
           "fluid bytes not conserved: offered = %.17g, fates = %.17g" f_src
           f_sunk)
    else None
  in
  match
    List.find_map
      (fun cls -> Option.map (fun e -> (cls, e)) (violation cls))
      classes
  with
  | None -> Ok ()
  | Some (cls, e) -> Error (Printf.sprintf "ledger: %s %s" (cls_name cls) e)

let register_metrics t reg =
  List.iter
    (fun cls ->
      let p name = Printf.sprintf "ledger.%s.%s" (cls_name cls) name in
      Metrics.register_counter reg (p "offered") ~unit_:"bytes"
        ~help:"Bytes offered to the network (both planes)" (fun () ->
          offered_bytes t cls);
      List.iter
        (fun f ->
          (* Bytes in flight go down again as they land. *)
          let register =
            if f = In_flight then Metrics.register_gauge
            else Metrics.register_counter
          in
          register reg
            (p (fate_name f))
            ~unit_:"bytes" ~help:"Bytes that met this fate (both planes)"
            (fun () -> bytes t cls f))
        fates)
    classes
