type kind = Host | Router | Border_router
type scope = Global | As_local
type hook_verdict = Continue | Drop of Aitf_obs.Ledger.fate

type port = { link : Link.t; peer_id : int; mutable inter_as : bool }

type t = {
  id : int;
  name : string;
  addr : Addr.t;
  mutable as_id : int;
  kind : kind;
  fib : port Lpm.t;
  mutable ports : port list;
  mutable advertised : (Addr.prefix * scope) list;
  mutable hooks : (t -> Packet.t -> hook_verdict) list;
  mutable local_deliver : t -> Packet.t -> unit;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable forwarded_packets : int;
  mutable delivered_packets : int;
  drops : int array;
}

let make ~id ~name ~addr ~as_id kind =
  let t =
    {
      id;
      name;
      addr;
      as_id;
      kind;
      fib = Lpm.create ();
      ports = [];
      advertised = [ (Addr.host_prefix addr, Global) ];
      hooks = [];
      local_deliver = (fun _ _ -> ());
      rx_packets = 0;
      rx_bytes = 0;
      forwarded_packets = 0;
      delivered_packets = 0;
      drops = Array.make Aitf_obs.Ledger.n_fates 0;
    }
  in
  t

let register_metrics t reg =
  let open Aitf_obs.Metrics in
  let p metric = Printf.sprintf "node.%s.%s" t.name metric in
  register_counter reg (p "rx_packets") ~unit_:"packets"
    ~help:"Packets received on any port" (fun () -> float_of_int t.rx_packets);
  register_counter reg (p "rx_bytes") ~unit_:"bytes"
    ~help:"Bytes received on any port" (fun () -> float_of_int t.rx_bytes);
  register_counter reg (p "forwarded_packets") ~unit_:"packets"
    ~help:"Packets forwarded toward another node" (fun () ->
      float_of_int t.forwarded_packets);
  register_counter reg (p "delivered_packets") ~unit_:"packets"
    ~help:"Packets delivered to the local agent" (fun () ->
      float_of_int t.delivered_packets);
  register_counter reg (p "drops") ~unit_:"packets"
    ~help:"Packets dropped at this node, all fates" (fun () ->
      float_of_int (Array.fold_left ( + ) 0 t.drops))

let add_hook t h = t.hooks <- h :: t.hooks

let port_to t ~peer_id =
  List.find_opt (fun p -> p.peer_id = peer_id) t.ports

let count_drop t fate =
  let i = Aitf_obs.Ledger.fate_index fate in
  t.drops.(i) <- t.drops.(i) + 1

let drop_count t fate = t.drops.(Aitf_obs.Ledger.fate_index fate)

let is_border t = t.kind = Border_router

let kind_string = function
  | Host -> "host"
  | Router -> "router"
  | Border_router -> "border"

let pp fmt t =
  Format.fprintf fmt "%s(%s, %a, AS%d)" t.name (kind_string t.kind) Addr.pp
    t.addr t.as_id
