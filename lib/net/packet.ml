type payload = ..
type payload += Data of { flow_id : int; attack : bool }

type t = {
  id : int;
  src : Addr.t;
  true_src : Addr.t;
  dst : Addr.t;
  proto : int;
  sport : int;
  dport : int;
  size : int;
  mutable ttl : int;
  mutable route_record : Addr.t list;
  mutable ppm_mark : (Addr.t * Addr.t * int) option;
  mutable last_hop : Addr.t option;
  payload : payload;
}

(* Ids come off a plain counter in the main domain. Worker domains of the
   parallel engine each mint from their own stride ([bind_domain]), as
   [Span] does for correlation ids: a shared counter would lose
   increments and repeat ids under concurrent [make]s. *)
let next_id = ref 0
let reset_ids () = next_id := 0

type stride = { mutable active : bool; mutable next : int }

let stride_key : stride Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = false; next = 0 })

let bind_domain ~id_base =
  let s = Domain.DLS.get stride_key in
  s.active <- true;
  s.next <- id_base

let mint_id () =
  let s = Domain.DLS.get stride_key in
  if s.active then begin
    let id = s.next in
    s.next <- id + 1;
    id
  end
  else begin
    let id = !next_id in
    next_id := id + 1;
    id
  end

let route_record_limit = 16

let make ?spoofed_src ?(proto = 17) ?(sport = 0) ?(dport = 0) ?(ttl = 64) ~src
    ~dst ~size payload =
  let id = mint_id () in
  let header_src = match spoofed_src with None -> src | Some s -> s in
  {
    id;
    src = header_src;
    true_src = src;
    dst;
    proto;
    sport;
    dport;
    size;
    ttl;
    route_record = [];
    ppm_mark = None;
    last_hop = None;
    payload;
  }

let is_control p = match p.payload with Data _ -> false | _ -> true

let cls p =
  match p.payload with
  | Data { attack = true; _ } -> Aitf_obs.Ledger.Attack
  | Data _ -> Aitf_obs.Ledger.Legit
  | _ -> Aitf_obs.Ledger.Control

(* Newest stamp first, so a stamp is one cons; the bounded length test
   stops after [route_record_limit] cells. *)
let record_route p addr =
  if List.compare_length_with p.route_record route_record_limit < 0 then
    p.route_record <- addr :: p.route_record

let recorded_route p = List.rev p.route_record

let payload_kind p =
  match p.payload with
  | Data { attack = true; _ } -> "data/attack"
  | Data _ -> "data"
  | _ -> "ctrl"

let pp fmt p =
  Format.fprintf fmt "#%d %a -> %a (%dB %s)" p.id Addr.pp p.src Addr.pp p.dst
    p.size (payload_kind p)
