open Aitf_net

type sel = Any | Host of Addr.t | Net of Addr.prefix

type t = {
  src : sel;
  dst : sel;
  proto : int option;
  sport : int option;
  dport : int option;
}

let v ?proto ?sport ?dport src dst = { src; dst; proto; sport; dport }

let host_pair src dst =
  { src = Host src; dst = Host dst; proto = None; sport = None; dport = None }

let from_net p dst =
  { src = Net p; dst = Host dst; proto = None; sport = None; dport = None }

let from_host src =
  { src = Host src; dst = Any; proto = None; sport = None; dport = None }

let sel_matches sel addr =
  match sel with
  | Any -> true
  | Host a -> Addr.equal a addr
  | Net p -> Addr.prefix_mem p addr

let qual_matches q (v : int) = match q with None -> true | Some x -> x = v

let matches t (pkt : Packet.t) =
  sel_matches t.src pkt.src
  && sel_matches t.dst pkt.dst
  && qual_matches t.proto pkt.proto
  && qual_matches t.sport pkt.sport
  && qual_matches t.dport pkt.dport

let sel_subsumes a b =
  match (a, b) with
  | Any, _ -> true
  | _, Any -> false
  | Host x, Host y -> Addr.equal x y
  | Host _, Net _ -> false
  | Net p, Host y -> Addr.prefix_mem p y
  | Net p, Net q ->
    (* p covers q iff p is no longer than q and q's base lies in p. *)
    let pl = (p : Addr.prefix).len and ql = (q : Addr.prefix).len in
    pl <= ql && Addr.prefix_mem p (q : Addr.prefix).base

let qual_subsumes a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some x, Some y -> x = y

let subsumes a b =
  sel_subsumes a.src b.src
  && sel_subsumes a.dst b.dst
  && qual_subsumes a.proto b.proto
  && qual_subsumes a.sport b.sport
  && qual_subsumes a.dport b.dport

let sel_specificity = function
  | Any -> 0
  | Net p -> (p : Addr.prefix).len
  | Host _ -> 32

let specificity t =
  let qual = function None -> 0 | Some _ -> 1 in
  sel_specificity t.src + sel_specificity t.dst + qual t.proto + qual t.sport
  + qual t.dport

let is_exact t =
  match (t.src, t.dst) with
  | Host _, Host _ -> t.sport = None && t.dport = None
  | _ -> false

let sel_compare a b =
  match (a, b) with
  | Any, Any -> 0
  | Any, _ -> -1
  | _, Any -> 1
  | Host x, Host y -> Addr.compare x y
  | Host _, Net _ -> -1
  | Net _, Host _ -> 1
  | Net p, Net q -> Addr.prefix_compare p q

let compare a b =
  let c = sel_compare a.src b.src in
  if c <> 0 then c
  else
    let c = sel_compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Option.compare Int.compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = Option.compare Int.compare a.sport b.sport in
        if c <> 0 then c else Option.compare Int.compare a.dport b.dport

let equal a b = compare a b = 0
let hash t = Hashtbl.hash t

let sel_to_string = function
  | Any -> "*"
  | Host a -> Addr.to_string a
  | Net p -> Addr.prefix_to_string p

let to_string t =
  let qual name = function
    | None -> ""
    | Some v -> Printf.sprintf " %s=%d" name v
  in
  Printf.sprintf "%s -> %s%s%s%s" (sel_to_string t.src) (sel_to_string t.dst)
    (qual "proto" t.proto) (qual "sport" t.sport) (qual "dport" t.dport)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let sel_of_string s =
  if s = "*" then Any
  else if String.contains s '/' then Net (Addr.prefix_of_string s)
  else Host (Addr.of_string s)

let of_string s =
  let fail () = invalid_arg ("Flow_label.of_string: " ^ s) in
  let words =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")
  in
  match words with
  | src :: "->" :: dst :: quals ->
    let base = v (sel_of_string src) (sel_of_string dst) in
    List.fold_left
      (fun acc qual ->
        match String.index_opt qual '=' with
        | None -> fail ()
        | Some i -> (
          let key = String.sub qual 0 i in
          let value =
            match
              int_of_string_opt
                (String.sub qual (i + 1) (String.length qual - i - 1))
            with
            | Some value when value >= 0 -> value
            | Some _ | None -> fail ()
          in
          match key with
          | "proto" -> { acc with proto = Some value }
          | "sport" -> { acc with sport = Some value }
          | "dport" -> { acc with dport = Some value }
          | _ -> fail ()))
      base quals
  | _ -> fail ()
