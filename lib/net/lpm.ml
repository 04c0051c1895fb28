type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable size : int }

let new_node () = { value = None; zero = None; one = None }

let create () = { root = new_node (); size = 0 }

let child node bit =
  if bit then node.one else node.zero

let ensure_child node bit =
  match child node bit with
  | Some c -> c
  | None ->
    let c = new_node () in
    if bit then node.one <- Some c else node.zero <- Some c;
    c

let find_node t (p : Addr.prefix) =
  let rec go node depth =
    if depth = p.len then Some node
    else
      match child node (Addr.bit p.base depth) with
      | None -> None
      | Some c -> go c (depth + 1)
  in
  go t.root 0

let insert t (p : Addr.prefix) v =
  let rec go node depth =
    if depth = p.len then begin
      if node.value = None then t.size <- t.size + 1;
      node.value <- Some v
    end
    else go (ensure_child node (Addr.bit p.base depth)) (depth + 1)
  in
  go t.root 0

let remove t (p : Addr.prefix) =
  (* Walk down recording the path so emptied branches can be pruned on the
     way back up: a valueless, childless node serves no lookup and would
     otherwise leak for the lifetime of the table under insert/remove churn. *)
  let path = Array.make (p.len + 1) t.root in
  let rec descend node depth =
    path.(depth) <- node;
    if depth = p.len then Some node
    else
      match child node (Addr.bit p.base depth) with
      | None -> None
      | Some c -> descend c (depth + 1)
  in
  match descend t.root 0 with
  | None -> ()
  | Some node ->
    if node.value <> None then t.size <- t.size - 1;
    node.value <- None;
    let rec prune depth =
      if depth > 0 then begin
        let n = path.(depth) in
        if n.value = None && n.zero = None && n.one = None then begin
          let parent = path.(depth - 1) in
          if Addr.bit p.base (depth - 1) then parent.one <- None
          else parent.zero <- None;
          prune (depth - 1)
        end
      end
    in
    prune p.len

let exact t p =
  match find_node t p with None -> None | Some node -> node.value

let lookup_prefix t addr =
  let rec go node depth best =
    let best =
      match node.value with
      | Some v -> Some (Addr.prefix addr depth, v)
      | None -> best
    in
    if depth = 32 then best
    else
      match child node (Addr.bit addr depth) with
      | None -> best
      | Some c -> go c (depth + 1) best
  in
  go t.root 0 None

(* The forwarding fast path: same walk as [lookup_prefix] but tracks only
   the best value, so a lookup allocates nothing (no [Addr.prefix] built).
   The walk is top-level with [addr] as an argument: a local [go] would
   close over [addr] and allocate that closure on every call. *)
let rec lookup_from addr node depth best =
  let best = match node.value with Some _ as v -> v | None -> best in
  if depth = 32 then best
  else
    match child node (Addr.bit addr depth) with
    | None -> best
    | Some c -> lookup_from addr c (depth + 1) best

let lookup t addr = lookup_from addr t.root 0 None

let iter t f =
  let rec go node prefix_bits depth =
    (match node.value with
    | Some v -> f (Addr.prefix prefix_bits depth) v
    | None -> ());
    (match node.zero with
    | Some c -> go c prefix_bits (depth + 1)
    | None -> ());
    match node.one with
    | Some c ->
      let bit_val = Int32.shift_left 1l (31 - depth) in
      go c (Int32.logor prefix_bits bit_val) (depth + 1)
    | None -> ()
  in
  go t.root 0l 0

let size t = t.size

let node_count t =
  let rec go node acc =
    let acc = acc + 1 in
    let acc = match node.zero with Some c -> go c acc | None -> acc in
    match node.one with Some c -> go c acc | None -> acc
  in
  go t.root 0

let invariant t =
  let values = ref 0 in
  let ok = ref true in
  let rec go ~root node =
    (match node.value with Some _ -> incr values | None -> ());
    (* A non-root leaf without a value is a dead chain [remove] should have
       pruned. *)
    if (not root) && node.value = None && node.zero = None && node.one = None
    then ok := false;
    (match node.zero with Some c -> go ~root:false c | None -> ());
    match node.one with Some c -> go ~root:false c | None -> ()
  in
  go ~root:true t.root;
  !ok && !values = t.size

let clear t =
  t.root.value <- None;
  t.root.zero <- None;
  t.root.one <- None;
  t.size <- 0

let to_list t =
  let acc = ref [] in
  iter t (fun p v -> acc := (p, v) :: !acc);
  !acc
