open Aitf_net

(* Buckets of (label, value) pairs in an array whose length is a power of
   two, indexed by the mixed key. A bucket can hold several address pairs,
   so every lookup compares the labels' addresses exactly. *)
type 'a t = {
  mutable buckets : (Flow_label.t * 'a) list array;
  mutable count : int;
}

let create n =
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  { buckets = Array.make (pow2 16) []; count = 0 }

(* The two unsigned addresses, [src] shifted over [dst] by 31 bits so that
   the 64 bits fold into a 63-bit native int; [src]'s lowest bit and
   [dst]'s highest one land on the same bit. *)
let u32 = Addr.to_unsigned
let key_u src dst = (src lsl 31) lxor dst
let key src dst = key_u (u32 src) (u32 dst)

let slot buckets src dst =
  Addr.mix (key_u src dst) land (Array.length buckets - 1)

let label_pair (l : Flow_label.t) =
  match (l.src, l.dst) with
  | Host s, Host d when Flow_label.is_exact l -> (s, d)
  | _ -> invalid_arg "Exact_index: not an exact label"

let label_slot buckets l =
  let s, d = label_pair l in
  slot buckets (u32 s) (u32 d)

let has label bucket = List.exists (fun (l, _) -> Flow_label.equal l label) bucket

let without label bucket =
  List.filter (fun (l, _) -> not (Flow_label.equal l label)) bucket

(* Double the array once it holds two entries per bucket on average. *)
let grow t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) [] in
  Array.iter
    (List.iter (fun ((l, _) as e) ->
         let i = label_slot buckets l in
         buckets.(i) <- e :: buckets.(i)))
    old;
  t.buckets <- buckets

let replace t label v =
  let i = label_slot t.buckets label in
  let bucket = t.buckets.(i) in
  if has label bucket then t.buckets.(i) <- (label, v) :: without label bucket
  else begin
    t.buckets.(i) <- (label, v) :: bucket;
    t.count <- t.count + 1;
    if t.count > 2 * Array.length t.buckets then grow t
  end

let remove t label =
  let i = label_slot t.buckets label in
  if has label t.buckets.(i) then begin
    t.buckets.(i) <- without label t.buckets.(i);
    t.count <- t.count - 1
  end

let same_pair (l : Flow_label.t) src dst =
  match (l.src, l.dst) with
  | Host s, Host d -> u32 s = src && u32 d = dst
  | _ -> false

let rec find_unqualified src dst = function
  | [] -> None
  | ((l : Flow_label.t), v) :: rest -> (
    match l.proto with
    | None when same_pair l src dst -> Some v
    | _ -> find_unqualified src dst rest)

let rec find_proto src dst (proto : int) = function
  | [] -> None
  | ((l : Flow_label.t), v) :: rest -> (
    match l.proto with
    | Some p when p = proto && same_pair l src dst -> Some v
    | _ -> find_proto src dst proto rest)

let find t ~src ~dst ~proto =
  let bucket = t.buckets.(slot t.buckets src dst) in
  match find_unqualified src dst bucket with
  | Some _ as found -> found
  | None -> find_proto src dst proto bucket

let probe t (pkt : Packet.t) =
  find t ~src:(u32 pkt.src) ~dst:(u32 pkt.dst) ~proto:pkt.proto

let length t = t.count

let fold f t acc =
  Array.fold_left
    (List.fold_left (fun acc (l, v) -> f l v acc))
    acc t.buckets
