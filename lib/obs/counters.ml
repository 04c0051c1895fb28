type 'c t = {
  sim : Aitf_engine.Sim.t;
  node : string option;
  name : 'c -> string;
  all : 'c list;
  counts : int array;  (* in the order of [all] *)
}

let name t = t.name
let all t = t.all

(* Constant constructors are immediates, so physical equality finds the
   counter's slot without hashing or allocating. *)
let rec position c i = function
  | [] -> -1
  | c' :: rest -> if c' == c then i else position c (i + 1) rest

let count t c =
  let i = position c 0 t.all in
  if i < 0 then 0 else t.counts.(i)

let sum t cs = List.fold_left (fun acc c -> acc + count t c) 0 cs

let tally t c =
  let i = position c 0 t.all in
  if i < 0 then invalid_arg ("Counters: " ^ t.name c ^ " is not in the set");
  t.counts.(i) <- t.counts.(i) + 1

let bump ?corr t c =
  tally t c;
  match corr with
  | Some corr -> Span.event ?node:t.node t.sim ~corr (t.name c)
  | None -> ()

let bump_root ?corr t c =
  tally t c;
  match corr with
  | Some corr -> Span.root_event t.sim ~corr (t.name c)
  | None -> ()

let bump_nonce t ~nonce c =
  tally t c;
  Span.event_by_nonce t.sim ~nonce (t.name c)

let register t reg ~prefix =
  List.iteri
    (fun i c ->
      Metrics.register_counter reg (prefix ^ "." ^ t.name c)
        ~unit_:"decisions" ~help:"Times the decision was taken" (fun () ->
          float_of_int t.counts.(i)))
    t.all

let create ?node ?prefix ~name ~all sim =
  let t = { sim; node; name; all; counts = Array.make (List.length all) 0 } in
  Option.iter (fun prefix -> Metrics.if_attached sim (register t ~prefix)) prefix;
  t
