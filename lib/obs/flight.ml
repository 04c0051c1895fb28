type kind = Enqueue | Dequeue | Drop of string

type record = {
  time : float;
  node : string;
  link : string;
  kind : kind;
  size : int;
  queue_depth : int;
}

type t = {
  buf : record option array;
  mutable next : int;  (* write cursor *)
  mutable total : int;
  mutable shard : int option;  (* identity stamp for sharded runs *)
  mutable dump_path : string option;  (* auto-dump target (else stderr) *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    next = 0;
    total = 0;
    shard = None;
    dump_path = None;
  }

let set_dump_path t p = t.dump_path <- p

let write t ~time ~node ~link ~kind ~size ~queue_depth =
  t.buf.(t.next) <- Some { time; node; link; kind; size; queue_depth };
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let records t =
  let n = Array.length t.buf in
  let acc = ref [] in
  (* Oldest record sits at the write cursor once the ring has wrapped. *)
  for i = n - 1 downto 0 do
    match t.buf.((t.next + i) mod n) with
    | Some r -> acc := r :: !acc
    | None -> ()
  done;
  !acc

let recorded t = t.total

(* [merge_into master rings] interleaves every shard ring's retained
   records into [master] in deterministic (time, shard, per-shard write
   order) order. Within a ring, write order is virtual-time order (each
   shard's sim executes monotonically), so the merged ring is globally
   time-sorted with shard id breaking ties. [master]'s total afterwards
   counts every record seen anywhere, mirroring the single-ring meaning
   of {!recorded}. *)
let merge_into master rings =
  let shard_of t i = match t.shard with Some s -> s | None -> i in
  let tagged =
    List.concat
      (List.mapi
         (fun i t ->
           List.mapi (fun j r -> (r.time, shard_of t i, j, r)) (records t))
         rings)
  in
  let tagged =
    List.stable_sort
      (fun (ta, sa, ja, _) (tb, sb, jb, _) ->
        let c = Float.compare ta tb in
        if c <> 0 then c
        else
          let c = Int.compare sa sb in
          if c <> 0 then c else Int.compare ja jb)
      tagged
  in
  let written = List.length tagged in
  List.iter
    (fun (_, _, _, r) ->
      write master ~time:r.time ~node:r.node ~link:r.link ~kind:r.kind
        ~size:r.size ~queue_depth:r.queue_depth)
    tagged;
  let seen = List.fold_left (fun acc t -> acc + t.total) 0 rings in
  master.total <- master.total - written + seen

module Sim = Aitf_engine.Sim

(* A shard world records into its own ring, stamped with the shard and
   dumping where the parent's ring dumps; the join interleaves the shard
   rings into the parent's. *)
let key : t option Sim.Key.t =
  Sim.Key.create
    ~fork:(fun _ ~shard ->
      Option.map (fun m ->
          let f = create ~capacity:(Array.length m.buf) in
          f.shard <- Some shard;
          f.dump_path <- m.dump_path;
          f))
    ~join:(fun master rings ->
      Option.iter (fun m -> merge_into m (List.filter_map Fun.id rings)) master)
    (fun () -> None)

let attach t = Sim.set_ambient key (Some t)
let detach () = Sim.set_ambient key None
let enabled sim = Option.is_some (Sim.get sim key)

let note sim ~time ~node ~link ~kind ~size ~queue_depth =
  match Sim.get sim key with
  | None -> ()
  | Some t -> write t ~time ~node ~link ~kind ~size ~queue_depth

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop reason -> "drop:" ^ reason

let pp_record fmt r =
  Format.fprintf fmt "%10.6f  %-12s %-16s %-18s %5dB q=%dB" r.time r.node
    r.link (kind_name r.kind) r.size r.queue_depth

let dump ?(out = Format.err_formatter) t =
  let rs = records t in
  Format.fprintf out "== flight recorder: last %d of %d record(s) ==@."
    (List.length rs) t.total;
  List.iter (fun r -> Format.fprintf out "%a@." pp_record r) rs

let auto_dump_target t =
  Option.map
    (fun p ->
      match t.shard with
      | Some i -> Printf.sprintf "%s.shard%d" p i
      | None -> p)
    t.dump_path

let auto_dump t =
  match auto_dump_target t with
  | None -> dump t
  | Some path ->
    (* One whole-file write per dump: a per-shard-suffixed path means no
       two recorders ever target the same file, so dumps cannot
       interleave or clobber each other. *)
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let out = Format.formatter_of_out_channel oc in
        dump ~out t;
        Format.pp_print_flush out ())
