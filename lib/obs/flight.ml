type kind = Enqueue | Dequeue | Drop of Ledger.fate

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
  mutable dump_path : string option;  (* auto-dump target (else stderr) *)
  mutable split : bool;  (* shard worlds record into their own rings *)
  mutable dump_due : bool;  (* auto-dumped while split: dump at the join *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    next = 0;
    total = 0;
    dump_path = None;
    split = false;
    dump_due = false;
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
   order) order, [rings] being in shard order. Within a ring, write order
   is virtual-time order (each shard's sim executes monotonically), so
   the merged ring is globally time-sorted with shard id breaking ties.
   [master]'s total afterwards counts every record seen anywhere,
   mirroring the single-ring meaning of {!recorded}. *)
let merge_into master rings =
  let tagged =
    List.concat
      (List.mapi
         (fun i t -> List.mapi (fun j r -> (r.time, i, j, r)) (records t))
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

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop fate -> "drop:" ^ Ledger.fate_name fate

let pp_record fmt r =
  Format.fprintf fmt "%10.6f  %-12s %-16s %-18s %5dB q=%dB" r.time r.node
    r.link (kind_name r.kind) r.size r.queue_depth

let dump ?(out = Format.err_formatter) t =
  let rs = records t in
  Format.fprintf out "== flight recorder: last %d of %d record(s) ==@."
    (List.length rs) t.total;
  List.iter (fun r -> Format.fprintf out "%a@." pp_record r) rs

let dump_now t =
  match t.dump_path with
  | None -> dump t
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let out = Format.formatter_of_out_channel oc in
        dump ~out t;
        Format.pp_print_flush out ())

(* While the shard worlds hold their own rings, this one lacks their
   records: a breach found then (the span join finds every sharded one)
   is dumped once the rings are joined. *)
let auto_dump t = if t.split then t.dump_due <- true else dump_now t

module Sim = Aitf_engine.Sim

(* A shard world records into a ring of its own; the join interleaves the
   shard rings into the parent's and does any dump the split held back. *)
let key : t option Sim.Key.t =
  Sim.Key.create
    ~fork:(fun _ ~shard:_ ->
      Option.map (fun m ->
          m.split <- true;
          create ~capacity:(Array.length m.buf)))
    ~join:(fun master rings ->
      Option.iter
        (fun m ->
          m.split <- false;
          merge_into m (List.filter_map Fun.id rings);
          if m.dump_due then begin
            m.dump_due <- false;
            dump_now m
          end)
        master)
    (fun () -> None)

let attach t = Sim.set_ambient key (Some t)
let detach () = Sim.set_ambient key None
let enabled sim = Option.is_some (Sim.get sim key)

let note sim ~time ~node ~link ~kind ~size ~queue_depth =
  match Sim.get sim key with
  | None -> ()
  | Some t -> write t ~time ~node ~link ~kind ~size ~queue_depth
