module Sim = Aitf_engine.Sim
open Aitf_net
open Aitf_filter

(* Per-source filter state is a bit mask over the aggregate's filter stages:
   bit [s] set means a blocking filter at stage [s] matches the source. The
   first set bit decides where the source's traffic dies; [cuts.(s)] counts
   the sources whose first block is stage [s], so the shared-path walk needs
   only the per-stage counts, never the mask array. *)

type agg = {
  aid : int;
  origin : Node.t;
  src_base : Addr.t;
  n : int;
  per_src_rate : float;  (* bits/s each source offers *)
  dst : Addr.t;
  attack : bool;
  flow_id : int;
  pkt_size : int;  (* bytes, for probe-rate derivation *)
  link_idx : int array;  (* hop s crosses this link (index into t.links) *)
  fnodes : Node.t array;  (* filter stage before hop s; fnodes.(0) = origin *)
  mask : int array;  (* per source: bit s = blocked at stage s *)
  cuts : int array;  (* cuts.(s) = #sources first-blocked at stage s *)
  limited : (int, float array) Hashtbl.t;
      (* source idx -> per-stage rate caps (bits/s, [infinity] = uncapped);
         only sources under at least one live rate-limit filter appear *)
  lim_pass : int array;
      (* recompute scratch: #limited sources unblocked through stages <= s *)
  mutable lims : (int * float array) list;  (* recompute scratch *)
  mutable stale : bool;
      (* [mask] or [limited] changed since the scratch was last rebuilt *)
  mutable active : bool;
  mutable delivered_rate : float;  (* bits/s reaching dst, last recompute *)
  mutable new_delivered : float;  (* walk scratch *)
  mutable delivered_bits : float;  (* integral of delivered_rate *)
  mutable n_lims : int;  (* walk scratch: sources in [lims] *)
  fate_rate : float array;
      (* bits/s per undelivered term ([term_*]), as of the last recompute *)
  new_fate : float array;  (* walk scratch *)
  fate_bits : float array;  (* integral of fate_rate *)
}

type t = {
  sim : Sim.t;
  net : Network.t;
  epoch : float;
  mutable aggs : agg list;  (* insertion order — keeps float sums stable *)
  mutable links : Link.t array;  (* distinct links any aggregate crosses *)
  mutable offered : float array;  (* bits/s offered to links.(i) *)
  mutable factor : float array;  (* fraction links.(i) admits *)
  tables : (int, Filter_table.t) Hashtbl.t;  (* node id -> its filter table *)
  mutable subs : (int, (agg * int) list) Hashtbl.t;  (* node id -> stages *)
  mutable dirty : bool;
  mutable next_id : int;
  mutable total_sources : int;
  mutable recomputes : int;
  mutable last_iters : int;
  mutable link_visits : int;  (* cumulative link updates: epoch cost proxy *)
  mutable last_integrate : float;
}

let max_stages = 62  (* mask bits; far above any realistic AS path *)

(* The ledger terms besides delivery, indexing [fate_rate]/[fate_bits]:
   what the sources offer, and where the undelivered part dies. *)
let term_offered = 0
let term_gated = 1  (* blocked at stage 0, the source's own gate *)
let term_filtered = 2  (* blocked at a later stage *)
let term_limited = 3  (* cut down to a rate-limit filter's cap *)
let term_lost = 4  (* a link's proportional drop-tail share *)
let n_terms = 5

(* --- integration ---------------------------------------------------------- *)

let integrate t =
  let now = Sim.now t.sim in
  if now > t.last_integrate then begin
    let dt = now -. t.last_integrate in
    List.iter
      (fun a ->
        if a.active then begin
          a.delivered_bits <- a.delivered_bits +. (a.delivered_rate *. dt);
          for i = 0 to n_terms - 1 do
            a.fate_bits.(i) <- a.fate_bits.(i) +. (a.fate_rate.(i) *. dt)
          done
        end)
      t.aggs;
    t.last_integrate <- now
  end

(* --- the fixed point ------------------------------------------------------ *)

(* The limited-source scratch derives from [mask] and [limited] alone, so
   only an aggregate whose filter state changed since the last recompute
   rebuilds it; [lims] shares the cap arrays themselves. *)
let refresh_scratch agg =
  agg.new_delivered <- 0.;
  if agg.stale then begin
    agg.stale <- false;
    (* Sorted by source index: Hashtbl.fold order depends on hash-bucket
       layout, and [lims] order decides the float-accumulation order of the
       per-source offered rates in [walk_agg] — unsorted, the fixed point's
       rounding (and so every golden) would vary across OCaml hash seeds. *)
    agg.lims <-
      Hashtbl.fold (fun i caps acc -> (i, caps) :: acc) agg.limited []
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b);
    let k = Array.length agg.link_idx in
    Array.fill agg.lim_pass 0 k 0;
    agg.n_lims <- List.length agg.lims;
    List.iter
      (fun (idx, _) ->
        let m = agg.mask.(idx) in
        let s = ref 0 in
        while !s < k && m land (1 lsl !s) = 0 do
          agg.lim_pass.(!s) <- agg.lim_pass.(!s) + 1;
          incr s
        done)
      agg.lims
  end

(* One pass of one aggregate down its path: uniform sources in bulk via the
   per-stage counts, rate-limited sources individually (they are bounded by
   live filters, not by population). Alongside the delivered rate it splits
   the rest of the offered rate into the [term_*] fates, so that they sum
   to the offered rate up to rounding. *)
let walk_agg t agg =
  let fate = agg.new_fate in
  Array.fill fate 0 n_terms 0.;
  if agg.active then begin
    let k = Array.length agg.link_idx in
    let p = agg.per_src_rate in
    let blocked = ref 0 in
    let atten = ref 1.0 in
    let uni_delivered = ref 0. in
    let prev_uni = ref (agg.n - agg.n_lims) in
    for s = 0 to k - 1 do
      blocked := !blocked + agg.cuts.(s);
      let uni = agg.n - !blocked - agg.lim_pass.(s) in
      let cut = float_of_int (!prev_uni - uni) *. p *. !atten in
      let term = if s = 0 then term_gated else term_filtered in
      fate.(term) <- fate.(term) +. cut;
      prev_uni := uni;
      let r = float_of_int uni *. agg.per_src_rate *. !atten in
      let li = agg.link_idx.(s) in
      t.offered.(li) <- t.offered.(li) +. r;
      atten := !atten *. t.factor.(li);
      fate.(term_lost) <- fate.(term_lost) +. (r -. (r *. t.factor.(li)));
      if s = k - 1 then uni_delivered := r *. t.factor.(li)
    done;
    let lim_delivered = ref 0. in
    List.iter
      (fun (idx, caps) ->
        let r = ref agg.per_src_rate in
        let alive = ref true in
        let s = ref 0 in
        while !alive && !s < k do
          if agg.mask.(idx) land (1 lsl !s) <> 0 then begin
            alive := false;
            let term = if !s = 0 then term_gated else term_filtered in
            fate.(term) <- fate.(term) +. !r
          end
          else begin
            if caps.(!s) < !r then begin
              fate.(term_limited) <- fate.(term_limited) +. (!r -. caps.(!s));
              r := caps.(!s)
            end;
            let li = agg.link_idx.(!s) in
            t.offered.(li) <- t.offered.(li) +. !r;
            let admitted = !r *. t.factor.(li) in
            fate.(term_lost) <- fate.(term_lost) +. (!r -. admitted);
            r := admitted;
            incr s
          end
        done;
        if !alive then lim_delivered := !lim_delivered +. !r)
      agg.lims;
    agg.new_delivered <- !uni_delivered +. !lim_delivered;
    fate.(term_offered) <- float_of_int agg.n *. p
  end

let recompute t =
  integrate t;
  t.recomputes <- t.recomputes + 1;
  let nl = Array.length t.links in
  Array.fill t.factor 0 nl 1.0;
  List.iter refresh_scratch t.aggs;
  (* Fixed-point iteration of the proportional drop-tail share: each round
     re-offers every aggregate under the current admit factors, then updates
     the factors. Feed-forward paths converge in at most the longest path
     length; the cap is a safety net. *)
  let iters = ref 0 in
  let stable = ref false in
  while (not !stable) && !iters < 50 do
    Array.fill t.offered 0 nl 0.;
    List.iter (walk_agg t) t.aggs;
    stable := true;
    for i = 0 to nl - 1 do
      t.link_visits <- t.link_visits + 1;
      let bw = Link.bandwidth t.links.(i) in
      let f = if t.offered.(i) <= bw then 1.0 else bw /. t.offered.(i) in
      if Float.abs (f -. t.factor.(i)) > 1e-9 then stable := false;
      t.factor.(i) <- f
    done;
    incr iters
  done;
  t.last_iters <- !iters;
  List.iter
    (fun a ->
      a.delivered_rate <- a.new_delivered;
      Array.blit a.new_fate 0 a.fate_rate 0 n_terms)
    t.aggs;
  for i = 0 to nl - 1 do
    let bw = Link.bandwidth t.links.(i) in
    Link.set_fluid t.links.(i) ~offered:t.offered.(i)
      ~admitted:(Float.min t.offered.(i) bw)
  done

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    (* after 0.: runs once the current event cascade settles, coalescing a
       burst of filter changes into one recompute *)
    ignore
      (Sim.after ~label:"fluid-recompute" t.sim 0. (fun () ->
           t.dirty <- false;
           recompute t))
  end

(* --- filter mirroring ----------------------------------------------------- *)

let first_block m =
  if m = 0 then -1
  else begin
    let i = ref 0 in
    while m land (1 lsl !i) = 0 do
      incr i
    done;
    !i
  end

let set_mask agg idx nw =
  let old = agg.mask.(idx) in
  if nw = old then false
  else begin
    let ob = first_block old and nb = first_block nw in
    if ob >= 0 then agg.cuts.(ob) <- agg.cuts.(ob) - 1;
    if nb >= 0 then agg.cuts.(nb) <- agg.cuts.(nb) + 1;
    agg.mask.(idx) <- nw;
    agg.stale <- true;
    true
  end

let set_cap agg idx stage c =
  match Hashtbl.find_opt agg.limited idx with
  | Some caps ->
    if caps.(stage) = c then false
    else begin
      caps.(stage) <- c;
      if Array.for_all (fun x -> x = infinity) caps then
        Hashtbl.remove agg.limited idx;
      agg.stale <- true;
      true
    end
  | None ->
    if c = infinity then false
    else begin
      let caps = Array.make (Array.length agg.fnodes) infinity in
      caps.(stage) <- c;
      Hashtbl.replace agg.limited idx caps;
      agg.stale <- true;
      true
    end

(* The protocol fluid traffic carries: [Packet.make]'s default, as on the
   sampler's probe packets. *)
let data_proto = 17

(* The source-index range a label's source selector can possibly touch —
   just a bound; the table's classification decides per source. *)
let src_range agg sel =
  let base = Addr.to_unsigned agg.src_base in
  match sel with
  | Flow_label.Any -> Some (0, agg.n - 1)
  | Flow_label.Host a ->
    let off = Addr.to_unsigned a - base in
    if off >= 0 && off < agg.n then Some (off, off) else None
  | Flow_label.Net p ->
    let pb = Addr.to_unsigned p.Addr.base in
    let span = 1 lsl (32 - p.Addr.len) in
    let lo = max base pb in
    let hi = min (base + agg.n - 1) (pb + span - 1) in
    if lo > hi then None else Some (lo - base, hi - base)

(* The rate domain reacted to this filter: annotate the owning request's
   span tree so hybrid traces show the mirror kept pace. The spans
   themselves are closed by the gateway's own table subscription — the
   same seam — so both engines close identical span sets. Recorded in the
   table's own world (the shard's in sharded runs), from the subscribing
   context, never from a deferred replay — the span is open and the
   instant exact right where the change fires. *)
let annotate_change sim change =
  if Aitf_obs.Span.enabled sim then
    let h, event =
      match change with
      | Filter_table.Installed h | Filter_table.Refreshed h ->
        (h, "fluid-mirror-install")
      | Filter_table.Removed h -> (h, "fluid-mirror-remove")
    in
    match Filter_table.corr h with
    | Some corr -> Aitf_obs.Span.root_event sim ~corr event
    | None -> ()

(* Re-derive the fate at [stage] of every source in [lo..hi] from the
   stage's table itself — ground truth, so overlapping filters and
   refreshes that change the action need no bookkeeping of their own. The
   table classifies the range into runs sharing one entry; each run's fate
   is worked out once and written over its sources. A run that neither
   blocks nor caps cannot touch an aggregate with no capped source, so it
   skips the cap lookup. *)
let reclassify table agg stage ~lo ~hi =
  let base = Addr.to_unsigned agg.src_base in
  let bit = 1 lsl stage in
  let changed = ref false in
  Filter_table.classify_range table ~dst:agg.dst ~proto:data_proto
    ~lo:(base + lo) ~hi:(base + hi) (fun a b entry ->
      let block, cap =
        match entry with
        | None -> (false, infinity)
        | Some h -> (
          match Filter_table.rate_limit h with
          | None -> (true, infinity)
          | Some bytes_rate -> (false, bytes_rate *. 8.))
      in
      let uncapped = cap = infinity && Hashtbl.length agg.limited = 0 in
      for idx = a - base to b - base do
        let m = agg.mask.(idx) in
        let nw = if block then m lor bit else m land lnot bit in
        let m_changed = set_mask agg idx nw in
        let c_changed = (not uncapped) && set_cap agg idx stage cap in
        if m_changed || c_changed then changed := true
      done);
  !changed

(* A stage joining a table that already holds filters starts in sync with
   it: the mirror is change-driven, so nothing later would re-derive the
   entries it joined. An empty table costs one comparison. *)
let sweep table agg stage =
  Filter_table.occupancy table > 0
  && reclassify table agg stage ~lo:0 ~hi:(agg.n - 1)

let on_change t node_id h =
  let label = Filter_table.label h in
  match (Hashtbl.find_opt t.subs node_id, Hashtbl.find_opt t.tables node_id) with
  | Some stages, Some table ->
    List.iter
      (fun (agg, stage) ->
        if Flow_label.sel_matches label.Flow_label.dst agg.dst then
          match src_range agg label.Flow_label.src with
          | None -> ()
          | Some (lo, hi) ->
            if reclassify table agg stage ~lo ~hi then mark_dirty t)
      stages
  | _ -> ()

let attach_table ?defer t ~node table =
  let id = node.Node.id in
  Hashtbl.replace t.tables id table;
  (match Hashtbl.find_opt t.subs id with
  | Some stages ->
    List.iter
      (fun (agg, stage) -> if sweep table agg stage then mark_dirty t)
      stages
  | None -> ());
  let mirror h = on_change t id h in
  (* In sharded runs filter changes happen during shard windows while the
     fluid state is shared: the mirror update is deferred to the barrier
     (where [on_change] re-derives ground truth from the table,
     so late application is safe and idempotent). The span annotation is
     NOT deferred — it must record in the subscriber's context at the
     table clock's exact instant, or traces would depend on the shard
     layout. *)
  let mirror =
    match defer with
    | None -> mirror
    | Some d -> fun h -> d (fun () -> mirror h)
  in
  Filter_table.subscribe table (fun ev ->
      annotate_change (Filter_table.sim table) ev;
      (* A refresh that kept the action leaves every answer the table
         gives unchanged. Decided here, from the change itself: a deferred
         replay reads the table as it stands at the barrier, by which time
         a later refresh may have followed an install it must still apply. *)
      match ev with
      | Filter_table.Refreshed _ -> ()
      | Filter_table.Installed h | Filter_table.Removed h -> mirror h)

(* --- reporting ----------------------------------------------------------- *)

let bits_of t ~attack read =
  integrate t;
  List.fold_left
    (fun acc a -> if a.attack = attack then acc +. read a else acc)
    0. t.aggs

let ledger_plane t =
  let module L = Aitf_obs.Ledger in
  let bytes cls read =
    match cls with
    | L.Control -> 0.
    | L.Attack | L.Legit -> bits_of t ~attack:(cls = L.Attack) read /. 8.
  in
  let term i a = a.fate_bits.(i) in
  {
    L.offered_bytes = (fun cls -> bytes cls (term term_offered));
    fate_bytes =
      (fun cls fate ->
        match fate with
        | L.Delivered -> bytes cls (fun a -> a.delivered_bits)
        | L.Gated -> bytes cls (term term_gated)
        | L.Aitf_filter -> bytes cls (term term_filtered)
        | L.Rate_limited -> bytes cls (term term_limited)
        | L.Queue_overflow -> bytes cls (term term_lost)
        | _ -> 0.);
  }

(* --- construction --------------------------------------------------------- *)

let create ?(epoch = 0.1) net =
  if epoch <= 0. then invalid_arg "Fluid.create: epoch must be positive";
  let sim = Network.sim net in
  let t =
    {
      sim;
      net;
      epoch;
      aggs = [];
      links = [||];
      offered = [||];
      factor = [||];
      tables = Hashtbl.create 16;
      subs = Hashtbl.create 16;
      dirty = false;
      next_id = 0;
      total_sources = 0;
      recomputes = 0;
      last_iters = 0;
      link_visits = 0;
      last_integrate = Sim.now sim;
    }
  in
  Aitf_obs.Ledger.add_plane (Aitf_obs.Ledger.of_sim sim) (ledger_plane t);
  let rec tick () =
    recompute t;
    ignore (Sim.after ~label:"fluid-epoch" t.sim t.epoch tick)
  in
  ignore (Sim.after ~label:"fluid-epoch" t.sim t.epoch tick);
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      let open Aitf_obs.Metrics in
      let rate_of ~attack () =
        List.fold_left
          (fun acc a ->
            if a.attack = attack && a.active then acc +. a.delivered_rate
            else acc)
          0. t.aggs
      in
      register_gauge reg "flowsim.aggregates" ~unit_:"aggregates"
        ~help:"Fluid aggregates in the engine" (fun () ->
          float_of_int (List.length t.aggs));
      register_gauge reg "flowsim.sources" ~unit_:"sources"
        ~help:"Total sources across all aggregates" (fun () ->
          float_of_int t.total_sources);
      register_counter reg "flowsim.recomputes" ~unit_:"recomputes"
        ~help:"Share recomputations (epochs and rate/filter changes)"
        (fun () -> float_of_int t.recomputes);
      register_counter reg "flowsim.recompute_link_visits" ~unit_:"visits"
        ~help:"Cumulative link updates across recomputes — the epoch cost"
        (fun () -> float_of_int t.link_visits);
      register_gauge reg "flowsim.last_iterations" ~unit_:"iterations"
        ~help:"Fixed-point iterations of the most recent recompute"
        (fun () -> float_of_int t.last_iters);
      register_gauge reg "flowsim.attack_delivered_bps" ~unit_:"bits/s"
        ~help:"Attack-aggregate rate currently reaching destinations"
        (rate_of ~attack:true);
      register_gauge reg "flowsim.good_delivered_bps" ~unit_:"bits/s"
        ~help:"Legitimate-aggregate rate currently reaching destinations"
        (rate_of ~attack:false));
  t

let register_link t link =
  let nl = Array.length t.links in
  let rec find i = if i >= nl then -1 else if t.links.(i) == link then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    t.links <- Array.append t.links [| link |];
    t.offered <- Array.append t.offered [| 0. |];
    t.factor <- Array.append t.factor [| 1. |];
    nl
  end

let derive_path t ~origin ~dst =
  let links = ref [] in
  let fnodes = ref [] in
  let cur = ref origin in
  let steps = ref 0 in
  while not (Addr.equal !cur.Node.addr dst) do
    incr steps;
    if !steps > max_stages then
      invalid_arg "Fluid.add_aggregate: path too long (routing loop?)";
    match Lpm.lookup !cur.Node.fib dst with
    | None -> invalid_arg "Fluid.add_aggregate: no route to destination"
    | Some port ->
      fnodes := !cur :: !fnodes;
      links := port.Node.link :: !links;
      cur := Network.node t.net port.Node.peer_id
  done;
  (Array.of_list (List.rev !links), Array.of_list (List.rev !fnodes))

let add_aggregate ?(pkt_size = 1000) ?(flow_id = 0) ?(stop = infinity) t
    ~origin ~src_base ~n ~rate ~dst ~attack ~start =
  if n <= 0 then invalid_arg "Fluid.add_aggregate: n must be positive";
  if rate <= 0. then invalid_arg "Fluid.add_aggregate: rate must be positive";
  if Addr.to_unsigned src_base + n - 1 > 0xFFFF_FFFF then
    invalid_arg "Fluid.add_aggregate: source range runs past 255.255.255.255";
  let links, fnodes = derive_path t ~origin ~dst in
  let k = Array.length links in
  if k = 0 then invalid_arg "Fluid.add_aggregate: origin is the destination";
  let link_idx = Array.map (register_link t) links in
  let agg =
    {
      aid = t.next_id;
      origin;
      src_base;
      n;
      per_src_rate = rate /. float_of_int n;
      dst;
      attack;
      flow_id;
      pkt_size;
      link_idx;
      fnodes;
      mask = Array.make n 0;
      cuts = Array.make k 0;
      limited = Hashtbl.create 8;
      lim_pass = Array.make k 0;
      lims = [];
      stale = false;
      active = false;
      delivered_rate = 0.;
      new_delivered = 0.;
      delivered_bits = 0.;
      n_lims = 0;
      fate_rate = Array.make n_terms 0.;
      new_fate = Array.make n_terms 0.;
      fate_bits = Array.make n_terms 0.;
    }
  in
  t.next_id <- t.next_id + 1;
  t.total_sources <- t.total_sources + n;
  t.aggs <- t.aggs @ [ agg ];
  Array.iteri
    (fun s nd ->
      let id = nd.Node.id in
      let prev =
        match Hashtbl.find_opt t.subs id with Some l -> l | None -> []
      in
      Hashtbl.replace t.subs id ((agg, s) :: prev);
      (* no recompute needed: the aggregate is inactive until [start] *)
      match Hashtbl.find_opt t.tables id with
      | Some table -> ignore (sweep table agg s)
      | None -> ())
    fnodes;
  let now = Sim.now t.sim in
  ignore
    (Sim.after t.sim
       (Float.max 0. (start -. now))
       (fun () ->
         integrate t;
         agg.active <- true;
         mark_dirty t));
  if stop < infinity then
    ignore
      (Sim.after t.sim
         (Float.max 0. (stop -. now))
         (fun () ->
           integrate t;
           agg.active <- false;
           agg.delivered_rate <- 0.;
           mark_dirty t));
  agg

(* --- bridge / reporting accessors ---------------------------------------- *)

let network t = t.net
let epoch t = t.epoch
let aggregates t = List.length t.aggs
let total_sources t = t.total_sources
let recomputes t = t.recomputes
let link_visits t = t.link_visits

let set_block t agg ~idx ~stage blocked =
  if idx < 0 || idx >= agg.n then invalid_arg "Fluid.set_block: index";
  if stage < 0 || stage >= Array.length agg.fnodes then
    invalid_arg "Fluid.set_block: stage";
  let bit = 1 lsl stage in
  let nw =
    if blocked then agg.mask.(idx) lor bit else agg.mask.(idx) land lnot bit
  in
  if set_mask agg idx nw then mark_dirty t

let delivered_rate agg = agg.delivered_rate

let iter_aggregates t f = List.iter f t.aggs
let stage_nodes agg = Array.to_list agg.fnodes
let n_sources agg = agg.n
let origin agg = agg.origin
let src_base agg = agg.src_base
let dst agg = agg.dst
let attack agg = agg.attack
let flow_id agg = agg.flow_id
let pkt_size agg = agg.pkt_size
let total_rate agg = agg.per_src_rate *. float_of_int agg.n
let active agg = agg.active
let source_addr agg idx = Addr.add agg.src_base idx

let source_index agg addr =
  let off = Addr.to_unsigned addr - Addr.to_unsigned agg.src_base in
  if off >= 0 && off < agg.n then Some off else None

let source_sending agg idx =
  agg.active && agg.mask.(idx) land 1 = 0

let blocked_sources agg = Array.fold_left ( + ) 0 agg.cuts
