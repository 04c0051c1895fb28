(* The per-hop micro ledger: ns and minor words per operation of each piece
   a packet hop goes through, measured with Bechamel (monotonic clock and
   [minor_allocated], one OLS estimate per instance). Inputs are built with
   the library's public constructors only. README.md lists which
   end-to-end metric each entry should move. *)

open Aitf_net
open Aitf_filter
module Sim = Aitf_engine.Sim
module Heap = Aitf_engine.Heap
module Rng = Aitf_engine.Rng
module Gateway = Aitf_core.Gateway
module Config = Aitf_core.Config

let noop () = ()
let drain sim = Sim.run ~until:(Sim.now sim +. 1.) sim
let data src dst = Packet.make ~src ~dst ~size:1000 (Packet.Data { flow_id = 1; attack = true })
let addr = Addr.of_string

(* One event scheduled and executed on an otherwise empty world. *)
let sim_step () =
  let sim = Sim.create () in
  fun () ->
    ignore (Sim.after sim 0.001 noop);
    ignore (Sim.step sim)

let heap_push_pop () =
  let h = Heap.create ~cmp:Float.compare in
  for i = 0 to 1023 do
    Heap.push h (float_of_int (i * 7919 mod 1024))
  done;
  fun () ->
    Heap.push h 512.5;
    ignore (Heap.pop h)

(* One packet sent on an idle link: its tx event, then its delivery. *)
let link_send_deliver () =
  let sim = Sim.create () in
  let l = Link.create sim ~name:"l" ~bandwidth:1e9 ~delay:0.001 ~queue_capacity:65536 in
  Link.set_deliver l ignore;
  let pkt = data (addr "10.0.0.10") (addr "20.0.0.10") in
  fun () ->
    Link.send l pkt;
    drain sim

(* A packet originated at a host, forwarded by an AITF gateway (blocklist,
   filter table, shadow cache, route record, LPM forward) and delivered to
   a host in the next domain: two link hops and one gateway pass. *)
let hop_via_gateway () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let host name a as_id = Network.add_node net ~name ~addr:(addr a) ~as_id Node.Host in
  let src = host "src" "10.0.0.10" 1 in
  let gw = Network.add_node net ~name:"gw" ~addr:(addr "10.0.0.1") ~as_id:1 Node.Border_router in
  let dst = host "dst" "20.0.0.10" 2 in
  ignore (Network.connect net src gw ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gw dst ~bandwidth:1e9 ~delay:0.001);
  Network.compute_routes net;
  ignore
    (Gateway.create ~clients:[ Addr.prefix_of_string "10.0.0.0/24" ] ~config:Config.default
       ~rng:(Rng.create ~seed:1) net gw);
  fun () ->
    Network.originate net src (data src.Node.addr dst.Node.addr);
    drain sim

let lpm_lookup () =
  let t = Lpm.create () in
  for i = 0 to 999 do
    Lpm.insert t (Addr.prefix (Addr.add (addr "10.0.0.0") (i * 256)) 24) i
  done;
  Lpm.insert t (Addr.prefix (addr "20.0.0.0") 8) (-1);
  let a = addr "10.1.2.3" in
  fun () -> ignore (Lpm.lookup t a)

(* A gateway stamping itself onto a packet that already crossed three. *)
let record_route () =
  let node = Node.make ~id:0 ~name:"gw" ~addr:(addr "4.0.0.1") ~as_id:0 Node.Border_router in
  let pkt = data (addr "10.0.0.10") (addr "20.0.0.10") in
  let path = [ addr "4.1.0.1"; addr "4.2.0.1"; addr "4.3.0.1" ] in
  fun () ->
    pkt.Packet.route_record <- path;
    ignore (Aitf_traceback.Route_record.hook node pkt)

(* A table of 1000 exact host-pair filters plus [w] prefix wildcards that
   match neither probe, so a miss scans all of them. *)
let filter_check ~wildcards ~hit =
  let t = Filter_table.create (Sim.create ()) ~capacity:4096 in
  let victim = addr "20.0.0.10" in
  let install label = ignore (Filter_table.install t label ~duration:1e9) in
  for i = 0 to 999 do
    install (Flow_label.host_pair (Addr.add (addr "10.0.0.0") i) victim)
  done;
  for i = 0 to wildcards - 1 do
    install (Flow_label.from_net (Addr.prefix (Addr.add (addr "30.0.0.0") (i * 256)) 24) victim)
  done;
  let pkt =
    if hit then data (Addr.add (addr "10.0.0.0") 500) victim
    else data (addr "11.0.0.1") victim
  in
  fun () -> ignore (Filter_table.blocking_entry t pkt)

let tests () =
  let filters =
    List.concat_map
      (fun w ->
        [
          (Printf.sprintf "filter_hit_w%d" w, filter_check ~wildcards:w ~hit:true, true);
          (Printf.sprintf "filter_miss_w%d" w, filter_check ~wildcards:w ~hit:false, true);
        ])
      [ 0; 100; 1000 ]
  in
  [
    ("sim_step", sim_step (), true);
    ("heap_push_pop", heap_push_pop (), false);
    ("link_send_deliver", link_send_deliver (), true);
    ("hop_via_gateway", hop_via_gateway (), true);
    ("lpm_lookup", lpm_lookup (), false);
    ("record_route", record_route (), true);
  ]
  @ filters

(* Estimates for every test, sharing the time left until [deadline];
   returns [(metric name, unit, value)] with [_ns] and, where the ledger
   records allocation, [_words] entries. *)
let run ~deadline =
  let open Bechamel in
  let tests = tests () in
  let quota = Float.max 0.05 ((deadline -. Unix.gettimeofday ()) /. float_of_int (List.length tests)) in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.concat_map
    (fun (name, fn, words) ->
      let raw = Benchmark.all cfg instances (Test.make ~name (Staged.stage fn)) in
      let estimate instance =
        let results = Analyze.all ols instance raw in
        match Hashtbl.fold (fun _ r acc -> Analyze.OLS.estimates r :: acc) results [] with
        | [ Some [ e ] ] -> e
        | _ -> nan
      in
      let ns = ("micro." ^ name ^ "_ns", "ns", estimate Toolkit.Instance.monotonic_clock) in
      if words then
        [ ns; ("micro." ^ name ^ "_words", "words", estimate Toolkit.Instance.minor_allocated) ]
      else [ ns ])
    tests
