(* Tests for aitf_filter: flow labels, filter tables, shadow cache and
   token-bucket policers. *)

module Sim = Aitf_engine.Sim
open Aitf_net
open Aitf_filter

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let addr = Addr.of_string

let data_packet ?spoofed_src ?(proto = 17) ~src ~dst () =
  Packet.make ?spoofed_src ~proto ~src ~dst ~size:1000
    (Packet.Data { flow_id = 0; attack = true })

(* --- Flow labels ---------------------------------------------------------- *)

let test_label_host_pair_match () =
  let l = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2") in
  checkb "match" true
    (Flow_label.matches l (data_packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()));
  checkb "wrong src" false
    (Flow_label.matches l (data_packet ~src:(addr "1.0.0.9") ~dst:(addr "2.0.0.2") ()));
  checkb "wrong dst" false
    (Flow_label.matches l (data_packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.9") ()))

let test_label_matches_header_src () =
  (* Spoofed packets match labels naming the spoofed (header) address. *)
  let l = Flow_label.host_pair (addr "9.9.9.9") (addr "2.0.0.2") in
  let pkt =
    data_packet ~spoofed_src:(addr "9.9.9.9") ~src:(addr "1.0.0.1")
      ~dst:(addr "2.0.0.2") ()
  in
  checkb "spoofed header matches" true (Flow_label.matches l pkt)

let test_label_net_and_any () =
  let l = Flow_label.from_net (Addr.prefix_of_string "10.0.0.0/8") (addr "2.0.0.2") in
  checkb "prefix src" true
    (Flow_label.matches l (data_packet ~src:(addr "10.3.4.5") ~dst:(addr "2.0.0.2") ()));
  checkb "outside prefix" false
    (Flow_label.matches l (data_packet ~src:(addr "11.0.0.1") ~dst:(addr "2.0.0.2") ()));
  let from = Flow_label.from_host (addr "1.0.0.1") in
  checkb "any dst" true
    (Flow_label.matches from (data_packet ~src:(addr "1.0.0.1") ~dst:(addr "5.5.5.5") ()))

let test_label_proto () =
  let l = Flow_label.v ~proto:6 (Flow_label.Host (addr "1.0.0.1")) Flow_label.Any in
  checkb "matching proto" true
    (Flow_label.matches l (data_packet ~proto:6 ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()));
  checkb "other proto" false
    (Flow_label.matches l (data_packet ~proto:17 ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()))

let test_label_ports () =
  let l =
    Flow_label.v ~dport:80 (Flow_label.Host (addr "1.0.0.1")) Flow_label.Any
  in
  let pkt ~dport =
    Packet.make ~dport ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:10
      (Packet.Data { flow_id = 0; attack = true })
  in
  checkb "port 80 matches" true (Flow_label.matches l (pkt ~dport:80));
  checkb "port 81 misses" false (Flow_label.matches l (pkt ~dport:81));
  (* The attacker switching ports dodges a port-qualified filter but not a
     host-pair one — the intro's "oscillate ... port numbers" point. *)
  let unqualified = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2") in
  checkb "host pair blind to ports" true
    (Flow_label.matches unqualified (pkt ~dport:81));
  checkb "port label not exact" false (Flow_label.is_exact l);
  checkb "unqualified subsumes qualified" true
    (Flow_label.subsumes
       (Flow_label.v (Flow_label.Host (addr "1.0.0.1")) Flow_label.Any)
       l);
  checkb "qualified does not subsume" false
    (Flow_label.subsumes l
       (Flow_label.v (Flow_label.Host (addr "1.0.0.1")) Flow_label.Any))

let test_label_of_string () =
  let check_roundtrip s =
    checks s s (Flow_label.to_string (Flow_label.of_string s))
  in
  List.iter check_roundtrip
    [
      "1.2.3.4 -> 5.6.7.8";
      "* -> 5.6.7.8";
      "10.0.0.0/8 -> *";
      "1.2.3.4 -> 5.6.7.8 proto=6 sport=1024 dport=80";
    ];
  List.iter
    (fun s ->
      checkb s true
        (try
           ignore (Flow_label.of_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "1.2.3.4"; "1.2.3.4 -> "; "a -> b"; "* -> * bogus=1";
      "* -> * proto=abc"; "* -> * proto=-1" ]

let test_label_subsumes () =
  let wide = Flow_label.from_net (Addr.prefix_of_string "10.0.0.0/8") (addr "2.0.0.2") in
  let narrow = Flow_label.host_pair (addr "10.1.1.1") (addr "2.0.0.2") in
  checkb "net subsumes host" true (Flow_label.subsumes wide narrow);
  checkb "host does not subsume net" false (Flow_label.subsumes narrow wide);
  checkb "reflexive" true (Flow_label.subsumes wide wide);
  let any = Flow_label.v Flow_label.Any Flow_label.Any in
  checkb "any subsumes everything" true (Flow_label.subsumes any narrow);
  let with_proto = { narrow with Flow_label.proto = Some 6 } in
  checkb "no-proto subsumes proto" true (Flow_label.subsumes narrow with_proto);
  checkb "proto does not subsume no-proto" false
    (Flow_label.subsumes with_proto narrow)

let test_label_equal_compare () =
  let a = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2") in
  let b = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2") in
  let c = Flow_label.host_pair (addr "1.0.0.2") (addr "2.0.0.2") in
  checkb "equal" true (Flow_label.equal a b);
  checki "compare equal" 0 (Flow_label.compare a b);
  checkb "hash equal" true (Flow_label.hash a = Flow_label.hash b);
  checkb "different" false (Flow_label.equal a c)

let test_label_is_exact () =
  checkb "host pair exact" true
    (Flow_label.is_exact (Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2")));
  checkb "from_host not exact" false
    (Flow_label.is_exact (Flow_label.from_host (addr "1.0.0.1")))

let label_gen =
  let open QCheck.Gen in
  let sel =
    frequency
      [
        (1, return Flow_label.Any);
        (3, map (fun i -> Flow_label.Host (Int32.of_int i)) (int_bound 1000));
        ( 2,
          map2
            (fun i len -> Flow_label.Net (Addr.prefix (Int32.of_int i) len))
            (int_bound 1000) (int_bound 32) );
      ]
  in
  let proto = opt (int_bound 255) in
  map3
    (fun s d p ->
      { Flow_label.src = s; dst = d; proto = p; sport = None; dport = None })
    sel sel proto

let label_arb = QCheck.make label_gen

let subsumption_implies_match =
  QCheck.Test.make ~name:"subsumption is consistent with matching" ~count:500
    (QCheck.pair label_arb (QCheck.pair QCheck.(int_bound 1000) QCheck.(int_bound 1000)))
    (fun (l, (s, d)) ->
      let pkt =
        Packet.make ~src:(Int32.of_int s) ~dst:(Int32.of_int d) ~size:10
          (Packet.Data { flow_id = 0; attack = false })
      in
      (* If l subsumes the exact host-pair label of the packet, l must match
         the packet. *)
      let exact = Flow_label.host_pair pkt.Packet.src pkt.Packet.dst in
      (not (Flow_label.subsumes l exact)) || Flow_label.matches l pkt)

let subsumes_reflexive_transitive =
  QCheck.Test.make ~name:"subsumption is reflexive and transitive" ~count:300
    (QCheck.triple label_arb label_arb label_arb)
    (fun (a, b, c) ->
      Flow_label.subsumes a a
      && ((not (Flow_label.subsumes a b && Flow_label.subsumes b c))
         || Flow_label.subsumes a c))

let subsumes_antisymmetric =
  QCheck.Test.make ~name:"mutual subsumption implies equality" ~count:300
    (QCheck.pair label_arb label_arb)
    (fun (a, b) ->
      (not (Flow_label.subsumes a b && Flow_label.subsumes b a))
      || Flow_label.equal a b)

let to_string_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string" ~count:300 label_arb
    (fun l -> Flow_label.equal l (Flow_label.of_string (Flow_label.to_string l)))

let compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric and equal-consistent"
    ~count:500 (QCheck.pair label_arb label_arb) (fun (a, b) ->
      let c1 = Flow_label.compare a b and c2 = Flow_label.compare b a in
      (c1 = 0) = (c2 = 0)
      && (c1 > 0) = (c2 < 0)
      && Flow_label.equal a b = (c1 = 0))

(* --- Filter table ---------------------------------------------------------- *)

let mk_table ?(capacity = 4) () =
  let sim = Sim.create () in
  (sim, Filter_table.create sim ~capacity)

let l1 = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2")
let l2 = Flow_label.host_pair (addr "1.0.0.2") (addr "2.0.0.2")
let p1 () = data_packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()

let test_table_install_and_block () =
  let _sim, t = mk_table () in
  (match Filter_table.install t l1 ~duration:10. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "unexpected full");
  checkb "blocks match" true (Filter_table.blocks t (p1 ()));
  checkb "other flow passes" false
    (Filter_table.blocks t (data_packet ~src:(addr "5.0.0.5") ~dst:(addr "2.0.0.2") ()));
  checki "occupancy" 1 (Filter_table.occupancy t);
  checki "blocked packets" 1 (Filter_table.blocked_packets t);
  checki "blocked bytes" 1000 (Filter_table.blocked_bytes t)

let test_table_expiry () =
  let sim, t = mk_table () in
  ignore (Filter_table.install t l1 ~duration:5.);
  Sim.run ~until:4.9 sim;
  checkb "still blocking" true (Filter_table.blocks t (p1 ()));
  Sim.run ~until:5.1 sim;
  checkb "expired" false (Filter_table.blocks t (p1 ()));
  checki "occupancy zero" 0 (Filter_table.occupancy t)

let test_table_capacity () =
  let _sim, t = mk_table ~capacity:2 () in
  ignore (Filter_table.install t l1 ~duration:10.);
  ignore (Filter_table.install t l2 ~duration:10.);
  (match
     Filter_table.install t
       (Flow_label.host_pair (addr "1.0.0.3") (addr "2.0.0.2"))
       ~duration:10.
   with
  | Ok _ -> Alcotest.fail "expected Table_full"
  | Error `Table_full -> ());
  checki "rejected" 1 (Filter_table.rejected t);
  checki "peak" 2 (Filter_table.peak_occupancy t)

let test_table_refresh_same_label () =
  let sim, t = mk_table ~capacity:1 () in
  ignore (Filter_table.install t l1 ~duration:5.);
  Sim.run ~until:3. sim;
  (* Re-install: must not consume a slot and must extend expiry. *)
  (match Filter_table.install t l1 ~duration:5. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "refresh must not hit capacity");
  checki "occupancy still 1" 1 (Filter_table.occupancy t);
  Sim.run ~until:6. sim;
  checkb "survives past original expiry" true (Filter_table.blocks t (p1 ()));
  Sim.run ~until:8.1 sim;
  checkb "expires at extended time" false (Filter_table.blocks t (p1 ()))

let test_table_remove () =
  let _sim, t = mk_table () in
  let h =
    match Filter_table.install t l1 ~duration:10. with
    | Ok h -> h
    | Error _ -> Alcotest.fail "install failed"
  in
  Filter_table.remove t h;
  checkb "no longer blocking" false (Filter_table.blocks t (p1 ()));
  checkb "handle dead" false (Filter_table.live h);
  Filter_table.remove t h (* idempotent *)

let test_table_slot_reusable_after_expiry () =
  let sim, t = mk_table ~capacity:1 () in
  ignore (Filter_table.install t l1 ~duration:1.);
  Sim.run ~until:2. sim;
  (match Filter_table.install t l2 ~duration:1. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "slot should be free");
  checki "peak stays 1" 1 (Filter_table.peak_occupancy t)

let test_table_wildcard_entries () =
  let _sim, t = mk_table () in
  ignore
    (Filter_table.install t
       (Flow_label.from_net (Addr.prefix_of_string "10.0.0.0/8") (addr "2.0.0.2"))
       ~duration:10.);
  checkb "wildcard blocks" true
    (Filter_table.blocks t (data_packet ~src:(addr "10.9.9.9") ~dst:(addr "2.0.0.2") ()));
  checkb "outside passes" false
    (Filter_table.blocks t (data_packet ~src:(addr "11.0.0.1") ~dst:(addr "2.0.0.2") ()))

let test_table_would_block_no_stats () =
  let _sim, t = mk_table () in
  ignore (Filter_table.install t l1 ~duration:10.);
  checkb "would block" true (Filter_table.would_block t (p1 ()));
  checki "no hit recorded" 0 (Filter_table.blocked_packets t)

let test_table_hit_tracking () =
  let sim, t = mk_table () in
  let h =
    match Filter_table.install t l1 ~duration:10. with
    | Ok h -> h
    | Error _ -> Alcotest.fail "install"
  in
  ignore (Sim.at sim 2. (fun () -> ignore (Filter_table.blocks t (p1 ()))));
  ignore (Sim.at sim 3. (fun () -> ignore (Filter_table.blocks t (p1 ()))));
  Sim.run ~until:4. sim;
  checki "hits" 2 (Filter_table.hits h);
  checki "hit bytes" 2000 (Filter_table.hit_bytes h);
  checkb "last hit time" true (Filter_table.last_hit h = Some 3.)

let test_table_find () =
  let _sim, t = mk_table () in
  ignore (Filter_table.install t l1 ~duration:10.);
  checkb "find live" true (Option.is_some (Filter_table.find t l1));
  checkb "find miss" true (Filter_table.find t l2 = None)

let test_table_evict_subsumed () =
  let _sim, t = mk_table ~capacity:4 () in
  ignore (Filter_table.install t l1 ~duration:10.);
  ignore (Filter_table.install t l2 ~duration:10.);
  ignore
    (Filter_table.install t
       (Flow_label.host_pair (addr "1.0.0.1") (addr "3.0.0.3"))
       ~duration:10.);
  (* The wildcard any->2.0.0.2 covers l1 and l2 but not the third entry. *)
  let agg = Flow_label.v Flow_label.Any (Flow_label.Host (addr "2.0.0.2")) in
  checki "two evicted" 2 (Filter_table.evict_subsumed t agg);
  checki "occupancy" 1 (Filter_table.occupancy t);
  checkb "uncovered survives" true
    (Filter_table.would_block t
       (data_packet ~src:(addr "1.0.0.1") ~dst:(addr "3.0.0.3") ()));
  (* And now the aggregate fits. *)
  (match Filter_table.install t agg ~duration:10. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "room was made");
  checkb "aggregate blocks both old flows" true
    (Filter_table.would_block t (p1 ())
    && Filter_table.would_block t
         (data_packet ~src:(addr "1.0.0.2") ~dst:(addr "2.0.0.2") ()))

let test_table_evict_subsumed_none () =
  let _sim, t = mk_table () in
  ignore (Filter_table.install t l1 ~duration:10.);
  let other = Flow_label.v Flow_label.Any (Flow_label.Host (addr "9.9.9.9")) in
  checki "nothing covered" 0 (Filter_table.evict_subsumed t other);
  checki "occupancy intact" 1 (Filter_table.occupancy t)

let test_table_proto_probe () =
  (* An exact label qualified by protocol must match packets of that
     protocol via the hash probe. *)
  let _sim, t = mk_table () in
  ignore
    (Filter_table.install t { l1 with Flow_label.proto = Some 6 } ~duration:10.);
  checkb "proto 6 blocked" true
    (Filter_table.blocks t
       (data_packet ~proto:6 ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()));
  checkb "proto 17 passes" false
    (Filter_table.blocks t
       (data_packet ~proto:17 ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ()))

let test_table_rate_limited_entry () =
  let sim, t = mk_table () in
  (* 2000 B/s allowance; 1000 B packets arriving at 10/s: ~2 per second
     pass, the rest are dropped. *)
  (match Filter_table.install ~rate_limit:2000. t l1 ~duration:100. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "install");
  let passed = ref 0 and dropped = ref 0 in
  for i = 0 to 99 do
    ignore
      (Sim.at sim
         (0.1 *. float_of_int (i + 1))
         (fun () ->
           if Filter_table.blocks t (p1 ()) then incr dropped else incr passed))
  done;
  Sim.run sim;
  (* 10 s at 2 pkt/s + burst ~= 22; allow slack. *)
  checkb "conforming share passes" true (abs (!passed - 22) <= 3);
  checki "the rest dropped" 100 (!passed + !dropped);
  checkb "drops counted as hits" true (Filter_table.blocked_packets t = !dropped)

let test_table_block_entry_blocks_everything () =
  let _sim, t = mk_table () in
  ignore (Filter_table.install t l1 ~duration:100.);
  for _ = 1 to 10 do
    checkb "always blocked" true (Filter_table.blocks t (p1 ()))
  done

(* Property: with lazy capacity, a table never blocks a packet unless some
   installed-and-unexpired label matches it. *)
let table_soundness =
  QCheck.Test.make ~name:"table blocks iff a live label matches" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 10) (pair QCheck.(int_bound 50) QCheck.(int_bound 50)))
    (fun pairs ->
      let sim = Sim.create () in
      let t = Filter_table.create sim ~capacity:100 in
      let labels =
        List.map
          (fun (s, d) ->
            let l = Flow_label.host_pair (Int32.of_int s) (Int32.of_int d) in
            ignore (Filter_table.install t l ~duration:10.);
            l)
          pairs
      in
      let probe =
        Packet.make ~src:25l ~dst:25l ~size:10
          (Packet.Data { flow_id = 0; attack = false })
      in
      Filter_table.would_block t probe
      = List.exists (fun l -> Flow_label.matches l probe) labels)

(* --- Install under pressure, wildcard ordering, refresh semantics --------- *)

let test_table_install_evicts_subsumed () =
  (* A full table makes room for an aggregate by evicting what it covers
     instead of answering Table_full. *)
  let _sim, t = mk_table ~capacity:2 () in
  ignore (Filter_table.install t l1 ~duration:10.);
  ignore (Filter_table.install t l2 ~duration:10.);
  let agg = Flow_label.v Flow_label.Any (Flow_label.Host (addr "2.0.0.2")) in
  (match Filter_table.install t agg ~duration:10. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "aggregate must evict what it subsumes");
  checki "occupancy" 1 (Filter_table.occupancy t);
  checki "nothing rejected" 0 (Filter_table.rejected t);
  checkb "aggregate blocks the old flows" true (Filter_table.blocks t (p1 ()))

let test_table_install_full_no_subsumed () =
  (* The eviction attempt is a no-op when the incoming label covers nothing;
     the rejection is still counted. *)
  let _sim, t = mk_table ~capacity:2 () in
  ignore (Filter_table.install t l1 ~duration:10.);
  ignore (Filter_table.install t l2 ~duration:10.);
  (match
     Filter_table.install t
       (Flow_label.host_pair (addr "5.0.0.5") (addr "6.0.0.6"))
       ~duration:10.
   with
  | Ok _ -> Alcotest.fail "expected Table_full"
  | Error `Table_full -> ());
  checki "rejected" 1 (Filter_table.rejected t);
  checki "occupancy intact" 2 (Filter_table.occupancy t)

let test_table_wildcard_most_specific_first () =
  (* Whatever the install order, the narrowest matching wildcard takes the
     hit — so its stats name the actual attack, not a catch-all. *)
  let any = Flow_label.v Flow_label.Any (Flow_label.Host (addr "2.0.0.2")) in
  let net8 =
    Flow_label.from_net (Addr.prefix_of_string "1.0.0.0/8") (addr "2.0.0.2")
  in
  List.iter
    (fun order ->
      let _sim, t = mk_table () in
      List.iter (fun l -> ignore (Filter_table.install t l ~duration:10.)) order;
      match Filter_table.blocking_entry t (p1 ()) with
      | None -> Alcotest.fail "must block"
      | Some h ->
        checkb "most specific wins" true
          (Flow_label.equal (Filter_table.label h) net8);
        checki "hit on the specific entry" 1 (Filter_table.hits h))
    [ [ any; net8 ]; [ net8; any ] ]

let test_table_wildcard_tie_deterministic () =
  (* Equal specificity: the tie-break is the label total order, not install
     recency, so replayed runs block with the same entry. *)
  let a =
    Flow_label.v
      (Flow_label.Net (Addr.prefix_of_string "1.0.0.0/8"))
      (Flow_label.Host (addr "2.0.0.2"))
  in
  let b =
    Flow_label.v
      (Flow_label.Host (addr "1.0.0.1"))
      (Flow_label.Net (Addr.prefix_of_string "2.0.0.0/8"))
  in
  let winner order =
    let _sim, t = mk_table () in
    List.iter (fun l -> ignore (Filter_table.install t l ~duration:10.)) order;
    match Filter_table.blocking_entry t (p1 ()) with
    | Some h -> Filter_table.label h
    | None -> Alcotest.fail "must block"
  in
  checkb "order-independent winner" true
    (Flow_label.equal (winner [ a; b ]) (winner [ b; a ]))

let test_table_refresh_applies_rate_limit () =
  (* A refresh that asks for a rate limit converts the blocking entry into a
     rate limiter (the filter_action=Rate_limit escalation path). The change
     feed reports a refresh as [Installed] only when it changed the action. *)
  let _sim, t = mk_table ~capacity:1 () in
  let feed = ref [] in
  Filter_table.subscribe t (fun ch ->
      feed :=
        (match ch with
        | Filter_table.Installed _ -> "installed"
        | Filter_table.Refreshed _ -> "refreshed"
        | Filter_table.Removed _ -> "removed")
        :: !feed);
  let install ?rate_limit expect =
    (match Filter_table.install ?rate_limit t l1 ~duration:100. with
    | Ok _ -> ()
    | Error `Table_full -> Alcotest.fail "refresh");
    checks "change sent" expect (List.hd !feed)
  in
  install "installed";
  checkb "blocks before refresh" true (Filter_table.blocks t (p1 ()));
  install "refreshed";
  install ~rate_limit:2000. "installed";
  install ~rate_limit:2000. "refreshed";
  (* 2000 B/s with a 2000 B burst: two 1000 B packets conform, then drop. *)
  checkb "conforming passes" false (Filter_table.blocks t (p1 ()));
  checkb "still conforming" false (Filter_table.blocks t (p1 ()));
  checkb "over budget drops" true (Filter_table.blocks t (p1 ()));
  install "refreshed";
  checkb "no rate keeps the rate-limit" true
    (Filter_table.rate_limit (Option.get (Filter_table.find t l1)) = Some 2000.);
  install ~rate_limit:4000. "installed";
  checki "one notice per install" 6 (List.length !feed)

let test_table_accounting_mixed () =
  (* Occupancy / peak / rejected across a mixed install-evict-expire run. *)
  let sim, t = mk_table ~capacity:3 () in
  let a = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2") in
  let b = Flow_label.host_pair (addr "1.0.0.2") (addr "2.0.0.2") in
  let c = Flow_label.host_pair (addr "1.0.0.3") (addr "2.0.0.2") in
  let d = Flow_label.host_pair (addr "1.0.0.4") (addr "3.0.0.3") in
  ignore (Filter_table.install t a ~duration:2.);
  ignore (Filter_table.install t b ~duration:10.);
  checki "peak after two" 2 (Filter_table.peak_occupancy t);
  Sim.run ~until:3. sim;
  checki "one expired" 1 (Filter_table.occupancy t);
  ignore (Filter_table.install t c ~duration:10.);
  ignore (Filter_table.install t d ~duration:10.);
  checki "full" 3 (Filter_table.occupancy t);
  checki "peak" 3 (Filter_table.peak_occupancy t);
  (match
     Filter_table.install t
       (Flow_label.host_pair (addr "5.0.0.5") (addr "6.0.0.6"))
       ~duration:10.
   with
  | Ok _ -> Alcotest.fail "expected Table_full"
  | Error `Table_full -> ());
  checki "rejected counted" 1 (Filter_table.rejected t);
  let agg = Flow_label.v Flow_label.Any (Flow_label.Host (addr "2.0.0.2")) in
  (match Filter_table.install t agg ~duration:10. with
  | Ok _ -> ()
  | Error `Table_full -> Alcotest.fail "subsumption frees b and c");
  checki "b+c folded into the aggregate" 2 (Filter_table.occupancy t);
  checki "peak unchanged by evictions" 3 (Filter_table.peak_occupancy t);
  checkb "uncovered d survives" true
    (Filter_table.would_block t
       (data_packet ~src:(addr "1.0.0.4") ~dst:(addr "3.0.0.3") ()))

(* --- Overload manager ------------------------------------------------------ *)

let mk_overload ?policy ~capacity () =
  let sim = Sim.create () in
  let table = Filter_table.create sim ~capacity in
  (sim, table, Overload.create ?policy sim table)

let host_to src = Flow_label.host_pair (addr src) (addr "2.0.0.2")

let ok = function
  | Ok h -> h
  | Error `Table_full -> Alcotest.fail "unexpected Table_full"

let test_overload_transparent_below_watermark () =
  let _sim, table, m = mk_overload ~capacity:10 () in
  for i = 1 to 5 do
    ignore (ok (Overload.install m (host_to (Printf.sprintf "1.0.0.%d" i)) ~duration:10.))
  done;
  checkb "not degraded" false (Overload.degraded m);
  checki "no aggregation" 0 (Overload.count m Overload.Aggregate);
  checki "no eviction" 0 (Overload.evictions m);
  checki "plain occupancy" 5 (Filter_table.occupancy table)

let test_overload_degraded_is_pure_read () =
  (* Occupancy crosses the watermark, but transitions happen on installs
     only — polling the gauge must never flip the mode. *)
  let _sim, table, m =
    mk_overload
      ~policy:{ Overload.default_policy with Overload.high_watermark = 0.9 }
      ~capacity:4 ()
  in
  for i = 1 to 4 do
    ignore (ok (Overload.install m (host_to (Printf.sprintf "1.0.0.%d" i)) ~duration:10.))
  done;
  checki "table full" 4 (Filter_table.occupancy table);
  for _ = 1 to 5 do
    checkb "gauge stays put" false (Overload.degraded m)
  done

let test_overload_aggregates_under_pressure () =
  let _sim, table, m =
    mk_overload
      ~policy:
        {
          Overload.high_watermark = 0.9;
          (* low enough that the manager stays degraded after compaction, so
             the covered-label shortcut below is exercised *)
          low_watermark = 0.25;
          max_per_requestor = max_int;
          min_aggregate = 2;
        }
      ~capacity:4 ()
  in
  (* Sources 1.0.0.0-1.0.0.3 share a /30; filling the table then asking for
     a fifth filter must fold them into that prefix. *)
  for i = 0 to 3 do
    ignore (ok (Overload.install m (host_to (Printf.sprintf "1.0.0.%d" i)) ~duration:10.))
  done;
  let h = ok (Overload.install m (host_to "1.0.0.4") ~duration:10.) in
  checki "one aggregation" 1 (Overload.count m Overload.Aggregate);
  checki "four evicted into it" 4 (Overload.evictions m);
  checki "all subsumed" 4 (Overload.count m Overload.Evict_subsumed);
  checki "aggregate + newcomer" 2 (Filter_table.occupancy table);
  checkb "newcomer got its own exact entry" true
    (Flow_label.is_exact (Filter_table.label h));
  List.iter
    (fun s ->
      checkb (s ^ " still blocked") true
        (Filter_table.would_block table
           (data_packet ~src:(addr s) ~dst:(addr "2.0.0.2") ())))
    [ "1.0.0.0"; "1.0.0.1"; "1.0.0.2"; "1.0.0.3"; "1.0.0.4" ];
  checkb "outside the prefix passes" false
    (Filter_table.would_block table
       (data_packet ~src:(addr "1.0.0.9") ~dst:(addr "2.0.0.2") ()));
  (* A label the aggregate covers refreshes it rather than re-growing the
     exact population. *)
  let again = ok (Overload.install m (host_to "1.0.0.2") ~duration:10.) in
  checkb "covered label reuses the aggregate" false
    (Flow_label.is_exact (Filter_table.label again));
  checki "no new entry" 2 (Filter_table.occupancy table)

let test_overload_priority_eviction () =
  (* Distinct destinations: nothing to aggregate, so the manager evicts the
     entry with the lowest hit rate instead of refusing. *)
  let sim, table, m =
    mk_overload
      ~policy:
        {
          Overload.high_watermark = 0.;
          low_watermark = 0.;
          max_per_requestor = max_int;
          min_aggregate = 2;
        }
      ~capacity:2 ()
  in
  let a = ok (Overload.install m (Flow_label.host_pair (addr "1.0.0.1") (addr "8.0.0.1")) ~duration:10.) in
  let b = ok (Overload.install m (Flow_label.host_pair (addr "1.0.0.2") (addr "8.0.0.2")) ~duration:10.) in
  Sim.run ~until:1. sim;
  (* b earns a hit; a blocks nothing. *)
  ignore
    (Filter_table.blocks table
       (data_packet ~src:(addr "1.0.0.2") ~dst:(addr "8.0.0.2") ()));
  let c = ok (Overload.install m (Flow_label.host_pair (addr "1.0.0.3") (addr "8.0.0.3")) ~duration:10.) in
  checkb "useless entry evicted" false (Filter_table.live a);
  checkb "working entry spared" true (Filter_table.live b);
  checkb "newcomer live" true (Filter_table.live c);
  checki "one eviction" 1 (Overload.evictions m);
  checki "a priority eviction" 1 (Overload.count m Overload.Evict)

let test_overload_requestor_cap () =
  (* A requestor at its cap pays with its own least valuable entry. *)
  let _sim, table, m =
    mk_overload
      ~policy:
        {
          Overload.high_watermark = 0.;
          low_watermark = 0.;
          max_per_requestor = 2;
          min_aggregate = 2;
        }
      ~capacity:8 ()
  in
  let req = addr "10.0.0.7" in
  let inst s d =
    ok
      (Overload.install ~requestor:req m
         (Flow_label.host_pair (addr s) (addr d))
         ~duration:10.)
  in
  let a = inst "1.0.0.1" "8.0.0.1" in
  let b = inst "1.0.0.2" "8.0.0.2" in
  let c = inst "1.0.0.3" "8.0.0.3" in
  checki "cap held at 2" 2 (Filter_table.occupancy table);
  checki "own entry evicted" 1 (Overload.evictions m);
  checki "under the requestor cap" 1
    (Overload.count m Overload.Evict_requestor_cap);
  checkb "newcomer live" true (Filter_table.live c);
  checkb "exactly one elder survived" true
    (Filter_table.live a <> Filter_table.live b)

let test_overload_collateral_accounting () =
  let _sim, table, m =
    mk_overload
      ~policy:
        {
          Overload.high_watermark = 0.9;
          low_watermark = 0.5;
          max_per_requestor = max_int;
          min_aggregate = 2;
        }
      ~capacity:4 ()
  in
  for i = 0 to 3 do
    ignore (ok (Overload.install m (host_to (Printf.sprintf "1.0.0.%d" i)) ~duration:10.))
  done;
  ignore (ok (Overload.install m (host_to "1.0.0.4") ~duration:10.));
  let agg =
    match
      Filter_table.blocking_entry table
        (data_packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ())
    with
    | Some h -> h
    | None -> Alcotest.fail "aggregate must block"
  in
  let legit =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:500
      (Packet.Data { flow_id = 0; attack = false })
  in
  let attack =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:500
      (Packet.Data { flow_id = 0; attack = true })
  in
  Overload.note_blocked m agg legit;
  Overload.note_blocked m agg attack;
  checki "legit drop counted" 1 (Overload.collateral_packets m);
  checki "bytes counted" 500 (Overload.collateral_bytes m);
  (* Drops by an exact (non-aggregate) entry are the filter doing its job. *)
  let exact =
    match
      Filter_table.blocking_entry table
        (data_packet ~src:(addr "1.0.0.4") ~dst:(addr "2.0.0.2") ())
    with
    | Some h -> h
    | None -> Alcotest.fail "exact must block"
  in
  Overload.note_blocked m exact legit;
  checki "exact drops are not collateral" 1 (Overload.collateral_packets m)

let test_overload_policy_validation () =
  let sim = Sim.create () in
  let table = Filter_table.create sim ~capacity:4 in
  let bad policy =
    try
      ignore (Overload.create ~policy sim table);
      false
    with Invalid_argument _ -> true
  in
  checkb "inverted watermarks" true
    (bad { Overload.default_policy with Overload.high_watermark = 0.3; low_watermark = 0.6 });
  checkb "zero requestor cap" true
    (bad { Overload.default_policy with Overload.max_per_requestor = 0 });
  checkb "aggregate of one" true
    (bad { Overload.default_policy with Overload.min_aggregate = 1 })

(* --- Shadow cache ---------------------------------------------------------- *)

let test_shadow_insert_find () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:4 in
  (match Shadow_cache.insert c l1 ~ttl:10. "state" with
  | Ok e -> checkb "data" true (Shadow_cache.data e = "state")
  | Error `Full -> Alcotest.fail "full");
  checkb "find" true (Option.is_some (Shadow_cache.find c l1));
  checkb "miss" true (Shadow_cache.find c l2 = None);
  checki "occupancy" 1 (Shadow_cache.occupancy c)

let test_shadow_match_packet () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:4 in
  ignore (Shadow_cache.insert c l1 ~ttl:10. 1);
  (match Shadow_cache.match_packet c (p1 ()) with
  | Some e -> checki "data via packet" 1 (Shadow_cache.data e)
  | None -> Alcotest.fail "expected match");
  checkb "other packet misses" true
    (Shadow_cache.match_packet c
       (data_packet ~src:(addr "7.7.7.7") ~dst:(addr "2.0.0.2") ())
    = None)

let test_shadow_ttl () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:4 in
  ignore (Shadow_cache.insert c l1 ~ttl:5. ());
  Sim.run ~until:5.1 sim;
  checkb "expired" true (Shadow_cache.find c l1 = None);
  checki "occupancy" 0 (Shadow_cache.occupancy c)

let test_shadow_refresh () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:4 in
  let e =
    match Shadow_cache.insert c l1 ~ttl:5. () with
    | Ok e -> e
    | Error `Full -> Alcotest.fail "full"
  in
  ignore (Sim.at sim 4. (fun () -> Shadow_cache.refresh c e ~ttl:5.));
  Sim.run ~until:8. sim;
  checkb "still live after refresh" true (Option.is_some (Shadow_cache.find c l1));
  Sim.run ~until:9.1 sim;
  checkb "expires at refreshed deadline" true (Shadow_cache.find c l1 = None)

let test_shadow_capacity () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:2 in
  ignore (Shadow_cache.insert c l1 ~ttl:10. ());
  ignore (Shadow_cache.insert c l2 ~ttl:10. ());
  (match
     Shadow_cache.insert c
       (Flow_label.host_pair (addr "1.0.0.3") (addr "2.0.0.2"))
       ~ttl:10. ()
   with
  | Ok _ -> Alcotest.fail "expected Full"
  | Error `Full -> ());
  checki "rejected" 1 (Shadow_cache.rejected c);
  checki "peak" 2 (Shadow_cache.peak_occupancy c)

let test_shadow_reinsert_replaces () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:1 in
  ignore (Shadow_cache.insert c l1 ~ttl:10. 1);
  (match Shadow_cache.insert c l1 ~ttl:10. 2 with
  | Ok e -> checki "data replaced" 2 (Shadow_cache.data e)
  | Error `Full -> Alcotest.fail "reinsert must not hit capacity");
  checki "occupancy 1" 1 (Shadow_cache.occupancy c)

let test_shadow_remove_and_iter () =
  let sim = Sim.create () in
  let c = Shadow_cache.create sim ~capacity:4 in
  let e =
    match Shadow_cache.insert c l1 ~ttl:10. () with
    | Ok e -> e
    | Error `Full -> Alcotest.fail "full"
  in
  ignore (Shadow_cache.insert c l2 ~ttl:10. ());
  Shadow_cache.remove c e;
  let n = ref 0 in
  Shadow_cache.iter c (fun _ -> incr n);
  checki "one live entry" 1 !n;
  checkb "removed entry dead" false (Shadow_cache.live e)

(* --- Classifier equivalence ----------------------------------------------- *)

(* A small address universe, so generated labels repeat (refreshes) and
   overlap (order matters). Pairs [(s, d)] and [(s xor 1, d xor 0x80000000)]
   share an [Exact_index] key: 10.0.0.0/10.0.0.1 and 10.0.0.2/10.0.0.3
   against 20.0.0.5/148.0.0.5 collide. *)
let cls_srcs = Array.map addr [| "10.0.0.0"; "10.0.0.1"; "10.0.0.2"; "10.0.0.3"; "11.0.0.1" |]
let cls_dsts = Array.map addr [| "20.0.0.5"; "148.0.0.5" |]
let cls_protos = [| 6; 17 |]

let test_exact_key_collides () =
  let s = cls_srcs.(0) and d = cls_dsts.(0) in
  checkb "collision pair shares a key" true
    (Exact_index.key s d = Exact_index.key cls_srcs.(1) cls_dsts.(1));
  checkb "other pairs differ" true
    (Exact_index.key s d <> Exact_index.key cls_srcs.(1) cls_dsts.(0))

let cls_label_gen =
  let open QCheck.Gen in
  let host arr = map (fun a -> Flow_label.Host a) (oneofa arr) in
  let net l = map (fun p -> Flow_label.Net (Addr.prefix_of_string p)) (oneofl l) in
  let src =
    frequency
      [ (4, host cls_srcs);
        (2, net [ "10.0.0.0/30"; "10.0.0.0/31"; "10.0.0.2/31"; "10.0.0.0/8"; "0.0.0.0/0" ]);
        (1, return Flow_label.Any) ]
  in
  let dst =
    frequency
      [ (4, host cls_dsts); (1, net [ "20.0.0.0/8"; "128.0.0.0/1" ]); (1, return Flow_label.Any) ]
  in
  let* src = src in
  let* dst = dst in
  let* proto = oneofl [ None; Some 6; Some 17 ] in
  let+ sport = frequency [ (4, return None); (1, oneofl [ Some 0; Some 1 ]) ] in
  { Flow_label.src; dst; proto; sport; dport = None }

(* Installs and refreshes carry an optional rate limit (bytes/s). *)
type cls_op =
  | Install of Flow_label.t * int * float option
  | Refresh of Flow_label.t * int * float option
  | Remove of Flow_label.t
  | Advance of int

let cls_op_gen ~label ~rate =
  let open QCheck.Gen in
  frequency
    [ (5, map3 (fun l d r -> Install (l, d, r)) label (int_range 1 6) rate);
      (2, map3 (fun l d r -> Refresh (l, d, r)) label (int_range 1 6) rate);
      (2, map (fun l -> Remove l) label);
      (2, map (fun d -> Advance d) (int_range 1 3)) ]

let cls_op_print op =
  let rate = function None -> "" | Some r -> Printf.sprintf " at %g B/s" r in
  match op with
  | Install (l, d, r) ->
    Printf.sprintf "install %s for %d%s" (Flow_label.to_string l) d (rate r)
  | Refresh (l, d, r) ->
    Printf.sprintf "refresh %s for %d%s" (Flow_label.to_string l) d (rate r)
  | Remove l -> "remove " ^ Flow_label.to_string l
  | Advance d -> Printf.sprintf "advance %d" d

let cls_ops_gen ~label ~rate =
  QCheck.Gen.(list_size (int_range 1 40) (cls_op_gen ~label ~rate))

let cls_ops_print ops = String.concat "; " (List.map cls_op_print ops)

(* Block-only ops: a rate limit would let [blocking_entry] pass packets
   [matching_entry] matches. *)
let cls_ops_arb =
  QCheck.make ~print:cls_ops_print
    (cls_ops_gen ~label:cls_label_gen ~rate:(QCheck.Gen.return None))

(* The reference model: live labels with their expiry and install order. *)
type cls_ref = { label : Flow_label.t; mutable expires : int; seq : int }

let cls_packets =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun dst ->
          List.map (fun proto -> data_packet ~proto ~src ~dst ()) (Array.to_list cls_protos))
        (Array.to_list cls_dsts))
    (Array.to_list cls_srcs)

(* The documented match order, as a linear scan: host pair, host pair +
   proto, then the wildcards in [wild_order]. *)
let reference_match ~wild_order live (pkt : Packet.t) =
  let exact proto =
    List.find_opt
      (fun r ->
        Flow_label.is_exact r.label
        && r.label.src = Flow_label.Host pkt.src
        && r.label.dst = Flow_label.Host pkt.dst
        && r.label.proto = proto)
      live
  in
  match exact None with
  | Some r -> Some r.label
  | None -> (
    match exact (Some pkt.proto) with
    | Some r -> Some r.label
    | None ->
      List.filter (fun r -> not (Flow_label.is_exact r.label)) live
      |> List.sort wild_order
      |> List.find_opt (fun r -> Flow_label.matches r.label pkt)
      |> Option.map (fun r -> r.label))

(* Run [ops] against a real classifier and the reference, comparing every
   probe packet's match after every step. *)
let classifier_agrees ~wild_order ~create ~install ~refresh ~remove ~probes ops =
  let sim = Sim.create () in
  let c = create sim in
  let live = ref [] and now = ref 0 and seq = ref 0 in
  let find l = List.find_opt (fun r -> Flow_label.equal r.label l) !live in
  let step = function
    | Install (l, d, _) -> (
      install c l (float_of_int d);
      match find l with
      | Some r -> r.expires <- max r.expires (!now + d)
      | None ->
        incr seq;
        live := { label = l; expires = !now + d; seq = !seq } :: !live)
    | Refresh (l, d, _) -> (
      refresh c l (float_of_int d);
      match find l with Some r -> r.expires <- max r.expires (!now + d) | None -> ())
    | Remove l ->
      remove c l;
      live := List.filter (fun r -> not (Flow_label.equal r.label l)) !live
    | Advance d ->
      now := !now + d;
      Sim.run ~until:(float_of_int !now) sim;
      live := List.filter (fun r -> r.expires > !now) !live
  in
  List.for_all
    (fun op ->
      step op;
      List.for_all
        (fun pkt ->
          let expected = reference_match ~wild_order !live pkt in
          List.for_all (fun got -> Option.equal Flow_label.equal got expected) (probes c pkt))
        cls_packets)
    ops

(* The table scans its wildcards most-specific-first, ties by label. *)
let filter_table_order a b =
  let c = Int.compare (Flow_label.specificity b.label) (Flow_label.specificity a.label) in
  if c <> 0 then c else Flow_label.compare a.label b.label

let filter_table_classifier =
  QCheck.Test.make ~name:"filter table matches the reference scan" ~count:300 cls_ops_arb
    (classifier_agrees ~wild_order:filter_table_order
       ~create:(fun sim -> Filter_table.create sim ~capacity:1000)
       ~install:(fun t l duration -> ignore (Filter_table.install t l ~duration))
       ~refresh:(fun t l duration ->
         if Option.is_some (Filter_table.find t l) then
           ignore (Filter_table.install t l ~duration))
       ~remove:(fun t l -> Option.iter (Filter_table.remove t) (Filter_table.find t l))
       ~probes:(fun t pkt ->
         let label = Option.map Filter_table.label in
         [ label (Filter_table.matching_entry t pkt); label (Filter_table.blocking_entry t pkt) ]))

(* The cache scans its wildcards newest first. *)
let shadow_cache_classifier =
  QCheck.Test.make ~name:"shadow cache matches the reference scan" ~count:300 cls_ops_arb
    (classifier_agrees
       ~wild_order:(fun a b -> Int.compare b.seq a.seq)
       ~create:(fun sim -> Shadow_cache.create sim ~capacity:1000)
       ~install:(fun c l ttl -> ignore (Shadow_cache.insert c l ~ttl ()))
       ~refresh:(fun c l ttl ->
         Option.iter (fun e -> Shadow_cache.refresh c e ~ttl) (Shadow_cache.find c l))
       ~remove:(fun c l -> Option.iter (Shadow_cache.remove c) (Shadow_cache.find c l))
       ~probes:(fun c pkt -> [ Option.map Shadow_cache.label (Shadow_cache.match_packet c pkt) ]))

(* --- Range classification --------------------------------------------------- *)

let u32 = Addr.to_unsigned
let max_u32 = 0xFFFF_FFFF

(* Sources at both ends of the unsigned space and around the prefix
   boundaries below, so blocks start, end and nest inside probed ranges. *)
let range_srcs =
  Array.map addr
    [| "0.0.0.0"; "10.0.0.0"; "10.0.0.1"; "10.0.0.2"; "10.0.0.3"; "10.0.0.5"; "11.0.0.1";
       "127.255.255.255"; "128.0.0.0"; "255.255.255.254"; "255.255.255.255" |]

let range_nets =
  List.map Addr.prefix_of_string
    [ "10.0.0.0/30"; "10.0.0.0/31"; "10.0.0.2/31"; "10.0.0.4/30"; "10.0.0.0/8"; "0.0.0.0/0";
      "128.0.0.0/1"; "255.255.255.254/31" ]

let range_label_gen =
  let open QCheck.Gen in
  let src =
    frequency
      [ (4, map (fun a -> Flow_label.Host a) (oneofa range_srcs));
        (3, map (fun p -> Flow_label.Net p) (oneofl range_nets));
        (1, return Flow_label.Any) ]
  in
  let dst =
    frequency
      [ (4, map (fun a -> Flow_label.Host a) (oneofa cls_dsts));
        (1, map (fun p -> Flow_label.Net (Addr.prefix_of_string p))
              (oneofl [ "20.0.0.0/8"; "128.0.0.0/1" ]));
        (1, return Flow_label.Any) ]
  in
  let port = frequency [ (6, return None); (1, oneofl [ Some 0; Some 1 ]) ] in
  let* src = src in
  let* dst = dst in
  let* proto = oneofl [ None; Some 6; Some 17 ] in
  let* sport = port in
  let+ dport = port in
  { Flow_label.src; dst; proto; sport; dport }

(* Every source where an answer can change, and its neighbours. *)
let range_points =
  let block (p : Addr.prefix) = (u32 p.base, u32 p.base + (1 lsl (32 - p.len)) - 1) in
  List.concat_map (fun a -> [ u32 a - 1; u32 a; u32 a + 1 ]) (Array.to_list range_srcs)
  @ List.concat_map (fun p -> let a, b = block p in [ a - 1; a; b; b + 1 ]) range_nets
  |> List.filter (fun x -> 0 <= x && x <= max_u32)
  |> List.sort_uniq Int.compare

(* Fixed ranges: the whole space, one source, and 2- and 4-source ranges
   (short enough to probe when a few exact entries are live); plus random
   ones between boundary points. *)
let range_gen =
  let open QCheck.Gen in
  let ten = u32 (addr "10.0.0.0") in
  let+ random =
    list_size (int_range 1 6)
      (map2 (fun a b -> (min a b, max a b)) (oneofl range_points) (oneofl range_points))
  in
  [ (0, max_u32); (ten + 1, ten + 1); (ten, ten + 1); (ten, ten + 3) ] @ random

let range_case_arb =
  let rate =
    QCheck.Gen.(
      frequency [ (3, return None); (1, map (fun r -> Some (float_of_int r)) (int_range 100 5000)) ])
  in
  QCheck.make
    ~print:(fun (ops, ranges) ->
      cls_ops_print ops ^ " | ranges "
      ^ String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%d..%d" a b) ranges))
    QCheck.Gen.(pair (cls_ops_gen ~label:range_label_gen ~rate) range_gen)

(* The runs [classify_range] reports, in call order. *)
let runs_of t ~dst ~proto ~lo ~hi =
  let runs = ref [] in
  Filter_table.classify_range t ~dst ~proto ~lo ~hi (fun a b e -> runs := (a, b, e) :: !runs);
  List.rev !runs

(* The runs tile [lo..hi], adjacent runs differ, and every boundary point
   and run end gets the entry [matching_entry] gives its packet. *)
let runs_agree t ~dst ~proto ~lo ~hi =
  let runs = runs_of t ~dst ~proto ~lo ~hi in
  let same a b = match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false in
  let rec tiles next = function
    | [] -> next = hi + 1
    | (a, b, _) :: rest -> a = next && a <= b && tiles (b + 1) rest
  in
  let rec differ = function
    | (_, _, e1) :: ((_, _, e2) :: _ as rest) -> (not (same e1 e2)) && differ rest
    | _ -> true
  in
  let entry x =
    Filter_table.matching_entry t (data_packet ~proto ~src:(Int32.of_int x) ~dst ())
  in
  tiles lo runs && differ runs
  && List.for_all
       (fun (a, b, e) ->
         List.for_all
           (fun x -> same (entry x) e)
           (a :: b :: List.filter (fun x -> a <= x && x <= b) range_points))
       runs

let classify_range_agrees =
  QCheck.Test.make ~name:"classify_range agrees with matching_entry" ~count:200 range_case_arb
    (fun (ops, ranges) ->
      let sim = Sim.create () in
      let t = Filter_table.create sim ~capacity:1000 in
      let now = ref 0 in
      let step = function
        | Install (l, d, rate_limit) | Refresh (l, d, rate_limit) ->
          ignore (Filter_table.install ?rate_limit t l ~duration:(float_of_int d))
        | Remove l -> Option.iter (Filter_table.remove t) (Filter_table.find t l)
        | Advance d ->
          now := !now + d;
          Sim.run ~until:(float_of_int !now) sim
      in
      List.for_all
        (fun op ->
          step op;
          Array.for_all
            (fun dst ->
              Array.for_all
                (fun proto ->
                  List.for_all (fun (lo, hi) -> runs_agree t ~dst ~proto ~lo ~hi) ranges)
                cls_protos)
            cls_dsts)
        ops)

(* Exact entries split runs at single sources, unqualified before
   proto-qualified, over a rate-limited /30 inside a blocking [Any]. The
   4-source range is no longer than the 4-entry index, so its sources are
   probed; the 5-source one folds the index. Both give one answer. *)
let test_classify_range_exact_paths () =
  let t = Filter_table.create (Sim.create ()) ~capacity:64 in
  let victim = addr "20.0.0.5" in
  let src i = Addr.add (addr "10.0.0.0") i in
  let install ?rate_limit ?proto s =
    let label = Flow_label.v ?proto s (Flow_label.Host victim) in
    match Filter_table.install ?rate_limit t label ~duration:1e9 with
    | Ok h -> h
    | Error `Table_full -> Alcotest.fail "table full"
  in
  let any = install Flow_label.Any in
  let net = install ~rate_limit:1000. (Flow_label.Net (Addr.prefix_of_string "10.0.0.0/30")) in
  let one = install (Flow_label.Host (src 1)) in
  ignore (install ~proto:17 (Flow_label.Host (src 1)));
  ignore (install ~proto:6 (Flow_label.Host (src 2)));
  let three = install (Flow_label.Host (src 3)) in
  let lo = u32 (src 0) in
  let expect =
    [ (lo, lo, net); (lo + 1, lo + 1, one); (lo + 2, lo + 2, net); (lo + 3, lo + 3, three) ]
  in
  let check_runs msg expected got =
    checkb msg true
      (List.length expected = List.length got
      && List.for_all2
           (fun (a, b, h) (a', b', e) ->
             a = a' && b = b' && match e with Some h' -> h' == h | None -> false)
           expected got)
  in
  check_runs "probed" expect (runs_of t ~dst:victim ~proto:17 ~lo ~hi:(lo + 3));
  check_runs "folded" (expect @ [ (lo + 4, lo + 4, any) ])
    (runs_of t ~dst:victim ~proto:17 ~lo ~hi:(lo + 4));
  check_runs "whole space"
    (((0, lo - 1, any) :: expect) @ [ (lo + 4, max_u32, any) ])
    (runs_of t ~dst:victim ~proto:17 ~lo:0 ~hi:max_u32);
  Alcotest.check_raises "past the unsigned space"
    (Invalid_argument "Filter_table.classify_range: bad source range") (fun () ->
      Filter_table.classify_range t ~dst:victim ~proto:17 ~lo:0 ~hi:(max_u32 + 1) (fun _ _ _ -> ()))

(* --- Allocation ------------------------------------------------------------- *)

(* Words the minor heap gained over 10^4 calls of [f] (native code only:
   bytecode boxes values the native compiler keeps unboxed). *)
let minor_words_10k f =
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  Gc.minor_words () -. before

(* 1000 exact host-pair filters to one victim plus [wildcards] prefix
   filters that match neither, and a probe [blocking_entry] misses. *)
let miss_words ~wildcards =
  let t = Filter_table.create (Sim.create ()) ~capacity:4096 in
  let victim = addr "20.0.0.10" in
  for i = 0 to 999 do
    ignore (Filter_table.install t (Flow_label.host_pair (Addr.add (addr "10.0.0.0") i) victim) ~duration:1e9)
  done;
  for i = 0 to wildcards - 1 do
    ignore
      (Filter_table.install t
         (Flow_label.from_net (Addr.prefix (Addr.add (addr "30.0.0.0") (i * 256)) 24) victim)
         ~duration:1e9)
  done;
  let pkt = data_packet ~src:(addr "11.0.0.1") ~dst:victim () in
  minor_words_10k (fun () -> ignore (Filter_table.blocking_entry t pkt))

let test_exact_miss_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let words = miss_words ~wildcards:0 in
    checkb (Printf.sprintf "%.0f words for 10^4 misses" words) true (words < 32.)
  end

let test_wildcard_miss_allocation () =
  if Sys.backend_type = Sys.Native then
    check (Alcotest.float 0.) "100 wildcards cost no words over none"
      (miss_words ~wildcards:0) (miss_words ~wildcards:100)

(* --- Token bucket ---------------------------------------------------------- *)

let test_bucket_burst_then_deny () =
  let b = Token_bucket.create ~rate:1.0 ~burst:3.0 in
  checkb "1" true (Token_bucket.allow b ~now:0.);
  checkb "2" true (Token_bucket.allow b ~now:0.);
  checkb "3" true (Token_bucket.allow b ~now:0.);
  checkb "4 denied" false (Token_bucket.allow b ~now:0.);
  checki "admitted" 3 (Token_bucket.admitted b);
  checki "denied" 1 (Token_bucket.denied b)

let test_bucket_refill () =
  let b = Token_bucket.create ~rate:2.0 ~burst:2.0 in
  checkb "drain 1" true (Token_bucket.allow b ~now:0.);
  checkb "drain 2" true (Token_bucket.allow b ~now:0.);
  checkb "empty" false (Token_bucket.allow b ~now:0.);
  checkb "after 0.5s one token" true (Token_bucket.allow b ~now:0.5);
  checkb "not two" false (Token_bucket.allow b ~now:0.5)

let test_bucket_burst_cap () =
  let b = Token_bucket.create ~rate:10.0 ~burst:2.0 in
  (* Long idle must not accumulate beyond burst. *)
  checkb "t=100 1" true (Token_bucket.allow b ~now:100.);
  checkb "t=100 2" true (Token_bucket.allow b ~now:100.);
  checkb "t=100 3 denied" false (Token_bucket.allow b ~now:100.)

let test_bucket_cost () =
  let b = Token_bucket.create ~rate:1.0 ~burst:10.0 in
  checkb "cost 8" true (Token_bucket.allow ~cost:8. b ~now:0.);
  checkb "cost 3 denied" false (Token_bucket.allow ~cost:3. b ~now:0.);
  checkb "peek" true (Token_bucket.peek_tokens b ~now:0. = 2.)

let test_bucket_long_run_rate () =
  (* Admitted count over a long horizon approximates rate * time. *)
  let b = Token_bucket.create ~rate:5.0 ~burst:5.0 in
  let admitted = ref 0 in
  for ms = 0 to 100_000 do
    let now = float_of_int ms /. 100. in
    if Token_bucket.allow b ~now then incr admitted
  done;
  (* 1000 s at 5/s = ~5000 (+burst). *)
  checkb "within 1%" true (abs (!admitted - 5005) < 50)

let test_bucket_validation () =
  checkb "bad rate" true
    (try
       ignore (Token_bucket.create ~rate:0. ~burst:1.);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "aitf_filter"
    [
      ( "flow_label",
        [
          Alcotest.test_case "host pair" `Quick test_label_host_pair_match;
          Alcotest.test_case "header src" `Quick test_label_matches_header_src;
          Alcotest.test_case "net/any" `Quick test_label_net_and_any;
          Alcotest.test_case "proto" `Quick test_label_proto;
          Alcotest.test_case "ports" `Quick test_label_ports;
          Alcotest.test_case "of_string" `Quick test_label_of_string;
          Alcotest.test_case "subsumes" `Quick test_label_subsumes;
          Alcotest.test_case "equal/compare" `Quick test_label_equal_compare;
          Alcotest.test_case "is_exact" `Quick test_label_is_exact;
          QCheck_alcotest.to_alcotest subsumption_implies_match;
          QCheck_alcotest.to_alcotest subsumes_reflexive_transitive;
          QCheck_alcotest.to_alcotest subsumes_antisymmetric;
          QCheck_alcotest.to_alcotest to_string_roundtrip;
          QCheck_alcotest.to_alcotest compare_total_order;
        ] );
      ( "filter_table",
        [
          Alcotest.test_case "install/block" `Quick test_table_install_and_block;
          Alcotest.test_case "expiry" `Quick test_table_expiry;
          Alcotest.test_case "capacity" `Quick test_table_capacity;
          Alcotest.test_case "refresh" `Quick test_table_refresh_same_label;
          Alcotest.test_case "remove" `Quick test_table_remove;
          Alcotest.test_case "slot reuse" `Quick
            test_table_slot_reusable_after_expiry;
          Alcotest.test_case "wildcards" `Quick test_table_wildcard_entries;
          Alcotest.test_case "would_block" `Quick
            test_table_would_block_no_stats;
          Alcotest.test_case "hit tracking" `Quick test_table_hit_tracking;
          Alcotest.test_case "find" `Quick test_table_find;
          Alcotest.test_case "proto probe" `Quick test_table_proto_probe;
          Alcotest.test_case "evict subsumed" `Quick test_table_evict_subsumed;
          Alcotest.test_case "evict subsumed none" `Quick
            test_table_evict_subsumed_none;
          Alcotest.test_case "rate-limited entry" `Quick
            test_table_rate_limited_entry;
          Alcotest.test_case "block entry" `Quick
            test_table_block_entry_blocks_everything;
          Alcotest.test_case "install evicts subsumed" `Quick
            test_table_install_evicts_subsumed;
          Alcotest.test_case "install full, nothing subsumed" `Quick
            test_table_install_full_no_subsumed;
          Alcotest.test_case "wildcard most-specific-first" `Quick
            test_table_wildcard_most_specific_first;
          Alcotest.test_case "wildcard tie deterministic" `Quick
            test_table_wildcard_tie_deterministic;
          Alcotest.test_case "refresh applies rate limit" `Quick
            test_table_refresh_applies_rate_limit;
          Alcotest.test_case "mixed accounting" `Quick
            test_table_accounting_mixed;
          QCheck_alcotest.to_alcotest table_soundness;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "exact key collisions" `Quick test_exact_key_collides;
          QCheck_alcotest.to_alcotest filter_table_classifier;
          QCheck_alcotest.to_alcotest shadow_cache_classifier;
          QCheck_alcotest.to_alcotest classify_range_agrees;
          Alcotest.test_case "classify_range exact paths" `Quick
            test_classify_range_exact_paths;
          Alcotest.test_case "exact miss allocates nothing" `Quick
            test_exact_miss_allocation;
          Alcotest.test_case "wildcard scan allocates nothing" `Quick
            test_wildcard_miss_allocation;
        ] );
      ( "overload",
        [
          Alcotest.test_case "transparent below watermark" `Quick
            test_overload_transparent_below_watermark;
          Alcotest.test_case "degraded is a pure read" `Quick
            test_overload_degraded_is_pure_read;
          Alcotest.test_case "aggregates under pressure" `Quick
            test_overload_aggregates_under_pressure;
          Alcotest.test_case "priority eviction" `Quick
            test_overload_priority_eviction;
          Alcotest.test_case "requestor cap" `Quick test_overload_requestor_cap;
          Alcotest.test_case "collateral accounting" `Quick
            test_overload_collateral_accounting;
          Alcotest.test_case "policy validation" `Quick
            test_overload_policy_validation;
        ] );
      ( "shadow_cache",
        [
          Alcotest.test_case "insert/find" `Quick test_shadow_insert_find;
          Alcotest.test_case "match packet" `Quick test_shadow_match_packet;
          Alcotest.test_case "ttl" `Quick test_shadow_ttl;
          Alcotest.test_case "refresh" `Quick test_shadow_refresh;
          Alcotest.test_case "capacity" `Quick test_shadow_capacity;
          Alcotest.test_case "reinsert" `Quick test_shadow_reinsert_replaces;
          Alcotest.test_case "remove/iter" `Quick test_shadow_remove_and_iter;
        ] );
      ( "token_bucket",
        [
          Alcotest.test_case "burst then deny" `Quick
            test_bucket_burst_then_deny;
          Alcotest.test_case "refill" `Quick test_bucket_refill;
          Alcotest.test_case "burst cap" `Quick test_bucket_burst_cap;
          Alcotest.test_case "cost" `Quick test_bucket_cost;
          Alcotest.test_case "long-run rate" `Quick test_bucket_long_run_rate;
          Alcotest.test_case "validation" `Quick test_bucket_validation;
        ] );
    ]
