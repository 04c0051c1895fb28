(* Tests for aitf_net: addresses, packets, LPM, links, nodes, network
   forwarding and routing. *)

module Sim = Aitf_engine.Sim
module Ledger = Aitf_obs.Ledger
open Aitf_net

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_roundtrip () =
  let cases = [ "0.0.0.0"; "10.0.0.1"; "192.168.1.254"; "255.255.255.255" ] in
  List.iter (fun s -> checks s s (Addr.to_string (Addr.of_string s))) cases

let test_addr_of_octets () =
  checks "octets" "10.1.2.3" (Addr.to_string (Addr.of_octets 10 1 2 3));
  checkb "bad octet" true
    (try
       ignore (Addr.of_octets 256 0 0 0);
       false
     with Invalid_argument _ -> true)

let test_addr_bad_strings () =
  List.iter
    (fun s ->
      checkb s true
        (try
           ignore (Addr.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0"; "a.b.c.d"; ""; "1.2.3.4.5" ]

let test_addr_bits () =
  let a = Addr.of_string "128.0.0.1" in
  checkb "msb set" true (Addr.bit a 0);
  checkb "bit 1 clear" false (Addr.bit a 1);
  checkb "lsb set" true (Addr.bit a 31)

let test_addr_succ_add () =
  let a = Addr.of_string "10.0.0.255" in
  checks "succ crosses octet" "10.0.1.0" (Addr.to_string (Addr.succ a));
  checks "add" "10.0.1.9" (Addr.to_string (Addr.add a 10))

let test_prefix_normalisation () =
  let p = Addr.prefix (Addr.of_string "10.1.2.3") 8 in
  checks "host bits cleared" "10.0.0.0/8" (Addr.prefix_to_string p);
  let q = Addr.prefix_of_string "10.5.6.7/8" in
  checki "equal prefixes compare 0" 0 (Addr.prefix_compare p q)

let test_prefix_membership () =
  let p = Addr.prefix_of_string "10.1.0.0/16" in
  checkb "inside" true (Addr.prefix_mem p (Addr.of_string "10.1.200.3"));
  checkb "outside" false (Addr.prefix_mem p (Addr.of_string "10.2.0.1"));
  let zero = Addr.prefix_of_string "0.0.0.0/0" in
  checkb "default route matches all" true
    (Addr.prefix_mem zero (Addr.of_string "250.1.2.3"))

(* [prefix_mem] tests its mask on native ints; it must agree bit for bit
   with the [int32] mask test. Half the probes are the base with one bit
   flipped, so they sit on either side of the prefix boundary. *)
let prefix_mem_vs_int32_mask =
  QCheck.Test.make ~name:"prefix_mem equals the int32 mask test" ~count:2000
    QCheck.(triple int32 (int_bound 32) (pair int32 (int_bound 63)))
    (fun (base, len, (a, flip)) ->
      let p = Addr.prefix base len in
      let a = if flip < 32 then Int32.logxor base (Int32.shift_left 1l flip) else a in
      let mask = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len) in
      Addr.prefix_mem p a = Int32.equal (Int32.logand a mask) p.Addr.base)

let test_prefix_len_bounds () =
  checkb "len 33 rejected" true
    (try
       ignore (Addr.prefix (Addr.of_string "1.2.3.4") 33);
       false
     with Invalid_argument _ -> true);
  let host = Addr.host_prefix (Addr.of_string "1.2.3.4") in
  checkb "host prefix only self" true
    (Addr.prefix_mem host (Addr.of_string "1.2.3.4")
    && not (Addr.prefix_mem host (Addr.of_string "1.2.3.5")))

(* --- Packet -------------------------------------------------------------- *)

let addr = Addr.of_string

let test_packet_make () =
  Packet.reset_ids ();
  let p =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:500
      (Packet.Data { flow_id = 1; attack = false })
  in
  checki "id starts at 0" 0 p.Packet.id;
  checkb "src = true_src" true (Addr.equal p.Packet.src p.Packet.true_src);
  checki "default ttl" 64 p.Packet.ttl;
  let q =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:500
      (Packet.Data { flow_id = 1; attack = false })
  in
  checki "ids increment" 1 q.Packet.id

(* Two worker domains minting packets at once each get their own stride,
   and neither disturbs the main domain's counter. *)
let test_packet_ids_per_domain () =
  let n = 20_000 in
  let mk () =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:100
      (Packet.Data { flow_id = 1; attack = false })
  in
  let before = (mk ()).Packet.id in
  let worker base () =
    Packet.bind_domain ~id_base:base;
    Array.init n (fun _ -> (mk ()).Packet.id)
  in
  let d1 = Domain.spawn (worker (1 lsl 40)) in
  let d2 = Domain.spawn (worker (2 lsl 40)) in
  let ids1 = Domain.join d1 and ids2 = Domain.join d2 in
  checkb "domain 1 mints its stride" true (ids1 = Array.init n (fun i -> (1 lsl 40) + i));
  checkb "domain 2 mints its stride" true (ids2 = Array.init n (fun i -> (2 lsl 40) + i));
  checki "main counter untouched" (before + 1) (mk ()).Packet.id

let test_packet_spoofing () =
  let p =
    Packet.make ~spoofed_src:(addr "9.9.9.9") ~src:(addr "1.0.0.1")
      ~dst:(addr "2.0.0.2") ~size:100
      (Packet.Data { flow_id = 1; attack = true })
  in
  checks "header src spoofed" "9.9.9.9" (Addr.to_string p.Packet.src);
  checks "true src kept" "1.0.0.1" (Addr.to_string p.Packet.true_src)

let test_packet_route_record () =
  let p =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:100
      (Packet.Data { flow_id = 1; attack = false })
  in
  Packet.record_route p (addr "3.0.0.1");
  Packet.record_route p (addr "4.0.0.1");
  check (Alcotest.list Alcotest.string) "traversal order"
    [ "3.0.0.1"; "4.0.0.1" ]
    (List.map Addr.to_string (Packet.recorded_route p))

let test_packet_route_record_bounded () =
  let p =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:100
      (Packet.Data { flow_id = 1; attack = false })
  in
  for i = 0 to Packet.route_record_limit + 5 do
    Packet.record_route p (Addr.add (addr "5.0.0.0") i)
  done;
  checki "bounded" Packet.route_record_limit (List.length p.Packet.route_record)

let test_packet_is_control () =
  let data =
    Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size:100
      (Packet.Data { flow_id = 1; attack = false })
  in
  checkb "data is not control" false (Packet.is_control data)

(* --- LPM ----------------------------------------------------------------- *)

let test_lpm_empty () =
  let t : int Lpm.t = Lpm.create () in
  checkb "lookup misses" true (Lpm.lookup t (addr "1.2.3.4") = None);
  checki "size" 0 (Lpm.size t)

let test_lpm_longest_match () =
  let t = Lpm.create () in
  Lpm.insert t (Addr.prefix_of_string "10.0.0.0/8") "eight";
  Lpm.insert t (Addr.prefix_of_string "10.1.0.0/16") "sixteen";
  Lpm.insert t (Addr.prefix_of_string "10.1.2.0/24") "twentyfour";
  checkb "/24 wins" true (Lpm.lookup t (addr "10.1.2.3") = Some "twentyfour");
  checkb "/16 wins" true (Lpm.lookup t (addr "10.1.9.1") = Some "sixteen");
  checkb "/8 wins" true (Lpm.lookup t (addr "10.200.0.1") = Some "eight");
  checkb "no match" true (Lpm.lookup t (addr "11.0.0.1") = None)

let test_lpm_default_route () =
  let t = Lpm.create () in
  Lpm.insert t (Addr.prefix_of_string "0.0.0.0/0") "default";
  Lpm.insert t (Addr.prefix_of_string "10.0.0.0/8") "ten";
  checkb "default" true (Lpm.lookup t (addr "200.0.0.1") = Some "default");
  checkb "specific" true (Lpm.lookup t (addr "10.0.0.1") = Some "ten")

let test_lpm_replace_and_remove () =
  let t = Lpm.create () in
  let p = Addr.prefix_of_string "10.0.0.0/8" in
  Lpm.insert t p 1;
  Lpm.insert t p 2;
  checki "size after replace" 1 (Lpm.size t);
  checkb "replaced" true (Lpm.exact t p = Some 2);
  Lpm.remove t p;
  checki "size after remove" 0 (Lpm.size t);
  checkb "gone" true (Lpm.lookup t (addr "10.0.0.1") = None);
  Lpm.remove t p (* idempotent *)

let test_lpm_host_route () =
  let t = Lpm.create () in
  Lpm.insert t (Addr.host_prefix (addr "10.0.0.5")) "host";
  Lpm.insert t (Addr.prefix_of_string "10.0.0.0/24") "net";
  checkb "host wins" true (Lpm.lookup t (addr "10.0.0.5") = Some "host");
  checkb "sibling uses net" true (Lpm.lookup t (addr "10.0.0.6") = Some "net")

let test_lpm_lookup_prefix () =
  let t = Lpm.create () in
  Lpm.insert t (Addr.prefix_of_string "10.1.0.0/16") "p";
  match Lpm.lookup_prefix t (addr "10.1.2.3") with
  | Some (p, "p") -> checks "prefix" "10.1.0.0/16" (Addr.prefix_to_string p)
  | _ -> Alcotest.fail "expected match"

let test_lpm_iter_and_clear () =
  let t = Lpm.create () in
  List.iter
    (fun s -> Lpm.insert t (Addr.prefix_of_string s) s)
    [ "10.0.0.0/8"; "10.1.0.0/16"; "192.168.0.0/24"; "0.0.0.0/0" ];
  let seen = ref [] in
  Lpm.iter t (fun p v ->
      checks "prefix matches value" v (Addr.prefix_to_string p);
      seen := v :: !seen);
  checki "visited all" 4 (List.length !seen);
  Lpm.clear t;
  checki "cleared" 0 (Lpm.size t);
  checkb "lookup after clear" true (Lpm.lookup t (addr "10.0.0.1") = None)

(* Probe addresses and prefixes span the whole 32-bit space: half of them
   sit at or above 128.0.0.0, a negative [int32], where a masking or
   sign-extension slip would show. *)
let u32_of_halves hi lo = Int32.of_int ((hi lsl 16) lor lo)

(* An address inside [p]: its base with [host]'s bits below the prefix. *)
let inside (p : Addr.prefix) host =
  Int32.of_int
    (Addr.to_unsigned p.base lor (host land ((1 lsl (32 - p.len)) - 1)))

(* The value of the longest prefix covering [a] in a list of bindings, the
   head of the list binding last (so it wins among duplicates). *)
let reference_lookup bindings a =
  List.fold_left
    (fun best (p, v) ->
      if Addr.prefix_mem p a then
        match best with
        | Some (len, _) when len >= (p : Addr.prefix).len -> best
        | _ -> Some ((p : Addr.prefix).len, v)
      else best)
    None bindings
  |> Option.map snd

(* Reference model: LPM as a linear scan over a list of (prefix, value).
   Bases are either uniform or share their top 16 bits with the case's
   [root], so prefixes nest often; lengths run over all of 0..32. Each
   prefix contributes a probe inside it, next to uniform probes. *)
let lpm_vs_reference =
  let open QCheck.Gen in
  let u32 = map2 u32_of_halves (int_bound 0xFFFF) (int_bound 0xFFFF) in
  let gen_case =
    u32 >>= fun root ->
    let base =
      oneof
        [
          u32;
          map (u32_of_halves (Addr.to_unsigned root lsr 16)) (int_bound 0xFFFF);
        ]
    in
    let entry =
      map3
        (fun base len host ->
          let p = Addr.prefix base len in
          (p, inside p host))
        base (int_bound 32) (map Addr.to_unsigned u32)
    in
    pair (list_size (int_bound 30) entry) (list_size (return 8) u32)
  in
  QCheck.Test.make ~name:"lpm agrees with linear reference" ~count:300
    (QCheck.make gen_case) (fun (entries, uniform) ->
      let t = Lpm.create () in
      List.iteri (fun i (p, _) -> Lpm.insert t p i) entries;
      let bindings = List.rev (List.mapi (fun i (p, _) -> (p, i)) entries) in
      List.for_all
        (fun a -> Lpm.lookup t a = reference_lookup bindings a)
        (List.map snd entries @ uniform))

(* Removal leaves nothing behind: insert enough prefixes to grow the table,
   remove a nested one, then remove the rest. Once empty, [size] is 0, the
   invariant holds (it ties the lengths probed to the lengths bound, so no
   length is left to probe) and every lookup misses. *)
let test_lpm_prune () =
  let t = Lpm.create () in
  let fixed =
    List.map Addr.prefix_of_string
      [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "200.1.2.128/25" ]
  in
  let hosts =
    List.init 100 (fun i -> Addr.host_prefix (Addr.add (addr "200.1.2.0") i))
  in
  let all = fixed @ hosts in
  List.iteri (fun i p -> Lpm.insert t p i) all;
  checki "all bound" 104 (Lpm.size t);
  Lpm.remove t (Addr.prefix_of_string "10.1.0.0/16");
  checkb "/8 covers again" true (Lpm.lookup t (addr "10.1.2.3") = Some 1);
  checkb "invariant" true (Lpm.invariant t);
  List.iter (Lpm.remove t) (List.rev all);
  checki "empty" 0 (Lpm.size t);
  checkb "invariant after full removal" true (Lpm.invariant t);
  List.iter
    (fun a -> checkb a true (Lpm.lookup t (addr a) = None))
    [ "0.0.0.0"; "10.1.2.3"; "200.1.2.7"; "200.1.2.200"; "255.255.255.255" ]

(* [Lpm.lookup] is the per-hop forwarding lookup and [Gateway.in_cone]'s
   test: it allocates nothing, hit or miss (native code only: bytecode
   boxes what the native compiler keeps in registers). *)
let test_lpm_lookup_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let t = Lpm.create () in
    List.iteri
      (fun i p -> Lpm.insert t (Addr.prefix_of_string p) i)
      [
        "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.3/32";
      ];
    let addrs =
      Array.map Addr.of_string
        [| "10.1.2.3"; "10.1.2.9"; "10.1.7.7"; "10.9.9.9"; "192.0.2.1" |]
    in
    let hits = ref 0 in
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      match Lpm.lookup t (Array.unsafe_get addrs (i mod 5)) with
      | Some _ -> incr hits
      | None -> ()
    done;
    let words = Gc.minor_words () -. before in
    checki "every lookup hits the default route" 10_000 !hits;
    checkf "minor words for 10^4 lookups" 0. words
  end

(* Differential churn test: a seeded random mix of insert/remove/lookup
   against an assoc-list oracle, checking size, lookups, iter contents and
   the structural invariant after every batch, and an empty, consistent
   table at the end. Prefixes come from a small universe spread over the
   whole 32-bit space (top three bits, bit 16 and bits 6..7 vary), with
   lengths 0..32; lookups probe uniform addresses and addresses inside
   live prefixes. *)
let lpm_churn_differential =
  let module Rng = Aitf_engine.Rng in
  let arb = QCheck.make QCheck.Gen.(int_bound 0xFFFF) in
  QCheck.Test.make ~name:"lpm churn agrees with assoc-list oracle" ~count:40
    arb (fun seed ->
      let rng = Rng.create ~seed in
      let t = Lpm.create () in
      let oracle = ref [] in
      let u32 () = u32_of_halves (Rng.int rng 0x10000) (Rng.int rng 0x10000) in
      let random_prefix () =
        Addr.prefix
          (Int32.of_int
             ((Rng.int rng 8 lsl 29) lor (Rng.int rng 2 lsl 16)
             lor (Rng.int rng 4 lsl 6)))
          (Rng.int rng 33)
      in
      let agree_on a = Lpm.lookup t a = reference_lookup !oracle a in
      let check_batch () =
        if Lpm.size t <> List.length !oracle then failwith "size mismatch";
        if not (Lpm.invariant t) then failwith "invariant broken";
        let dump acc = List.sort compare acc in
        let from_table = ref [] in
        Lpm.iter t (fun p v ->
            from_table := (Addr.prefix_to_string p, v) :: !from_table);
        let from_oracle =
          List.map (fun (p, v) -> (Addr.prefix_to_string p, v)) !oracle
        in
        if dump !from_table <> dump from_oracle then failwith "iter mismatch";
        for _ = 1 to 20 do
          if not (agree_on (u32 ())) then failwith "lookup mismatch"
        done;
        List.iter
          (fun (p, _) ->
            if not (agree_on (inside p (Addr.to_unsigned (u32 ())))) then
              failwith "lookup mismatch inside a prefix")
          !oracle
      in
      for step = 1 to 400 do
        (if Rng.int rng 3 = 0 then begin
           (* Half the removes target a live prefix, the rest may miss. *)
           let p =
             match !oracle with
             | _ :: _ when Rng.bool rng ->
               fst (List.nth !oracle (Rng.int rng (List.length !oracle)))
             | _ -> random_prefix ()
           in
           Lpm.remove t p;
           oracle :=
             List.filter (fun (q, _) -> Addr.prefix_compare p q <> 0) !oracle
         end
         else begin
           let p = random_prefix () in
           Lpm.insert t p step;
           oracle :=
             (p, step)
             :: List.filter
                  (fun (q, _) -> Addr.prefix_compare p q <> 0)
                  !oracle
         end);
        if step mod 50 = 0 then check_batch ()
      done;
      check_batch ();
      (* Remove everything: the table must come back empty and consistent. *)
      List.iter (fun (p, _) -> Lpm.remove t p) !oracle;
      oracle := [];
      Lpm.size t = 0 && Lpm.invariant t
      && Lpm.lookup t 0l = None
      && Lpm.lookup t (-1l) = None)

(* --- Link ---------------------------------------------------------------- *)

let mk_packet ?(size = 1000) () =
  Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size
    (Packet.Data { flow_id = 0; attack = false })

let test_link_delivery_timing () =
  let sim = Sim.create () in
  (* 8 kbit packet over 8 kbit/s + 0.5 s propagation = 1.5 s. *)
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0.5 ~queue_capacity:10000
  in
  let arrival = ref 0. in
  Link.set_deliver l (fun _ -> arrival := Sim.now sim);
  Link.send l (mk_packet ~size:1000 ());
  Sim.run sim;
  checkf "serialization + propagation" 1.5 !arrival

let test_link_serialises_back_to_back () =
  let sim = Sim.create () in
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0. ~queue_capacity:10000
  in
  let times = ref [] in
  Link.set_deliver l (fun _ -> times := Sim.now sim :: !times);
  Link.send l (mk_packet ~size:1000 ());
  Link.send l (mk_packet ~size:1000 ());
  Sim.run sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "one second apart" [ 1.0; 2.0 ]
    (List.rev !times)

let test_link_queue_overflow () =
  let sim = Sim.create () in
  (* Queue of 1500 B: holds one waiting 1000 B packet plus the one in
     service. *)
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0. ~queue_capacity:1500
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  for _ = 1 to 5 do
    Link.send l (mk_packet ~size:1000 ())
  done;
  Sim.run sim;
  checki "two delivered" 2 !received;
  checki "three dropped" 3 (Link.dropped_packets l);
  checki "dropped bytes" 3000 (Link.dropped_bytes l)

let test_link_down () =
  let sim = Sim.create () in
  let l =
    Link.create sim ~name:"l" ~bandwidth:1e6 ~delay:0. ~queue_capacity:10000
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  Link.set_up l false;
  Link.send l (mk_packet ());
  Sim.run sim;
  checki "nothing delivered" 0 !received;
  checki "counted as drop" 1 (Link.dropped_packets l)

let test_link_stats () =
  let sim = Sim.create () in
  let l =
    Link.create sim ~name:"l" ~bandwidth:1e6 ~delay:0.01 ~queue_capacity:10000
  in
  Link.set_deliver l (fun _ -> ());
  Link.send l (mk_packet ~size:500 ());
  Link.send l (mk_packet ~size:700 ());
  Sim.run sim;
  checki "tx packets" 2 (Link.tx_packets l);
  checki "tx bytes" 1200 (Link.tx_bytes l)

let test_link_validation () =
  let sim = Sim.create () in
  checkb "bad bandwidth" true
    (try
       ignore
         (Link.create sim ~name:"x" ~bandwidth:0. ~delay:0. ~queue_capacity:1);
       false
     with Invalid_argument _ -> true);
  checkb "bad delay" true
    (try
       ignore
         (Link.create sim ~name:"x" ~bandwidth:1. ~delay:(-1.)
            ~queue_capacity:1);
       false
     with Invalid_argument _ -> true)

let test_link_red_early_drops () =
  let sim = Sim.create () in
  let l =
    Link.create
      ~discipline:(Link.Red { min_th = 2000; max_th = 8000; max_p = 0.5 })
      sim ~name:"red" ~bandwidth:8e5 ~delay:0. ~queue_capacity:16000
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  (* Offer 4x the link rate for 2 seconds. *)
  let n = ref 0 in
  let rec offer t =
    if t < 2.0 then
      ignore
        (Sim.at sim t (fun () ->
             incr n;
             Link.send l (mk_packet ~size:1000 ());
             offer (t +. 0.0025)))
  in
  offer 0.;
  Sim.run sim;
  checkb "early drops happened" true (Link.early_drops l > 0);
  (* RED keeps the standing queue short: backlog stays closer to max_th
     than to the hard capacity. *)
  checkb "queue never saturated" true
    (Link.dropped_packets l > Link.early_drops l - 1);
  checkb "still forwards" true (!received > 100)

let test_link_red_below_threshold_is_droptail () =
  let sim = Sim.create () in
  let l =
    Link.create
      ~discipline:(Link.Red { min_th = 4000; max_th = 8000; max_p = 0.5 })
      sim ~name:"red2" ~bandwidth:8e6 ~delay:0. ~queue_capacity:16000
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  (* Light load: average queue never reaches min_th. *)
  for _ = 1 to 3 do
    Link.send l (mk_packet ~size:1000 ())
  done;
  Sim.run sim;
  checki "all delivered" 3 !received;
  checki "no early drops" 0 (Link.early_drops l)

let test_link_red_deterministic () =
  let run () =
    let sim = Sim.create () in
    let l =
      Link.create
        ~discipline:(Link.Red { min_th = 1000; max_th = 4000; max_p = 1.0 })
        sim ~name:"same-name" ~bandwidth:8e5 ~delay:0. ~queue_capacity:8000
    in
    Link.set_deliver l (fun _ -> ());
    let rec offer t =
      if t < 1.0 then
        ignore
          (Sim.at sim t (fun () ->
               Link.send l (mk_packet ~size:1000 ());
               offer (t +. 0.002)))
    in
    offer 0.;
    Sim.run sim;
    (Link.tx_packets l, Link.dropped_packets l, Link.early_drops l)
  in
  checkb "same name, same RED decisions" true (run () = run ())

(* The two-event transmitter [Link] used to be, kept as the reference for
   its one-event schedule: each serialisation end is an event, which
   schedules the packet's delivery and starts the next queued packet.
   Drop-tail or RED, no fluid load, same-shard delivery. *)
module Two_event = struct
  type t = {
    sim : Sim.t;
    bandwidth : float;
    delay : float;
    capacity : int;
    red : (int * int * float) option;
    rng : Aitf_engine.Rng.t;
    queue : Packet.t Queue.t;
    deliver : Packet.t -> unit;
    mutable queued : int;
    mutable busy : bool;
    mutable up : bool;
    mutable avg : float;
    mutable idle_since : float option;
    mutable tx_packets : int;
    mutable tx_bytes : int;
    mutable dropped : int;
    mutable dropped_bytes : int;
    mutable early : int;
  }

  let create sim ~name ~bandwidth ~delay ~capacity ~red deliver =
    {
      sim;
      bandwidth;
      delay;
      capacity;
      red;
      rng = Aitf_engine.Rng.create ~seed:(Hashtbl.hash name);
      queue = Queue.create ();
      deliver;
      queued = 0;
      busy = false;
      up = true;
      avg = 0.;
      idle_since = Some 0.;
      tx_packets = 0;
      tx_bytes = 0;
      dropped = 0;
      dropped_bytes = 0;
      early = 0;
    }

  let drop t (p : Packet.t) =
    t.dropped <- t.dropped + 1;
    t.dropped_bytes <- t.dropped_bytes + p.size

  let update_avg t =
    if t.red <> None then begin
      (match t.idle_since with
      | Some since ->
        let idle = Sim.now t.sim -. since in
        if idle > 0. then begin
          let mean =
            if t.tx_packets > 0 then
              float_of_int t.tx_bytes /. float_of_int t.tx_packets
            else 500.
          in
          let m = idle /. Float.max (mean *. 8. /. t.bandwidth) 1e-9 in
          t.avg <- t.avg *. ((1. -. 0.02) ** m)
        end
      | None -> ());
      t.avg <- ((1. -. 0.02) *. t.avg) +. (0.02 *. float_of_int t.queued)
    end

  let rec start t =
    match Queue.take_opt t.queue with
    | None ->
      t.busy <- false;
      t.idle_since <- Some (Sim.now t.sim)
    | Some p ->
      t.busy <- true;
      t.idle_since <- None;
      t.queued <- t.queued - p.size;
      let ser = float_of_int (p.size * 8) /. t.bandwidth in
      ignore
        (Sim.after t.sim ser (fun () ->
             ignore
               (Sim.after t.sim t.delay (fun () ->
                    if t.up then begin
                      t.tx_packets <- t.tx_packets + 1;
                      t.tx_bytes <- t.tx_bytes + p.size;
                      t.deliver p
                    end
                    else drop t p));
             update_avg t;
             start t))

  let rejects t =
    match t.red with
    | None -> false
    | Some (min_th, max_th, max_p) ->
      if t.avg <= float_of_int min_th then false
      else if t.avg >= float_of_int max_th then true
      else
        Aitf_engine.Rng.bernoulli t.rng
          ~p:(max_p *. (t.avg -. float_of_int min_th)
              /. float_of_int (max_th - min_th))

  let send t (p : Packet.t) =
    if not t.up then drop t p
    else begin
      update_avg t;
      if t.busy && t.queued + p.size > t.capacity then drop t p
      else if t.busy && rejects t then begin
        t.early <- t.early + 1;
        drop t p
      end
      else begin
        Queue.add p t.queue;
        t.queued <- t.queued + p.size;
        if not t.busy then start t
      end
    end
end

(* One send schedule: (slot, size) sends on a 1/8 s grid, where an 8 kbit/s
   link serialises 125 bytes per slot, so sends land exactly on
   serialisation ends; sizes include 0-byte probes. *)
type schedule = {
  sends : (int * int) list;
  red : bool;
  capacity : int;
  flap : (int * int) option;  (* down at one slot, up again at another *)
}

let schedule_gen =
  QCheck.Gen.(
    let slot = int_bound 40 in
    let size = oneofl [ 0; 125; 250; 375; 500; 1000 ] in
    map
      (fun (sends, red, capacity, flap) -> { sends; red; capacity; flap })
      (quad
         (list_size (int_range 1 30) (pair slot size))
         bool
         (oneofl [ 0; 125; 250; 1000; 2000 ])
         (opt (pair slot slot))))

let print_schedule s =
  Printf.sprintf "red=%b capacity=%d flap=%s sends=[%s]" s.red s.capacity
    (match s.flap with
    | None -> "none"
    | Some (d, u) -> Printf.sprintf "%d..%d" d u)
    (String.concat "; "
       (List.map (fun (k, b) -> Printf.sprintf "%d:%dB" k b) s.sends))

(* Run [s] through [Link] or the reference: the deliveries in order as
   (send index, time), [queued_bytes] after every send, and the counters
   (tx packets, tx bytes, dropped packets, dropped bytes, early drops). *)
let run_schedule ~reference s =
  let sim = Sim.create () in
  let delivered = ref [] and queued = ref [] in
  let deliver (p : Packet.t) =
    match p.payload with
    | Packet.Data { flow_id; _ } ->
      delivered := (flow_id, Sim.now sim) :: !delivered
    | _ -> ()
  in
  let red = if s.red then Some (50, 800, 0.7) else None in
  let name = "eq" and bandwidth = 8000. and delay = 0.25 in
  let send, queued_bytes, set_up, counters =
    if reference then
      let r =
        Two_event.create sim ~name ~bandwidth ~delay ~capacity:s.capacity ~red
          deliver
      in
      ( Two_event.send r,
        (fun () -> r.Two_event.queued),
        (fun v -> r.Two_event.up <- v),
        fun () ->
          Two_event.
            (r.tx_packets, r.tx_bytes, r.dropped, r.dropped_bytes, r.early) )
    else
      let discipline =
        Option.map
          (fun (min_th, max_th, max_p) -> Link.Red { min_th; max_th; max_p })
          red
      in
      let l =
        Link.create ?discipline sim ~name ~bandwidth ~delay
          ~queue_capacity:s.capacity
      in
      Link.set_deliver l deliver;
      ( Link.send l,
        (fun () -> Link.queued_bytes l),
        Link.set_up l,
        fun () ->
          Link.
            ( tx_packets l,
              tx_bytes l,
              dropped_packets l,
              dropped_bytes l,
              early_drops l ) )
  in
  let at k f = ignore (Sim.at sim (float_of_int k *. 0.125) f) in
  (* Every send is scheduled before any serialisation starts, so a send
     that ties with a serialisation end runs before it in the reference:
     the order the one-event link assumes. *)
  List.iteri
    (fun i (k, size) ->
      let p =
        Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size
          (Packet.Data { flow_id = i; attack = false })
      in
      at k (fun () ->
          send p;
          queued := queued_bytes () :: !queued))
    s.sends;
  Option.iter
    (fun (down, up) ->
      at down (fun () -> set_up false);
      at up (fun () -> set_up true))
    s.flap;
  Sim.run sim;
  (List.rev !delivered, List.rev !queued, counters ())

let link_matches_two_event_reference =
  QCheck.Test.make ~name:"link matches the two-event reference" ~count:500
    (QCheck.make ~print:print_schedule schedule_gen)
    (fun s -> run_schedule ~reference:false s = run_schedule ~reference:true s)

(* A packet crossing [k] idle links in a row costs [k] events: each hop
   schedules only its delivery. *)
let test_link_one_event_per_hop () =
  List.iter
    (fun k ->
      let sim = Sim.create () in
      let links =
        Array.init k (fun i ->
            Link.create sim ~name:(Printf.sprintf "h%d" i) ~bandwidth:1e6
              ~delay:0.01 ~queue_capacity:10000)
      in
      let arrived = ref 0 in
      Array.iteri
        (fun i l ->
          Link.set_deliver l (fun p ->
              if i + 1 < k then Link.send links.(i + 1) p else incr arrived))
        links;
      Link.send links.(0) (mk_packet ());
      Sim.run sim;
      checki "arrived" 1 !arrived;
      checki (Printf.sprintf "%d hops, %d events" k k) k
        (Sim.events_processed sim))
    [ 1; 2; 5 ]

let test_link_no_tx_event () =
  let sim = Sim.create () in
  let labels = Hashtbl.create 4 in
  Sim.set sim Sim.profiler
    (Some (fun label _ _ -> Hashtbl.replace labels label ()));
  let l =
    Link.create sim ~name:"busy" ~bandwidth:8000. ~delay:0.1
      ~queue_capacity:1500
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  for _ = 1 to 5 do
    Link.send l (mk_packet ())
  done;
  Sim.run sim;
  checki "two delivered, three dropped" 2 !received;
  checki "one event per delivered packet" 2 (Sim.events_processed sim);
  checkb "only link-delivery events" true
    (List.of_seq (Hashtbl.to_seq_keys labels) = [ Some "link-delivery" ])

(* A busy link keeps one event queued, its head packet's delivery, and
   the rest of its packets in flight in a ring behind it. A delivered
   packet must not stay in its vacated ring slot while later packets are
   still in flight. *)
let test_link_ring_no_retention () =
  let sim = Sim.create () in
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0.5 ~queue_capacity:10000
  in
  Link.set_deliver l ignore;
  let w = Weak.create 1 in
  (let first = mk_packet () in
   Weak.set w 0 (Some first);
   Link.send l first);
  for _ = 1 to 3 do
    Link.send l (mk_packet ())
  done;
  checki "one event for four packets" 1 (Sim.pending sim);
  Sim.run ~until:1.6 sim;
  checki "first delivered" 1 (Link.tx_packets l);
  checki "the next head queued" 1 (Sim.pending sim);
  Gc.full_major ();
  checkb "delivered packet collected" false (Weak.check w 0);
  Sim.run sim;
  checki "all delivered" 4 (Link.tx_packets l)

(* A saturated fluid load delays a packet by a full queue's serialisation;
   once the load is gone, the next packet is due before the first. Each
   must arrive at its own computed time, the two in (time, seq) order
   among other events at the same instants: an event scheduled at a
   packet's arrival time just before its send fires before it, one
   scheduled just after fires after it. *)
let test_link_fluid_wait_drop () =
  let sim = Sim.create () in
  (* 1000 B at 8 kbit/s is 1 s; a 10,000 B queue is 10 s of wait. *)
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0.5 ~queue_capacity:10000
  in
  let log = ref [] in
  let note what = log := (what, Sim.now sim) :: !log in
  let a = mk_packet () and b = mk_packet () in
  Link.set_deliver l (fun p -> note (if p == a then "a" else "b"));
  let around time send =
    ignore (Sim.at sim time (fun () -> note "before"));
    send ();
    ignore (Sim.at sim time (fun () -> note "after"))
  in
  Link.set_fluid l ~offered:1e6 ~admitted:1e6;
  around 11.5 (fun () -> Link.send l a);
  Link.set_fluid l ~offered:0. ~admitted:0.;
  around 2.5 (fun () -> Link.send l b);
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "each at its own time, in (time, seq) order"
    [
      ("before", 2.5);
      ("b", 2.5);
      ("after", 2.5);
      ("before", 11.5);
      ("a", 11.5);
      ("after", 11.5);
    ]
    (List.rev !log)

(* Packets in flight when the link goes down are each dropped as
   [Link_down] at their own delivery time, one by one. *)
let test_link_down_in_flight () =
  let sim = Sim.create () in
  let ledger = Ledger.of_sim sim in
  let l =
    Link.create sim ~name:"l" ~bandwidth:8000. ~delay:0.5 ~queue_capacity:10000
  in
  let received = ref 0 in
  Link.set_deliver l (fun _ -> incr received);
  for _ = 1 to 3 do
    Link.send l (mk_packet ())
  done;
  ignore (Sim.at sim 1.0 (fun () -> Link.set_up l false));
  (* Deliveries fall due at 1.5, 2.5 and 3.5 s. *)
  List.iteri
    (fun i until ->
      Sim.run ~until sim;
      checki (Printf.sprintf "dropped by %g s" until) i (Link.dropped_packets l);
      checki
        (Printf.sprintf "link-down packets by %g s" until)
        i
        (Ledger.packets ledger Ledger.Legit Ledger.Link_down))
    [ 1.4999; 2.4999; 3.4999 ];
  Sim.run sim;
  checki "all three dropped" 3 (Link.dropped_packets l);
  checki "all three link-down" 3
    (Ledger.packets ledger Ledger.Legit Ledger.Link_down);
  checki "nothing delivered" 0 !received

(* --- Network ------------------------------------------------------------- *)

(* A -- B -- C line with a host on each end. *)
let line () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a =
    Network.add_node net ~name:"a" ~addr:(addr "10.0.0.1") ~as_id:1 Node.Host
  in
  let b =
    Network.add_node net ~name:"b" ~addr:(addr "10.0.1.1") ~as_id:2
      Node.Border_router
  in
  let c =
    Network.add_node net ~name:"c" ~addr:(addr "10.0.2.1") ~as_id:3 Node.Host
  in
  ignore (Network.connect net a b ~bandwidth:1e6 ~delay:0.01);
  ignore (Network.connect net b c ~bandwidth:1e6 ~delay:0.01);
  Network.compute_routes net;
  (sim, net, a, b, c)

let test_network_end_to_end () =
  let sim, net, a, b, c = line () in
  let got = ref None in
  c.Node.local_deliver <- (fun _ pkt -> got := Some pkt);
  let p =
    Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
      (Packet.Data { flow_id = 7; attack = false })
  in
  Network.originate net a p;
  Sim.run sim;
  (match !got with
  | Some pkt ->
    checki "flow id intact" 7
      (match pkt.Packet.payload with
      | Packet.Data { flow_id; _ } -> flow_id
      | _ -> -1);
    checkb "last hop is b" true (pkt.Packet.last_hop = Some b.Node.addr)
  | None -> Alcotest.fail "not delivered");
  checki "b forwarded once" 1 b.Node.forwarded_packets;
  checki "c delivered once" 1 c.Node.delivered_packets

let test_network_duplicate_addr_rejected () =
  let sim = Sim.create () in
  let net = Network.create sim in
  ignore
    (Network.add_node net ~name:"x" ~addr:(addr "1.1.1.1") ~as_id:1 Node.Host);
  checkb "duplicate rejected" true
    (try
       ignore
         (Network.add_node net ~name:"y" ~addr:(addr "1.1.1.1") ~as_id:1
            Node.Host);
       false
     with Invalid_argument _ -> true)

let test_network_hook_drop () =
  let sim, net, a, b, c = line () in
  Node.add_hook b (fun _ _ -> Node.Drop Ledger.Manual_filter);
  let delivered = ref false in
  c.Node.local_deliver <- (fun _ _ -> delivered := true);
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checkb "dropped at hook" false !delivered;
  checki "drop counted" 1 (Node.drop_count b Ledger.Manual_filter);
  checki "no other fate at b" 1 (Array.fold_left ( + ) 0 b.Node.drops);
  let ledger = Ledger.of_sim sim in
  checki "ledger packets" 1 (Ledger.packets ledger Ledger.Legit Ledger.Manual_filter);
  checki "ledger bytes" 100
    (Ledger.packet_bytes ledger Ledger.Legit Ledger.Manual_filter);
  checki "nothing left in flight" 0
    (Ledger.packets ledger Ledger.Legit Ledger.In_flight)

let test_network_hook_order_first_drop_wins () =
  let sim, net, a, b, c = line () in
  let log = ref [] in
  Node.add_hook b (fun _ _ ->
      log := "first-added" :: !log;
      Node.Drop Ledger.Manual_filter);
  Node.add_hook b (fun _ _ ->
      log := "second-added" :: !log;
      Node.Continue);
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  (* Later-added hooks run first. *)
  check
    (Alcotest.list Alcotest.string)
    "order"
    [ "second-added"; "first-added" ]
    (List.rev !log)

let test_network_ttl_expiry () =
  let sim, net, a, b, c = line () in
  let delivered = ref false in
  c.Node.local_deliver <- (fun _ _ -> delivered := true);
  let p =
    Packet.make ~ttl:1 ~src:a.Node.addr ~dst:c.Node.addr ~size:100
      (Packet.Data { flow_id = 0; attack = false })
  in
  Network.originate net a p;
  Sim.run sim;
  checkb "ttl killed it" false !delivered;
  checki "ttl drop at b" 1 (Node.drop_count b Ledger.Ttl_expired);
  checki "ttl in the ledger" 1
    (Ledger.packets (Ledger.of_sim sim) Ledger.Legit Ledger.Ttl_expired)

let test_network_no_route () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a =
    Network.add_node net ~name:"a" ~addr:(addr "1.0.0.1") ~as_id:1 Node.Host
  in
  Network.compute_routes net;
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:(addr "2.0.0.2") ~size:10
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checki "no-route counted" 1 (Node.drop_count a Ledger.No_route);
  checki "no-route bytes in the ledger" 10
    (Ledger.packet_bytes (Ledger.of_sim sim) Ledger.Legit Ledger.No_route)

let test_network_disconnect_port () =
  let sim, net, a, b, c = line () in
  let delivered = ref 0 in
  c.Node.local_deliver <- (fun _ _ -> incr delivered);
  checkb "disconnect works" true
    (Network.disconnect_port net b ~peer_id:c.Node.id);
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checki "nothing arrives" 0 !delivered;
  checkb "unknown peer" false (Network.disconnect_port net b ~peer_id:999)

let test_network_shortest_path () =
  (* a-b-d has higher total delay than a-c-d; routing must use the lower
     delay path. *)
  let sim = Sim.create () in
  let net = Network.create sim in
  let mk name ip =
    Network.add_node net ~name ~addr:(addr ip) ~as_id:1 Node.Router
  in
  let a = mk "a" "1.0.0.1" in
  let b = mk "b" "1.0.0.2" in
  let c = mk "c" "1.0.0.3" in
  let d = mk "d" "1.0.0.4" in
  ignore (Network.connect net a b ~bandwidth:1e6 ~delay:0.5);
  ignore (Network.connect net b d ~bandwidth:1e6 ~delay:0.5);
  ignore (Network.connect net a c ~bandwidth:1e6 ~delay:0.01);
  ignore (Network.connect net c d ~bandwidth:1e6 ~delay:0.01);
  Network.compute_routes net;
  let got_via = ref None in
  d.Node.local_deliver <- (fun _ pkt -> got_via := pkt.Packet.last_hop);
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:d.Node.addr ~size:10
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checkb "went via c" true (!got_via = Some c.Node.addr)

let test_network_as_local_scope () =
  (* Host h advertises /32 AS-locally; a node in another AS must reach it
     via the gateway's aggregate instead. *)
  let sim = Sim.create () in
  let net = Network.create sim in
  let h =
    Network.add_node net ~name:"h" ~addr:(addr "10.0.0.10") ~as_id:5 Node.Host
  in
  let gw =
    Network.add_node net ~name:"gw" ~addr:(addr "10.0.0.1") ~as_id:5
      Node.Border_router
  in
  let remote =
    Network.add_node net ~name:"r" ~addr:(addr "20.0.0.1") ~as_id:6 Node.Host
  in
  h.Node.advertised <- [ (Addr.host_prefix h.Node.addr, Node.As_local) ];
  gw.Node.advertised <-
    [
      (Addr.prefix_of_string "10.0.0.0/16", Node.Global);
      (Addr.host_prefix gw.Node.addr, Node.Global);
    ];
  ignore (Network.connect net gw h ~bandwidth:1e6 ~delay:0.001);
  ignore (Network.connect net gw remote ~bandwidth:1e6 ~delay:0.001);
  Network.compute_routes net;
  let delivered = ref false in
  h.Node.local_deliver <- (fun _ _ -> delivered := true);
  Network.originate net remote
    (Packet.make ~src:remote.Node.addr ~dst:h.Node.addr ~size:10
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checkb "reached via aggregate + AS-local host route" true !delivered;
  (* And the remote's FIB must not contain the AS-local /32. *)
  checkb "remote lacks host route" true
    (Lpm.exact remote.Node.fib (Addr.host_prefix h.Node.addr) = None)

(* --- Ledger ---------------------------------------------------------------- *)

(* Two hosts and one link a -> b, for the ledger's link fates. *)
let ledger_rig ?discipline ?(queue_capacity = 65536) ~bandwidth () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a =
    Network.add_node net ~name:"a" ~addr:(addr "1.0.0.1") ~as_id:1 Node.Host
  in
  let b =
    Network.add_node net ~name:"b" ~addr:(addr "1.0.0.2") ~as_id:1 Node.Host
  in
  let ab, _ =
    Network.connect ?discipline ~queue_capacity net a b ~bandwidth
      ~delay:0.01
  in
  Network.compute_routes net;
  let send ~size () =
    Network.originate net a
      (Packet.make ~src:a.Node.addr ~dst:b.Node.addr ~size
         (Packet.Data { flow_id = 0; attack = true }))
  in
  (sim, ab, send, Ledger.of_sim sim)

let conserved what ledger =
  match Ledger.check ledger with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* The law must hold between events, not only once the links drained. *)
let conserved_in_flight ledger =
  checkb "bytes in flight" true
    (Ledger.packet_bytes ledger Ledger.Attack Ledger.In_flight > 0);
  conserved "mid-run" ledger

let attack_cell ledger fate =
  (Ledger.packets ledger Ledger.Attack fate,
   Ledger.packet_bytes ledger Ledger.Attack fate)

let check_cell what expected ledger fate =
  check Alcotest.(pair int int) what expected (attack_cell ledger fate)

let test_ledger_queue_overflow () =
  (* One 1000 B packet in service, one waiting in the 1500 B queue. *)
  let sim, _, send, ledger =
    ledger_rig ~queue_capacity:1500 ~bandwidth:8000. ()
  in
  for _ = 1 to 5 do
    send ~size:1000 ()
  done;
  check_cell "overflowed at once" (3, 3000) ledger Ledger.Queue_overflow;
  conserved_in_flight ledger;
  Sim.run sim;
  check_cell "delivered" (2, 2000) ledger Ledger.Delivered;
  check_cell "landed" (0, 0) ledger Ledger.In_flight;
  conserved "drained" ledger

let test_ledger_red_early_drop () =
  let sim, ab, send, ledger =
    ledger_rig
      ~discipline:(Link.Red { min_th = 2000; max_th = 8000; max_p = 0.5 })
      ~queue_capacity:16000 ~bandwidth:8e5 ()
  in
  (* Four times the link rate for 2 s. *)
  let rec offer t =
    if t < 2.0 then
      ignore
        (Sim.at sim t (fun () ->
             send ~size:1000 ();
             offer (t +. 0.0025)))
  in
  offer 0.;
  ignore (Sim.at sim 1.0 (fun () -> conserved_in_flight ledger));
  Sim.run sim;
  let early = Link.early_drops ab in
  checkb "early drops happened" true (early > 0);
  check_cell "one cell per early drop" (early, 1000 * early) ledger
    Ledger.Red_early_drop;
  check_cell "the rest of the link's drops overflowed"
    (Link.dropped_packets ab - early, Link.dropped_bytes ab - (1000 * early))
    ledger Ledger.Queue_overflow;
  conserved "drained" ledger

let test_ledger_link_down () =
  let sim, ab, send, ledger = ledger_rig ~bandwidth:1e6 () in
  for _ = 1 to 3 do
    send ~size:1000 ()
  done;
  ignore
    (Sim.at sim 0.005 (fun () ->
         conserved_in_flight ledger;
         Link.set_up ab false));
  (* Refused at the send, where the three above fail at their arrival. *)
  ignore (Sim.at sim 0.006 (fun () -> send ~size:500 ()));
  Sim.run sim;
  check_cell "down at arrival and at send" (4, 3500) ledger Ledger.Link_down;
  check_cell "nothing delivered" (0, 0) ledger Ledger.Delivered;
  check_cell "landed" (0, 0) ledger Ledger.In_flight;
  conserved "drained" ledger

let test_ledger_fluid_loss () =
  let sim, ab, send, ledger = ledger_rig ~bandwidth:1e6 () in
  (* A saturated link: half the fluid load is lost, and a packet that gets
     through waits a full queue's serialisation (about 0.5 s). *)
  Link.set_fluid ab ~offered:2e6 ~admitted:1e6;
  let rec offer i =
    if i < 100 then
      ignore
        (Sim.at sim (0.01 *. float_of_int i) (fun () ->
             send ~size:100 ();
             offer (i + 1)))
  in
  offer 0;
  ignore (Sim.at sim 0.5 (fun () -> conserved_in_flight ledger));
  Sim.run sim;
  let lost = Link.dropped_packets ab in
  checkb "the fluid load dropped packets" true (lost > 0 && lost < 100);
  check_cell "one cell per fluid drop" (lost, 100 * lost) ledger
    Ledger.Fluid_loss;
  check_cell "the rest delivered" (100 - lost, 100 * (100 - lost)) ledger
    Ledger.Delivered;
  conserved "drained" ledger

let test_ledger_posts_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let sim = Sim.create () in
    let node =
      Node.make ~id:0 ~name:"gw" ~addr:(addr "4.0.0.1") ~as_id:0
        Node.Border_router
    in
    let hook _ _ = Node.Drop Ledger.Aitf_filter in
    let pkt =
      Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.1") ~size:100
        (Packet.Data { flow_id = 0; attack = true })
    in
    (* The world makes its ledger on first use. *)
    let ledger = Ledger.of_sim sim in
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      (match hook node pkt with
      | Node.Drop fate ->
        Node.count_drop node fate;
        Ledger.post (Ledger.of_sim sim) (Packet.cls pkt) fate pkt.Packet.size
      | Node.Continue -> ());
      Ledger.post (Ledger.of_sim sim) (Packet.cls pkt) Ledger.Delivered
        pkt.Packet.size
    done;
    let words = Gc.minor_words () -. before in
    checki "drops at the node" 10_000 (Node.drop_count node Ledger.Aitf_filter);
    check_cell "ledger drops" (10_000, 1_000_000) ledger Ledger.Aitf_filter;
    checkf "minor words for 10^4 drops and 10^4 deliveries" 0. words
  end

let test_ledger_fork_join () =
  let parent = Sim.create () in
  Ledger.offer (Ledger.of_sim parent) Ledger.Control 50;
  Ledger.post (Ledger.of_sim parent) Ledger.Control Ledger.Delivered 50;
  let shards = List.init 2 (fun shard -> Sim.fork parent ~shard) in
  let l0 = Ledger.of_sim (List.nth shards 0)
  and l1 = Ledger.of_sim (List.nth shards 1) in
  checki "a shard starts zeroed" 0
    (Ledger.packets l0 Ledger.Control Ledger.Delivered);
  (* A packet sent on shard 0 lands on shard 1. *)
  Ledger.offer l0 Ledger.Control 30;
  Ledger.depart l0 Ledger.Control 30;
  Ledger.arrive l1 Ledger.Control 30;
  Ledger.post l1 Ledger.Control Ledger.Delivered 30;
  checkb "a shard alone lands what it never sent" true
    (Result.is_error (Ledger.check l1));
  Sim.join parent shards;
  let l = Ledger.of_sim parent in
  check Alcotest.(pair int int) "the join adds every shard's cells" (2, 80)
    ( Ledger.packets l Ledger.Control Ledger.Delivered,
      Ledger.packet_bytes l Ledger.Control Ledger.Delivered );
  conserved "joined" l

let test_ledger_metrics () =
  let reg = Aitf_obs.Metrics.create () in
  Aitf_obs.Metrics.attach reg;
  let sim, _, send, _ =
    Fun.protect ~finally:Aitf_obs.Metrics.detach (fun () ->
        ledger_rig ~bandwidth:1e6 ())
  in
  send ~size:700 ();
  Sim.run sim;
  let ledger_names =
    List.filter
      (fun n -> String.length n > 7 && String.sub n 0 7 = "ledger.")
      (Aitf_obs.Metrics.names reg)
  in
  checki "every class and fate, plus offered"
    (3 * (Ledger.n_fates + 1))
    (List.length ledger_names);
  checkb "delivered bytes read back" true
    (Aitf_obs.Metrics.value reg "ledger.attack.delivered"
    = Some (Aitf_obs.Metrics.Counter 700.))

(* --- Tap ------------------------------------------------------------------- *)

let test_tap_captures_transit () =
  let sim, net, a, b, c = line () in
  let tap = Tap.attach b in
  for _ = 1 to 3 do
    Network.originate net a
      (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
         (Packet.Data { flow_id = 1; attack = false }))
  done;
  Sim.run sim;
  checki "captured" 3 (Tap.count tap);
  checki "matched" 3 (Tap.matched tap);
  checkb "in order, right flow" true
    (List.for_all
       (fun (p : Packet.t) ->
         match p.Packet.payload with
         | Packet.Data { flow_id = 1; _ } -> true
         | _ -> false)
       (Tap.captured tap))

let test_tap_filter_and_limit () =
  let sim, net, a, b, c = line () in
  let tap =
    Tap.attach ~limit:2
      ~filter:(fun p ->
        match p.Packet.payload with
        | Packet.Data { attack; _ } -> attack
        | _ -> false)
      b
  in
  for i = 1 to 5 do
    Network.originate net a
      (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
         (Packet.Data { flow_id = i; attack = i mod 2 = 0 }))
  done;
  Sim.run sim;
  checki "only attack packets matched" 2 (Tap.matched tap);
  checki "recorded up to limit" 2 (Tap.count tap)

let test_tap_clear_and_stop () =
  let sim, net, a, b, c = line () in
  let tap = Tap.attach b in
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  Tap.clear tap;
  checki "cleared" 0 (Tap.count tap);
  checki "matched preserved" 1 (Tap.matched tap);
  Tap.stop tap;
  Network.originate net a
    (Packet.make ~src:a.Node.addr ~dst:c.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  checki "stopped" 1 (Tap.matched tap)

let () =
  Alcotest.run "aitf_net"
    [
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "of_octets" `Quick test_addr_of_octets;
          Alcotest.test_case "bad strings" `Quick test_addr_bad_strings;
          Alcotest.test_case "bits" `Quick test_addr_bits;
          Alcotest.test_case "succ/add" `Quick test_addr_succ_add;
          Alcotest.test_case "prefix normalisation" `Quick
            test_prefix_normalisation;
          Alcotest.test_case "prefix membership" `Quick test_prefix_membership;
          Alcotest.test_case "prefix bounds" `Quick test_prefix_len_bounds;
          QCheck_alcotest.to_alcotest prefix_mem_vs_int32_mask;
        ] );
      ( "packet",
        [
          Alcotest.test_case "make" `Quick test_packet_make;
          Alcotest.test_case "ids per domain" `Quick test_packet_ids_per_domain;
          Alcotest.test_case "spoofing" `Quick test_packet_spoofing;
          Alcotest.test_case "route record" `Quick test_packet_route_record;
          Alcotest.test_case "route record bounded" `Quick
            test_packet_route_record_bounded;
          Alcotest.test_case "is_control" `Quick test_packet_is_control;
        ] );
      ( "lpm",
        [
          Alcotest.test_case "empty" `Quick test_lpm_empty;
          Alcotest.test_case "longest match" `Quick test_lpm_longest_match;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          Alcotest.test_case "replace/remove" `Quick
            test_lpm_replace_and_remove;
          Alcotest.test_case "host route" `Quick test_lpm_host_route;
          Alcotest.test_case "lookup_prefix" `Quick test_lpm_lookup_prefix;
          Alcotest.test_case "iter/clear" `Quick test_lpm_iter_and_clear;
          Alcotest.test_case "prune on remove" `Quick test_lpm_prune;
          Alcotest.test_case "lookup allocates nothing" `Quick
            test_lpm_lookup_allocation;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 21 |])
            lpm_vs_reference;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 22 |])
            lpm_churn_differential;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
          Alcotest.test_case "serialisation" `Quick
            test_link_serialises_back_to_back;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "down" `Quick test_link_down;
          Alcotest.test_case "stats" `Quick test_link_stats;
          Alcotest.test_case "validation" `Quick test_link_validation;
          Alcotest.test_case "red early drops" `Quick test_link_red_early_drops;
          Alcotest.test_case "red light load" `Quick
            test_link_red_below_threshold_is_droptail;
          Alcotest.test_case "red deterministic" `Quick
            test_link_red_deterministic;
          Alcotest.test_case "one event per hop" `Quick
            test_link_one_event_per_hop;
          Alcotest.test_case "no link-tx event" `Quick test_link_no_tx_event;
          Alcotest.test_case "ring does not retain delivered packets" `Quick
            test_link_ring_no_retention;
          Alcotest.test_case "fluid wait drops between sends" `Quick
            test_link_fluid_wait_drop;
          Alcotest.test_case "down with packets in flight" `Quick
            test_link_down_in_flight;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 17 |])
            link_matches_two_event_reference;
        ] );
      ( "network",
        [
          Alcotest.test_case "end to end" `Quick test_network_end_to_end;
          Alcotest.test_case "duplicate addr" `Quick
            test_network_duplicate_addr_rejected;
          Alcotest.test_case "hook drop" `Quick test_network_hook_drop;
          Alcotest.test_case "hook order" `Quick
            test_network_hook_order_first_drop_wins;
          Alcotest.test_case "ttl expiry" `Quick test_network_ttl_expiry;
          Alcotest.test_case "no route" `Quick test_network_no_route;
          Alcotest.test_case "disconnect port" `Quick
            test_network_disconnect_port;
          Alcotest.test_case "shortest path" `Quick test_network_shortest_path;
          Alcotest.test_case "as-local scope" `Quick test_network_as_local_scope;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "queue overflow" `Quick test_ledger_queue_overflow;
          Alcotest.test_case "red early drop" `Quick test_ledger_red_early_drop;
          Alcotest.test_case "link down" `Quick test_ledger_link_down;
          Alcotest.test_case "fluid loss" `Quick test_ledger_fluid_loss;
          Alcotest.test_case "posts allocate nothing" `Quick
            test_ledger_posts_allocate_nothing;
          Alcotest.test_case "fork and join" `Quick test_ledger_fork_join;
          Alcotest.test_case "metrics" `Quick test_ledger_metrics;
        ] );
      ( "tap",
        [
          Alcotest.test_case "captures transit" `Quick test_tap_captures_transit;
          Alcotest.test_case "filter and limit" `Quick test_tap_filter_and_limit;
          Alcotest.test_case "clear and stop" `Quick test_tap_clear_and_stop;
        ] );
    ]
