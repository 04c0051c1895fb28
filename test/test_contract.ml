(* Tests for the verifiable filtering-contract layer (lib/contract,
   docs/CONTRACTS.md): the receipt wire codec, the keyed-digest keychain,
   the victim-side auditor's conviction rules (per-flow strikes, arrival
   freshness, affirmative vs circumstantial evidence, failover re-arm),
   contracts-off bit-identity, and the 20%-Byzantine forge acceptance
   regime the bench (E20) gates on. *)

module Sim = Aitf_engine.Sim
module Signing = Aitf_contract.Signing
module Auditor = Aitf_contract.Auditor
module Adversary = Aitf_adversary.Adversary
module As_scenario = Aitf_workload.As_scenario
module As_graph = Aitf_topo.As_graph
module Span = Aitf_obs.Span
open Aitf_net
open Aitf_filter
open Aitf_core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

(* --- Wire codec: receipts --------------------------------------------------- *)

let sample_receipt =
  {
    Message.rc_flow =
      Flow_label.v ~proto:17
        (Flow_label.Net (Addr.prefix_of_string "20.0.0.0/24"))
        (Flow_label.Host (addr "10.0.0.10"));
    rc_gateway = addr "20.0.0.1";
    rc_victim = addr "10.0.0.10";
    rc_seq = 42;
    rc_installed_at = 3.25;
    rc_expires_at = 63.25;
    rc_hits = 1234;
    rc_auth = 0x1122334455667788L;
  }

let test_wire_roundtrip_receipt () =
  let bytes =
    match Wire.encode (Message.Install_receipt sample_receipt) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (match Wire.decode bytes with
  | Ok (Message.Install_receipt r) ->
    checkb "flow" true
      (Flow_label.equal r.Message.rc_flow sample_receipt.Message.rc_flow);
    checkb "gateway" true
      (Addr.equal r.Message.rc_gateway sample_receipt.Message.rc_gateway);
    checkb "victim" true
      (Addr.equal r.Message.rc_victim sample_receipt.Message.rc_victim);
    checki "seq" 42 r.Message.rc_seq;
    checkb "installed" true (r.Message.rc_installed_at = 3.25);
    checkb "expires" true (r.Message.rc_expires_at = 63.25);
    checki "hits" 1234 r.Message.rc_hits;
    checkb "auth" true (r.Message.rc_auth = 0x1122334455667788L)
  | Ok _ -> Alcotest.fail "wrong constructor"
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e);
  checkb "size prediction" true
    (Wire.encoded_size (Message.Install_receipt sample_receipt)
    = Some (Bytes.length bytes))

let test_signing_bytes_ignore_auth () =
  (* The canonical signing input zeroes the auth tail, so it must not
     depend on the auth value — signer and verifier see the same bytes. *)
  let with_auth a = Message.Install_receipt { sample_receipt with rc_auth = a } in
  match (Wire.signing_bytes (with_auth 0L), Wire.signing_bytes (with_auth 77L))
  with
  | Ok a, Ok b -> checkb "auth-independent" true (Bytes.equal a b)
  | _ -> Alcotest.fail "signing_bytes failed on a receipt"

let wire_label_gen =
  let open QCheck.Gen in
  let sel =
    frequency
      [
        (1, return Flow_label.Any);
        (3, map (fun i -> Flow_label.Host (Int32.of_int i)) (int_bound 0xFFFF));
        ( 2,
          map2
            (fun i len -> Flow_label.Net (Addr.prefix (Int32.of_int i) len))
            (int_bound 0xFFFF) (int_bound 32) );
      ]
  in
  let qual hi = opt (int_bound hi) in
  map2
    (fun (s, d) (p, (sp, dp)) ->
      { Flow_label.src = s; dst = d; proto = p; sport = sp; dport = dp })
    (pair sel sel)
    (pair (qual 255) (pair (qual 65535) (qual 65535)))

let receipt_roundtrip_property =
  let gen =
    QCheck.Gen.(
      map3
        (fun flow (gw, victim) (seq, (installed, hits)) ->
          {
            Message.rc_flow = flow;
            rc_gateway = Int32.of_int gw;
            rc_victim = Int32.of_int victim;
            rc_seq = seq;
            rc_installed_at = float_of_int installed /. 8.;
            rc_expires_at = (float_of_int installed /. 8.) +. 60.;
            rc_hits = hits;
            rc_auth = Int64.of_int (seq + hits);
          })
        wire_label_gen
        (pair (int_bound 0xFFFFF) (int_bound 0xFFFFF))
        (pair (int_bound 0xFFFFFF) (pair (int_bound 10_000) small_nat)))
  in
  QCheck.Test.make ~name:"wire roundtrip for random receipts" ~count:300
    (QCheck.make gen)
    (fun rc ->
      match Wire.encode (Message.Install_receipt rc) with
      | Error _ -> false
      | Ok bytes -> (
        match Wire.decode bytes with
        | Ok (Message.Install_receipt r) ->
          Flow_label.equal r.Message.rc_flow rc.Message.rc_flow
          && Addr.equal r.Message.rc_gateway rc.Message.rc_gateway
          && Addr.equal r.Message.rc_victim rc.Message.rc_victim
          && r.Message.rc_seq = rc.Message.rc_seq
          && r.Message.rc_installed_at = rc.Message.rc_installed_at
          && r.Message.rc_expires_at = rc.Message.rc_expires_at
          && r.Message.rc_hits = rc.Message.rc_hits
          && r.Message.rc_auth = rc.Message.rc_auth
        | _ -> false))

(* --- Signing ---------------------------------------------------------------- *)

let test_signing_keychain () =
  let kc = Signing.create ~seed:7 in
  let gw = addr "20.0.0.1" in
  let other = addr "20.0.0.2" in
  let bytes = Bytes.of_string "canonical message bytes" in
  let d = Signing.mac kc gw bytes in
  checkb "never the unsigned sentinel" true (d <> 0L);
  checkb "verifies under the signer" true (Signing.verify kc gw bytes d);
  checkb "fails under another principal" false (Signing.verify kc other bytes d);
  checkb "fails on altered bytes" false
    (Signing.verify kc gw (Bytes.of_string "canonical message bytez") d);
  let kc' = Signing.create ~seed:8 in
  checkb "fails under another keychain" false (Signing.verify kc' gw bytes d)

(* --- Auditor unit tests ------------------------------------------------------ *)

(* A small, fast audit clock: one-second deadline, 0.4 s freshness
   window, quarter-second ticks. k = 3 circumstantial strikes convict. *)
let unit_config =
  { Auditor.k = 3; deadline = 1.0; grace = 0.4; backoff = 2.0; period = 0.25 }

let victim_gw = addr "9.9.9.9"

let mk_auditor ?(config = unit_config) sim =
  let kc = Signing.create ~seed:11 in
  let flags = ref [] in
  let a =
    Auditor.create ~config ~verify:(Signing.verify kc) ~gateway:victim_gw
      ~on_flag:(fun g -> flags := g :: !flags)
      sim
  in
  (a, kc, flags)

let flow = Flow_label.host_pair (addr "20.0.0.7") (addr "10.0.0.10")

let request path =
  {
    Message.flow;
    target = Message.To_attacker_gateway;
    duration = 60.;
    path;
    hops = 0;
    requestor = addr "10.0.0.10";
    corr = 1;
    auth = 0L;
  }

let signed_receipt kc gw ~seq ~at =
  let r =
    {
      Message.rc_flow = flow;
      rc_gateway = gw;
      rc_victim = addr "10.0.0.10";
      rc_seq = seq;
      rc_installed_at = at;
      rc_expires_at = at +. 60.;
      rc_hits = 0;
      rc_auth = 0L;
    }
  in
  match Wire.signing_bytes (Message.Install_receipt r) with
  | Ok bytes -> { r with Message.rc_auth = Signing.mac kc gw bytes }
  | Error e -> Alcotest.fail e

(* Feed an arrival every [step] until [stop]. *)
let rec drip sim a ~stop ~step () =
  Auditor.note_arrival a flow (Sim.now sim);
  if Sim.now sim +. step <= stop then
    ignore (Sim.after sim step (drip sim a ~stop ~step))

let test_auditor_silent_liar_convicted () =
  let sim = Sim.create () in
  let a, _, flags = mk_auditor sim in
  let liar = addr "20.0.0.1" in
  Auditor.note_request a (request [ liar ]);
  drip sim a ~stop:4.6 ~step:0.1 ();
  Sim.run ~until:6.0 sim;
  (* Strikes accrue through the exponential backoff probes (deadline 1 s,
     then +1 s, then +2 s): three per-flow strikes convict at t = 4. *)
  checkb "liar flagged" true (Auditor.flagged_gateway a liar);
  checki "on_flag fired exactly once" 1 (List.length !flags);
  checkb "flag names the liar" true
    (match !flags with [ g ] -> Addr.equal g liar | _ -> false)

let test_auditor_quiet_flow_never_convicts () =
  (* The flow stops arriving before the deadline: an honest install whose
     receipt was lost. No harm observed, no conviction — ever. *)
  let sim = Sim.create () in
  let a, _, flags = mk_auditor sim in
  let gw = addr "20.0.0.1" in
  Auditor.note_request a (request [ gw ]);
  drip sim a ~stop:0.3 ~step:0.1 ();
  Sim.run ~until:10.0 sim;
  checkb "nobody flagged" true (Auditor.flagged a = []);
  checkb "no violations" true (Auditor.violations a = []);
  checki "no flag callback" 0 (List.length !flags)

let test_auditor_freshness_excuses_stale_arrivals () =
  (* Arrivals persist just past the first probe, then stop (the filter
     landed, slowly). One circumstantial strike, never a conviction. *)
  let sim = Sim.create () in
  let a, _, _ = mk_auditor sim in
  let gw = addr "20.0.0.1" in
  Auditor.note_request a (request [ gw ]);
  drip sim a ~stop:1.2 ~step:0.1 ();
  Sim.run ~until:10.0 sim;
  checkb "one strike recorded" true (Auditor.violations a = [ (gw, 1) ]);
  checkb "not flagged" false (Auditor.flagged_gateway a gw)

let test_auditor_forged_receipt_convicts_at_two () =
  (* Receipts in the gateway's name that fail under its key are
     affirmative evidence: two convict (two, not one, so one corrupted
     delivery can never convict). No arrivals are needed. *)
  let sim = Sim.create () in
  let a, kc, _ = mk_auditor sim in
  let forger = addr "20.0.0.1" in
  Auditor.note_request a (request [ forger ]);
  let forged seq =
    let r = signed_receipt kc forger ~seq ~at:0.1 in
    { r with Message.rc_auth = 0xDEADBEEFL }
  in
  ignore
    (Sim.after sim 0.3 (fun () ->
         Auditor.on_receipt a (forged 1);
         checkb "one forgery is not enough" false
           (Auditor.flagged_gateway a forger)));
  ignore (Sim.after sim 0.6 (fun () -> Auditor.on_receipt a (forged 2)));
  Sim.run ~until:2.0 sim;
  checkb "forger flagged" true (Auditor.flagged_gateway a forger);
  checki "both receipts rejected" 2 (Auditor.count a Auditor.Receipt_rejected);
  checki "none verified" 0 (Auditor.count a Auditor.Receipt_verified)

let test_auditor_replayed_receipt_convicts_at_two () =
  (* A genuine receipt re-sent under its old sequence number is caught by
     the seen-set exactly like a replayed handshake reply. The first
     duplicate is tolerated (it proves nothing by itself); the second
     convicts. *)
  let sim = Sim.create () in
  let a, kc, _ = mk_auditor sim in
  let gw = addr "20.0.0.1" in
  Auditor.note_request a (request [ gw ]);
  let rc = signed_receipt kc gw ~seq:5 ~at:0.2 in
  ignore (Sim.after sim 0.2 (fun () -> Auditor.on_receipt a rc));
  ignore
    (Sim.after sim 0.5 (fun () ->
         Auditor.on_receipt a rc;
         checkb "one replay is not enough" false (Auditor.flagged_gateway a gw)));
  ignore (Sim.after sim 0.8 (fun () -> Auditor.on_receipt a rc));
  Sim.run ~until:2.0 sim;
  checkb "replayer flagged" true (Auditor.flagged_gateway a gw);
  checki "original verified once" 1 (Auditor.count a Auditor.Receipt_verified);
  checki "both replays rejected" 2 (Auditor.count a Auditor.Receipt_rejected)

let test_auditor_fresh_seqs_never_rejected () =
  (* Distinct sequence numbers from one issuer — interleaved or not — are
     all fresh: the seen-set is membership, not a high-water mark, so
     reordered receipt streams cannot convict an honest gateway. *)
  let sim = Sim.create () in
  let a, kc, _ = mk_auditor sim in
  let gw = addr "20.0.0.1" in
  Auditor.note_request a (request [ gw ]);
  List.iteri
    (fun i seq ->
      ignore
        (Sim.after sim
           (0.1 +. (0.1 *. float_of_int i))
           (fun () -> Auditor.on_receipt a (signed_receipt kc gw ~seq ~at:0.1))))
    [ 3; 1; 2; 5; 4 ];
  Sim.run ~until:2.0 sim;
  checki "all verified" 5 (Auditor.count a Auditor.Receipt_verified);
  checki "none rejected" 0 (Auditor.count a Auditor.Receipt_rejected);
  checkb "not flagged" false (Auditor.flagged_gateway a gw)

let test_auditor_failover_rearms_after_flag () =
  (* Once the receipt issuer is convicted, its stale receipt is dropped
     and the next gateway on the path inherits a FULL deadline — without
     the re-arm it would be convicted before its post-failover receipt
     could arrive. *)
  let sim = Sim.create () in
  let a, kc, _ = mk_auditor sim in
  let liar = addr "20.0.0.1" in
  let honest = addr "20.0.0.2" in
  Auditor.note_request a (request [ liar; honest ]);
  let rc = signed_receipt kc liar ~seq:1 ~at:0.2 in
  ignore (Sim.after sim 0.2 (fun () -> Auditor.on_receipt a rc));
  ignore (Sim.after sim 0.5 (fun () -> Auditor.on_receipt a rc));
  ignore (Sim.after sim 0.8 (fun () -> Auditor.on_receipt a rc));
  (* The flow keeps arriving until the honest gateway's filter lands. *)
  drip sim a ~stop:1.7 ~step:0.1 ();
  ignore
    (Sim.after sim 1.5 (fun () ->
         Auditor.on_receipt a (signed_receipt kc honest ~seq:1 ~at:1.5)));
  Sim.run ~until:10.0 sim;
  checkb "liar flagged" true (Auditor.flagged_gateway a liar);
  checkb "honest successor never flagged" false
    (Auditor.flagged_gateway a honest);
  checkb "only the liar convicted" true (Auditor.flagged a = [ liar ])

let test_auditor_victim_gateway_never_audited () =
  (* The victim's own gateway closes every path with terminal filters,
     not receipts — it must be stripped from the auditable path. *)
  let sim = Sim.create () in
  let a, _, _ = mk_auditor sim in
  Auditor.note_request a (request [ victim_gw ]);
  drip sim a ~stop:9.5 ~step:0.1 ();
  Sim.run ~until:10.0 sim;
  checkb "nobody flagged" true (Auditor.flagged a = []);
  checkb "no violations" true (Auditor.violations a = [])

let test_auditor_rerequest_does_not_buy_time () =
  (* Re-requesting a known flow must not push out a pending probe
     deadline: with the min-deadline rule the conviction clock is
     unaffected by the 0.8 s re-request, so the third strike still lands
     at t = 4 and the flag fires by 4.25 (the tick after). *)
  let sim = Sim.create () in
  let a, _, _ = mk_auditor sim in
  let liar = addr "20.0.0.1" in
  let flag_time = ref infinity in
  let kc = Signing.create ~seed:11 in
  let a2 =
    Auditor.create ~config:unit_config ~verify:(Signing.verify kc)
      ~gateway:victim_gw
      ~on_flag:(fun _ -> flag_time := Float.min !flag_time (Sim.now sim))
      sim
  in
  ignore a;
  Auditor.note_request a2 (request [ liar ]);
  ignore
    (Sim.after sim 0.8 (fun () -> Auditor.note_request a2 (request [ liar ])));
  drip sim a2 ~stop:5.0 ~step:0.1 ();
  Sim.run ~until:6.0 sim;
  checkb "flag fired" true (!flag_time < infinity);
  checkb
    (Printf.sprintf "flag by t=4.25 (got %.2f)" !flag_time)
    true (!flag_time <= 4.30)

(* --- Contracts off: bit identity -------------------------------------------- *)

let small_params =
  {
    As_scenario.default with
    As_scenario.as_spec = { As_graph.default_spec with As_graph.domains = 30 };
    as_config = { Config.default with Config.engine = Config.Hybrid };
    as_seed = 5;
    as_duration = 8.;
    as_sources = 200;
    as_attack_domains = 4;
    as_legit_domains = 2;
    as_legit_sources = 400;
  }

let fingerprint (r : As_scenario.result) =
  ( r.As_scenario.r_good_offered_bytes,
    r.As_scenario.r_good_received_bytes,
    r.As_scenario.r_attack_received_bytes,
    r.As_scenario.r_requests_sent,
    r.As_scenario.r_filters_installed,
    r.As_scenario.r_events )

let test_contracts_off_bit_identity () =
  (* With contracts off, the Byzantine knobs must be completely inert:
     no extra RNG draws, no receipts, no auditor — the run is identical
     to the pre-contract scenario whatever the knobs say. *)
  let base = As_scenario.run small_params in
  let knobs =
    As_scenario.run
      {
        small_params with
        As_scenario.as_byzantine_fraction = 0.3;
        as_lying_mode = Adversary.Forge;
      }
  in
  checkb "identical fingerprints" true (fingerprint base = fingerprint knobs);
  checkb "no auditor" true (base.As_scenario.r_auditor = None);
  checkb "no byzantine picks" true (knobs.As_scenario.r_byzantine = []);
  checki "no failovers" 0 knobs.As_scenario.r_failovers

(* --- Acceptance: 20% Byzantine forge regime --------------------------------- *)

(* The validated verification regime (docs/CONTRACTS.md, bench E20): a
   60-domain Internet, capacity-constrained victim gateway, fast audit
   clock, forge-mode liars. *)
let contract_params fraction =
  {
    As_scenario.default with
    As_scenario.as_spec = { As_graph.default_spec with As_graph.domains = 60 };
    as_config =
      {
        Config.default with
        Config.engine = Config.Hybrid;
        filter_capacity = 150;
      };
    as_seed = 42;
    as_duration = 15.;
    as_sources = 400;
    as_attack_domains = 8;
    as_legit_domains = 4;
    as_contracts = true;
    as_byzantine_fraction = fraction;
    as_lying_mode = Adversary.Forge;
    as_audit =
      { Auditor.default_config with Auditor.deadline = 0.75; grace = 0.35 };
  }

let test_acceptance_twenty_percent_forge () =
  let honest = As_scenario.run (contract_params 0.) in
  let byz = As_scenario.run (contract_params 0.2) in
  (* Honest baseline: contracts on, nobody lies, nobody gets flagged. *)
  (match honest.As_scenario.r_auditor with
  | None -> Alcotest.fail "honest run has no auditor"
  | Some a ->
    checkb "honest: zero false positives" true (Auditor.flagged a = []);
    checkb "honest: receipts flowed" true (Auditor.count a Auditor.Receipt_verified > 0);
    checki "honest: none rejected" 0 (Auditor.count a Auditor.Receipt_rejected));
  (* Byzantine run: every corrupted gateway flagged, zero honest ones. *)
  let corrupted = List.map snd byz.As_scenario.r_byzantine in
  checkb "some gateways corrupted" true (corrupted <> []);
  (match byz.As_scenario.r_auditor with
  | None -> Alcotest.fail "byzantine run has no auditor"
  | Some a ->
    let flagged = Auditor.flagged a in
    List.iter
      (fun b ->
        checkb
          (Printf.sprintf "corrupted %s flagged" (Addr.to_string b))
          true (List.mem b flagged))
      corrupted;
    List.iter
      (fun g ->
        checkb
          (Printf.sprintf "flagged %s is corrupted" (Addr.to_string g))
          true (List.mem g corrupted))
      flagged;
    checkb "forged receipts rejected" true (Auditor.count a Auditor.Receipt_rejected > 0));
  checkb "failover engaged" true (byz.As_scenario.r_failovers > 0);
  checkb "victim recovers" true (byz.As_scenario.r_time_to_filter <> None);
  (* Failover restores >= 90% of the honest goodput. *)
  let ratio =
    byz.As_scenario.r_good_received_bytes
    /. honest.As_scenario.r_good_received_bytes
  in
  checkb (Printf.sprintf "goodput ratio %.3f >= 0.9" ratio) true (ratio >= 0.9)

(* A lying gateway's receipts are traced under the counter that counts
   them: a forging gateway traces [receipt-forged] and never
   [receipt-issued], a replaying one traces [receipt-replayed]. *)
let receipt_events mode =
  let c = Span.create () in
  Span.attach c;
  let r =
    Fun.protect ~finally:Span.detach (fun () ->
        As_scenario.run
          { (contract_params 0.3) with As_scenario.as_lying_mode = mode })
  in
  let seen = Hashtbl.create 16 in
  let note (e : Span.event) =
    match e.Span.by with
    | Some node when String.starts_with ~prefix:"receipt-" e.Span.label ->
      Hashtbl.replace seen (node, e.Span.label) ()
    | Some _ | None -> ()
  in
  List.iter
    (fun root ->
      List.iter note root.Span.root_events;
      List.iter (fun s -> List.iter note (Span.events_of s)) (Span.spans_of root))
    (Span.roots c);
  let liars =
    List.map (fun (d, _) -> Printf.sprintf "as%d" d) r.As_scenario.r_byzantine
  in
  checkb "some gateways corrupted" true (liars <> []);
  (liars, fun node label -> Hashtbl.mem seen (node, label))

let test_lying_receipts_traced () =
  let forgers, traced = receipt_events Adversary.Forge in
  checkb "forged receipts traced" true
    (List.exists (fun n -> traced n "receipt-forged") forgers);
  List.iter
    (fun n ->
      checkb (n ^ " traces no receipt-issued") false (traced n "receipt-issued"))
    forgers;
  let replayers, traced = receipt_events Adversary.Replay in
  checkb "replayed receipts traced" true
    (List.exists (fun n -> traced n "receipt-replayed") replayers)

(* --- Runner ------------------------------------------------------------------ *)

let () =
  Alcotest.run "aitf_contract"
    [
      ( "wire",
        [
          Alcotest.test_case "receipt roundtrip" `Quick
            test_wire_roundtrip_receipt;
          Alcotest.test_case "signing bytes ignore auth" `Quick
            test_signing_bytes_ignore_auth;
          QCheck_alcotest.to_alcotest receipt_roundtrip_property;
        ] );
      ( "signing",
        [ Alcotest.test_case "keychain properties" `Quick test_signing_keychain ]
      );
      ( "auditor",
        [
          Alcotest.test_case "silent liar convicted" `Quick
            test_auditor_silent_liar_convicted;
          Alcotest.test_case "quiet flow never convicts" `Quick
            test_auditor_quiet_flow_never_convicts;
          Alcotest.test_case "stale arrivals excused" `Quick
            test_auditor_freshness_excuses_stale_arrivals;
          Alcotest.test_case "forged receipts convict at two" `Quick
            test_auditor_forged_receipt_convicts_at_two;
          Alcotest.test_case "replayed receipts convict at two" `Quick
            test_auditor_replayed_receipt_convicts_at_two;
          Alcotest.test_case "fresh seqs never rejected" `Quick
            test_auditor_fresh_seqs_never_rejected;
          Alcotest.test_case "failover re-arms the deadline" `Quick
            test_auditor_failover_rearms_after_flag;
          Alcotest.test_case "victim gateway never audited" `Quick
            test_auditor_victim_gateway_never_audited;
          Alcotest.test_case "re-request does not buy time" `Quick
            test_auditor_rerequest_does_not_buy_time;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "contracts off is bit-identical" `Quick
            test_contracts_off_bit_identity;
          Alcotest.test_case "20% forge: flag, fail over, recover" `Quick
            test_acceptance_twenty_percent_forge;
          Alcotest.test_case "lying receipts traced under their names" `Quick
            test_lying_receipts_traced;
        ] );
    ]
