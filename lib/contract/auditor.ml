module Sim = Aitf_engine.Sim
module Message = Aitf_core.Message
module Wire = Aitf_core.Wire
module Counters = Aitf_obs.Counters
open Aitf_net
open Aitf_filter

type violation_kind = Silent | Bad_signature | Replayed | Not_policing

type config = {
  k : int;  (* violations that convict a gateway *)
  deadline : float;  (* how long a gateway has to produce its first receipt *)
  grace : float;  (* arrivals tolerated after a valid receipt *)
  backoff : float;  (* probing backoff multiplier between violations *)
  period : float;  (* audit tick period *)
}

let default_config =
  { k = 3; deadline = 2.0; grace = 1.0; backoff = 2.0; period = 0.5 }

(* Per-flow audit state: which gateway currently owes us policing, and what
   evidence we hold. [x_mark] is the evidence watermark — only arrivals
   after it count towards the next violation, so one sustained burst cannot
   be double-counted and a flow that went quiet can never convict anyone. *)
type expectation = {
  x_flow : Flow_label.t;
  mutable x_path : Addr.t list;  (* auditable path, attacker-side first *)
  mutable x_idx : int;  (* accountable entry while no receipt covers us *)
  mutable x_deadline : float;
  mutable x_backoff : float;
  mutable x_mark : float;
  mutable x_last_arrival : float;
  mutable x_receipt_gw : Addr.t option;  (* issuer of the last valid receipt *)
  mutable x_receipt_at : float;
  mutable x_receipt_expires : float;
  x_strikes : (Addr.t, int) Hashtbl.t;
      (* per-accused violations on THIS flow. Conviction needs [k] strikes
         from a single flow: a liar's flow keeps arriving through every
         backoff probe, while an honest install that was merely slow (or
         whose receipt drowned on the congested victim link) strikes at
         most once and then goes quiet. Summing strikes across flows
         would instead convict any busy honest gateway on the latency
         tail of its install path. *)
}

type counter = Receipt_verified | Receipt_rejected

let counter_name = function
  | Receipt_verified -> "receipt-verified"
  | Receipt_rejected -> "receipt-rejected"

type t = {
  sim : Sim.t;
  config : config;
  verify : Addr.t -> Bytes.t -> int64 -> bool;
  gateway : Addr.t;  (* the victim's own gateway — never audited *)
  on_flag : Addr.t -> unit;
  expectations : (Flow_label.t, expectation) Hashtbl.t;
  violation_counts : (Addr.t, int) Hashtbl.t;
  flagged_tbl : (Addr.t, unit) Hashtbl.t;
  seen_seq : (Addr.t * int, unit) Hashtbl.t;  (* replay detection per issuer *)
  counters : counter Counters.t;
}

let count t c = Counters.count t.counters c
let counters t = t.counters
let flagged_gateway t a = Hashtbl.mem t.flagged_tbl a

let flagged t =
  Hashtbl.fold (fun a () acc -> a :: acc) t.flagged_tbl []
  |> List.sort Addr.compare

let violations t =
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) t.violation_counts []
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let violate t ~now (x : expectation) gw kind =
  let total =
    1 + Option.value ~default:0 (Hashtbl.find_opt t.violation_counts gw)
  in
  Hashtbl.replace t.violation_counts gw total;
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt x.x_strikes gw) in
  Hashtbl.replace x.x_strikes gw n;
  (* Probing backs off exponentially: the next violation on this flow needs
     fresh evidence and a widening quiet window, so a single sustained
     leak converts into distinct probes, not an instant conviction. *)
  x.x_mark <- now;
  x.x_deadline <- now +. x.x_backoff;
  x.x_backoff <- x.x_backoff *. t.config.backoff;
  (* Arrival-based violations are circumstantial (a slow install looks
     momentarily like a lie), so they need the full [k] probes. A forged
     or replayed receipt is affirmative evidence in the issuer's own name
     — two of those suffice (two, not one, so a single duplicated
     delivery can never convict). *)
  let needed =
    match kind with
    | Silent | Not_policing -> t.config.k
    | Bad_signature | Replayed -> Int.min t.config.k 2
  in
  if n >= needed && not (Hashtbl.mem t.flagged_tbl gw) then begin
    Hashtbl.replace t.flagged_tbl gw ();
    t.on_flag gw
  end

(* The accountable entry skips flagged gateways — exactly mirroring the
   failover skip the victim's gateway performs on the same path. *)
let advance_past_flagged t ~now (x : expectation) =
  let rec go () =
    match List.nth_opt x.x_path x.x_idx with
    | Some gw when Hashtbl.mem t.flagged_tbl gw ->
      x.x_idx <- x.x_idx + 1;
      x.x_mark <- now;
      x.x_deadline <- now +. t.config.deadline;
      x.x_backoff <- t.config.deadline;
      go ()
    | Some _ | None -> ()
  in
  go ()

let audit_one t now (x : expectation) =
  advance_past_flagged t ~now x;
  (* Drop a stale receipt from a since-flagged issuer: it pacifies nothing.
     The audit re-arms from scratch — the newly accountable gateway gets a
     full deadline to produce its post-failover receipt; without the reset
     it would inherit an expired deadline and be convicted on the next
     tick, before its receipt could possibly arrive. *)
  (match x.x_receipt_gw with
  | Some g when Hashtbl.mem t.flagged_tbl g ->
    x.x_receipt_gw <- None;
    x.x_mark <- now;
    x.x_deadline <- now +. t.config.deadline;
    x.x_backoff <- t.config.deadline
  | Some _ | None -> ());
  match x.x_receipt_gw with
  | Some g ->
    (* A valid receipt claims this flow is policed until [x_receipt_expires].
       Arrivals persisting past the grace window give the lie to the claim:
       partial policing, an accept-then-lapse replayer, or a forgotten
       filter all land here. *)
    if
      now < x.x_receipt_expires
      && now >= x.x_deadline
      && x.x_last_arrival > x.x_receipt_at +. t.config.grace
      && x.x_last_arrival > x.x_mark
      && x.x_last_arrival >= now -. t.config.grace
    then violate t ~now x g Not_policing
  | None -> (
    (* No receipt covers the flow: past the deadline, persisting arrivals
       convict the accountable path entry — including the silent
       accept-then-ignore liar, who never writes anything down. The flow
       must still be arriving {e now} (within the grace window): a flow
       that went quiet is being policed whether or not its receipt
       survived the congested victim link, and in-flight packets from the
       request->install window are not evidence of lying. *)
    match List.nth_opt x.x_path x.x_idx with
    | None -> ()  (* path exhausted; terminal filtering is local *)
    | Some gw ->
      if
        now >= x.x_deadline
        && x.x_last_arrival > x.x_mark
        && x.x_last_arrival >= now -. t.config.grace
      then violate t ~now x gw Silent)

let tick t =
  let now = Sim.now t.sim in
  (* Deterministic audit order regardless of hash-table internals. *)
  Hashtbl.fold (fun _ x acc -> x :: acc) t.expectations []
  |> List.sort (fun a b -> Flow_label.compare a.x_flow b.x_flow)
  |> List.iter (audit_one t now)

(* [?now] lets sharded runs stamp observations with the observing shard's
   clock at capture time ([As_scenario] routes these calls through
   [Sched.defer], which replays them at the barrier — the global sim's
   clock there lags the shard that saw the event). Sequential callers
   omit it and get the historical [Sim.now t.sim]. *)
let note_request ?now t (req : Message.request) =
  let now = match now with Some n -> n | None -> Sim.now t.sim in
  (* The victim's own gateway closes the path; it answers to us directly
     (terminal filtering), not through receipts, so it is never audited. *)
  let path =
    List.filter (fun a -> not (Addr.equal a t.gateway)) req.Message.path
  in
  match Hashtbl.find_opt t.expectations req.Message.flow with
  | Some x ->
    (* A fresh request (e.g. after filter expiry) re-arms the audit;
       accumulated strikes are not forgotten, and a probe deadline already
       pending is never pushed out — a liar must not buy time by letting
       the victim re-request. *)
    if path <> [] then x.x_path <- path;
    x.x_mark <- now;
    x.x_deadline <-
      (if x.x_deadline <= now then now +. t.config.deadline
       else Float.min x.x_deadline (now +. t.config.deadline));
    advance_past_flagged t ~now x
  | None ->
    let x =
      {
        x_flow = req.Message.flow;
        x_path = path;
        x_idx = 0;
        x_deadline = now +. t.config.deadline;
        x_backoff = t.config.deadline;
        x_mark = now;
        x_last_arrival = now;
        x_receipt_gw = None;
        x_receipt_at = 0.;
        x_receipt_expires = 0.;
        x_strikes = Hashtbl.create 4;
      }
    in
    advance_past_flagged t ~now x;
    Hashtbl.replace t.expectations req.Message.flow x

let note_arrival t flow at =
  match Hashtbl.find_opt t.expectations flow with
  | Some x -> x.x_last_arrival <- at
  | None -> ()

let on_receipt ?now t (r : Message.receipt) =
  let now = match now with Some n -> n | None -> Sim.now t.sim in
  let authentic =
    (* [signing_bytes] zeroes the auth tail itself, so the receipt passes
       through unmodified. *)
    match Wire.signing_bytes (Message.Install_receipt r) with
    | Ok bytes -> t.verify r.Message.rc_gateway bytes r.Message.rc_auth
    | Error _ -> false
  in
  if not authentic then begin
    Counters.bump t.counters Receipt_rejected;
    (* A receipt in a gateway's name that fails under that gateway's key:
       either a forger without key material or tampering in flight. The
       named issuer claimed to police and provably is not. *)
    match Hashtbl.find_opt t.expectations r.Message.rc_flow with
    | Some x -> violate t ~now x r.Message.rc_gateway Bad_signature
    | None -> ()
  end
  else begin
    let stale =
      Hashtbl.mem t.seen_seq (r.Message.rc_gateway, r.Message.rc_seq)
    in
    if stale then begin
      Counters.bump t.counters Receipt_rejected;
      (* Same discipline as the handshake's nonce cache: a re-used sequence
         number is a replay, never fresh evidence of policing. Membership,
         not a high-water mark — receipts for different flows from one
         issuer interleave on the wire, and reordering must not convict. *)
      match Hashtbl.find_opt t.expectations r.Message.rc_flow with
      | Some x -> violate t ~now x r.Message.rc_gateway Replayed
      | None -> ()
    end
    else begin
      Hashtbl.replace t.seen_seq (r.Message.rc_gateway, r.Message.rc_seq) ();
      Counters.bump t.counters Receipt_verified;
      if not (Hashtbl.mem t.flagged_tbl r.Message.rc_gateway) then begin
        match Hashtbl.find_opt t.expectations r.Message.rc_flow with
        | None -> ()
        | Some x ->
          (* Prefix receipts count too: a controller-placed wildcard filter
             covers every flow it subsumes. *)
          if Flow_label.subsumes r.Message.rc_flow x.x_flow then begin
            x.x_receipt_gw <- Some r.Message.rc_gateway;
            x.x_receipt_at <- now;
            x.x_receipt_expires <- r.Message.rc_expires_at;
            x.x_deadline <- Float.max x.x_deadline (now +. t.config.grace)
          end
      end
    end
  end

let create ?(config = default_config) ~verify ~gateway ~on_flag sim =
  let t =
    {
      sim;
      config;
      verify;
      gateway;
      on_flag;
      expectations = Hashtbl.create 64;
      violation_counts = Hashtbl.create 8;
      flagged_tbl = Hashtbl.create 4;
      seen_seq = Hashtbl.create 64;
      counters =
        Counters.create ~prefix:"auditor" ~name:counter_name
          ~all:[ Receipt_verified; Receipt_rejected ] sim;
    }
  in
  let rec arm () =
    ignore
      (Sim.after ~label:"auditor-tick" t.sim config.period (fun () ->
           tick t;
           arm ()))
  in
  arm ();
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      let open Aitf_obs.Metrics in
      let p metric = "auditor." ^ metric in
      register_counter reg (p "violations") ~unit_:"violations"
        ~help:"Contract violations recorded across all gateways" (fun () ->
          float_of_int
            (Hashtbl.fold (fun _ n acc -> acc + n) t.violation_counts 0));
      register_gauge reg (p "gateways_flagged") ~unit_:"gateways"
        ~help:"Gateways convicted of lying so far" (fun () ->
          float_of_int (Hashtbl.length t.flagged_tbl)));
  t
