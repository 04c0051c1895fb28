(** One scenario value and one run path.

    A {!t} names one of the packaged scenarios together with all of its
    parameters; {!run} runs it and returns the typed result of that
    scenario's runner plus the measurements every front end reads the
    same way. The golden matrix ({!Matrix}), the [aitf_sim] scenario
    subcommands and bench E20 go through here. The index of {!t} is
    the runner's result type, so a front end that builds a [Chain] gets a
    {!Scenarios.chain_result} back, with no impossible cases to match. *)

module Json = Aitf_obs.Json
module Series = Aitf_stats.Series

type _ t =
  | Chain : Scenarios.chain_params -> Scenarios.chain_result t
      (** the single-attacker Figure-1 chain *)
  | Flood : Scenarios.flood_params -> Scenarios.flood_result t
      (** a zombie army against a server in a provider hierarchy *)
  | Swarm : Scenarios.swarm_params -> Scenarios.swarm_result t
      (** spoofed-source pools over fluid aggregates on the chain *)
  | Internet : As_scenario.params -> As_scenario.result t
      (** a generated AS-level Internet under DDoS *)
  | Replay : Replay.trace * Aitf_core.Config.engine -> Replay.result t
      (** a trace-driven attack on the chain, through either engine *)

type any = Any : _ t -> any
(** A scenario whose result type is forgotten — what a list of mixed
    scenarios (the matrix cells) holds. *)

type 'r outcome = {
  result : 'r;  (** the runner's own result *)
  fields : (string * Json.t) list;
      (** the canonical outcome scalars, in the key order the golden
          documents hold *)
  victim_rate : Series.t;
      (** attack bits/s at the victim over time (empty for [Flood], which
          does not sample it) *)
  sampler : Aitf_obs.Sampler.t option;
      (** the metrics sampler, started iff a registry was attached before
          the run ([Internet] and [Replay] start none) *)
  ledger : Aitf_obs.Ledger.t;
      (** the run's byte ledger (the global world's, shards joined in) *)
  events : int;  (** discrete events executed *)
  parallel : Json.t option;
      (** the run report's ["parallel"] section; sharded [Internet] runs
          only *)
}

val check : _ t -> (unit, string) result
(** [Error] with a one-line reason when the parameters are out of the
    range the runner can place ({!Scenarios.check_swarm},
    {!As_scenario.check}, {!Replay.check}); the chain and flood always
    pass. {!run} raises [Invalid_argument] with the same reason. *)

val duration : _ t -> float
(** Simulated seconds the scenario runs for. *)

val run : 'r t -> 'r outcome
