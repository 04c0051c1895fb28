(** Cooperation policies.

    AITF "does not rely on the cooperation" of the attacker's side: the
    mechanism must behave correctly whatever these knobs are set to.
    Experiments sweep them to measure the cost of non-cooperation
    (Section IV-A.1's n parameter). *)

type gateway_policy =
  | Cooperative  (** normal behaviour *)
  | Unresponsive
      (** ignores requests addressed to it in the attacker's-gateway role;
          never filters, never propagates — the "non-cooperating AITF node"
          of the analysis *)

type attacker_response =
  | Complies  (** installs its own outbound filter for the requested T *)
  | Ignores  (** keeps sending; counts on its gateway being complicit *)
  | On_off of { off_time : float }
      (** the on-off game of Section II-B: stops just long enough for the
          victim's gateway to drop its temporary filter, then resumes *)

val pp_attacker : Format.formatter -> attacker_response -> unit
