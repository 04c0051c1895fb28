type gateway_policy = Cooperative | Unresponsive

type attacker_response = Complies | Ignores | On_off of { off_time : float }

let pp_attacker fmt = function
  | Complies -> Format.pp_print_string fmt "complies"
  | Ignores -> Format.pp_print_string fmt "ignores"
  | On_off { off_time } -> Format.fprintf fmt "on-off(%gs)" off_time
