type t = int32

let compare = Int32.compare
let equal = Int32.equal

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Addr.of_octets: octet out of range"
  in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    try of_octets (int_of_string a) (int_of_string b) (int_of_string c)
          (int_of_string d)
    with Failure _ -> invalid_arg ("Addr.of_string: " ^ s))
  | _ -> invalid_arg ("Addr.of_string: " ^ s)

let octet a i = Int32.to_int (Int32.logand (Int32.shift_right_logical a i) 0xFFl)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" (octet a 24) (octet a 16) (octet a 8) (octet a 0)

let pp fmt a = Format.pp_print_string fmt (to_string a)

let succ a = Int32.add a 1l
let add a n = Int32.add a (Int32.of_int n)
let to_unsigned a = Int32.to_int a land 0xFFFF_FFFF

(* The multipliers are cut to OCaml's 63-bit ints; both stay odd. *)
let mix k =
  let k = k lxor (k lsr 33) in
  let k = k * 0x3F51_AFD7_ED55_8CCD in
  let k = k lxor (k lsr 33) in
  let k = k * 0x04CE_B9FE_1A85_EC53 in
  k lxor (k lsr 33)

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Addr.bit: index out of range";
  Int32.logand (Int32.shift_right_logical a (31 - i)) 1l = 1l

type prefix = { base : t; len : int }

let mask_of_len len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let prefix base len =
  if len < 0 || len > 32 then invalid_arg "Addr.prefix: bad length";
  { base = Int32.logand base (mask_of_len len); len }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg ("Addr.prefix_of_string: " ^ s)
  | Some i ->
    let base = of_string (String.sub s 0 i) in
    let len =
      try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
      with Failure _ -> invalid_arg ("Addr.prefix_of_string: " ^ s)
    in
    prefix base len

let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.base) p.len


(* [a land mask = base], computed on sign-extended native ints (63 bits:
   OCaml 5 targets only 64-bit machines) so that no [int32] mask is boxed
   per call. For [1 <= len <= 32] the native mask
   [-1 lsl (32 - len)] is exactly the sign extension of the [int32] mask,
   and sign extension commutes with [land] and is injective, so the result
   equals the [int32] test bit for bit, whatever [base] holds. *)
let prefix_mem p a =
  if p.len = 0 then Int32.equal p.base 0l
  else Int32.to_int a land (-1 lsl (32 - p.len)) = Int32.to_int p.base

let prefix_compare p q =
  let c = Int32.compare p.base q.base in
  if c <> 0 then c else Int.compare p.len q.len

let host_prefix a = { base = a; len = 32 }
