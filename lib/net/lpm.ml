(* One open-addressing table (linear probing, power-of-two length) over
   parallel arrays. A key packs a prefix's unsigned base, masked to its
   length, with the length above bit 32; [empty] marks a free slot, whose
   value is [None]. A bound slot's value is the [Some v] built at insert, so
   a hit returns it as is. [count.(l)] is the number of prefixes bound at
   length [l] and [lens] the lengths present, longest first: a lookup probes
   each in turn and stops at the first hit. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable size : int;
  count : int array;
  mutable lens : int array;
}

let empty = -1

let create () =
  {
    keys = Array.make 8 empty;
    vals = Array.make 8 None;
    size = 0;
    count = Array.make 33 0;
    lens = [||];
  }

(* [a] unsigned; [-1 lsl 32] keeps none of its 32 bits, [-1 lsl 0] all. *)
let key a len = a land (-1 lsl (32 - len)) lor (len lsl 32)
let prefix_key (p : Addr.prefix) = key (Addr.to_unsigned p.base) p.len

(* The slot holding [k], or the free slot ending its probe run. The table is
   never more than half full, so a free slot always exists. *)
let rec probe keys k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = empty then i
  else probe keys k ((i + 1) land (Array.length keys - 1))

let home keys k = Addr.mix k land (Array.length keys - 1)
let find t k = probe t.keys k (home t.keys k)

let lengths count =
  let rec go l acc =
    if l > 32 then Array.of_list acc
    else go (l + 1) (if count.(l) > 0 then l :: acc else acc)
  in
  go 0 []

let recount t len delta =
  t.count.(len) <- t.count.(len) + delta;
  t.size <- t.size + delta;
  if t.count.(len) = 0 || (delta > 0 && t.count.(len) = 1) then
    t.lens <- lengths t.count

let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n empty;
  t.vals <- Array.make n None;
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = find t k in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let insert t (p : Addr.prefix) v =
  let k = prefix_key p in
  let i = find t k in
  t.vals.(i) <- Some v;
  if t.keys.(i) = empty then begin
    t.keys.(i) <- k;
    recount t p.len 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

(* Backward-shift deletion: entries after the hole move up into it when
   their home slot does not lie between the hole and them, so every probe
   run stays unbroken and no tombstone is left behind. *)
let remove t (p : Addr.prefix) =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let k = keys.(j) in
    if k = empty then begin
      keys.(hole) <- empty;
      vals.(hole) <- None
    end
    else if (j - home keys k) land mask >= (j - hole) land mask then begin
      keys.(hole) <- k;
      vals.(hole) <- vals.(j);
      shift j j
    end
    else shift hole j
  in
  let i = find t (prefix_key p) in
  if keys.(i) <> empty then begin
    shift i i;
    recount t p.len (-1)
  end

let exact t p = t.vals.(find t (prefix_key p))

let prefix_of_key k =
  Addr.prefix (Int32.of_int (k land 0xFFFF_FFFF)) (k lsr 32)

(* The slot of the longest bound prefix covering [a], trying [lens] from
   index [j]; -1 if none. Top-level with [a] as an argument, so a lookup
   builds no closure: it allocates nothing and writes nothing, and shard
   workers may read one table at once. *)
let rec longest t a j =
  if j = Array.length t.lens then -1
  else
    let k = key a (Array.unsafe_get t.lens j) in
    let i = find t k in
    if Array.unsafe_get t.keys i = k then i else longest t a (j + 1)

let lookup t addr =
  let i = longest t (Addr.to_unsigned addr) 0 in
  if i < 0 then None else Array.unsafe_get t.vals i

let lookup_prefix t addr =
  let i = longest t (Addr.to_unsigned addr) 0 in
  if i < 0 then None
  else Option.map (fun v -> (prefix_of_key t.keys.(i), v)) t.vals.(i)

let iter t f =
  Array.iteri
    (fun i k ->
      match t.vals.(i) with Some v -> f (prefix_of_key k) v | None -> ())
    t.keys

let size t = t.size

let invariant t =
  let entry_ok i k =
    if k = empty then Option.is_none t.vals.(i)
    else
      k lsr 32 <= 32
      && k = prefix_key (prefix_of_key k)
      && Option.is_some t.vals.(i)
      && find t k = i
  in
  let ok = ref true and seen = Array.make 33 0 in
  Array.iteri
    (fun i k ->
      if not (entry_ok i k) then ok := false
      else if k <> empty then seen.(k lsr 32) <- seen.(k lsr 32) + 1)
    t.keys;
  !ok && seen = t.count
  && Array.fold_left ( + ) 0 seen = t.size
  && t.lens = lengths seen

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  Array.fill t.vals 0 (Array.length t.vals) None;
  Array.fill t.count 0 33 0;
  t.size <- 0;
  t.lens <- [||]
