type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array; (* slots >= size are garbage *)
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    (* [x] is only used to seed the fresh slots; it is a live value so no
       unsafe tricks are needed. *)
    let data = Array.make new_cap x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

(* Halve the backing array once three quarters of it sit unused. Besides
   keeping memory proportional to the live heap, reallocation discards every
   stale alias beyond [size] — [grow]'s seed copies and [pop]'s vacated-slot
   aliases — so a shrinking heap cannot pin long-popped elements. *)
let shrink h =
  let cap = Array.length h.data in
  if h.size > 0 && h.size <= cap / 4 then begin
    let data = Array.make (max 16 (cap / 2)) h.data.(0) in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let take h =
  (* [h] is not empty. *)
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    (* Overwrite the vacated slot with an alias of a live element, so the
       array does not retain the value that just moved out of it (nor,
       transitively, the popped one) past its heap lifetime. *)
    h.data.(h.size) <- h.data.(0);
    sift_down h 0;
    shrink h
  end
  else
    (* Popped the last element: the array holds nothing but stale
       references (including [grow]'s seed copies) — drop it wholesale. *)
    h.data <- [||];
  top

let peek h = if h.size = 0 then None else Some h.data.(0)
let pop h = if h.size = 0 then None else Some (take h)

let clear h =
  h.data <- [||];
  h.size <- 0

let to_list h = Array.to_list (Array.sub h.data 0 h.size)
