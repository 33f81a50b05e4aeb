(* Little-endian Patricia tries (Okasaki & Gill).  The branching bit is the
   lowest bit in which the two subtrees' keys differ; [prefix] holds the bits
   below the branching bit. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t
      (* Branch (prefix, branching_bit, left, right): [left] holds the keys
         whose [branching_bit] is 0, [right] those where it is 1. *)

let empty = Empty

let is_empty = function Empty -> true | Leaf _ | Branch _ -> false

let singleton k v = Leaf (k, v)

(* Lowest set bit of [x]; relies on two's-complement [x land (-x)]. *)
let lowest_bit x = x land (-x)

let branching_bit p0 p1 = lowest_bit (p0 lxor p1)

let mask k m = k land (m - 1)

let zero_bit k m = k land m = 0

let match_prefix k p m = mask k m = p

let rec mem k = function
  | Empty -> false
  | Leaf (j, _) -> j = k
  | Branch (p, m, l, r) ->
    match_prefix k p m && mem k (if zero_bit k m then l else r)

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (p, m, l, r) ->
    if match_prefix k p m then find_opt k (if zero_bit k m then l else r)
    else None

let find k t = match find_opt k t with Some v -> v | None -> raise Not_found

let branch p m l r =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

let rec add k v = function
  | Empty -> Leaf (k, v)
  | Leaf (j, _) as t ->
    if j = k then Leaf (k, v) else join k (Leaf (k, v)) j t
  | Branch (p, m, l, r) as t ->
    if match_prefix k p m then
      if zero_bit k m then Branch (p, m, add k v l, r)
      else Branch (p, m, l, add k v r)
    else join k (Leaf (k, v)) p t

let rec remove k = function
  | Empty -> Empty
  | Leaf (j, _) as t -> if j = k then Empty else t
  | Branch (p, m, l, r) as t ->
    if match_prefix k p m then
      if zero_bit k m then branch p m (remove k l) r
      else branch p m l (remove k r)
    else t

let update k f t =
  match f (find_opt k t) with
  | None -> remove k t
  | Some v -> add k v t

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r) -> cardinal l + cardinal r

let rec iter f = function
  | Empty -> ()
  | Leaf (k, v) -> f k v
  | Branch (_, _, l, r) -> iter f l; iter f r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

let rec for_all p = function
  | Empty -> true
  | Leaf (k, v) -> p k v
  | Branch (_, _, l, r) -> for_all p l && for_all p r

let rec exists p = function
  | Empty -> false
  | Leaf (k, v) -> p k v
  | Branch (_, _, l, r) -> exists p l || exists p r

let rec filter p = function
  | Empty -> Empty
  | Leaf (k, v) as t -> if p k v then t else Empty
  | Branch (pr, m, l, r) -> branch pr m (filter p l) (filter p r)

let rec map f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f v)
  | Branch (p, m, l, r) -> Branch (p, m, map f l, map f r)

let rec mapi f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f k v)
  | Branch (p, m, l, r) -> Branch (p, m, mapi f l, mapi f r)

let rec choose_opt = function
  | Empty -> None
  | Leaf (k, v) -> Some (k, v)
  | Branch (_, _, l, _) -> choose_opt l

let min_binding_opt t =
  fold
    (fun k v acc ->
      match acc with
      | Some (k', _) when k' <= k -> acc
      | Some _ | None -> Some (k, v))
    t None

let max_binding_opt t =
  fold
    (fun k v acc ->
      match acc with
      | Some (k', _) when k' >= k -> acc
      | Some _ | None -> Some (k, v))
    t None

(* Unsigned comparison of branching bits: a mask equal to [min_int] (sign
   bit) is the *highest* little-endian branching bit, not the lowest. *)
let mask_lt m n = (m lxor min_int) < (n lxor min_int)

let rec union f a b =
  match a, b with
  | Empty, t | t, Empty -> t
  | Leaf (k, v), t -> update k (function None -> Some v | Some w -> Some (f k v w)) t
  | t, Leaf (k, v) -> update k (function None -> Some v | Some w -> Some (f k w v)) t
  | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
    if m = n && p = q then Branch (p, m, union f l0 l1, union f r0 r1)
    else if mask_lt m n && match_prefix q p m then
      (* [b] fits inside one side of [a]. *)
      if zero_bit q m then Branch (p, m, union f l0 b, r0)
      else Branch (p, m, l0, union f r0 b)
    else if mask_lt n m && match_prefix p q n then
      if zero_bit p n then Branch (q, n, union f a l1, r1)
      else Branch (q, n, l1, union f a r1)
    else join p a q b

let bindings t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let of_list l = List.fold_left (fun t (k, v) -> add k v t) empty l

let rec equal eqv a b =
  a == b
  ||
  match a, b with
  | Empty, Empty -> true
  | Leaf (k0, v0), Leaf (k1, v1) -> k0 = k1 && eqv v0 v1
  | Branch (p0, m0, l0, r0), Branch (p1, m1, l1, r1) ->
    p0 = p1 && m0 = m1 && equal eqv l0 l1 && equal eqv r0 r1
  | (Empty | Leaf _ | Branch _), _ -> false

(* [k] is bound in [t] to a value [eqv] accepts against [v]; allocates
   nothing, unlike [find_opt]. *)
let rec binds eqv k v = function
  | Empty -> false
  | Leaf (j, w) -> j = k && eqv w v
  | Branch (p, m, l, r) ->
    match_prefix k p m && binds eqv k v (if zero_bit k m then l else r)

(* Diff two tries, pruning physically-equal subtrees.  Keys are placed by
   their bits, so a key of one side can only meet its twin in the region
   of the other side reached along the same path: aligned leaves are
   compared on the spot, and where the shapes diverge each key is looked up
   in the other side's region.  The descent runs left to right and conses,
   so the list comes out right to left. *)
let sym_diff eqv a b =
  let rec go x y acc =
    if x == y then acc
    else
      match x, y with
      | Branch (p0, m0, l0, r0), Branch (p1, m1, l1, r1) when p0 = p1 && m0 = m1 ->
        go r0 r1 (go l0 l1 acc)
      | Leaf (k0, v0), Leaf (k1, v1) when k0 = k1 ->
        if eqv v0 v1 then acc else (k0, Some v0, Some v1) :: acc
      | _, _ ->
        let acc =
          fold (fun k v acc -> if mem k y then acc else (k, Some v, None) :: acc) x acc
        in
        fold
          (fun k v acc ->
            match find_opt k x with
            | None -> (k, None, Some v) :: acc
            | Some w -> if eqv w v then acc else (k, Some w, Some v) :: acc)
          y acc
  in
  go a b []

(* The bindings of [t] that [a] lacks or binds differently, right to left. *)
let rec fold_new eqv f env a t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> if binds eqv k v a then acc else f env k v acc
  | Branch (_, _, l, r) -> fold_new eqv f env a l (fold_new eqv f env a r acc)

(* [sym_diff]'s descent run right to left, folding over the now side
   only: the same entries in the same order as a [List.fold_left] over
   [sym_diff]'s list, with no list, table or closure. *)
let rec fold_diff_now eqv f env a b acc =
  if a == b then acc
  else
    match a, b with
    | Branch (p0, m0, l0, r0), Branch (p1, m1, l1, r1) when p0 = p1 && m0 = m1 ->
      fold_diff_now eqv f env l0 l1 (fold_diff_now eqv f env r0 r1 acc)
    | Leaf (k0, v0), Leaf (k1, v1) when k0 = k1 ->
      if eqv v0 v1 then acc else f env k1 v1 acc
    | _, _ -> fold_new eqv f env a b acc

let rec iter_keys f env = function
  | Empty -> ()
  | Leaf (k, _) -> f env k
  | Branch (_, _, l, r) -> iter_keys f env l; iter_keys f env r

(* The allocation-free sibling of [sym_diff]: the same aligned descent, but
   where the shapes diverge it reports every key of both regions instead of
   pairing them up, so it may over-report — never under-report. *)
let rec iter_diff_keys eqv f env a b =
  if a != b then
    match a, b with
    | Branch (p0, m0, l0, r0), Branch (p1, m1, l1, r1) when p0 = p1 && m0 = m1 ->
      iter_diff_keys eqv f env l0 l1;
      iter_diff_keys eqv f env r0 r1
    | Leaf (k0, v0), Leaf (k1, v1) when k0 = k1 ->
      if not (eqv v0 v1) then f env k0
    | _, _ ->
      iter_keys f env a;
      iter_keys f env b

let pp ppv fmt t =
  Format.fprintf fmt "@[<hov 1>{";
  let first = ref true in
  iter
    (fun k v ->
      if !first then first := false else Format.fprintf fmt ";@ ";
      Format.fprintf fmt "%d -> %a" k ppv v)
    t;
  Format.fprintf fmt "}@]"
