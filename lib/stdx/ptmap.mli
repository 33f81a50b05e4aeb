(** Persistent integer maps implemented as little-endian Patricia tries
    (Okasaki & Gill, "Fast Mergeable Integer Maps").

    This is the workhorse behind {!Mem.Addr_space}: a snapshot of an address
    space is just a reference to a trie root, so capture is O(1) and two
    snapshots share all unmodified subtrees structurally.  Keys may be any
    native [int], including negative ones. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : int -> 'a -> 'a t

val mem : int -> 'a t -> bool
val find_opt : int -> 'a t -> 'a option

val find : int -> 'a t -> 'a
(** @raise Not_found when the key is unbound. *)

val add : int -> 'a -> 'a t -> 'a t

val update : int -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update k f m] rebinds [k] according to [f (find_opt k m)]: [None]
    removes the binding, [Some v] (re)binds it to [v]. *)

val remove : int -> 'a t -> 'a t
val cardinal : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val for_all : (int -> 'a -> bool) -> 'a t -> bool
val exists : (int -> 'a -> bool) -> 'a t -> bool
val filter : (int -> 'a -> bool) -> 'a t -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val mapi : (int -> 'a -> 'b) -> 'a t -> 'b t

val choose_opt : 'a t -> (int * 'a) option
val min_binding_opt : 'a t -> (int * 'a) option
val max_binding_opt : 'a t -> (int * 'a) option

val union : (int -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] contains all keys of [a] and [b]; keys present in both are
    combined with [f]. *)

val sym_diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> (int * 'a option * 'a option) list
(** [sym_diff eq a b] lists the keys whose bindings differ between [a] and
    [b] (missing bindings reported as [None]).  Shared subtrees are pruned by
    physical equality, which makes diffing two snapshots of the same lineage
    proportional to the number of COW'd pages, not to the address-space
    size. *)

val iter_diff_keys :
  ('a -> 'a -> bool) -> ('e -> int -> unit) -> 'e -> 'a t -> 'a t -> unit
(** [iter_diff_keys eq f env a b] calls [f env k] on every key [k] whose
    binding differs between [a] and [b], pruning physically-equal subtrees
    like {!sym_diff} but allocating nothing: the callback's state travels
    in [env], so the call site needs no closure either.  Where the two
    tries' shapes diverge it reports every key of both regions, so the keys
    reported are a superset of [sym_diff]'s (and a subset of the keys of
    [a] and [b]); a key may be reported twice. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val bindings : 'a t -> (int * 'a) list
(** Bindings in increasing (unsigned) key order within each sign class; use
    only where order does not matter or keys are non-negative. *)

val of_list : (int * 'a) list -> 'a t
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
