(** Metrics registry: one [int] per slot of a program-wide slot table.

    Every slot is declared once, in {!Names}, when the program starts: a
    name ([layer.event]) and a kind.  A counter adds on {!merge}; a peak
    takes the max; a span counts the completed spans of its event and adds
    like a counter.  {!Trace} records events under the same slots.  A registry is a plain array over the table, so
    counting is one array store, and {!merge}, {!copy} and {!sub} are
    loops over it.  {!merge} is commutative and associative, so per-domain
    registries combine in any order. *)

type kind = Counter | Peak | Span
type slot = private int
type t

val declare : kind -> string -> slot
(** A new slot.  Raises [Invalid_argument] on a name declared twice, or
    once a registry exists: every registry spans the whole table. *)

val create : unit -> t
(** A registry with every slot at 0. *)

val incr : t -> slot -> unit
val add : t -> slot -> int -> unit

val peak : t -> slot -> int -> unit
(** Raise the slot to the value if it is higher. *)

val get : t -> slot -> int

val merge : into:t -> t -> unit
(** Fold a registry into [into]: counters add, peaks take the max. *)

val copy : t -> t

val sub : t -> t -> t
(** [sub after before]: counters subtract; a peak keeps [after]'s value.
    [merge ~into:r (sub before after)] takes [after - before]'s counts
    back out of [r]. *)

val find : string -> slot option
(** The slot declared under a name. *)

val name : slot -> string

val to_list : t -> (string * int) list
(** Every slot, zeros included, sorted by name. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
