(** The lightweight immutable execution snapshot — the paper's central
    abstraction (§3.1).

    A snapshot is the combination of an immutable register file, an
    immutable (COW) address space, and immutable OS state including the
    logical copy of open files.  Capture is O(1): the register file is one
    small array copy, the other two are persistent-value grabs.  Each
    snapshot records its parent, forming the partial-candidate tree whose
    structural sharing is what makes the encoding space-efficient. *)

type t = private {
  id : int;
  regs : Vcpu.Cpu.saved;
  mem : Mem.Addr_space.snapshot;
  os : Os.Libos.os_state;
  parent : t option;
  depth : int;  (** guesses from the exploration root *)
  lineage_length : int;
      (** snapshots on the parent chain, this one included: counted at
          capture, so nothing walks the chain to learn it *)
  mutable ext_refs : int;
      (** frontier extensions (plus pins) that may still restore this *)
  mutable child_refs : int;
      (** live children whose maps share this snapshot's frames *)
  mutable freed : bool;    (** private frames returned to the allocator *)
  owns_image : bool;       (** parentless, freed whole (see {!capture}) *)
}

type ids
(** A per-run snapshot-id allocator.  Every exploration run creates its
    own ([Explorer.run], each domain of [Parallel.run], [Service.boot]),
    so concurrent runs never share a counter; allocation is atomic all the
    same. *)

val ids : unit -> ids

val capture :
  ids:ids -> ?parent:t -> ?owns_image:bool -> depth:int -> Os.Libos.t -> t
(** Capturing with a parent also counts this snapshot in the parent's
    [child_refs] — part of the release discipline below.  [owns_image]
    (default [false]; only without a parent) marks a root whose every
    sharer is a descendant captured with it as parent: when both counts
    drain, its whole map is freed rather than kept.  Raises
    [Invalid_argument] when combined with a parent. *)

val none : t
(** A placeholder for "no snapshot" that needs no option box: never
    captured, restored or released (it is born {!field-freed}), with id
    -1 and lineage length 0. *)

val restore : Os.Libos.t -> t -> unit

(** {1 Explicit release}

    Schedulers that want allocation-free backtracking maintain two
    reference counts per snapshot: [ext_refs],
    raised by {!retain} once per frontier extension pushed and lowered by
    {!release_ext} when that extension restores away (or is evicted
    unexplored); and [child_refs], maintained by {!capture}.  When both
    reach zero the snapshot is dead: its delta-vs-parent frames go back to
    {!Mem.Phys_mem}'s free list, and death cascades to the parent if this
    child was the last thing keeping it alive.  Roots are freed whole only
    when captured [owns_image]. *)

val retain : ?n:int -> t -> unit
val release_ext : phys:Mem.Phys_mem.t -> t -> unit

val import : ids:ids -> root:t -> base:t -> Os.Libos.t -> t -> t
(** [import ~ids ~root ~base machine t]: a copy of [t], a snapshot another
    machine took on its own memory below [base], captured on [machine]
    below [root], [machine]'s replica of [base]'s contents: restore [root],
    map private copies of the pages [t] changed since [base]
    ({!Mem.Addr_space.import_delta}), load [t]'s registers and OS state,
    capture.  [t]'s frames must stay immutable for the duration: its owner
    holds a ref on it until the caller is done. *)

val abandon : phys:Mem.Phys_mem.t -> keep:Mem.Addr_space.snapshot -> t -> unit
(** Free the snapshot and its unfreed ancestors whatever their counts,
    sparing every frame [keep] maps: how a run that stops inside its scope
    gives back all it holds while its machine keeps the map [keep] grabbed.
    Idempotent via the [freed] flag. *)

val pages : t -> int
(** Logical pages mapped in the snapshot's address space. *)

val distinct_frames : t list -> int
(** Physical frames backing the union of the snapshots: the space-accounting
    measure (shared pages count once). *)

val delta_pages : t -> t -> int
(** Pages whose backing differs between two snapshots of the same lineage. *)

val lineage : t -> t list
(** The snapshot and its ancestors, root last. *)
