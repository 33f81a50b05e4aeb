(** Checkpoint/restore baselines the paper argues against (§3, §6).

    Three comparators for the lightweight snapshot:
    - {!full_capture}: libckpt-style full checkpoint — eagerly copies every
      mapped page out of the address space;
    - {!incr_capture}: libckpt's incremental mode — copies only pages
      dirtied since the previous checkpoint (dirty tracking stands in for
      the mprotect write-fault scheme libckpt uses);
    - {!clone}: fork-style eager address-space duplication.

    All report bytes copied so E2 can plot cost against address-space
    size. *)

type full
(** A self-contained eager copy of an address space. *)

val full_capture : Mem.Addr_space.t -> full
val full_restore : Mem.Addr_space.t -> full -> unit
(** Restores exactly the captured pages (pages mapped since are unmapped). *)

val full_bytes : full -> int

type incr_chain
(** A base checkpoint plus a chain of dirty-page deltas.  The chain finds
    dirty pages by diffing the latest capture's {!Mem.Addr_space.snapshot}
    against the next one.  That mark is a borrowed view of the caller's map:
    [Ckpt] frees nothing, and the frames stay the map owner's to release
    (in the fuzz oracle's [ckpt-roundtrip] pipeline, the explorer's). *)

val incr_start : Mem.Addr_space.t -> incr_chain
val incr_capture : incr_chain -> Mem.Addr_space.t -> unit
(** Append a delta holding the pages dirtied since the last capture. *)

val incr_restore : Mem.Addr_space.t -> incr_chain -> index:int -> unit
(** Restore checkpoint [index] (0 = base, n = after n-th delta).
    @raise Invalid_argument on a bad index. *)

val incr_count : incr_chain -> int
val incr_bytes : incr_chain -> int
(** Total bytes stored across base and deltas. *)

val clone : Mem.Phys_mem.t -> Mem.Addr_space.t -> Mem.Addr_space.t
(** Fork-style eager duplicate (its cost is what §3 calls the "large
    performance overheads" of the naive approach). *)
