(** The VX64 interpreter: fetch, decode and execute from guest memory until
    a vmexit.

    This stands in for VT-x non-root execution: the guest runs unobserved
    until it traps — a syscall, a halt, a fault, or fuel exhaustion — and
    control returns to the libOS with the full CPU state available for
    inspection, exactly the boundary Figure 2 of the paper draws between
    ring 3 and the ring-0 libOS. *)

type fault =
  | Page_fault of { rip : int; addr : int; access : Mem.Addr_space.access }
  | Div_by_zero of { rip : int }
  | Invalid_opcode of { rip : int; opcode : int }
  | Bad_shift of { rip : int; count : int }

type vmexit =
  | Syscall      (** [rip] already advanced past the [syscall] instruction *)
  | Halt         (** [hlt]; by convention [rdi] holds the exit status *)
  | Fault of fault
  | Out_of_fuel  (** instruction budget exhausted; resumable *)

type icache
(** Block cache, one per address space: straight-line runs compiled on first
    execution into per-frame basic-block tables, each block one chain of
    continuation closures that runs the whole block in a single call,
    bit-identical to {!step} in semantics, fuel accounting and vmexit
    placement.  Sound with no invalidation because blocks are only fused
    from frames of a retired generation, which never change in place;
    a store COWing the block's own code page mid-block is caught by
    re-verifying the fetch mapping after every fused store but the
    block's last.  A block longer than the fuel left is not entered:
    {!step} retires the rest of the budget.  Same-page successor links
    are only followed inside one {!run}, after a block that ran whole and
    whose last op does not store.  Each compiled instruction closes over
    the address space the cache was created for, and takes the CPU
    alone. *)

val create_icache : Mem.Addr_space.t -> icache
(** An empty cache serving this address space only. *)

val icache_counts : icache -> int * int
(** [(misses, slow_decodes)]: instructions decoded into fused blocks, and
    instructions that bypassed the cache through {!step} (page-edge or
    current-generation frame). *)

val block_counts : icache -> int * int * int
(** [(fuses, hits, splits)]: blocks assembled, whole-block dispatches
    served from the cache (through the block table or a successor link),
    and dispatches that exited a block before its last instruction
    (fault, fuel boundary, or self-modified code). *)

val run : ?icache:icache -> Cpu.t -> Mem.Addr_space.t -> fuel:int -> vmexit
(** Execute at most [fuel] instructions: block dispatch through [icache],
    or one uncached {!step} at a time without it (the reference).  The
    CPU state is mutated in place; on [Fault] the instruction pointer
    still addresses the faulting instruction.
    @raise Invalid_argument if [icache] was created for another address
    space. *)

val step : Cpu.t -> Mem.Addr_space.t -> vmexit option
(** Decode and execute one instruction, uncached; [None] means it retired
    without a vmexit. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_vmexit : Format.formatter -> vmexit -> unit
