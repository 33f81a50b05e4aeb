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
(** Decoded-instruction cache, one per machine: per-frame decode arrays
    keyed by frame id, plus (under {!Block} dispatch) per-frame
    basic-block superinstruction tables.  Sound with no invalidation
    because entries are only created for frames that are owned by a
    retired generation — such frames can never change in place (writes
    COW them into fresh frames with fresh ids).  The one hazard the
    per-block grain adds — a store COWing the block's own code page
    mid-block — is caught by re-verifying the fetch mapping after every
    fused store and splitting the block there.  Blocks link to their
    same-page successors; a link is only followed inside one {!run}, after
    a block that ran whole and whose last op does not store. *)

type dispatch =
  | Insn   (** per-instruction decode-cache dispatch (the PR-9 behaviour) *)
  | Block
      (** basic-block superinstruction dispatch: straight-line runs are
          compiled on first execution and dispatched whole, resolving the
          fetch frame once per block instead of once per instruction, and
          not at all when a same-page successor link is followed.
          Bit-identical to [Insn] in semantics, fuel accounting and
          vmexit placement. *)

val create_icache : ?dispatch:dispatch -> unit -> icache
(** [dispatch] defaults to {!Block}. *)

val icache_counts : icache -> int * int
(** [(misses, slow_decodes)]: cache fills of cacheable instructions, and
    decodes that bypassed the cache (page-edge or current-generation
    frame).  Cache hits are not counted on the hot path; derive them as
    [retired - misses - slow_decodes]. *)

val block_counts : icache -> int * int * int
(** [(fuses, hits, splits)]: blocks assembled, whole-block dispatches
    served from the cache (through the block table or a successor link),
    and dispatches that exited a block before its
    last instruction (fault, fuel boundary, or self-modified code).  All
    zero under {!Insn} dispatch. *)

val run : ?icache:icache -> Cpu.t -> Mem.Addr_space.t -> fuel:int -> vmexit
(** Execute at most [fuel] instructions.  The CPU state is mutated in place;
    on [Fault] the instruction pointer still addresses the faulting
    instruction. *)

val step : Cpu.t -> Mem.Addr_space.t -> vmexit option
(** Execute one instruction; [None] means it retired without a vmexit. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_vmexit : Format.formatter -> vmexit -> unit
