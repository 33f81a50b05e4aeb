(** The libOS: owns the vmexit loop and interposes on every guest syscall.

    This is the ring-0 (non-root) component of Figure 2.  It boots a guest
    image into an address space, serves demand paging for the heap and
    stack, implements the file and memory syscalls against persistent
    (snapshot-friendly) OS state, contains guest stdout/stderr per execution
    context, and hands the four backtracking syscalls up to the scheduler
    (the [Core.Explorer]) as {!stop} values.

    Isolation invariant: everything a guest extension can observe or mutate
    — its address space, its registers, the VFS, descriptor offsets, its
    accumulated output, the break — is either copy-on-write or a persistent
    value, so restoring a snapshot restores all of it. *)

type layout = {
  heap_base : int;
  stack_top : int;
  max_stack_pages : int;
}

type reason =
  | Fault of Vcpu.Interp.fault
  | Fuel_exhausted
  | Denied_syscall of { rip : int; number : int }
      (** raised only for [abort_on_denied] machines; by default denied
          syscalls return -ENOTSUP/-ENOSYS to the guest *)

type stop =
  | Guess of { n : int }
  | Guess_fail
  | Guess_strategy of { strategy : int }
  | Guess_hint of { dist : int }
  | Exited of { status : int }
  | Killed of reason

type counters = {
  syscall_count : int array;       (** indexed by syscall number, 0-31 *)
  mutable demand_pages : int;      (** page faults served by demand-zero *)
  mutable denied : int;            (** syscalls refused per the soundness rule *)
}

type os_state
(** Persistent OS-visible state: VFS, descriptor table, break, contained
    output streams and stdin cursor.  O(1) to capture. *)

type t = {
  aspace : Mem.Addr_space.t;
  cpu : Vcpu.Cpu.t;
  layout : layout;
  counters : counters;
  icache : Vcpu.Interp.icache option;
      (** the block cache; [None] runs every fetch through the uncached
          {!Vcpu.Interp.step} (the E9 ablation and the fuzz oracle's
          icache-off pipeline — retired counts and semantics must not
          change) *)
  mutable os : os_state;
  mutable sys_hook : (int -> int -> unit) option;
      (** observer of ordinary (non-scheduler) syscalls, called with
          [(number, result)] after each one completes; [None] (the default)
          costs a single load-and-branch per syscall.  The recorder
          ([Record.Recorder]) installs one to log the syscall stream. *)
}

val default_layout : layout

val boot :
  ?layout:layout -> ?icache:bool -> ?dedup:bool -> ?account:int ->
  Mem.Phys_mem.t -> Isa.Asm.image -> t
(** Map the image's code/data pages, point [rsp] at the stack top and the
    break at [heap_base].  [icache] (default true) runs the guest through
    the block cache ({!Vcpu.Interp.icache}); [~icache:false] runs the
    uncached {!Vcpu.Interp.step} reference instead — bit-identical
    semantics, different speed (the E9 ablation and the fuzz oracle's
    icache-off pipeline).  [dedup] (default false) maps image pages through
    the physical memory's content-addressed table so same-image guests on
    one [Phys_mem] share read-only frames (COW on first store; references
    dropped by {!Mem.Addr_space.drop_dedup_refs} at teardown).  [account]
    charges every frame the guest allocates to a
    {!Mem.Phys_mem.fresh_account} session for per-tenant budgeting.
    @raise Invalid_argument if the image overlaps the heap. *)

val set_sys_hook : t -> (int -> int -> unit) option -> unit
(** Install (or clear) the ordinary-syscall observer on a machine. *)

val run : t -> fuel:int -> stop
(** Execute the guest until a scheduler-visible stop, serving ordinary
    syscalls and demand paging internally.  [fuel] bounds retired guest
    instructions (approximately: faulted fetches count).  Each ordinary
    syscall is a span of its [sys.*] slot, counted into the registry of
    the machine's memory. *)

val timeout : t -> int
(** The guest's [sys_timeout] bound on the instructions of one {!run}
    (0 = none).  A scheduler that runs a path in several quanta applies it
    to the whole segment. *)

val icache_counts : t -> (int * int) option
(** Block-cache [(misses, slow_decodes)]; [None] when booted with
    [~icache:false].  See {!Vcpu.Interp.icache_counts}. *)

val block_counts : t -> (int * int * int) option
(** Block-cache [(fuses, hits, splits)]; [None] when booted with
    [~icache:false].  See {!Vcpu.Interp.block_counts}. *)

(** {1 OS state} *)

val initial_os : os_state
(** The OS state of a machine before boot: no files, no output, no break. *)

val os_capture : t -> os_state
val os_restore : t -> os_state -> unit

val add_file : t -> path:string -> string -> unit
val read_file : t -> path:string -> string option
val set_stdin : t -> string -> unit
val stdout_text : t -> string

(** Raw stdout chunks, most recent first.  The chunk list is a persistent
    value, which lets a scheduler harvest "output since a known point" by
    walking until physical equality — how the explorer gives guest stdout
    its Prolog-style survive-backtracking semantics. *)
val stdout_chunks : t -> string list
val stderr_text : t -> string
val brk_value : t -> int

val pp_stop : Format.formatter -> stop -> unit
val pp_reason : Format.formatter -> reason -> unit
