(** The multi-path symbolic executor — this repository's S2E analogue.

    Guests are ordinary VX64 images; bytes obtained from [read(0, …)] are
    symbolic (up to a configured budget).  Execution proceeds concretely
    until a comparison over symbolic data reaches a conditional branch; the
    engine then {e forks the entire machine state}, constraining one side
    with the branch condition and the other with its negation — the paper's
    §3.2 mapping of partial candidates to VM states "executed up to the
    point where a symbolic branch condition is encountered".

    Two forking backends isolate the mechanism E5 measures:
    - [Cow]: concrete memory lives in a shared {!Mem.Addr_space}; a fork is
      an O(1) lightweight snapshot, and divergence costs one COW fault per
      page actually written (the paper's proposal);
    - [Eager_copy]: every fork duplicates all mapped pages of the parent's
      address space, the way S2E's software state copying behaves inside
      QEMU (the baseline).

    Both backends explore identical path sets; only the forking cost
    differs. *)

type fork_mode = Cow | Eager_copy

type strategy = [ `Dfs | `Bfs | `Random of int | `Coverage ]

type config = {
  fork_mode : fork_mode;
  strategy : strategy;
  max_paths : int;            (** stop after reporting this many paths *)
  max_steps_per_path : int;
  solver_budget : int;
  symbolic_stdin : int;       (** symbolic bytes served by read(0, …) *)
  check_feasibility_at_fork : bool;
}

val default_config : config

type path_end =
  | Exited of int             (** concretised exit status *)
  | Faulted of string
  | Unsupported of string     (** operation outside the symbolic fragment *)
  | Step_limit

type path_report = {
  end_ : path_end;
  input : (int * int) list;   (** solved model: symbolic byte -> value *)
  constraints : Cons.t list;
  steps : int;
  depth : int;                (** forks on the path *)
  output : string;            (** concrete stdout of the path *)
}

type result = {
  paths : path_report list;
  explored : int;
  infeasible : int;           (** forks pruned or paths found UNSAT *)
  forks : int;
  solver_calls : int;
  solver_cache_hits : int;    (** solves answered by the constraint cache *)
  concretizations : int;      (** symbolic values pinned to model values
                                  (addresses, stack pointers) *)
  eager_pages_copied : int;   (** pages duplicated by [Eager_copy] forks *)
  instructions : int;
  mem : Obs.Metrics.t;        (** the run's memory's registry: its events *)
}

val run : ?config:config -> Isa.Asm.image -> result
