(** System-level backtracking: the scheduler behind [sys_guess],
    [sys_guess_fail] and [sys_guess_strategy].

    The protocol follows §3 and Figure 1 of the paper exactly:

    - [sys_guess_strategy(s)] opens an exploration scope.  It returns 1 to
      the path that explores, and 0 once the whole scope is exhausted (the
      root snapshot is restored, so the program continues after the call —
      the way Figure 1's [main] falls out of the [if] when every answer has
      been printed).
    - [sys_guess(n)] captures a lightweight snapshot (the partial
      candidate), creates [n] extensions — (parent snapshot, index) pairs,
      nothing more — and asks the strategy for the next extension to
      evaluate; evaluation restores the snapshot and returns the extension
      number in [rax].
    - [sys_guess_fail()] discards the executing extension and schedules the
      next one; it never returns into the failing path.
    - [sys_guess_hint(d)] attaches a heuristic distance to the next guess's
      extensions, consumed by A*-family strategies.

    Guest stdout follows Prolog semantics, as in the paper's n-queens
    example: text written to fd 1 is emitted to the global transcript at
    the next scheduling point and survives backtracking, while file-system
    effects, descriptors and the heap are rolled back with the snapshot. *)

type builtin =
  [ `Dfs
  | `Bfs
  | `Astar
  | `Sma of int   (** memory-bounded A* with the given frontier capacity *)
  | `Wastar of float  (** weighted A* (hint weight) *)
  | `Beam of int  (** greedy beam search with the given width *)
  | `Dfs_bounded of int  (** DFS refusing extensions beyond this depth *)
  | `Random of int  (** seed *) ]
(** The strategies whose frontiers hold any element type. *)

type strategy = [ builtin | `Custom of (unit -> Ext.payload Search.Frontier.t) ]
(** A [`Custom] frontier holds one entry per guess ({!Ext.t}) and, like
    the built-in ones, is asked for its evictions right after each push. *)

type terminal_kind = Path.terminal_kind =
  | Exit of int                (** the path terminated via exit(status) *)
  | Fail                       (** sys_guess_fail *)
  | Path_killed of string      (** fault or fuel exhaustion, described *)

type terminal = Path.terminal = {
  kind : terminal_kind;
  output : string;  (** stdout produced by this path since its snapshot *)
  depth : int;
}

type outcome = Path.outcome =
  | Completed of int       (** guest exited outside any scope with status *)
  | Stopped_first_exit of int  (** [`First_exit] mode hit an in-scope exit *)
  | Aborted of string      (** protocol violation or machine kill *)

type result = {
  outcome : outcome;
  transcript : string;     (** global stdout, Prolog-style *)
  terminals : terminal list;  (** in completion order *)
  rounds : int;
      (** scheduling rounds of the scope, the one that closes it included:
          the virtual makespan of a multi-worker run (see {!run_image}) *)
  busy_rounds : int array;
      (** per worker, the rounds in which it ran a quantum — the
          load-balance picture *)
  metrics : Obs.Metrics.t;
      (** the run's counts: the search, snapshot, scheduler and reclaim
          events, and the memory events of the run ([mem.*], a
          reconstruction's excluded) *)
  stats : Stats.t;  (** a view of [metrics], built once at the end *)
}

type mode = [ `Run_to_completion | `First_exit ]

exception Audit_failed of string
(** The frame audit of {!run} failed: the message names the stop (or the
    end of the run) and the offending frame or the counts that differ. *)

val make_frontier : strategy -> Ext.payload Search.Frontier.t
(** Instantiate a strategy's frontier: a built-in one, or the [`Custom]
    factory ({!Parallel}'s work queue calls it once per shard). *)

val strategy_of_id : int -> strategy option
(** Map a [sys_guess_strategy] identifier to a strategy. *)

val default_fuel_per_step : int
(** 50M guest instructions: the default [fuel_per_step] of {!run}. *)

val run :
  ?mode:mode ->
  ?fuel_per_step:int ->
  ?max_extensions:int ->
  ?retry_budget:int ->
  ?strategy_override:strategy ->
  ?tier_stress:int ->
  ?on_stop:(Os.Libos.t -> Os.Libos.stop -> unit) ->
  ?probe:Record.Probe.t ->
  Os.Libos.t ->
  result
(** Drive a booted machine to completion.  [fuel_per_step] bounds guest
    instructions between scheduler events (default 50M); [max_extensions]
    aborts runaway searches; [strategy_override] ignores the id passed to
    [sys_guess_strategy] and forces the given strategy — how the E6 bench
    runs one program under many strategies.  [on_stop] observes every
    scheduler-visible stop before it is dispatched; the fuzz oracle uses it
    to exercise checkpoint round-trips at real scheduling points, so it may
    mutate the machine as long as the visible state is unchanged.

    Robustness: if the machine's physical memory is bounded
    ({!Mem.Phys_mem.capacity} > 0), the run installs a tiered {!Reclaim}
    store as the pressure handler — snapshot payloads are demoted to
    dirty-page deltas in host memory under frame pressure and promoted
    back by applying them when scheduled, so exploration completes
    within budgets smaller than its fault-free peak.  A run that leaves
    its scope returns with every frame the store held given back, so it
    leaves as many frames live as a storeless run; one stopped inside the scope (first exit,
    an abort) keeps them, since the machine's map still derives from
    them.  A storeless run stopped inside its scope gives back everything
    the scope holds — the frontier's entries, the other workers' paths,
    the snapshots and the root — but the frames of the machine's map,
    which stays the stopping path's (the root's if worker 0 was idle).
    [tier_stress] forces the store on even with
    unbounded memory and hammers it: every [n]-th scheduler stop demotes
    every live payload, so the next resume of each promotes — the fuzz
    oracle's tier-stress pipeline.
    [tier_stress:0] attaches the store without hammering it: the
    unbounded footprint of reclaim mode, which a frame budget has to
    undercut.
    An exception escaping guest evaluation (an injected crash, a genuine
    out-of-frames) is retried from the path's origin up to [retry_budget]
    total attempts (default 3) before the path is quarantined as a
    [Path_killed] terminal; the search itself is never aborted by a crash
    inside a scope.

    On a poisoned allocator ([~poison:true], testing only) the run audits
    its frames at every stop (after [on_stop]) and at its end, raising
    {!Audit_failed}: no frame reachable from live state — the current map,
    every unfreed snapshot of the run (scope root included), the
    {!Reclaim} store's materialised payloads and anchor, shared and dedup
    frames — may be freed; those frames must be exactly
    {!Mem.Phys_mem.frames_live}; without a store, the extension refs held
    across unfreed snapshots must be the frontier's length plus the
    running path's one.  The run must be its memory's only user.

    [probe] observes every scheduler decision — evaluation outcomes,
    snapshot captures, restores with the delivered [rax] — which is
    exactly the nondeterministic input stream of a run.  The recorder
    ([Record.Recorder.probe]) turns it into a replay log; pair it with
    {!Record.Recorder.install} on the machine so the ordinary-syscall
    stream is logged too.  Recording composes only with the plain
    in-memory scheduler: a reclaim store promotes demoted payloads under
    fresh snapshot ids the log has never seen, so [probe] together with a
    bounded capacity or [tier_stress] raises [Invalid_argument]. *)

(** {1 Several workers}

    [run_image ~workers], the cooperative scheduler, simulates the paper's
    Figure 2 deterministically: each worker is a full virtual CPU with its
    own address space and OS state, but all workers allocate frames from
    one {!Mem.Phys_mem} — so a snapshot captured by one worker can be
    restored by any other (the page map is just frame references), and the
    generation discipline keeps their COW invariants sound across workers:
    frames inside a captured snapshot always belong to retired
    generations, so a worker restoring a sibling's candidate can never
    observe, or race with, the in-place writes of the worker that created
    it.  Worker 0 runs the program outside the scope; inside it the
    workers take turns in rounds, each busy worker running one quantum per
    round and an idle one taking the next extension from the one
    frontier.  The round count is the virtual makespan, so parallel
    speedup is measurable without host threads.  {!Parallel} runs the
    same loop on real cores, one machine per domain. *)

val run_image :
  ?mode:mode ->
  ?fuel_per_step:int ->
  ?max_extensions:int ->
  ?retry_budget:int ->
  ?capacity:int ->
  ?poison:bool ->
  ?strategy_override:strategy ->
  ?tier_stress:int ->
  ?files:(string * string) list ->
  ?stdin:string ->
  ?workers:int ->
  ?quantum:int ->
  ?faults:Inject.plan ->
  Isa.Asm.image ->
  result
(** Boot [workers] machines (default 1) on fresh physical memory and run
    them as above; one worker without [quantum] is {!run}.  [capacity]
    bounds the physical frame budget (enables reclaim; see {!run}).
    [poison] fills freed buffers with a marker byte to shake out
    use-after-free bugs in the release discipline, and turns on the frame
    audit (testing only), over every running worker's map and path.
    [files] and [stdin] go to worker 0; a helper frees its boot image at
    once (its paths all start from snapshots), so a run holds one.

    [quantum] preempts a path after that many instructions per turn; it
    dies once its segment has run [fuel_per_step] ({!Path.classify}).
    Without it a turn runs to the next stop.  [faults] arms a fault plan
    (allocation failures, worker crashes, fuel jitter) inside the scope
    only — reaching and draining it stay unarmed, so a recoverable plan
    cannot abort the run; crashed paths are retried or quarantined as in
    {!run}.  Paths restore alike with or without a plan, so a plan whose
    faults never fire leaves every count as a fault-free run's.

    A {!Reclaim} store ([capacity], [tier_stress]) follows one machine,
    as the replay log of {!run}'s [probe] does: with more than one worker
    it raises [Invalid_argument]. *)
