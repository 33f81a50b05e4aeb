(** Multi-worker exploration — Figure 2's architecture, in two flavours.

    The paper's libOS runs one evaluation thread per hardware thread, all
    scheduling extensions from a shared search graph.  This module offers
    two backends behind one configuration:

    {b [`Cooperative]} (the default) simulates that architecture
    deterministically: each worker is a full virtual CPU with its own
    address space and OS state, but all workers allocate frames from one
    {!Mem.Phys_mem} — so a snapshot captured by one worker can be restored
    by any other (the page map is just frame references), and the
    generation discipline keeps their COW invariants sound across workers:
    frames inside a captured snapshot always belong to retired generations,
    so a worker restoring a sibling's candidate can never observe, or race
    with, the in-place writes of the worker that created it.  Execution is
    round-robin: every busy worker runs a fixed quantum of guest
    instructions per round, deterministically.  The round count is the
    virtual makespan, so parallel speedup is measurable without host
    threads.

    {b [`Domains]} is the true-multicore version: one OCaml 5 domain per
    worker, each owning a {e domain-private} {!Mem.Phys_mem} and machine,
    and running the full frame-recycling lifecycle (free-list reuse,
    zero-fill elision, adopting restores) against it.  Work items travel
    through a sharded, work-stealing {!Work_queue} carrying the producer's
    snapshot {e by reference}.  A domain popping its own item restores the
    snapshot directly — adopting its frames when the item is the last
    reference; a thief restores its local root replica and grafts a
    private copy of the producer's delta pages on top
    ({!Mem.Addr_space.import_delta}), safe because the item's extension
    ref pins those frames in retired generations until the thief retires
    the path and posts the ref back through the producer's mailbox
    (refcounts stay single-writer).  This is §3's "parallel
    depth-first-search strategy [that] simply forks without waiting", on
    real cores.  Two semantic deltas vs [`Cooperative]: [sys_share] pages
    are replicated per domain (writes after the scope opens stay
    domain-local), and [`Custom] strategies are rejected (their frontiers
    are typed to in-heap extensions).  Path completion order — and hence
    [terminals] order and, under [`First_exit], {e which} exit wins —
    depends on OS scheduling. *)

type backend = [ `Cooperative | `Domains ]

type config = {
  workers : int;
  quantum : int;
      (** guest instructions per scheduling slice: a worker's round quantum
          ([`Cooperative]) or its stop-flag polling interval ([`Domains]) *)
  strategy : Explorer.strategy;
  mode : [ `Run_to_completion | `First_exit ];
  max_extensions : int;
  backend : backend;
  retry_budget : int;
      (** total evaluation attempts per path before a crashing path is
          quarantined as [Path_killed] instead of aborting the run *)
  faults : Inject.plan option;
      (** deterministic fault injection: allocation failures, worker
          crashes and fuel jitter, threaded through both backends.  Faults
          fire only during worker-path evaluation — the coordinator phases
          (reaching the scope, draining after it) are unsupervised, so a
          recoverable plan can never abort the run.  Frame recycling stays
          on under faults (released snapshots and crashed segments return
          their frames), except that restores do not adopt: adopting
          consumes the origin a crashed path is retried from
          ({!Path.create}). *)
}

val default_config : config
(** 4 workers, 20k-instruction quantum, DFS, run to completion,
    [`Cooperative], retry budget 3, no faults. *)

type result = {
  outcome : Explorer.outcome;
  transcript : string;       (** all workers' stdout, in completion order *)
  terminals : Explorer.terminal list;
  rounds : int;              (** virtual makespan; 0 under [`Domains] *)
  busy_rounds : int array;
      (** per-worker rounds spent executing ([`Cooperative]) or extensions
          evaluated ([`Domains]) — either way, the load-balance picture.
          Total guest instructions live in [stats.instructions]. *)
  stats : Stats.t;
  domain_metrics : Obs.Metrics.t array;
      (** per-domain metrics registries under [`Domains]: index 0 is the
          coordinator domain, then the spawned workers in order.  Each
          holds the [explorer.*]/[mem.*] names {!Stats.publish} emits
          plus the gauge [mem.free_buffers], the domain's
          {!Mem.Phys_mem.free_buffers} at the end of the run (domain 0
          additionally carries [queue.steal_batches] and
          [queue.stolen_items]); merging them with {!Obs.Metrics.merge}
          agrees with [stats].  Per domain, [mem.frames_freed] =
          [mem.frames_recycled] + [mem.free_buffers] while the pool stays
          under its 4,096-buffer cap.  Empty for [`Cooperative] runs and for runs
          aborted before workers spawned. *)
}

val run : ?config:config -> Isa.Asm.image -> result
(** Boot [workers] machines and explore.  The guest protocol is identical
    to {!Explorer}: worker 0 runs until [sys_guess_strategy]; the scope's
    extensions are then evaluated by all workers; when the frontier drains
    and every worker is idle, worker 0 resumes from the root with 0 in
    [rax].  Under [`Domains] the terminal set and final outcome match
    [`Cooperative] for confluent guests; ordering may differ (see above). *)
