(** Multi-worker exploration on real cores — Figure 2's architecture, one
    OCaml 5 domain per worker.  (Its deterministic single-domain
    simulation is {!Explorer.run_image} with [~workers].)

    Every domain runs {!Explorer}'s own scheduler loop over one machine
    on a {e domain-private} {!Mem.Phys_mem}, with the full frame-recycling
    lifecycle (free-list reuse, zero-fill elision, explicit release).
    Domain 0 runs the program to its scope and opens it; every other
    domain rebuilds the scope root on its own memory and joins the scope.
    Each domain's frontier is its shard of a {!Work_queue}: the entries
    of its own guesses, which it pops like any frontier's.  A thief
    resolves a stolen entry once — restores its root replica, grafts a
    private copy of the victim's delta pages on top
    ({!Snapshot.import}) and captures a snapshot of its own — and posts
    the victim's refs straight back to it, so refcounts stay
    single-writer.  This is §3's "parallel depth-first-search strategy
    [that] simply forks without waiting", on real cores.  A crashed path
    retries in place, as in {!Explorer}.  When the scope is exhausted
    only domain 0 leaves it; a first exit or an abort stops every domain,
    and each gives back what its shard still holds.  At the end of its
    run every domain audits its frames, raising {!Explorer.Audit_failed}
    unless exactly those its machine's map and live snapshots reach are
    live and it holds no extension ref.

    One domain reproduces {!Explorer.run_image} exactly: transcript,
    terminals in order, counts.  Two semantic deltas otherwise: [sys_share]
    pages are replicated per domain (writes after the scope opens stay
    domain-local), and path completion order — hence [terminals] order
    and, under [`First_exit], {e which} exit wins — depends on OS
    scheduling. *)

type config = {
  workers : int;
  quantum : int;
      (** guest instructions between checks of the stop flag, which lets a
          first exit or an abort interrupt long-running sibling paths; a
          path is killed once its segment has run
          {!Explorer.default_fuel_per_step} *)
  strategy_override : Explorer.strategy option;
      (** force a strategy, as {!Explorer.run}'s [strategy_override]
          does; [None] lets the guest's [sys_guess_strategy] id choose *)
  mode : [ `Run_to_completion | `First_exit ];
  max_extensions : int;  (** a budget of each domain's pushes *)
  retry_budget : int;
      (** total evaluation attempts per path before a crashing path is
          quarantined as [Path_killed] instead of aborting the run *)
  faults : Inject.plan option;
      (** a fault plan, as {!Explorer.run_image}'s [faults]: it fires only
          while domains evaluate paths *)
}

val default_config : config
(** 4 workers, 20k-instruction quantum, the guest's strategy, run to
    completion, retry budget 3, no faults. *)

type result = {
  outcome : Explorer.outcome;
  transcript : string;       (** all workers' stdout, in completion order *)
  terminals : Explorer.terminal list;
  busy_rounds : int array;
      (** per-domain extensions evaluated — the load-balance picture.
          Total guest instructions live in [stats.instructions]. *)
  stats : Stats.t;
  domain_metrics : Obs.Metrics.t array;
      (** per-domain metrics registries: index 0 is the coordinator
          domain, then the spawned workers in order.  Each
          holds the [explorer.*]/[mem.*] names {!Stats.publish} emits
          plus the gauges [mem.free_buffers] and [mem.frames_live], the
          domain's {!Mem.Phys_mem.free_buffers} and
          {!Mem.Phys_mem.frames_live} at the end of the run, after its
          audit (domain 0 additionally carries [queue.steal_batches] and
          [queue.stolen_items]); merging them with {!Obs.Metrics.merge}
          agrees with [stats].  Per domain, [mem.frames_freed] =
          [mem.frames_recycled] + [mem.free_buffers] while the pool stays
          under its 4,096-buffer cap.  Domain 0's alone when the guest
          never opened a scope. *)
}

val run : ?config:config -> Isa.Asm.image -> result
(** Boot one machine per domain and explore.  The guest protocol is
    identical to {!Explorer}: domain 0 runs until [sys_guess_strategy];
    the scope's extensions are then evaluated by all domains; when the
    queue drains and every domain is idle, domain 0 resumes from the root
    with 0 in [rax].  A second scope aborts.  The terminal set and final
    outcome match {!Explorer.run_image} for confluent guests; ordering
    may differ (see above).  A domain that raises stops the run, and
    [run] raises its exception. *)
