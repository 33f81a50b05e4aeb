(** Multi-worker exploration on real cores — Figure 2's architecture, one
    OCaml 5 domain per worker.  (Its deterministic single-domain
    simulation is {!Explorer.run_image} with [~workers].)

    Each domain owns a {e domain-private} {!Mem.Phys_mem} and machine, and
    runs the full frame-recycling lifecycle (free-list reuse, zero-fill
    elision, adopting restores) against it.  Work items travel through a
    sharded, work-stealing {!Work_queue} carrying the producer's snapshot
    {e by reference}.  A domain popping its own item restores the snapshot
    directly — adopting its frames when the item is the last reference; a
    thief restores its local root replica and grafts a private copy of the
    producer's delta pages on top ({!Mem.Addr_space.import_delta}), safe
    because the item's extension ref pins those frames in retired
    generations until the thief retires the path and posts the ref back
    through the producer's mailbox (refcounts stay single-writer).  This is
    §3's "parallel depth-first-search strategy [that] simply forks without
    waiting", on real cores.  Two semantic deltas vs
    {!Explorer.run_image}: [sys_share] pages are replicated per domain
    (writes after the scope opens stay domain-local), and [`Custom]
    strategies are rejected (their frontiers are typed to in-heap
    extensions).  Path completion order — and hence [terminals] order and,
    under [`First_exit], {e which} exit wins — depends on OS scheduling. *)

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
  max_extensions : int;
  retry_budget : int;
      (** total evaluation attempts per path before a crashing path is
          quarantined as [Path_killed] instead of aborting the run *)
  faults : Inject.plan option;
      (** a fault plan, as {!Explorer.run_image}'s [faults]: it fires only
          while domains evaluate paths, and restores do not adopt under
          it *)
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
          plus the gauge [mem.free_buffers], the domain's
          {!Mem.Phys_mem.free_buffers} at the end of the run (domain 0
          additionally carries [queue.steal_batches] and
          [queue.stolen_items]); merging them with {!Obs.Metrics.merge}
          agrees with [stats].  Per domain, [mem.frames_freed] =
          [mem.frames_recycled] + [mem.free_buffers] while the pool stays
          under its 4,096-buffer cap.  Empty for runs aborted before
          workers spawned. *)
}

val run : ?config:config -> Isa.Asm.image -> result
(** Boot one machine per domain and explore.  The guest protocol is
    identical to {!Explorer}: domain 0 runs until [sys_guess_strategy];
    the scope's extensions are then evaluated by all domains; when the
    queue drains and every domain is idle, domain 0 resumes from the root
    with 0 in [rax].  The terminal set and final outcome match
    {!Explorer.run_image} for confluent guests; ordering may differ (see
    above). *)
