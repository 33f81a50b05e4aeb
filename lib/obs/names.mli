(** Canonical event names shared by instrumentation sites and exporters.

    All values are static string literals: record sites pass them to
    {!Trace} without allocating, and exporters compare against the very
    same constants. *)

val cow_fault : string
val zero_fill : string
val map : string
val unmap : string
val share_flush : string
val pressure : string
val out_of_frames : string
val frame_recycle : string
val icache_misses : string
val icache_slow : string
val block_fuse : string
val block_hit : string
val block_split : string
val stop_guess : string
val stop_guess_fail : string
val stop_strategy : string
val stop_hint : string
val stop_exit : string
val stop_kill : string
val snap_capture : string
val snap_restore : string
val snap_release : string
val explorer_eval : string
val worker : string
val frontier_len : string
val queue_len : string
val queue_steal : string
val sched_requeue : string
val sched_quarantine : string
val instructions : string
val dedup_hit : string
val tenancy_admit : string
val tenancy_reject : string
val tenancy_queue : string
val tenancy_deadline_kill : string
val tenancy_evict : string
val reclaim_evict : string
val reclaim_replay : string
val reclaim_demote : string
val reclaim_promote : string
val record_append : string
val replay_seek : string
val replay_anchor_restore : string

(** {1 Metric slots}

    Every counter of the program, declared at program start; the slot of
    [layer.event] is [layer_event] (comments in [names.ml] say what each
    counts).  [Mem.Phys_mem]'s registry holds the [mem.*] counters; a run,
    a [Service] session and a [Tenancy] pool each own one for the rest.
    [mem.frames_live], [mem.free_buffers], [snapshot.max_live] and
    [search.max_frontier] are peaks, every other slot a counter. *)

val mem_cow_faults : Metrics.slot
val mem_zero_fills : Metrics.slot
val mem_pages_copied : Metrics.slot
val mem_bytes_copied : Metrics.slot
val mem_frames_allocated : Metrics.slot
val mem_frames_freed : Metrics.slot
val mem_frames_recycled : Metrics.slot
val mem_zero_fills_elided : Metrics.slot
val mem_snapshots : Metrics.slot
val mem_restores : Metrics.slot
val mem_tlb_hits : Metrics.slot
val mem_tlb_misses : Metrics.slot
val mem_tlb_flushes : Metrics.slot
val mem_tlb_shootdowns : Metrics.slot
val mem_pt_walks : Metrics.slot
val mem_pt_node_copies : Metrics.slot
val mem_pressure_events : Metrics.slot
val mem_dedup_hits : Metrics.slot
val mem_frames_live : Metrics.slot
val mem_free_buffers : Metrics.slot
val vcpu_instructions : Metrics.slot
val snapshot_captures : Metrics.slot
val snapshot_restores : Metrics.slot
val snapshot_max_live : Metrics.slot
val search_guesses : Metrics.slot
val search_extensions_pushed : Metrics.slot
val search_extensions : Metrics.slot
val search_evicted : Metrics.slot
val search_fails : Metrics.slot
val search_exits : Metrics.slot
val search_kills : Metrics.slot
val search_max_frontier : Metrics.slot
val sched_requeues : Metrics.slot
val sched_quarantined : Metrics.slot
val queue_steals : Metrics.slot
val queue_steal_batches : Metrics.slot
val queue_stolen_items : Metrics.slot
val reclaim_demotions : Metrics.slot
val reclaim_promotions : Metrics.slot
val reclaim_replays : Metrics.slot
val reclaim_evictions : Metrics.slot
val reclaim_replay_fallbacks : Metrics.slot
val reclaim_replayed_instructions : Metrics.slot
val tenancy_admits : Metrics.slot
val tenancy_rejects : Metrics.slot
val tenancy_queued_boots : Metrics.slot
val tenancy_deadline_kills : Metrics.slot
val tenancy_budget_evictions : Metrics.slot
val tenancy_crashes : Metrics.slot
val tenancy_pressure_level2 : Metrics.slot
