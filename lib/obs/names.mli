(** The slot table: every event of the program, declared once, at program
    start.

    The slot of [layer.event] is [layer_event].  The registries own them by
    layer: [Mem.Phys_mem]'s holds the [mem.*] slots and its libOS's
    [sys.*] syscall spans; a run, a [Service] session and a [Tenancy] pool
    each own one for the rest; a [Record.Recorder] and a [Record.Replay]
    cursor count [record.*] and [replay.*].  [mem.frames_live],
    [mem.free_buffers], [snapshot.max_live] and [search.max_frontier] are
    peaks; [sys.*], [os.segments], [sched.workers] and
    [reclaim.promotions] are spans; every other slot is a counter.

    A traced event is recorded under its slot by the {!Trace} call that
    counts it, so a trace and the registry it counts into agree: an
    instant slot's events number its count, a span slot's completed pairs
    its count.  [names.ml] says what each slot counts and what its
    payloads carry. *)

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
val mem_releases : Metrics.slot
val mem_maps : Metrics.slot
val mem_unmaps : Metrics.slot
val mem_tlb_hits : Metrics.slot
val mem_tlb_misses : Metrics.slot
val mem_tlb_flushes : Metrics.slot
val mem_tlb_shootdowns : Metrics.slot
val mem_share_flushes : Metrics.slot
val mem_pt_walks : Metrics.slot
val mem_pt_node_copies : Metrics.slot
val mem_pressure_events : Metrics.slot
val mem_out_of_frames : Metrics.slot
val mem_dedup_hits : Metrics.slot
val mem_frames_live : Metrics.slot
val mem_free_buffers : Metrics.slot
val sys_write : Metrics.slot
val sys_read : Metrics.slot
val sys_open : Metrics.slot
val sys_close : Metrics.slot
val sys_brk : Metrics.slot
val sys_lseek : Metrics.slot
val sys_unlink : Metrics.slot
val sys_vtime : Metrics.slot
val sys_timeout : Metrics.slot
val sys_share : Metrics.slot
val sys_socket : Metrics.slot
val sys_ioctl : Metrics.slot
val sys_other : Metrics.slot
val os_segments : Metrics.slot
val vcpu_instructions : Metrics.slot
val vcpu_block_fuses : Metrics.slot
val vcpu_block_hits : Metrics.slot
val vcpu_block_splits : Metrics.slot
val vcpu_icache_misses : Metrics.slot
val vcpu_icache_slow : Metrics.slot
val snapshot_captures : Metrics.slot
val snapshot_restores : Metrics.slot
val snapshot_max_live : Metrics.slot
val search_scopes : Metrics.slot
val search_guesses : Metrics.slot
val search_hints : Metrics.slot
val search_extensions_pushed : Metrics.slot
val search_extensions : Metrics.slot
val search_evicted : Metrics.slot
val search_fails : Metrics.slot
val search_exits : Metrics.slot
val search_kills : Metrics.slot
val search_max_frontier : Metrics.slot
val sched_requeues : Metrics.slot
val sched_quarantined : Metrics.slot
val sched_workers : Metrics.slot
val queue_imports : Metrics.slot
val queue_steals : Metrics.slot
val queue_steal_batches : Metrics.slot
val queue_stolen_items : Metrics.slot
val reclaim_demotions : Metrics.slot
val reclaim_promotions : Metrics.slot
val tenancy_admits : Metrics.slot
val tenancy_rejects : Metrics.slot
val tenancy_queued_boots : Metrics.slot
val tenancy_deadline_kills : Metrics.slot
val tenancy_budget_evictions : Metrics.slot
val tenancy_crashes : Metrics.slot
val tenancy_teardowns : Metrics.slot
val tenancy_pressure_level2 : Metrics.slot
val record_appends : Metrics.slot
val replay_seeks : Metrics.slot
val replay_anchor_restores : Metrics.slot
