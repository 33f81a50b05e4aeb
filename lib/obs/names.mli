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
val frame_adopt : string
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
