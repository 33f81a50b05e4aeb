(* Canonical event names shared by instrumentation sites and exporters.

   Keeping them in one module guarantees the strings are physically
   shared (no per-event allocation at record sites) and that exporters
   match the exact constants the producers used. *)

(* memory layer *)
let cow_fault = "mem.cow_fault"
let zero_fill = "mem.zero_fill"
let map = "mem.map"
let unmap = "mem.unmap"
let share_flush = "mem.share_flush"
let pressure = "mem.pressure"
let out_of_frames = "mem.out_of_frames"
let frame_recycle = "mem.frame_recycle" (* instant; a = free-list length *)

(* vcpu / block cache (counter samples) *)
let icache_misses = "vcpu.icache_misses"
let icache_slow = "vcpu.icache_slow"

(* vcpu / superinstruction block cache (counter samples) *)
let block_fuse = "interp.block_fuse"
let block_hit = "interp.block_hit"
let block_split = "interp.block_split"

(* scheduler stop reasons (instants) *)
let stop_guess = "stop.guess"
let stop_guess_fail = "stop.guess_fail"
let stop_strategy = "stop.strategy"
let stop_hint = "stop.hint"
let stop_exit = "stop.exit"
let stop_kill = "stop.kill"

(* snapshot lifecycle (instants; a = snapshot id, b = parent id or -1) *)
let snap_capture = "snap.capture"
let snap_restore = "snap.restore"
let snap_release = "snap.release" (* instant; a = snapshot id, b = frames freed *)

(* explorer / parallel *)
let explorer_eval = "explorer.eval" (* span; a = snapshot id, b = instructions *)
let worker = "worker" (* span; a = worker index *)
let frontier_len = "frontier.len" (* counter *)
let queue_len = "queue.len" (* counter *)
let queue_steal = "queue.steal" (* instant; a = origin domain, b = this domain *)
let sched_requeue = "sched.requeue"
let sched_quarantine = "sched.quarantine"
let instructions = "explorer.instructions" (* counter *)

(* content-addressed frame dedup *)
let dedup_hit = "mem.dedup_hit" (* instant; a = frame id, b = refs *)

(* multi-tenant pool *)
let tenancy_admit = "tenancy.admit" (* instant; a = tenant id, b = live tenants *)
let tenancy_reject = "tenancy.reject" (* instant; a = live tenants *)
let tenancy_queue = "tenancy.queue" (* instant; a = queue length *)
let tenancy_deadline_kill = "tenancy.deadline_kill" (* instant; a = tenant id *)
let tenancy_evict = "tenancy.evict" (* instant; a = tenant id *)

(* reclaim *)
let reclaim_demote = "reclaim.demote" (* instant; a = handle, b = depth *)
let reclaim_promote = "reclaim.promote" (* span; a = handle, b = pages applied *)

(* record / replay *)
let record_append = "record.append" (* instant; a = events logged *)
let replay_seek = "replay.seek" (* instant; a = target stop index *)
let replay_anchor_restore = "replay.anchor_restore" (* instant; a = anchor stop index *)

(* {1 Metric slots}

   Every counter of the program, declared once: the slot of [layer.event]
   is [layer_event].  Slots are named as the repo benchmark names the same
   event. *)

let counter = Metrics.declare Metrics.Counter
let peak = Metrics.declare Metrics.Peak

(* memory: counted into the [Mem.Phys_mem]'s registry *)
let mem_cow_faults = counter "mem.cow_faults" (* writes that had to copy a page *)
let mem_zero_fills = counter "mem.zero_fills" (* demand-zero pages materialised *)
let mem_pages_copied = counter "mem.pages_copied" (* page copies, COW or eager *)
let mem_bytes_copied = counter "mem.bytes_copied"
let mem_frames_allocated = counter "mem.frames_allocated"
let mem_frames_freed = counter "mem.frames_freed"
let mem_frames_recycled = counter "mem.frames_recycled" (* served by a freed buffer *)
let mem_zero_fills_elided = counter "mem.zero_fills_elided" (* overwritten whole *)
let mem_snapshots = counter "mem.snapshots" (* address-space captures *)
let mem_restores = counter "mem.restores"
let mem_tlb_hits = counter "mem.tlb_hits" (* translations, not accesses *)
let mem_tlb_misses = counter "mem.tlb_misses"
let mem_tlb_flushes = counter "mem.tlb_flushes" (* whole-TLB wipes *)
let mem_tlb_shootdowns = counter "mem.tlb_shootdowns" (* single-entry invalidations *)
let mem_pt_walks = counter "mem.pt_walks" (* page-table / trie lookups on a TLB miss *)
let mem_pt_node_copies = counter "mem.pt_node_copies" (* EPT page-table pages COW'd *)
let mem_pressure_events = counter "mem.pressure_events" (* pressure protocol runs *)
let mem_dedup_hits = counter "mem.dedup_hits" (* dedup lookups served by an entry *)
let mem_frames_live = peak "mem.frames_live" (* a domain's, after its run *)
let mem_free_buffers = peak "mem.free_buffers" (* a domain's, after its run *)

(* a run's, a session's or a pool's own registry *)
let vcpu_instructions = counter "vcpu.instructions" (* retired *)
let snapshot_captures = counter "snapshot.captures"
let snapshot_restores = counter "snapshot.restores"
let snapshot_max_live = peak "snapshot.max_live" (* frontier plus lineages *)
let search_guesses = counter "search.guesses" (* [sys_guess] calls served *)
let search_extensions_pushed = counter "search.extensions_pushed"
let search_extensions = counter "search.extensions" (* extensions evaluated *)
let search_evicted = counter "search.evicted" (* dropped by bounded strategies *)
let search_fails = counter "search.fails"
let search_exits = counter "search.exits"
let search_kills = counter "search.kills"
let search_max_frontier = peak "search.max_frontier"
let sched_requeues = counter "sched.requeues" (* crashed paths rescheduled *)
let sched_quarantined = counter "sched.quarantined" (* killed after the retry budget *)
let queue_steals = counter "queue.steals" (* extensions a domain imported *)
let queue_steal_batches = counter "queue.steal_batches"
let queue_stolen_items = counter "queue.stolen_items"
let reclaim_demotions = counter "reclaim.demotions" (* live payloads made deltas *)
let reclaim_promotions = counter "reclaim.promotions" (* deltas applied back *)
let tenancy_admits = counter "tenancy.admits"
let tenancy_rejects = counter "tenancy.rejects"
let tenancy_queued_boots = counter "tenancy.queued_boots"
let tenancy_deadline_kills = counter "tenancy.deadline_kills"
let tenancy_budget_evictions = counter "tenancy.budget_evictions"
let tenancy_crashes = counter "tenancy.crashes"
let tenancy_pressure_level2 = counter "tenancy.pressure_level2" (* beyond the offender *)
