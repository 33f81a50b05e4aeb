(* The slot table: every event of the program, declared once.

   The slot of [layer.event] is [layer_event]; slots are named as the repo
   benchmark names the same event.  A slot is a counter, a peak or a span
   ([Metrics.kind]).  A slot whose events are traced is counted only by the
   [Trace] call that records them, so its trace count is its registry
   value; the comment after it says what its payloads [a] and [b] carry. *)

let counter = Metrics.declare Metrics.Counter
let peak = Metrics.declare Metrics.Peak
let span = Metrics.declare Metrics.Span

(* memory: counted into the [Mem.Phys_mem]'s registry *)
let mem_cow_faults = counter "mem.cow_faults" (* writes that had to copy a page; a = vpn *)
let mem_zero_fills = counter "mem.zero_fills" (* demand-zero pages materialised; a = vpn *)
let mem_pages_copied = counter "mem.pages_copied" (* page copies, COW or eager *)
let mem_bytes_copied = counter "mem.bytes_copied"
let mem_frames_allocated = counter "mem.frames_allocated"
let mem_frames_freed = counter "mem.frames_freed"
let mem_frames_recycled = counter "mem.frames_recycled" (* served by a freed buffer; a = buffers left *)
let mem_zero_fills_elided = counter "mem.zero_fills_elided" (* overwritten whole *)
let mem_snapshots = counter "mem.snapshots" (* address-space captures *)
let mem_restores = counter "mem.restores"
let mem_releases = counter "mem.releases" (* snapshots freed; a = snapshot id, b = frames freed *)
let mem_maps = counter "mem.maps" (* pages mapped; a = vpn *)
let mem_unmaps = counter "mem.unmaps" (* a = vpn *)
let mem_tlb_hits = counter "mem.tlb_hits" (* translations, not accesses *)
let mem_tlb_misses = counter "mem.tlb_misses"
let mem_tlb_flushes = counter "mem.tlb_flushes" (* whole-TLB wipes *)
let mem_tlb_shootdowns = counter "mem.tlb_shootdowns" (* single-entry invalidations *)
let mem_share_flushes = counter "mem.share_flushes"
    (* catch-ups with the shared-page registry; a = its epoch, b = entries
       shot down or -1 for a whole-TLB wipe *)
let mem_pt_walks = counter "mem.pt_walks" (* page-table / trie lookups on a TLB miss *)
let mem_pt_node_copies = counter "mem.pt_node_copies" (* EPT page-table pages COW'd *)
let mem_pressure_events = counter "mem.pressure_events" (* pressure protocol runs; a = live, b = capacity *)
let mem_out_of_frames = counter "mem.out_of_frames" (* a = live, b = capacity *)
let mem_dedup_hits = counter "mem.dedup_hits" (* dedup lookups served; a = frame id, b = refs *)
let mem_frames_live = peak "mem.frames_live" (* a domain's, after its run *)
let mem_free_buffers = peak "mem.free_buffers" (* a domain's, after its run *)

(* the libOS's syscall spans, counted into its memory's registry; a = first
   argument at the begin, b = result at the end *)
let sys_write = span "sys.write"
let sys_read = span "sys.read"
let sys_open = span "sys.open"
let sys_close = span "sys.close"
let sys_brk = span "sys.brk"
let sys_lseek = span "sys.lseek"
let sys_unlink = span "sys.unlink"
let sys_vtime = span "sys.vtime"
let sys_timeout = span "sys.timeout"
let sys_share = span "sys.share"
let sys_socket = span "sys.socket"
let sys_ioctl = span "sys.ioctl"
let sys_other = span "sys.other" (* a number the ABI does not define *)

(* a run's, a session's or a pool's own registry *)
let os_segments = span "os.segments"
    (* guest runs between two stops; a = the snapshot the segment began at,
       b = instructions retired *)
let vcpu_instructions = counter "vcpu.instructions" (* retired *)
let vcpu_block_fuses = counter "vcpu.block_fuses" (* blocks compiled *)
let vcpu_block_hits = counter "vcpu.block_hits" (* dispatches to a compiled block *)
let vcpu_block_splits = counter "vcpu.block_splits" (* blocks longer than the fuel left *)
let vcpu_icache_misses = counter "vcpu.icache_misses"
let vcpu_icache_slow = counter "vcpu.icache_slow" (* instructions run uncached *)
let snapshot_captures = counter "snapshot.captures" (* a = id, b = parent id or -1 *)
let snapshot_restores = counter "snapshot.restores" (* a = id *)
let snapshot_max_live = peak "snapshot.max_live" (* frontier plus lineages *)
let search_scopes = counter "search.scopes" (* strategy scopes opened; a = root id *)
let search_guesses = counter "search.guesses" (* [sys_guess] calls served; a = arity *)
let search_hints = counter "search.hints" (* a = distance *)
let search_extensions_pushed = counter "search.extensions_pushed"
let search_extensions = counter "search.extensions" (* extensions evaluated *)
let search_evicted = counter "search.evicted" (* dropped by bounded strategies *)
let search_fails = counter "search.fails"
let search_exits = counter "search.exits" (* a = status *)
let search_kills = counter "search.kills"
let search_max_frontier = peak "search.max_frontier" (* sampled as it moves *)
let sched_requeues = counter "sched.requeues" (* crashed paths rescheduled; a = attempt *)
let sched_quarantined = counter "sched.quarantined" (* killed after the retry budget *)
let sched_workers = span "sched.workers" (* a domain's run; a = domain *)
let queue_imports = counter "queue.imports" (* stolen entries rebuilt; a = victim, b = thief *)
let queue_steals = counter "queue.steals" (* extensions a domain imported *)
let queue_steal_batches = counter "queue.steal_batches"
let queue_stolen_items = counter "queue.stolen_items"
let reclaim_demotions = counter "reclaim.demotions" (* live payloads made deltas; a = handle, b = depth *)
let reclaim_promotions = span "reclaim.promotions" (* deltas applied back; a = handle, b = pages *)
let tenancy_admits = counter "tenancy.admits" (* a = tenant, b = live tenants *)
let tenancy_rejects = counter "tenancy.rejects" (* a = live tenants *)
let tenancy_queued_boots = counter "tenancy.queued_boots" (* a = queue position *)
let tenancy_deadline_kills = counter "tenancy.deadline_kills" (* a = tenant *)
let tenancy_budget_evictions = counter "tenancy.budget_evictions"
let tenancy_crashes = counter "tenancy.crashes"
let tenancy_teardowns = counter "tenancy.teardowns" (* tenants retired, any cause; a = tenant *)
let tenancy_pressure_level2 = counter "tenancy.pressure_level2" (* beyond the offender *)

(* a recorder's and a replay cursor's (the cursor's memory's) *)
let record_appends = counter "record.appends" (* a = events logged *)
let replay_seeks = counter "replay.seeks" (* a = target stop index *)
let replay_anchor_restores = counter "replay.anchor_restores" (* a = anchor stop index *)
