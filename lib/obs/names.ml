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
let reclaim_evict = "reclaim.evict" (* instant; a = handle, b = depth *)
let reclaim_replay = "reclaim.replay" (* span; a = chain length, b = instrs *)
let reclaim_demote = "reclaim.demote" (* instant; a = handle, b = depth *)
let reclaim_promote = "reclaim.promote" (* span; a = handle, b = pages applied *)

(* record / replay *)
let record_append = "record.append" (* instant; a = events logged *)
let replay_seek = "replay.seek" (* instant; a = target stop index *)
let replay_anchor_restore = "replay.anchor_restore" (* instant; a = anchor stop index *)
