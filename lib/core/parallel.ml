module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module As = Mem.Addr_space
module Frontier = Search.Frontier

type config = {
  workers : int;
  quantum : int;
  strategy_override : Explorer.strategy option;
  mode : [ `Run_to_completion | `First_exit ];
  max_extensions : int;
  retry_budget : int;
  faults : Inject.plan option;
}

let default_config =
  { workers = 4;
    quantum = 20_000;
    strategy_override = None;
    mode = `Run_to_completion;
    max_extensions = max_int;
    retry_budget = 3;
    faults = None }

type result = {
  outcome : Explorer.outcome;
  transcript : string;
  terminals : Explorer.terminal list;
  busy_rounds : int array;
  stats : Stats.t;
  domain_metrics : Obs.Metrics.t array;
}

exception Abort of string
exception Done of Explorer.outcome

(* Resolve the strategy exactly like [Explorer]: an override wins, else
   the guest's id. *)
let resolve_strategy config id =
  match config.strategy_override with
  | Some s -> s
  | None -> (
    match Explorer.strategy_of_id id with
    | Some s -> s
    | None -> raise (Abort (Printf.sprintf "unknown strategy id %d" id)))

(* The coordinator phases around the scope, unsupervised: no fault ticks,
   no allocation hook. *)
let to_scope config path =
  match Path.to_scope path with
  | `Scope id -> resolve_strategy config id
  | `Exit status -> raise (Done (Explorer.Completed status))
  | `Abort message -> raise (Abort message)

let drain path stats ~root =
  match Path.drain path stats ~root with
  | `Exit status -> Explorer.Completed status
  | `Abort message -> Explorer.Aborted message

(* One OCaml 5 domain per worker over a domain-private Phys_mem; work
   items carry the producer's snapshot by reference, and refs travel back
   through the producer's mailbox. *)

type item = {
  it_snap : Snapshot.t;
      (* the producer's snapshot.  To the producing domain this is
         directly restorable; to every other domain it is an immutable
         description — saved registers, OS state, and a page map whose
         frames belong to retired generations — pinned against reuse by
         the extension ref the producer took at push time. *)
  it_root_map : As.snapshot;
      (* the producer's root page map: the base [it_snap]'s delta is
         computed against when a thief rebuilds the state *)
  it_index : int;
  it_meta : Frontier.meta;
  it_origin : int;  (* producing domain *)
  it_retries : int; (* crash-recovery attempts already spent on this item *)
}

(* The full root state, replicated once into every domain at startup. *)
type root_state = {
  r_pages : (int * string) list;
  r_shared : (int * string) list;  (* explicitly shared pages (sys_share) *)
  r_regs : Cpu.saved;
  r_os : Libos.os_state;
}

(* Cross-domain snapshot-reference returns.  Only the owner domain ever
   mutates its snapshots' refcounts, so a consumer of a foreign item posts
   the snapshot here when it retires the path and the owner releases it at
   its next retire.  The post happens strictly after the consumer stopped
   reading the snapshot's frames, so a release that frees them cannot race
   an import. *)
module Mailbox = struct
  type t = { lock : Mutex.t; mutable posted : Snapshot.t list }

  let create () = { lock = Mutex.create (); posted = [] }

  let post mb s =
    Mutex.lock mb.lock;
    mb.posted <- s :: mb.posted;
    Mutex.unlock mb.lock

  let drain mb =
    if mb.posted == [] then [] (* racy peek: a miss surfaces next drain *)
    else begin
      Mutex.lock mb.lock;
      let l = mb.posted in
      mb.posted <- [];
      Mutex.unlock mb.lock;
      l
    end
end

(* State shared by all worker domains.  The queue's shard mutexes provide
   the happens-before edges for everything an item references. *)
type shared = {
  queue : item Work_queue.t;
  outcome_cell : Explorer.outcome option Atomic.t;
  sh_ids : Snapshot.ids;
  sh_quantum : int;
  sh_mode : [ `Run_to_completion | `First_exit ];
  sh_max_extensions : int;
  sh_retry_budget : int;
  sh_mailboxes : Mailbox.t array;  (* indexed by producing domain *)
}

let page_string aspace vpn =
  Bytes.to_string
    (As.read_bytes aspace ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size)

(* [root] was just captured on [m]: the map is still its map. *)
let serialize_root (m : Libos.t) (root : Snapshot.t) =
  let vpns = As.mapped_vpns m.Libos.aspace in
  let shared, priv = List.partition (fun vpn -> As.is_shared m.Libos.aspace ~vpn) vpns in
  { r_pages = List.map (fun vpn -> vpn, page_string m.Libos.aspace vpn) priv;
    r_shared = List.map (fun vpn -> vpn, page_string m.Libos.aspace vpn) shared;
    r_regs = root.Snapshot.regs;
    r_os = root.Snapshot.os }

(* Boot a fresh machine on a domain-private Phys_mem and rebuild the root
   state in it.  The caller then captures a local root snapshot, which
   retires the generation — so the rebuilt pages are immutable-until-COW
   and the block cache works exactly as on domain 0. *)
let rehydrate_root image (root : root_state) =
  let phys = Mem.Phys_mem.create () in
  let m = Libos.boot phys image in
  let aspace = m.Libos.aspace in
  List.iter (fun vpn -> As.unmap aspace ~vpn) (As.mapped_vpns aspace);
  List.iter (fun (vpn, data) -> As.map_data aspace ~vpn data) root.r_pages;
  List.iter
    (fun (vpn, data) ->
      As.map_data aspace ~vpn data;
      As.map_shared aspace ~vpn)
    root.r_shared;
  Cpu.load m.Libos.cpu root.r_regs;
  Libos.os_restore m root.r_os;
  phys, m

(* The per-domain evaluation loop over [path]'s machine.  [root_path] is
   the scope-opening path, already open on domain 0's machine (counted by
   the queue's [initial_paths]); other domains start by pulling work. *)
let eval_domain sh ~dom ~(path : Path.t) ~(d_root : Snapshot.t)
    ~(st : Stats.t) ~items ~root_path =
  let machine = Path.machine path in
  let set_outcome o =
    ignore (Atomic.compare_and_set sh.outcome_cell None (Some o))
  in
  let abort msg =
    set_outcome (Explorer.Aborted msg);
    Work_queue.stop sh.queue
  in
  let track_live (it : item) =
    let frontier_len = Work_queue.length sh.queue in
    let lineage =
      if it.it_origin = dom then Path.lineage_length path
      else Path.depth path + 1  (* foreign path: its lineage lives elsewhere *)
    in
    st.Stats.max_live_snapshots <-
      max st.Stats.max_live_snapshots (frontier_len + lineage)
  in

  (* Give an item's consumption ref back, then release whatever refs
     foreign consumers have returned to this domain meanwhile.  Own
     snapshots release directly; foreign ones travel through the
     producer's mailbox, so a snapshot's refcounts are only ever mutated by
     the domain that owns it. *)
  let return_ref (it : item) =
    if it.it_origin = dom then Path.release path it.it_snap
    else Mailbox.post sh.sh_mailboxes.(it.it_origin) it.it_snap
  in
  let drain_mailbox () =
    List.iter (Path.release path) (Mailbox.drain sh.sh_mailboxes.(dom))
  in
  let give_back it () =
    return_ref it;
    drain_mailbox ()
  in
  (* evicted extensions will never run: give their refs back *)
  let drop_evicted () = List.iter return_ref (Work_queue.drain_dropped sh.queue) in

  (* Own items restore their snapshot directly — adopting its frames when
     this item is the last reference anywhere.  Foreign items restore the
     local root replica and graft a private copy of the producer's delta
     pages on top: the segment's base is the local root, so its captures
     parent there (and the foreign subtree recycles on this domain) and its
     tail discard frees the imported pages too.  The consumption ref
     (returned only at retire, so a crash-requeue keeps the pin) holds
     those frames immutable in retired generations for the whole read. *)
  let prepare (it : item) =
    let rax = it.it_index and depth = it.it_meta.Frontier.depth in
    if it.it_origin = dom then
      Path.enter path st it.it_snap ~retries:it.it_retries ~rax ~depth
    else begin
      st.Stats.steals <- st.Stats.steals + 1;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:it.it_origin ~b:dom Obs.Names.queue_steal;
      Path.enter path st d_root ~retries:it.it_retries ~rax ~depth
        ~graft:(fun () ->
          ignore
            (As.import_delta machine.Libos.aspace ~base:it.it_root_map
               ~target:it.it_snap.Snapshot.mem);
          Cpu.load machine.Libos.cpu it.it_snap.Snapshot.regs;
          Libos.os_restore machine it.it_snap.Snapshot.os)
    end
  in

  (* Run the current path to its terminal scheduling event; a crash
     escapes as an exception. *)
  let rec evaluate (it : item) =
    let stop =
      Path.run path ~fuel:sh.sh_quantum ~span:Obs.Names.worker_eval ~a:dom
    in
    match Path.classify ~preempt:Explorer.default_fuel_per_step path st stop with
    | Path.Preempted ->
      (* the stop-flag check is what lets first-exit and aborts
         interrupt long-running sibling paths *)
      if not (Work_queue.stopped sh.queue) then evaluate it
    | Path.Hinted -> evaluate it
    | Path.Scope _ -> abort "nested sys_guess_strategy"
    | Path.Terminal -> (
      match stop with
      | Libos.Exited { status } when sh.sh_mode = `First_exit ->
        set_outcome (Explorer.Stopped_first_exit status);
        Work_queue.stop sh.queue
      | _ -> ())
    | Path.Branch n ->
      let snap, meta = Path.branch path st ~ids:sh.sh_ids ~n in
      Work_queue.push_batch sh.queue ~dom
        (List.init n (fun index ->
             ( meta,
               { it_snap = snap;
                 it_root_map = d_root.Snapshot.mem;
                 it_index = index;
                 it_meta = meta;
                 it_origin = dom;
                 it_retries = 0 } )));
      drop_evicted ();
      track_live it;
      if Work_queue.pushed sh.queue > sh.sh_max_extensions then
        abort "extension budget exhausted"
  in

  (* Supervision: a crash while preparing or evaluating [it] (injected, or
     a failed allocation) requeues the item with its retry count bumped —
     any domain can pick it up, and it keeps the consumption ref — until
     the budget is spent, then the item is quarantined as a killed path.
     Push-before-finish keeps the queue's termination count sound either
     way. *)
  let run_guarded ?(entered = false) (it : item) =
    (match
       if not entered then prepare it;
       evaluate it
     with
    | () -> Path.retire path ~give_back:(give_back it)
    | exception e -> (
      let retry () =
        Work_queue.push_batch sh.queue ~dom
          [ (it.it_meta, { it with it_retries = it.it_retries + 1 }) ];
        drop_evicted ()
      in
      match Path.supervise path st ~budget:sh.sh_retry_budget ~retry e with
      | `Retried -> ()
      | `Quarantined -> Path.retire path ~give_back:(give_back it)));
    Work_queue.finish_path sh.queue
  in

  let rec consume () =
    match Work_queue.take sh.queue ~dom with
    | None -> ()
    | Some it ->
      incr items;
      st.Stats.extensions_evaluated <- st.Stats.extensions_evaluated + 1;
      run_guarded it;
      drop_evicted ();
      consume ()
  in
  if Obs.Trace.enabled () then Obs.Trace.span_begin ~a:dom Obs.Names.worker;
  (try
    Option.iter (run_guarded ~entered:true) root_path;
    consume ();
    (* refs posted by foreign consumers after our last retire *)
    drain_mailbox ()
  with e ->
    (* A crashed worker loop must not leave the others blocked in [take]. *)
    abort (Printf.sprintf "worker %d: %s" dom (Printexc.to_string e)));
  if Obs.Trace.enabled () then Obs.Trace.span_end ~a:dom Obs.Names.worker

let run ?(config = default_config) (image : Isa.Asm.image) =
  if config.workers < 1 then invalid_arg "Parallel.run: need at least one worker";
  let phys0 = Mem.Phys_mem.create () in
  (* one armed plan for every domain: its fire-state is atomic *)
  let inj = Option.fold ~none:Inject.none ~some:Inject.arm config.faults in
  (* Domain 0's own counters; the aggregate [stats] is assembled at the
     end so the per-domain registries stay separable. *)
  let st0 = Stats.create () in
  let mem_before = Mem.Mem_metrics.copy (Mem.Phys_mem.metrics phys0) in
  let m0 = Libos.boot phys0 image in
  let transcript = Buffer.create 256 in
  let terminals0 = Path.terminal_log () in
  let path0 : Path.t = Path.create ~inj ~transcript ~terminals:terminals0 m0 in
  let busy_rounds = Array.make config.workers 0 in
  let worker_tail = ref [] in
  let worker_stats : (Stats.t * Obs.Metrics.t) list ref = ref [] in
  let queue_peak = ref 0 in
  let queue_evicted = ref 0 in
  let queue_steal_batches = ref 0 in
  let queue_stolen = ref 0 in
  let outcome =
    try
      let strat =
        match to_scope config path0 with
        | #Explorer.builtin as s -> s
        | `Custom _ ->
          raise (Abort "`Custom strategies need Explorer.run_image ~workers")
      in
      let ids = Snapshot.ids () in
      (* Every domain's replica is serialized from the root, so they all
         observe 0 in rax when the scope is exhausted. *)
      let d_root0 = Path.open_scope path0 st0 ~ids in
      let root_state = serialize_root m0 d_root0 in
      let sh =
        { queue =
            Work_queue.create ~shards:config.workers ~initial_paths:1
              ~meta_of:(fun it -> it.it_meta)
              (Explorer.builtin_frontier strat);
          outcome_cell = Atomic.make None;
          sh_ids = ids;
          sh_quantum = config.quantum;
          sh_mode = config.mode;
          sh_max_extensions = config.max_extensions;
          sh_retry_budget = config.retry_budget;
          sh_mailboxes = Array.init config.workers (fun _ -> Mailbox.create ()) }
      in
      (* Spawn the other domains; each rebuilds the root on a private
         Phys_mem, then all pull from the shared queue.  The alloc fault
         arms per-domain only once the replica stands — rehydration
         failures would abort the run, not a path. *)
      let handles =
        List.init (config.workers - 1) (fun i ->
            let dom = i + 1 in
            Domain.spawn (fun () ->
                let st = Stats.create () in
                let reg = Obs.Metrics.create () in
                let buf = Buffer.create 256 in
                let terms = Path.terminal_log () in
                let items = ref 0 in
                (try
                   let phys, machine = rehydrate_root image root_state in
                   let d_root = Snapshot.capture ~ids:sh.sh_ids ~depth:0 machine in
                   st.Stats.snapshots_created <- st.Stats.snapshots_created + 1;
                   Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook inj);
                   eval_domain sh ~dom
                     ~path:(Path.create ~inj ~transcript:buf ~terminals:terms machine)
                     ~d_root ~st ~items ~root_path:None;
                   st.Stats.instructions <- machine.Libos.cpu.Cpu.retired;
                   Mem.Mem_metrics.add st.Stats.mem (Mem.Phys_mem.metrics phys);
                   Obs.Metrics.gauge_set reg "mem.free_buffers"
                     (Mem.Phys_mem.free_buffers phys)
                 with e ->
                   ignore
                     (Atomic.compare_and_set sh.outcome_cell None
                        (Some
                           (Explorer.Aborted
                              (Printf.sprintf "worker %d: %s" dom
                                 (Printexc.to_string e)))));
                   Work_queue.stop sh.queue);
                Stats.publish st reg;
                st, reg, Buffer.contents buf, Path.terminals terms, !items))
      in
      let items0 = ref 0 in
      Mem.Phys_mem.set_alloc_fault phys0 (Inject.alloc_hook inj);
      (* The scope-opening path, encoded as an item so crash recovery can
         requeue it like any other: the root snapshot itself, entered with 1
         in rax (the exploring branch). *)
      let root_path =
        { it_snap = d_root0;
          it_root_map = d_root0.Snapshot.mem;
          it_index = 1;
          it_meta = { Frontier.depth = 0; hint = 0 };
          it_origin = 0;
          it_retries = 0 }
      in
      eval_domain sh ~dom:0 ~path:path0 ~d_root:d_root0 ~st:st0 ~items:items0
        ~root_path:(Some root_path);
      busy_rounds.(0) <- !items0;
      let results = List.map Domain.join handles in
      List.iteri
        (fun i (st, reg, tr, terms, items) ->
          busy_rounds.(i + 1) <- items;
          worker_stats := !worker_stats @ [ (st, reg) ];
          Buffer.add_string transcript tr;
          worker_tail := !worker_tail @ terms)
        results;
      queue_peak := Work_queue.max_length sh.queue;
      queue_evicted := Work_queue.evicted sh.queue;
      queue_steal_batches := Work_queue.steal_batches sh.queue;
      queue_stolen := Work_queue.stolen_items sh.queue;
      match Atomic.get sh.outcome_cell with
      | Some o -> o
      | None ->
        Mem.Phys_mem.set_alloc_fault phys0 None;
        drain path0 st0 ~root:d_root0
    with
    | Done outcome -> outcome
    | Abort message -> Explorer.Aborted message
  in
  st0.Stats.instructions <- st0.Stats.instructions + m0.Libos.cpu.Cpu.retired;
  Mem.Mem_metrics.add st0.Stats.mem
    (Mem.Mem_metrics.diff (Mem.Phys_mem.metrics phys0) mem_before);
  (* Domain 0's registry is published only now, after its memory metrics
     landed — otherwise its mem.* counters would all read zero. *)
  let reg0 = Obs.Metrics.create () in
  Stats.publish st0 reg0;
  Obs.Metrics.gauge_set reg0 "mem.free_buffers" (Mem.Phys_mem.free_buffers phys0);
  Obs.Metrics.incr reg0 ~by:!queue_steal_batches "queue.steal_batches";
  Obs.Metrics.incr reg0 ~by:!queue_stolen "queue.stolen_items";
  let stats = Stats.create () in
  Stats.merge stats st0;
  List.iter (fun (st, _) -> Stats.merge stats st) !worker_stats;
  stats.Stats.max_frontier <- max stats.Stats.max_frontier !queue_peak;
  stats.Stats.evicted <- stats.Stats.evicted + !queue_evicted;
  { outcome;
    transcript = Buffer.contents transcript;
    terminals = Path.terminals terminals0 @ !worker_tail;
    busy_rounds;
    stats;
    domain_metrics = Array.of_list (reg0 :: List.map snd !worker_stats) }

