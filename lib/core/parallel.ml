module Libos = Os.Libos
module As = Mem.Addr_space

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

(* The scope every domain explores.  The queue's shard mutexes order
   everything a stolen entry references. *)
type shared = {
  queue : Ext.payload Work_queue.t;
  roots : Snapshot.t array;  (* each domain's root: the base of its deltas *)
  mailboxes : (Snapshot.t * int) list Atomic.t array;
      (* refs given back to each domain, the only one to touch its refcounts *)
  outcome : Explorer.outcome option Atomic.t;  (* the first stop *)
}

let rec post mailbox refs =
  let l = Atomic.get mailbox in
  if not (Atomic.compare_and_set mailbox l (refs :: l)) then post mailbox refs

let stop sh o =
  ignore (Atomic.compare_and_set sh.outcome None (Some o));
  Work_queue.stop sh.queue

(* Domain [dom]'s hooks into the engine on machine [m], over the scope
   [sh ()].  Its frontier is its shard: a pop first finishes its previous
   path and releases the refs thieves gave back; a stolen entry becomes a
   snapshot of its own once ([Snapshot.import], with allocation faults held
   off), its refs posted back to the victim at once.  Once every domain is
   done ([Work_queue.leave]: no steal reads its frames any more), [halt]
   gives back the rest; only domain 0 leaves an exhausted scope. *)
let hooks sh ~opens ~dom ~ids ~inj (m : Libos.t) (stats : Stats.t) =
  let phys = As.phys m.aspace in
  let give_back (s, n) =
    for _ = 1 to n do
      Snapshot.release_ext ~phys s
    done
  in
  let settle sh = List.iter give_back (Atomic.exchange sh.mailboxes.(dom) []) in
  let import sh path ~victim (e : Ext.t) =
    match e.parent with
    | Ext.Ref _ -> e
    | Ext.Snap foreign ->
      Mem.Phys_mem.set_alloc_fault phys None;
      Path.discard path (* the previous segment's tail, before the rebuild *);
      let local = Snapshot.import ~ids ~root:sh.roots.(dom) ~base:sh.roots.(victim) m foreign in
      let n = Search.Frontier.remaining e in
      Snapshot.retain ~n local;
      post sh.mailboxes.(victim) (foreign, n);
      Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook inj);
      stats.snapshots_created <- stats.snapshots_created + 1;
      stats.steals <- stats.steals + n;
      if Obs.Trace.enabled () then Obs.Trace.instant ~a:victim ~b:dom Obs.Names.queue_steal;
      { e with parent = Ext.Snap local }
  in
  let shard path strat root =
    opens strat root;
    let sh = sh () in
    let in_flight = ref (dom = 0) (* domain 0 carries the scope-opening path *) in
    { Search.Frontier.name = "shard";
      push_batch = Work_queue.push_batch sh.queue ~dom;
      pop =
        (fun () ->
          if !in_flight then Work_queue.finish_path sh.queue;
          settle sh;
          match Work_queue.take sh.queue ~dom ~steal:(import sh path) with
          | Some e ->
            in_flight := true;
            e
          | None ->
            in_flight := false;
            raise Search.Frontier.Empty);
      length = (fun () -> Work_queue.length sh.queue);
      evicted = (fun () -> Work_queue.drain_dropped sh.queue ~dom) }
  in
  let halt o =
    let sh = sh () in
    Option.iter (stop sh) o;
    Work_queue.leave sh.queue;
    List.iter
      (fun (e : Ext.t) ->
        match e.parent with Ext.Snap s -> post sh.mailboxes.(dom) (s, Search.Frontier.remaining e) | _ -> ())
      (Work_queue.drain sh.queue ~dom);
    settle sh;
    match Atomic.get sh.outcome with
    | None when dom > 0 -> Some (Explorer.Completed 0) (* a joining domain's is not read *)
    | o -> o
  in
  { Engine.ids; joins = None; shard; halt;
    stopped = (fun () -> Work_queue.stopped (sh ()).queue) }

(* Domain 0's scope root as data, taken before any other domain runs — its
   private pages, the explicitly shared ones, registers and OS state — and
   the machine that rebuilds it on a fresh private memory, with its root. *)
let replica ~ids image (m : Libos.t) (root : Snapshot.t) =
  let pages = As.snapshot_contents root.mem in
  let page vpn = As.read_bytes m.aspace ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size in
  let shared =
    List.filter_map
      (fun vpn -> if As.is_shared m.aspace ~vpn then Some (vpn, Bytes.to_string (page vpn)) else None)
      (As.mapped_vpns m.aspace)
  in
  fun () ->
    let m = Libos.boot (Mem.Phys_mem.create ()) image in
    ignore (As.discard_map m.aspace);
    As.restore_pages m.aspace ~base:None ~pages ~dead:[];
    List.iter (fun (vpn, data) -> As.map_data m.aspace ~vpn data; As.map_shared m.aspace ~vpn) shared;
    Vcpu.Cpu.load m.cpu root.regs;
    Libos.os_restore m root.os;
    m, Snapshot.capture ~ids ~depth:0 m

let run ?(config = default_config) (image : Isa.Asm.image) =
  if config.workers < 1 then invalid_arg "Parallel.run: need at least one worker";
  (* one armed plan for every domain: its fire-state is atomic *)
  let inj = Option.fold ~none:Inject.none ~some:Inject.arm config.faults in
  let ids = Snapshot.ids () in
  let scope = ref None and spawned = ref [] in
  (* Domain [dom]'s engine on its machine; its steals count apart *)
  let engine ?(sh = fun () -> Option.get !scope) ?(opens = fun _ _ -> ()) ?joins ~dom
      ~mem_before (m : Libos.t) =
    let stats = Stats.create () in
    let domain = { (hooks sh ~opens ~dom ~ids ~inj m stats) with joins } in
    if Obs.Trace.enabled () then Obs.Trace.span_begin ~a:dom Obs.Names.worker;
    (* the engine audits the domain's frames when it ends *)
    let r =
      try
        Engine.explore ~mode:config.mode ~max_extensions:config.max_extensions
          ~retry_budget:config.retry_budget ?strategy_override:config.strategy_override
          ~quantum:config.quantum ~inj ~domain ~mem_before [| m |]
      with Explorer.Audit_failed d ->
        raise (Explorer.Audit_failed (Printf.sprintf "domain %d, %s" dom d))
    in
    if Obs.Trace.enabled () then Obs.Trace.span_end ~a:dom Obs.Names.worker;
    Stats.merge r.stats stats;
    m, r
  in
  let m0 = Libos.boot (Mem.Phys_mem.create ()) image in
  (* Domain 0 opens the scope; every other domain joins it on a private
     memory, at a replica of its root.  A domain that fails stops the scope
     rather than leave the others waiting. *)
  let opens strat (root : Snapshot.t) =
    let sh =
      { queue =
          Work_queue.create ~shards:config.workers ~initial_paths:1 (fun () ->
              Explorer.make_frontier strat);
        roots = Array.make config.workers root;
        mailboxes = Array.init config.workers (fun _ -> Atomic.make []);
        outcome = Atomic.make None }
    in
    let rebuild = replica ~ids image m0 root in
    let join dom () =
      try
        let m, root = rebuild () in
        sh.roots.(dom) <- root;
        let m, r =
          engine ~sh:(fun () -> sh) ~joins:(root, strat) ~dom
            ~mem_before:(Mem.Mem_metrics.create ()) m
        in
        r.stats.snapshots_created <- r.stats.snapshots_created + 1 (* the root *);
        m, r
      with e ->
        stop sh (Explorer.Aborted (Printf.sprintf "worker %d: %s" dom (Printexc.to_string e)));
        Work_queue.leave sh.queue;
        raise e
    in
    scope := Some sh;
    spawned := List.init (config.workers - 1) (fun i -> Domain.spawn (join (i + 1)))
  in
  let m0, r0 =
    engine ~opens ~dom:0 ~mem_before:(Mem.Mem_metrics.copy (As.metrics m0.aspace)) m0
  in
  let domains = (m0, r0) :: List.map Domain.join !spawned in
  let stats = Stats.create () in
  let registry ((m : Libos.t), (r : Engine.result)) =
    let reg = Obs.Metrics.create () and phys = As.phys m.aspace in
    Stats.merge stats r.stats;
    Stats.publish r.stats reg;
    Obs.Metrics.gauge_set reg "mem.free_buffers" (Mem.Phys_mem.free_buffers phys);
    Obs.Metrics.gauge_set reg "mem.frames_live" (Mem.Phys_mem.frames_live phys);
    reg
  in
  let domain_metrics = Array.of_list (List.map registry domains) in
  let outcome =
    match !scope with
    | None -> r0.outcome
    | Some sh ->
      let q = sh.queue in
      Obs.Metrics.incr domain_metrics.(0) ~by:(Work_queue.steal_batches q) "queue.steal_batches";
      Obs.Metrics.incr domain_metrics.(0) ~by:(Work_queue.stolen_items q) "queue.stolen_items";
      stats.max_frontier <- max stats.max_frontier (Work_queue.max_length q);
      Option.value (Atomic.get sh.outcome) ~default:r0.outcome
  in
  let each f = List.map (fun (_, r) -> f r) domains in
  { outcome;
    transcript = String.concat "" (each (fun r -> r.Engine.transcript));
    terminals = List.concat (each (fun r -> r.Engine.terminals));
    busy_rounds = Array.of_list (each (fun r -> r.Engine.stats.extensions_evaluated));
    stats;
    domain_metrics }
