(* The scheduler loop — the one engine behind {!Explorer.run},
   [Explorer.run_image ~workers] and every domain of {!Parallel}.  Private to
   the library: its Domains hooks ([domain]) are not part of [Explorer]'s
   interface. *)

module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module Frontier = Search.Frontier
module Probe = Record.Probe
module M = Obs.Metrics
module N = Obs.Names

type builtin =
  [ `Dfs
  | `Bfs
  | `Astar
  | `Sma of int
  | `Wastar of float
  | `Beam of int
  | `Dfs_bounded of int
  | `Random of int ]

type strategy = [ builtin | `Custom of (unit -> Ext.payload Frontier.t) ]

type terminal_kind = Path.terminal_kind =
  | Exit of int
  | Fail
  | Path_killed of string

type terminal = Path.terminal = {
  kind : terminal_kind;
  output : string;
  depth : int;
}

type outcome = Path.outcome =
  | Completed of int
  | Stopped_first_exit of int
  | Aborted of string

type result = {
  outcome : outcome;
  transcript : string;
  terminals : terminal list;
  rounds : int;
  busy_rounds : int array;
  metrics : M.t;
  stats : Stats.t;
}

type mode = [ `Run_to_completion | `First_exit ]

exception Audit_failed of string

type scope = { root : Os.Snapshot.t; frontier : Ext.payload Frontier.t }

let make_frontier : strategy -> Ext.payload Frontier.t = function
  | `Dfs -> Frontier.dfs ()
  | `Bfs -> Frontier.bfs ()
  | `Astar -> Frontier.astar ()
  | `Sma capacity -> Frontier.sma ~capacity ()
  | `Wastar weight -> Frontier.wastar ~weight ()
  | `Beam width -> Frontier.beam ~width ()
  | `Dfs_bounded max_depth -> Frontier.dfs_bounded ~max_depth ()
  | `Random seed -> Frontier.random ~seed ()
  | `Custom make -> make ()

let strategy_of_id id : strategy option =
  if id = Os.Sys_abi.strategy_dfs then Some `Dfs
  else if id = Os.Sys_abi.strategy_bfs then Some `Bfs
  else if id = Os.Sys_abi.strategy_astar then Some `Astar
  else if id = Os.Sys_abi.strategy_sma then Some (`Sma 64)
  else if id = Os.Sys_abi.strategy_random then Some (`Random 42)
  else None

let default_fuel_per_step = 50_000_000

(* How one machine takes part in a scope that several domains explore,
   each on its own memory ([Parallel]).  The single-domain run has none:
   none of these is called on its hot path. *)
type domain = {
  ids : Os.Snapshot.ids;  (* the run's, shared by its domains *)
  joins : (Os.Snapshot.t * strategy) option;
      (* a replica of the scope root and the scope's strategy: the machine
         starts inside the scope, idle, and never leaves it *)
  shard : Path.t -> strategy -> Os.Snapshot.t -> Ext.payload Frontier.t;
      (* the scope's frontier on this machine's path, given its root: a
         shard of the work queue *)
  stopped : unit -> bool;
      (* another domain stopped the scope: a preempted path gives up *)
  halt : outcome option -> outcome option;
      (* this machine is done with the scope, stopping it with [Some o] or
         finding it exhausted with [None]; returns once every domain is,
         with the run's outcome — [None] to leave the scope *)
}

(* The scheduler: one path per machine, all on one physical memory, in
   rounds ("Several workers" in the interface). *)
let explore ?(mode = `Run_to_completion) ?(fuel_per_step = default_fuel_per_step)
    ?(max_extensions = max_int) ?(retry_budget = 3) ?strategy_override
    ?tier_stress ?on_stop ?probe ?quantum ?(inj = Inject.none) ?domain
    ?(metrics = M.create ()) ~mem_before (machines : Libos.t array) =
  let workers = Array.length machines in
  let machine = machines.(0) in
  let retired () =
    Array.fold_left (fun k (m : Libos.t) -> k + m.cpu.Cpu.retired) 0 machines
  in
  let retired_before = retired () in
  (* The machines' block caches count for their lifetime: a run counts the
     difference, summed over the machines (all have a cache or none). *)
  let vcpu_counts () =
    let r = M.create () in
    Array.iter
      (fun m ->
        match Libos.icache_counts m, Libos.block_counts m with
        | Some (misses, slow), Some (fuses, hits, splits) ->
          M.add r N.vcpu_icache_misses misses;
          M.add r N.vcpu_icache_slow slow;
          M.add r N.vcpu_block_fuses fuses;
          M.add r N.vcpu_block_hits hits;
          M.add r N.vcpu_block_splits splits
        | _ -> ())
      machines;
    r
  in
  let vcpu_before = vcpu_counts () in
  let transcript = Buffer.create 256 in
  let terminals = Path.terminal_log () in
  let scope : scope option ref = ref None in

  (* Memory-pressure integration: a bounded physical memory gets a tiered
     payload store, so snapshots can be demoted to page deltas when
     frames run out and promoted back when their extension is finally
     scheduled.  [tier_stress] forces the store on and exercises the
     tiers on an unbounded memory — the fuzz oracle's hammer. *)
  let phys = Mem.Addr_space.phys machine.aspace in
  let reclaim = Mem.Phys_mem.capacity phys > 0 || tier_stress <> None in
  (* The replay log and the [Reclaim] anchor each follow one machine. *)
  if workers > 1 && (reclaim || probe <> None) then
    invalid_arg "Explorer: recording or a reclaim store needs one worker";
  let store =
    if reclaim then begin
      let st = Reclaim.create ~metrics machine in
      Mem.Phys_mem.set_pressure_handler phys (Some (Reclaim.pressure_handler st));
      Some st
    end
    else None
  in
  (* Recording assumes snapshot ids in the log resolve to states the
     replayer has itself captured; a reclaim store promotes demoted
     payloads under *fresh* ids the log has never seen. *)
  if probe <> None && store <> None then
    invalid_arg "Explorer: recording requires an unbounded in-memory store";
  (* Tier-stress hook: every [n]-th scheduler stop demotes every live
     payload.  A pure store operation: the running machine is never
     touched. *)
  let stress_clock = ref 0 in
  let stress_every =
    match (tier_stress, store) with Some n, Some _ when n > 0 -> n | _ -> 0
  in
  let stress_tick () =
    match store with
    | Some st when stress_every > 0 ->
      incr stress_clock;
      if !stress_clock mod stress_every = 0 then ignore (Reclaim.demote_all st)
    | _ -> ()
  in
  let paths : Path.t array =
    Array.map (Path.create ?store ~inj ~transcript ~terminals) machines
  in
  let path = paths.(0) in
  (* Faults fire only inside the scope: the allocation hook is armed while
     it is open, and the runs outside it do not tick the plan. *)
  let arm on =
    if not (Inject.is_none inj) then
      Mem.Phys_mem.set_alloc_fault phys (if on then Inject.alloc_hook inj else None)
  in
  let fuel = Option.value quantum ~default:fuel_per_step in
  let preempt = Option.map (fun _ -> fuel_per_step) quantum in
  (* In reclaim mode, promotions capture through the store's id allocator;
     sharing it keeps snapshot ids unique across originals and rebuilds. *)
  let ids =
    match store, domain with
    | Some st, _ -> Reclaim.snapshot_ids st
    | None, Some d -> d.ids
    | None, None -> Os.Snapshot.ids ()
  in
  (* The path's record in the store: the parent of its captures. *)
  let current_handle : Reclaim.handle option ref = ref None in

  (* The frame audit (see [run] in the interface): at every stop and at the
     end on a poisoned allocator, and at the end of a domain's run.
     Assumes the run's machines are the only users of its memory. *)
  let audited = Mem.Phys_mem.poisoning phys in
  let audits_end = audited || Option.is_some domain in
  (* The observers of a stop, checked once per run rather than at every
     stop: an unobserved run pays one test per stop. *)
  let observed = probe <> None || on_stop <> None || stress_every > 0 || audited in
  let first_exit = mode = `First_exit in
  let captured = ref [] in  (* this run's captures, pruned of the freed *)
  let note_capture snap = if audits_end then captured := snap :: !captured in
  let stops = ref 0 in
  let audit where =
    captured := List.filter (fun (s : Os.Snapshot.t) -> not s.freed) !captured;
    (* every unfreed snapshot the run holds, with its unfreed ancestors *)
    let live = Hashtbl.create 64 in
    let rec add (s : Os.Snapshot.t) =
      if not (s.freed || Hashtbl.mem live s.id) then begin
        Hashtbl.replace live s.id s;
        Option.iter add s.parent
      end
    in
    List.iter add !captured;
    Option.iter
      (fun st ->
        List.iter add (Option.to_list (Reclaim.anchor st) @ Reclaim.materialised st))
      store;
    let reachable visit =
      Array.iteri
        (fun i w ->
          (* an idle path's map dangles until its next entry ([Path]);
             outside the scope, machine 0 runs the program itself *)
          if Path.live w || (i = 0 && !scope = None) then
            Mem.Addr_space.iter_frames (Path.machine w).aspace
              (visit (Printf.sprintf "worker %d's map" i)))
        paths;
      Hashtbl.iter
        (fun id (s : Os.Snapshot.t) ->
          let label = Printf.sprintf "snapshot %d" id in
          Stdx.Ptmap.iter (fun _ -> visit label)
            (Mem.Addr_space.snapshot_map_for_debug s.mem))
        live
    in
    (* The extension refs: the snapshots' without a store, the unpinned
       entries' with one (the scope-opening path holds the pinned root's
       snapshot directly). *)
    let held =
      match store with
      | None -> Hashtbl.fold (fun _ (s : Os.Snapshot.t) n -> n + s.ext_refs) live 0
      | Some st -> Reclaim.held_refs st
    in
    let holds w =
      Path.live w
      &&
      match store, Path.origin w with
      | None, _ | Some _, Ext.Ref _ -> true
      | Some _, Ext.Snap _ -> false
    in
    (* the frontier's refs, and one per running path that holds one *)
    let owed =
      match !scope with
      | Some sc ->
        Array.fold_left (fun k w -> k + Bool.to_int (holds w))
          (sc.frontier.Frontier.length ()) paths
      | None -> 0
    in
    match Mem.Phys_mem.audit phys ~reachable with
    | Error detail -> raise (Audit_failed (where ^ ": " ^ detail))
    | Ok () when held <> owed ->
      raise
        (Audit_failed
           (Printf.sprintf "%s: %d extension refs held, %d owed" where held owed))
    | Ok () -> ()
  in

  let probe_resume (snap : Os.Snapshot.t) rax =
    match probe with
    | None -> ()
    | Some p -> p.Probe.resume ~snap:snap.id ~rax
  in
  let probe_set_rax v =
    match probe with None -> () | Some p -> p.Probe.set_rax v
  in

  let rounds = ref 0 in
  let opened = ref false in
  let busy_rounds = Array.make workers 0 in
  (* some path from [i] on runs; a loop, not [Array.exists], whose closure
     would be allocated at every path's end *)
  let rec running i = i < workers && (Path.live paths.(i) || running (i + 1)) in

  (* The run stops inside its scope, without a store: machine 0 keeps its
     map — the stopping path's, or the root's if that path was idle — and
     every other frame the scope holds is freed: the frontier's entries,
     the paths' tails and snapshots, their lineages and the root. *)
  let abandon sc =
    if not (Path.live path) then Path.restore path sc.root ~rax:0 ~depth:0;
    let free =
      Os.Snapshot.abandon ~phys ~keep:(Mem.Addr_space.snapshot machine.aspace)
    in
    let free_entry (e : Ext.t) =
      match e.parent with Ext.Snap s -> free s | Ext.Ref _ -> ()
    in
    (try
       while true do
         free_entry (sc.frontier.Frontier.pop ())
       done
     with Frontier.Empty -> ());
    List.iter free_entry (sc.frontier.Frontier.evicted ());
    Array.iter
      (fun w ->
        if w != path then Path.discard w;
        free (Path.abandon w))
      paths;
    free sc.root;
    scope := None
  in

  let finish outcome =
    (* extensions a bounded strategy dropped since the last schedule *)
    Option.iter (fun sc -> Path.evict path metrics sc.frontier) !scope;
    arm false;
    (match !scope with Some sc when store = None -> abandon sc | _ -> ());
    if audits_end then audit "end of run";
    (* Give back every frame the store still holds (the anchor, undrained
       payloads) once the machine has left the scope, before the memory's
       events are read, so the run's frees pair its allocations.  A run
       with a store stopped inside it keeps them: the machine's map still
       derives from the anchor. *)
    if !scope = None then Option.iter Reclaim.release_all store;
    M.add metrics N.vcpu_instructions (retired () - retired_before);
    M.merge ~into:metrics (M.sub (vcpu_counts ()) vcpu_before);
    M.merge ~into:metrics (M.sub (Mem.Phys_mem.registry phys) mem_before);
    { outcome;
      transcript = Buffer.contents transcript;
      terminals = Path.terminals terminals;
      rounds = !rounds;
      busy_rounds;
      metrics;
      stats = Stats.of_metrics metrics }
  in

  let resolve : Ext.payload -> Os.Snapshot.t = function
    | Ext.Snap s -> s
    | Ext.Ref h -> (
      match store with
      | Some st -> Reclaim.get st h
      | None -> invalid_arg "Explorer: managed extension without a store")
  in

  (* End [w]'s path, if one runs, and start the next extension on it, if
     there is one: one [Path.switch]. *)
  let rec start sc w =
    match sc.frontier.Frontier.pop () with
    | exception Frontier.Empty -> Path.retire w
    | (e : Ext.t) -> (
      let index = Frontier.popped e and depth = e.meta.Frontier.depth in
      match Path.switch w metrics ~resolve e.parent ~index ~depth with
      | snap ->
        probe_resume snap index;
        (match e.parent with
        | Ext.Ref h -> current_handle := Some h
        | Ext.Snap _ -> ());
        M.incr metrics N.search_extensions
      | exception ex ->
        (* Reconstruction failed (e.g. genuinely out of frames): this path
           dies; the search itself survives. *)
        Obs.Trace.instant metrics N.search_kills 0 0;
        Path.record w ~depth
          (Path_killed
             (Printf.sprintf "reconstruction failed: %s" (Printexc.to_string ex)))
          "";
        start sc w)
  in

  let track_extents sc =
    let frontier_len = sc.frontier.Frontier.length () in
    Obs.Trace.peak metrics N.search_max_frontier frontier_len;
    let lineage_len =
      Array.fold_left (fun k w -> k + Path.lineage_length w) 0 paths
    in
    M.peak metrics N.snapshot_max_live (frontier_len + lineage_len)
  in

  (* Everything a stop owes its observers before it is dispatched; called
     only when [observed]. *)
  let observe w ~retired0 stop =
    (match probe with
    | None -> ()
    | Some p ->
      p.Probe.eval ~retired:((Path.machine w).cpu.Cpu.retired - retired0) stop);
    (match on_stop with None -> () | Some f -> f (Path.machine w) stop);
    stress_tick ();
    if audited then begin
      incr stops;
      audit (Format.asprintf "stop %d (%a)" !stops Libos.pp_stop stop)
    end
  in
  let observe_crash w ~retired0 e =
    match probe with
    | None -> ()
    | Some p ->
      p.Probe.crash
        ~retired:((Path.machine w).cpu.Cpu.retired - retired0)
        (Printexc.to_string e)
  in

  (* Outside the scope: machine 0 runs the program, unarmed. *)
  let rec outside () =
    let retired0 = machine.cpu.Cpu.retired in
    match Path.run ~armed:false path metrics ~fuel:fuel_per_step with
    | exception e ->
      if observed then observe_crash path ~retired0 e;
      finish
        (Aborted
           (Printf.sprintf "crash outside a strategy scope: %s"
              (Printexc.to_string e)))
    | stop -> (
      if observed then observe path ~retired0 stop;
      match Path.outside path metrics stop with
      | `Scope strategy -> open_scope strategy
      | `Continue ->
        probe_set_rax 0;
        outside ()
      | `Exit status -> finish (Completed status)
      | `Abort message -> finish (Aborted message))

  and open_scope strategy =
    let chosen =
      match strategy_override with
      | Some s -> Some s
      | None -> strategy_of_id strategy
    in
    match chosen with
    | None -> finish (Aborted (Printf.sprintf "unknown strategy id %d" strategy))
    | Some _ when !opened && Option.is_some domain ->
      (* the other domains joined the first scope only *)
      finish (Aborted "second sys_guess_strategy scope")
    | Some strat ->
      let root = Path.open_scope path metrics ~ids in
      (match probe with
      | None -> ()
      | Some p ->
        p.Probe.set_rax 0;
        p.Probe.capture ~snap:root.Os.Snapshot.id;
        p.Probe.set_rax 1);
      current_handle := Option.map (fun st -> Reclaim.add_root st root) store;
      enter_scope root strat

  and enter_scope root strat =
    let frontier =
      match domain with
      | None -> make_frontier strat
      | Some d -> d.shard path strat root
    in
    let sc = { root; frontier } in
    note_capture root;
    opened := true;
    scope := Some sc;
    arm true;
    round sc

  and round sc =
    incr rounds;
    turn sc 0

  (* Path [i]'s turn: an idle path takes the next extension, a live one
     runs one quantum. *)
  and turn sc i =
    let w = paths.(i) in
    if not (Path.live w) then start sc w;
    if Path.live w then begin
      busy_rounds.(i) <- busy_rounds.(i) + 1;
      let retired0 = (Path.machine w).cpu.Cpu.retired in
      match Path.run w metrics ~fuel with
      | exception e ->
        if observed then observe_crash w ~retired0 e;
        crashed sc i w e
      | stop ->
        if observed then observe w ~retired0 stop;
        in_scope sc i w stop
    end
    else if running 0 then next sc i
    else close sc (* a domain that joined and found no work *)

  (* the turn after path [i]'s *)
  and next sc i = if i + 1 < workers then turn sc (i + 1) else round sc

  and in_scope sc i w stop =
    match Path.classify ?preempt w metrics stop with
    | Path.Scope _ -> halt sc (Some (Aborted "nested sys_guess_strategy"))
    | Path.Hinted ->
      probe_set_rax 0;
      next sc i
    | Path.Preempted -> (
      match domain with
      | Some d when d.stopped () -> halt sc None
      | _ -> next sc i)
    | Path.Terminal -> (
      match stop with
      | Libos.Exited { status } when first_exit ->
        halt sc (Some (Stopped_first_exit status))
      | _ -> finished sc i w)
    | Path.Branch n ->
      let snap, meta = Path.branch w metrics ~ids ~n in
      note_capture snap;
      (match probe with
      | None -> ()
      | Some p -> p.Probe.capture ~snap:snap.Os.Snapshot.id);
      (* Thread lineage in reclaim mode too: the store's explicit-free
         discipline ([Reclaim]) rides on the record parent chain. *)
      let payload =
        match store with
        | None -> Ext.Snap snap
        | Some st ->
          let parent =
            match !current_handle with
            | Some h -> h
            | None -> invalid_arg "Explorer: scope path without a handle"
          in
          Ext.Ref (Reclaim.add st ~parent ~depth:(Path.depth w) ~refs:n snap)
      in
      sc.frontier.Frontier.push_batch [ Frontier.guess payload ~count:n meta ];
      track_extents sc;
      (* the built-in strategies drop extensions only when pushed to *)
      Path.evict w metrics sc.frontier;
      if M.get metrics N.search_extensions_pushed > max_extensions then
        halt sc (Some (Aborted "extension budget exhausted"))
      else finished sc i w

  (* Supervision: an exception escaping guest evaluation (an injected
     worker crash, a genuine out-of-frames) kills the attempt, not the
     run.  The path's origin is re-entered under a bounded retry budget;
     a path that keeps crashing is quarantined as [Path_killed]. *)
  and crashed sc i w e =
    let retry () =
      let snap = Path.restart w ~resolve in
      probe_resume snap (Cpu.get (Path.machine w).cpu Reg.rax)
    in
    match Path.supervise w metrics ~budget:retry_budget ~retry e with
    | `Retried -> next sc i
    | `Quarantined -> finished sc i w

  (* [w]'s path is over: switch it to the next one.  Once no path runs,
     the frontier is empty too, and the scope is exhausted. *)
  and finished sc i w =
    start sc w;
    if Path.live w || running 0 then next sc i else close sc

  (* The scope ends on this machine: exhausted ([None]) or stopped ([Some
     o]).  Every domain waits here for the others; a stop, and a domain
     that joined the scope, end the run inside it. *)
  and halt sc o =
    match match domain with None -> o | Some d -> d.halt o with
    | Some o -> finish o
    | None -> leave sc

  and close sc = halt sc None

  (* The scope is exhausted: in the next round machine 0 restores the root
     (rax is 0 there, captured before it was set to 1) and leaves the
     scope. *)
  and leave sc =
    incr rounds;
    arm false;
    Path.enter path metrics sc.root ~rax:0 ~depth:0;
    (* the root was captured with rax already 0, the value the resumed
       program observes — no register override to record *)
    probe_resume sc.root (-1);
    scope := None;
    outside ()
  in
  match domain with
  | Some { joins = Some (root, strat); _ } -> enter_scope root strat
  | _ -> outside ()
