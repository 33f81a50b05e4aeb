module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module Frontier = Search.Frontier
module Probe = Record.Probe

type builtin =
  [ `Dfs
  | `Bfs
  | `Astar
  | `Sma of int
  | `Wastar of float
  | `Beam of int
  | `Dfs_bounded of int
  | `Random of int ]

type strategy = [ builtin | `Custom of (unit -> Ext.t Frontier.t) ]

type terminal_kind = Path.terminal_kind =
  | Exit of int
  | Fail
  | Path_killed of string

type terminal = Path.terminal = {
  kind : terminal_kind;
  output : string;
  depth : int;
}

type outcome =
  | Completed of int
  | Stopped_first_exit of int
  | Aborted of string

type result = {
  outcome : outcome;
  transcript : string;
  terminals : terminal list;
  stats : Stats.t;
}

type mode = [ `Run_to_completion | `First_exit ]

exception Audit_failed of string

type scope = { root : Snapshot.t; root_handle : Reclaim.handle option;
               frontier : Ext.t Frontier.t }

let builtin_frontier : builtin -> unit -> 'a Frontier.t = function
  | `Dfs -> Frontier.dfs
  | `Bfs -> Frontier.bfs
  | `Astar -> Frontier.astar
  | `Sma capacity -> Frontier.sma ~capacity
  | `Wastar weight -> Frontier.wastar ~weight
  | `Beam width -> Frontier.beam ~width
  | `Dfs_bounded max_depth -> Frontier.dfs_bounded ~max_depth
  | `Random seed -> Frontier.random ~seed

let make_frontier : strategy -> Ext.t Frontier.t = function
  | #builtin as s -> builtin_frontier s ()
  | `Custom make -> make ()

let strategy_of_id id : strategy option =
  if id = Os.Sys_abi.strategy_dfs then Some `Dfs
  else if id = Os.Sys_abi.strategy_bfs then Some `Bfs
  else if id = Os.Sys_abi.strategy_astar then Some `Astar
  else if id = Os.Sys_abi.strategy_sma then Some (`Sma 64)
  else if id = Os.Sys_abi.strategy_random then Some (`Random 42)
  else None

let run ?(mode = `Run_to_completion) ?(fuel_per_step = 50_000_000)
    ?(max_extensions = max_int) ?(retry_budget = 3) ?strategy_override
    ?tier_stress ?spill_threshold ?on_stop ?probe (machine : Libos.t) =
  let stats = Stats.create () in
  let mem_before = Mem.Mem_metrics.copy (Mem.Addr_space.metrics machine.aspace) in
  let retired_before = machine.cpu.Cpu.retired in
  let transcript = Buffer.create 256 in
  let terminals = ref [] in
  let scope : scope option ref = ref None in

  (* Memory-pressure integration: a bounded physical memory gets a tiered
     payload store, so snapshots can be demoted to compressed deltas when
     frames run out and promoted back (or, past a truncation, rebuilt by
     replay) when their extension is finally scheduled.  [tier_stress]
     forces the store on and exercises the tiers on an unbounded memory —
     the fuzz oracle's hammer. *)
  let phys = Mem.Addr_space.phys machine.aspace in
  let store =
    if Mem.Phys_mem.capacity phys > 0 || tier_stress <> None then begin
      let st = Reclaim.create ~fuel_per_step ?spill_threshold machine in
      Mem.Phys_mem.set_pressure_handler phys (Some (Reclaim.pressure_handler st));
      Some st
    end
    else None
  in
  (* Recording assumes snapshot ids in the log resolve to states the
     replayer has itself captured; a reclaim store rebuilds evicted
     payloads by replay under *fresh* ids the log has never seen. *)
  if probe <> None && store <> None then
    invalid_arg "Explorer: recording requires an unbounded in-memory store";
  (* Tier-stress hook: every [n]-th scheduler stop demotes every live
     payload (and compresses/spills immediately — stops are quiet points),
     and every 5[n]-th additionally truncates everything non-pinned so the
     replay fallback is exercised too.  Pure store operations: the running
     machine is never touched. *)
  let stress_clock = ref 0 in
  let stress_tick () =
    match (tier_stress, store) with
    | Some n, Some st when n > 0 ->
      incr stress_clock;
      if !stress_clock mod n = 0 then begin
        ignore (Reclaim.demote_all st);
        Reclaim.flush_pending st;
        if !stress_clock mod (5 * n) = 0 then ignore (Reclaim.evict_all st)
      end
    | _ -> ()
  in
  (* Reclaim mode manages payload lifetime itself (see [Reclaim]), so the
     snapshot refcounts run only in the plain in-memory scheduler. *)
  let path : Ext.t Path.t =
    Path.create ~refcount:(store = None) ~transcript ~terminals machine
  in
  (* In reclaim mode, replays capture through the store's id allocator;
     sharing it keeps snapshot ids unique across originals and rebuilds. *)
  let ids =
    match store with
    | Some st -> Reclaim.snapshot_ids st
    | None -> Snapshot.ids ()
  in
  (* The path's record in the store: the parent of its captures. *)
  let current_handle : Reclaim.handle option ref = ref None in
  let current_choice = ref 1 in

  (* The frame audit (see [run] in the interface), on a poisoned allocator
     only.  Assumes the run's machine is the only user of its memory. *)
  let audited = Mem.Phys_mem.poisoning phys in
  let captured = ref [] in  (* this run's captures, pruned of the freed *)
  let note_capture snap = if audited then captured := snap :: !captured in
  let stops = ref 0 in
  let audit where =
    captured := List.filter (fun (s : Snapshot.t) -> not s.freed) !captured;
    (* every unfreed snapshot the run holds, with its unfreed ancestors *)
    let live = Hashtbl.create 64 in
    let rec add (s : Snapshot.t) =
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
      Mem.Addr_space.iter_frames machine.aspace (visit "the current map");
      Hashtbl.iter
        (fun id (s : Snapshot.t) ->
          let label = Printf.sprintf "snapshot %d" id in
          Stdx.Ptmap.iter (fun _ -> visit label)
            (Mem.Addr_space.snapshot_map_for_debug s.mem))
        live
    in
    let held = Hashtbl.fold (fun _ (s : Snapshot.t) n -> n + s.ext_refs) live 0 in
    let owed =
      match !scope with Some sc -> sc.frontier.Frontier.length () + 1 | None -> 0
    in
    match Mem.Phys_mem.audit phys ~reachable with
    | Error detail -> raise (Audit_failed (where ^ ": " ^ detail))
    | Ok () when store = None && held <> owed ->
      raise
        (Audit_failed
           (Printf.sprintf "%s: %d extension refs held, %d owed" where held owed))
    | Ok () -> ()
  in

  let probe_resume snap rax =
    match probe with
    | None -> ()
    | Some p -> p.Probe.resume ~snap:snap.Snapshot.id ~rax
  in
  let probe_set_rax v =
    match probe with None -> () | Some p -> p.Probe.set_rax v
  in

  let finish outcome =
    (* extensions a bounded strategy dropped since the last schedule *)
    Option.iter (fun sc -> Path.evict path stats sc.frontier) !scope;
    if audited then audit "end of run";
    if Obs.Trace.enabled () then begin
      (match Libos.icache_counts machine with
      | Some (misses, slow) ->
        Obs.Trace.counter Obs.Names.icache_misses misses;
        Obs.Trace.counter Obs.Names.icache_slow slow
      | None -> ());
      (match Libos.block_counts machine with
      | Some (fuses, hits, splits) ->
        Obs.Trace.counter Obs.Names.block_fuse fuses;
        Obs.Trace.counter Obs.Names.block_hit hits;
        Obs.Trace.counter Obs.Names.block_split splits
      | None -> ());
      Obs.Trace.counter Obs.Names.instructions
        (machine.cpu.Cpu.retired - retired_before)
    end;
    stats.instructions <- machine.cpu.Cpu.retired - retired_before;
    let mem_delta =
      Mem.Mem_metrics.diff (Mem.Addr_space.metrics machine.aspace) mem_before
    in
    let mem_delta =
      (* Replays re-execute work the original run already performed and
         accounted; reporting it again would make eviction look like extra
         guest progress. *)
      match store with
      | None -> mem_delta
      | Some st ->
        stats.instructions <-
          stats.instructions - Reclaim.replayed_instructions st;
        stats.payload_evictions <- Reclaim.evictions st;
        stats.demotions <- Reclaim.demotions st;
        stats.promotions <- Reclaim.promotions st;
        stats.spills <- Reclaim.spills st;
        stats.spill_loads <- Reclaim.spill_loads st;
        stats.replays <- Reclaim.replays st;
        stats.replay_fallbacks <- Reclaim.replay_fallbacks st;
        stats.replayed_instructions <- Reclaim.replayed_instructions st;
        Mem.Mem_metrics.diff mem_delta (Reclaim.suppressed_mem st)
    in
    Mem.Mem_metrics.add stats.mem mem_delta;
    Option.iter Reclaim.close store;
    { outcome;
      transcript = Buffer.contents transcript;
      terminals = List.rev !terminals;
      stats }
  in

  let resolve (ext : Ext.t) =
    match ext.payload with
    | Ext.Snap s -> s
    | Ext.Ref h -> (
      match store with
      | Some st -> Reclaim.get st h
      | None -> invalid_arg "Explorer: managed extension without a store")
  in

  (* Retire the finished path and start the next extension; when the scope
     is exhausted, restore the root instead (rax is 0 there, captured
     before it was set to 1) and leave the scope. *)
  let rec schedule sc =
    Path.evict path stats sc.frontier;
    Path.retire path;
    match sc.frontier.Frontier.pop () with
    | Some (ext : Ext.t) -> (
      match resolve ext with
      | snap ->
        Path.enter path stats snap ~origin:ext ~rax:ext.index
          ~depth:ext.meta.Frontier.depth;
        probe_resume snap ext.index;
        current_handle :=
          (match ext.payload with Ext.Ref h -> Some h | Ext.Snap _ -> None);
        current_choice := ext.index;
        stats.extensions_evaluated <- stats.extensions_evaluated + 1
      | exception e ->
        (* Reconstruction failed (e.g. genuinely out of frames): this path
           dies; the search itself survives. *)
        stats.kills <- stats.kills + 1;
        Path.record path ~depth:ext.meta.Frontier.depth
          (Path_killed
             (Printf.sprintf "reconstruction failed: %s" (Printexc.to_string e)))
          "";
        schedule sc)
    | None ->
      Path.enter path stats sc.root ~rax:0 ~depth:0;
      (* the root was captured with rax already 0, the value the resumed
         program observes — no register override to record *)
      probe_resume sc.root (-1);
      scope := None
  in

  let track_extents sc =
    let frontier_len = sc.frontier.Frontier.length () in
    if Obs.Trace.enabled () then
      Obs.Trace.counter Obs.Names.frontier_len frontier_len;
    stats.max_frontier <- max stats.max_frontier frontier_len;
    let lineage_len =
      match store with
      | Some _ ->
        (* managed captures carry no parent link (eviction must be able to
           free ancestors), so count the path itself *)
        Path.depth path + 1
      | None -> Path.lineage_length path
    in
    stats.max_live_snapshots <- max stats.max_live_snapshots (frontier_len + lineage_len)
  in

  let rec open_scope strategy =
    let chosen =
      match strategy_override with
      | Some s -> Some s
      | None -> strategy_of_id strategy
    in
    match chosen with
    | None -> finish (Aborted (Printf.sprintf "unknown strategy id %d" strategy))
    | Some strat ->
      let root = Path.open_scope path stats ~ids in
      note_capture root;
      (match probe with
      | None -> ()
      | Some p ->
        p.Probe.set_rax 0;
        p.Probe.capture ~snap:root.Snapshot.id;
        p.Probe.set_rax 1);
      let root_handle = Option.map (fun st -> Reclaim.add_root st root) store in
      scope := Some { root; root_handle; frontier = make_frontier strat };
      current_handle := root_handle;
      current_choice := 1;
      loop ()

  and in_scope sc stop =
    match Path.classify path stats stop with
    | Path.Scope _ -> finish (Aborted "nested sys_guess_strategy")
    | Path.Hinted ->
      probe_set_rax 0;
      loop ()
    | Path.Preempted -> loop ()
    | Path.Terminal (Exit status) when mode = `First_exit ->
      finish (Stopped_first_exit status)
    | Path.Terminal _ ->
      schedule sc;
      loop ()
    | Path.Branch n ->
      let snap, meta = Path.branch path stats ~ids ~n in
      note_capture snap;
      (match probe with
      | None -> ()
      | Some p -> p.Probe.capture ~snap:snap.Snapshot.id);
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
          Ext.Ref
            (Reclaim.add st ~parent ~choice:!current_choice
               ~depth:(Path.depth path) snap)
      in
      sc.frontier.Frontier.push_batch
        (List.init n (fun index -> meta, { Ext.payload; index; meta }));
      track_extents sc;
      if stats.extensions_pushed > max_extensions then
        finish (Aborted "extension budget exhausted")
      else begin
        schedule sc;
        loop ()
      end

  and loop () =
    let eval_retired0 = machine.cpu.Cpu.retired in
    let step = Path.run path ~fuel:fuel_per_step ~span:Obs.Names.explorer_eval in
    (match probe with
    | None -> ()
    | Some p -> (
      let retired = machine.cpu.Cpu.retired - eval_retired0 in
      match step with
      | Ok stop -> p.Probe.eval ~retired stop
      | Error e -> p.Probe.crash ~retired (Printexc.to_string e)));
    match step with
    | Error e -> crashed e
    | Ok stop -> (
      (match on_stop with None -> () | Some f -> f machine stop);
      stress_tick ();
      if audited then begin
        incr stops;
        audit (Format.asprintf "stop %d (%a)" !stops Libos.pp_stop stop)
      end;
      match !scope with
      | Some sc -> in_scope sc stop
      | None -> (
        match Path.outside path stop with
        | `Scope strategy -> open_scope strategy
        | `Continue ->
          probe_set_rax 0;
          loop ()
        | `Exit status -> finish (Completed status)
        | `Abort message -> finish (Aborted message)))

  (* Supervision: an exception escaping guest evaluation (an injected
     worker crash, a genuine out-of-frames) kills the attempt, not the
     run.  The path's origin is re-entered under a bounded retry budget;
     a path that keeps crashing is quarantined as [Path_killed]. *)
  and crashed e =
    match !scope with
    | None ->
      finish
        (Aborted
           (Printf.sprintf "crash outside a strategy scope: %s"
              (Printexc.to_string e)))
    | Some sc -> (
      let retry () =
        let snap = Path.restart path ~root:sc.root ~resolve in
        probe_resume snap (Cpu.get machine.cpu Reg.rax)
      in
      match Path.supervise path stats ~budget:retry_budget ~retry e with
      | `Retried -> loop ()
      | `Quarantined ->
        schedule sc;
        loop ())
  in
  loop ()

let run_image ?mode ?fuel_per_step ?max_extensions ?retry_budget ?capacity
    ?poison ?strategy_override ?tier_stress ?spill_threshold ?(files = [])
    ?stdin image =
  let phys = Mem.Phys_mem.create ?capacity ?poison () in
  let machine = Libos.boot phys image in
  List.iter (fun (path, content) -> Libos.add_file machine ~path content) files;
  Option.iter (Libos.set_stdin machine) stdin;
  run ?mode ?fuel_per_step ?max_extensions ?retry_budget ?strategy_override
    ?tier_stress ?spill_threshold machine
