module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module Frontier = Search.Frontier
module Probe = Record.Probe

type strategy =
  [ `Dfs
  | `Bfs
  | `Astar
  | `Sma of int
  | `Wastar of float
  | `Beam of int
  | `Dfs_bounded of int
  | `Random of int
  | `Custom of (unit -> Ext.t Frontier.t) ]

type terminal_kind =
  | Exit of int
  | Fail
  | Path_killed of string

type terminal = {
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

type scope = { root : Snapshot.t; root_handle : Reclaim.handle option;
               frontier : Ext.t Frontier.t }

let make_frontier : strategy -> Ext.t Frontier.t = function
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

let reason_to_string r = Format.asprintf "%a" Libos.pp_reason r

let run ?(mode = `Run_to_completion) ?(fuel_per_step = 50_000_000)
    ?(max_extensions = max_int) ?(retry_budget = 3) ?strategy_override
    ?tier_stress ?spill_threshold ?on_stop ?probe (machine : Libos.t) =
  let stats = Stats.create () in
  let mem_before = Mem.Mem_metrics.copy (Mem.Addr_space.metrics machine.aspace) in
  let retired_before = machine.cpu.Cpu.retired in
  let transcript = Buffer.create 256 in
  let terminals = ref [] in
  let scope : scope option ref = ref None in
  let marker = ref (Libos.stdout_chunks machine) in
  let pending_hint = ref 0 in
  let current_depth = ref 0 in
  let current_snap : Snapshot.t option ref = ref None in

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
  (* Eager snapshot release runs only in the plain in-memory scheduler:
     reclaim mode manages payload lifetime itself (see [Reclaim]), and a
     non-recycling physical memory makes the whole discipline a no-op. *)
  let recycle_snaps = store = None && Mem.Phys_mem.recycling phys in
  (* The address-space epoch recorded right after the most recent restore
     (or root capture): if it is still current when the path ends, nothing
     captured the map in between and the segment's COW tail is private —
     the precondition of [Addr_space.discard_segment]. *)
  let segment_epoch = ref (-1) in
  (* In reclaim mode, replays capture through the store's id allocator;
     sharing it keeps snapshot ids unique across originals and rebuilds. *)
  let ids =
    match store with
    | Some st -> Reclaim.snapshot_ids st
    | None -> Snapshot.ids ()
  in
  (* The origin of the path being evaluated: the popped extension (or the
     root path), plus the retry count supervision has spent on it. *)
  let current_origin : Ext.t option ref = ref None in
  let current_handle : Reclaim.handle option ref = ref None in
  let current_choice = ref 1 in
  let retries = ref 0 in

  (* Move stdout chunks produced since the last scheduling point into the
     global transcript; returns them as this path's attributed output. *)
  let harvest () =
    let cur = Libos.stdout_chunks machine in
    let rec collect acc l =
      if l == !marker then acc
      else
        match l with
        | [] -> acc
        | chunk :: rest -> collect (chunk :: acc) rest
    in
    let chunks = collect [] cur in
    marker := cur;
    let text = String.concat "" chunks in
    Buffer.add_string transcript text;
    text
  in

  let record kind output =
    terminals := { kind; output; depth = !current_depth } :: !terminals
  in

  let finish outcome =
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

  (* Schedule the next extension; [`Continue] means the machine is ready to
     resume, [`Scope_done] that the scope was exhausted and the root
     restored (rax is 0 there, captured before it was set to 1). *)
  let rec schedule sc =
    let dropped = sc.frontier.Frontier.evicted () in
    stats.evicted <- stats.evicted + List.length dropped;
    (* An evicted extension will never be evaluated: give its ref back.
       Safe even before restoring away — any snapshot on the running
       path's lineage is pinned by a live child or the unreleased ref of
       the path itself, so [try_free] cannot touch it. *)
    if recycle_snaps then
      List.iter
        (fun (e : Ext.t) ->
          match e.Ext.payload with
          | Ext.Snap s -> Snapshot.release_ext ~phys s
          | Ext.Ref _ -> ())
        dropped;
    let prev = !current_snap in
    (* Free the finished segment's COW tail while the map still holds it,
       then drop the finished path's ref on its origin, then restore.  The
       discard must come first (it diffs against the live map); the origin
       release must come before the next pop's [sole_extension] check, or
       the previous sibling's still-held running ref (and its chain of
       live descendants) would mask every last-extension restore and the
       adopting fast path could never trigger.  Releasing before the
       restore is sound: the freed deltas are unreachable from every live
       snapshot, and nothing reads through the dangling map between the
       release and the restore that replaces it. *)
    let discard_prev () =
      (* Runs in reclaim mode too (the store's explicit-free discipline
         covers captured records but not the unfrozen tail of a finished
         segment); only a non-recycling allocator makes it a no-op. *)
      if Mem.Phys_mem.recycling phys then
        match prev with
        | Some p when Mem.Addr_space.epoch machine.aspace = !segment_epoch ->
          ignore
            (Mem.Addr_space.discard_segment machine.aspace
               ~base:p.Snapshot.mem)
        | _ -> ()
    in
    let release_prev () =
      if recycle_snaps then
        match prev with
        | Some p -> Snapshot.release_ext ~phys p
        | None -> ()
    in
    match sc.frontier.Frontier.pop () with
    | Some (ext : Ext.t) -> (
      (* Discard before resolving: a reconstruction (promotion or replay)
         clobbers the machine and bumps the epoch, which would leak the
         finished segment's COW tail.  Sound because every
         resolve path that touches the machine starts with a full restore
         and nothing reads through the outgoing map in between. *)
      discard_prev ();
      match resolve ext with
      | snap ->
        release_prev ();
        if recycle_snaps && Snapshot.sole_extension snap then begin
          (* Last restore of this snapshot: adopt its frames into the new
             generation instead of COWing them all over again — the DFS
             tail-child fast path.  [snap == prev] (the machine is parked
             on the snapshot being re-popped, as between failing leaf
             siblings) is fine: the popped extension's own ref kept
             [try_free] away, and after this restore the snapshot is
             never restored again. *)
          Snapshot.restore_adopting machine snap;
          stats.adopting_restores <- stats.adopting_restores + 1
        end
        else Snapshot.restore machine snap;
        segment_epoch := Mem.Addr_space.epoch machine.aspace;
        marker := Libos.stdout_chunks machine;
        Cpu.set machine.cpu Reg.rax ext.index;
        (match probe with
        | None -> ()
        | Some p -> p.Probe.resume ~snap:snap.Snapshot.id ~rax:ext.index);
        current_depth := ext.meta.Frontier.depth;
        current_snap := Some snap;
        current_origin := Some ext;
        current_handle :=
          (match ext.payload with Ext.Ref h -> Some h | Ext.Snap _ -> None);
        current_choice := ext.index;
        retries := 0;
        stats.extensions_evaluated <- stats.extensions_evaluated + 1;
        stats.restores <- stats.restores + 1
      | exception e ->
        (* Reconstruction failed (e.g. genuinely out of frames): this path
           dies; the search itself survives. *)
        current_depth := ext.meta.Frontier.depth;
        stats.kills <- stats.kills + 1;
        record
          (Path_killed
             (Printf.sprintf "reconstruction failed: %s" (Printexc.to_string e)))
          "";
        schedule sc)
    | None ->
      discard_prev ();
      release_prev ();
      Snapshot.restore machine sc.root;
      (* the root was captured with rax already 0, the value the resumed
         program observes — no register override to record *)
      (match probe with
      | None -> ()
      | Some p -> p.Probe.resume ~snap:sc.root.Snapshot.id ~rax:(-1));
      segment_epoch := Mem.Addr_space.epoch machine.aspace;
      marker := Libos.stdout_chunks machine;
      current_depth := 0;
      current_snap := None;
      current_origin := None;
      retries := 0;
      stats.restores <- stats.restores + 1;
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
        !current_depth + 1
      | None -> (
        match !current_snap with
        | None -> 0
        | Some s -> List.length (Snapshot.lineage s))
    in
    stats.max_live_snapshots <- max stats.max_live_snapshots (frontier_len + lineage_len)
  in

  let rec loop () =
    let eval_retired0 = machine.cpu.Cpu.retired in
    let step =
      if Obs.Trace.enabled () then begin
        let sid =
          match !current_snap with Some s -> s.Snapshot.id | None -> -1
        in
        let r0 = machine.cpu.Cpu.retired in
        Obs.Trace.span_begin ~a:sid Obs.Names.explorer_eval;
        let res =
          try `Stop (Libos.run machine ~fuel:fuel_per_step) with e -> `Crash e
        in
        Obs.Trace.span_end ~a:sid
          ~b:(machine.cpu.Cpu.retired - r0)
          Obs.Names.explorer_eval;
        (match res with
        | `Stop stop -> Obs.Trace.instant (Libos.stop_trace_name stop)
        | `Crash _ -> ());
        res
      end
      else try `Stop (Libos.run machine ~fuel:fuel_per_step) with e -> `Crash e
    in
    (match probe with
    | None -> ()
    | Some p -> (
      let retired = machine.cpu.Cpu.retired - eval_retired0 in
      match step with
      | `Stop stop -> p.Probe.eval ~retired stop
      | `Crash e -> p.Probe.crash ~retired (Printexc.to_string e)));
    match step with
    | `Crash e -> crashed e
    | `Stop stop ->
    (match on_stop with None -> () | Some f -> f machine stop);
    stress_tick ();
    match stop with
    | Libos.Guess_strategy { strategy } -> (
      match !scope with
      | Some _ -> finish (Aborted "nested sys_guess_strategy")
      | None -> (
        let chosen =
          match strategy_override with
          | Some s -> Some s
          | None -> strategy_of_id strategy
        in
        match chosen with
        | None -> finish (Aborted (Printf.sprintf "unknown strategy id %d" strategy))
        | Some strat ->
          ignore (harvest ());
          (* The root must observe 0 when restored after exhaustion, and 1
             on the exploring path right now. *)
          Cpu.set machine.cpu Reg.rax 0;
          (match probe with None -> () | Some p -> p.Probe.set_rax 0);
          let root = Snapshot.capture ~ids ~depth:0 machine in
          (match probe with
          | None -> ()
          | Some p -> p.Probe.capture ~snap:root.Snapshot.id);
          (* one ref for the scope-opening path itself, so the uniform
             release-on-reschedule in [schedule] balances *)
          if recycle_snaps then Snapshot.retain root;
          segment_epoch := Mem.Addr_space.epoch machine.aspace;
          stats.snapshots_created <- stats.snapshots_created + 1;
          let root_handle = Option.map (fun st -> Reclaim.add_root st root) store in
          scope := Some { root; root_handle; frontier = make_frontier strat };
          current_snap := Some root;
          current_depth := 0;
          current_origin := None;
          current_handle := root_handle;
          current_choice := 1;
          retries := 0;
          Cpu.set machine.cpu Reg.rax 1;
          (match probe with None -> () | Some p -> p.Probe.set_rax 1);
          loop ()))
    | Libos.Guess { n } -> (
      match !scope with
      | None -> finish (Aborted "sys_guess outside a strategy scope")
      | Some sc ->
        ignore (harvest ());
        if n <= 0 then begin
          stats.fails <- stats.fails + 1;
          record Fail "";
          schedule sc;
          loop ()
        end
        else begin
          (* Thread lineage in reclaim mode too: the store's explicit-free
             discipline ([Reclaim]) rides on the record parent chain. *)
          let snap =
            Snapshot.capture ~ids ?parent:!current_snap
              ~depth:!current_depth machine
          in
          (match probe with
          | None -> ()
          | Some p -> p.Probe.capture ~snap:snap.Snapshot.id);
          stats.guesses <- stats.guesses + 1;
          stats.snapshots_created <- stats.snapshots_created + 1;
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
                   ~depth:!current_depth snap)
          in
          let meta = { Frontier.depth = !current_depth + 1; hint = !pending_hint } in
          pending_hint := 0;
          let batch =
            List.init n (fun index -> meta, { Ext.payload; index; meta })
          in
          sc.frontier.Frontier.push_batch batch;
          if recycle_snaps then Snapshot.retain ~n snap;
          stats.extensions_pushed <- stats.extensions_pushed + n;
          track_extents sc;
          if stats.extensions_pushed > max_extensions then
            finish (Aborted "extension budget exhausted")
          else begin
            schedule sc;
            loop ()
          end
        end)
    | Libos.Guess_fail -> (
      match !scope with
      | None -> finish (Aborted "sys_guess_fail outside a strategy scope")
      | Some sc ->
        let output = harvest () in
        stats.fails <- stats.fails + 1;
        record Fail output;
        schedule sc;
        loop ())
    | Libos.Guess_hint { dist } ->
      pending_hint := dist;
      Cpu.set machine.cpu Reg.rax 0;
      (match probe with None -> () | Some p -> p.Probe.set_rax 0);
      loop ()
    | Libos.Exited { status } -> (
      let output = harvest () in
      match !scope with
      | None -> finish (Completed status)
      | Some sc -> (
        stats.exits <- stats.exits + 1;
        record (Exit status) output;
        match mode with
        | `First_exit -> finish (Stopped_first_exit status)
        | `Run_to_completion ->
          schedule sc;
          loop ()))
    | Libos.Killed reason -> (
      let output = harvest () in
      match !scope with
      | None -> finish (Aborted (reason_to_string reason))
      | Some sc ->
        stats.kills <- stats.kills + 1;
        record (Path_killed (reason_to_string reason)) output;
        schedule sc;
        loop ())

  (* Supervision: an exception escaping guest evaluation (an injected
     worker crash, a genuine out-of-frames) kills the attempt, not the
     run.  The path's origin is re-scheduled under a bounded retry budget;
     a path that keeps crashing is quarantined as [Path_killed]. *)
  and crashed e =
    match !scope with
    | None ->
      finish
        (Aborted
           (Printf.sprintf "crash outside a strategy scope: %s"
              (Printexc.to_string e)))
    | Some sc ->
      let origin_adopted =
        recycle_snaps
        && (match !current_snap with
           | Some s -> Snapshot.adopted s
           | None -> false)
      in
      if origin_adopted then
        (* The origin was restored adopting: its frames have changed in
           place under the crashed attempt, so it cannot be restored
           again.  Straight to quarantine, no retries. *)
        quarantine sc e
      else if !retries < retry_budget - 1 then begin
        incr retries;
        stats.requeues <- stats.requeues + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.instant ~a:!retries Obs.Names.sched_requeue;
        (* the crashed attempt's COW tail dies here; free it before the
           re-restore if no capture froze it *)
        if Mem.Phys_mem.recycling phys then
          (match !current_snap with
          | Some p when Mem.Addr_space.epoch machine.aspace = !segment_epoch
            ->
            ignore
              (Mem.Addr_space.discard_segment machine.aspace
                 ~base:p.Snapshot.mem)
          | _ -> ());
        match
          (try
             `Ok
               (match !current_origin with
               | Some ext ->
                 let snap = resolve ext in
                 Snapshot.restore machine snap;
                 (* a reconstruction may have rebuilt the origin as a new
                    record: later captures must name it as their parent *)
                 current_snap := Some snap;
                 marker := Libos.stdout_chunks machine;
                 Cpu.set machine.cpu Reg.rax ext.index;
                 (match probe with
                 | None -> ()
                 | Some p ->
                   p.Probe.resume ~snap:snap.Snapshot.id ~rax:ext.index)
               | None ->
                 (* the scope-opening path restarts from the root with the
                    exploring value of rax *)
                 Snapshot.restore machine sc.root;
                 marker := Libos.stdout_chunks machine;
                 Cpu.set machine.cpu Reg.rax 1;
                 (match probe with
                 | None -> ()
                 | Some p -> p.Probe.resume ~snap:sc.root.Snapshot.id ~rax:1))
           with e' -> `Err e')
        with
        | `Ok () ->
          segment_epoch := Mem.Addr_space.epoch machine.aspace;
          loop ()
        | `Err e' -> quarantine sc e'
      end
      else quarantine sc e

  and quarantine sc e =
    if Obs.Trace.enabled () then Obs.Trace.instant Obs.Names.sched_quarantine;
    stats.quarantined <- stats.quarantined + 1;
    stats.kills <- stats.kills + 1;
    record
      (Path_killed
         (Printf.sprintf "crash: %s (quarantined after %d attempts)"
            (Printexc.to_string e) retry_budget))
      "";
    schedule sc;
    loop ()
  in
  loop ()

let run_image ?mode ?fuel_per_step ?max_extensions ?retry_budget ?capacity
    ?recycle ?poison ?strategy_override ?tier_stress ?spill_threshold
    ?(files = []) ?stdin image =
  let phys = Mem.Phys_mem.create ?capacity ?recycle ?poison () in
  let machine = Libos.boot phys image in
  List.iter (fun (path, content) -> Libos.add_file machine ~path content) files;
  Option.iter (Libos.set_stdin machine) stdin;
  run ?mode ?fuel_per_step ?max_extensions ?retry_budget ?strategy_override
    ?tier_stress ?spill_threshold machine
