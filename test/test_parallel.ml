(* Multi-worker exploration — the cooperative rounds of
   [Explorer.run_image ~workers] and [Parallel]'s domains: same answers as
   the sequential scheduler, real makespan scaling, cross-worker isolation
   and sharing. *)

module Parallel = Core.Parallel
module Explorer = Core.Explorer
module Abi = Os.Sys_abi
module R = Isa.Reg
module Wl_common = Workloads.Wl_common
open Isa.Asm

module M = Obs.Metrics
module N = Obs.Names
let check = Alcotest.check

(* The cooperative scheduler: [workers] machines in rounds of [quantum]. *)
let coop ?(workers = 4) ?(quantum = 2000) ?mode ?fuel_per_step ?max_extensions
    ?retry_budget ?faults ?strategy_override image =
  Explorer.run_image ~workers ~quantum ?mode ?fuel_per_step ?max_extensions
    ?retry_budget ?faults ?strategy_override image

let lines transcript =
  List.sort compare
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' transcript))

let solutions (r : Explorer.result) = lines r.transcript
let dsolutions (r : Parallel.result) = lines r.transcript

let outcome_status = function
  | Explorer.Completed s -> s
  | Explorer.Stopped_first_exit _ -> Alcotest.fail "unexpected first-exit"
  | Explorer.Aborted m -> Alcotest.failf "aborted: %s" m

let completed (r : Explorer.result) = outcome_status r.outcome
let dcompleted (r : Parallel.result) = outcome_status r.outcome

let same_solutions_any_worker_count () =
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  List.iter
    (fun workers ->
      let r = coop ~workers (Workloads.Nqueens.program ~n:6) in
      check Alcotest.int "completed" 0 (completed r);
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "solutions with %d workers" workers)
        expected (solutions r))
    [ 1; 2; 3; 8 ]

let counting_tree_all_leaves () =
  let r = coop ~workers:4 (Workloads.Counting.program ~depth:5 ~branch:3) in
  check Alcotest.int "completed" 0 (completed r);
  check Alcotest.int "all leaves" 243 r.Explorer.stats.Core.Stats.fails;
  check Alcotest.int "all guesses" 121 (M.get r.Explorer.metrics N.search_guesses)

let makespan_shrinks_with_workers () =
  let rounds workers =
    let p =
      { Workloads.Locality.depth = 4; branch = 2; touch_pages = 1; work = 500;
        arena_pages = 4 }
    in
    let r = coop ~workers ~quantum:1000 (Workloads.Locality.program p) in
    check Alcotest.int "leaves" 16 r.Explorer.stats.Core.Stats.fails;
    r.Explorer.rounds
  in
  let r1 = rounds 1 and r4 = rounds 4 in
  check Alcotest.bool
    (Printf.sprintf "4 workers at least 2x faster (%d vs %d rounds)" r1 r4)
    true
    (r4 * 2 <= r1)

let total_work_is_worker_independent () =
  let instructions workers =
    let r = coop ~workers (Workloads.Counting.program ~depth:6 ~branch:2) in
    r.Explorer.stats.Core.Stats.instructions
  in
  check Alcotest.int "no duplicated exploration" (instructions 1) (instructions 5)

let first_exit_mode () =
  let image = Workloads.Subset_sum.program ~target:21 [ 1; 2; 4; 8; 16 ] in
  let r = coop ~workers:4 ~mode:`First_exit image in
  match r.Explorer.outcome with
  | Explorer.Stopped_first_exit 0 -> ()
  | _ -> Alcotest.fail "expected first exit"

let shared_counter_across_workers () =
  (* every leaf of a 2^4 tree increments a shared page; with 4 workers the
     increments come from different virtual CPUs but land in one frame *)
  let image =
    assemble ~entry:"main"
      ([ label "main"; mov R.rdi (i 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.r15 (r R.rax); mov R.rdi (r R.rax); add R.rdi (i 4096) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.rdi (r R.r15); mov R.rsi (i 8) ]
      @ Wl_common.syscall3 ~number:Abi.sys_share
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after"; mov R.r12 (i 4) ]
      @ [ label "step"; cmp R.r12 (i 0); jle "leaf" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ dec R.r12; jmp "step"; label "leaf";
          ld R.rcx (R.r15 @+ 0); inc R.rcx; st (R.r15 @+ 0) R.rcx ]
      @ Wl_common.sys_guess_fail
      @ [ label "after"; ld R.rdi (R.r15 @+ 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_exit)
  in
  let r = coop ~workers:4 ~quantum:500 image in
  check Alcotest.int "16 leaves counted across 4 workers" 16 (completed r)

let isolation_between_workers () =
  (* each path writes a distinct byte to its private data page then checks
     it; corruption from a sibling worker would exit non-zero *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:8
      @ [ mov R.rcx (r R.rax);
          movl R.r8 "slot";
          st (R.r8 @+ 0) R.rcx;
          (* spin a little so siblings interleave *)
          mov R.r10 (i 500);
          label "spin";
          dec R.r10;
          jne "spin";
          ld R.rdx (R.r8 @+ 0);
          cmp R.rdx (r R.rcx);
          jne "corrupt" ]
      @ Wl_common.sys_guess_fail
      @ [ label "corrupt" ]
      @ Wl_common.sys_exit ~status:99
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ align 4096; label "slot"; zeros 8 ])
  in
  let r = coop ~workers:8 ~quantum:100 image in
  check Alcotest.int "no cross-worker corruption" 0 (completed r);
  check Alcotest.int "no path saw corruption" 0 (M.get r.Explorer.metrics N.search_exits)

let busy_rounds_reported () =
  let r = coop ~workers:3 (Workloads.Counting.program ~depth:4 ~branch:2) in
  check Alcotest.int "per-worker rows" 3 (Array.length r.Explorer.busy_rounds);
  Array.iter
    (fun b -> check Alcotest.bool "bounded by makespan" true (b <= r.Explorer.rounds))
    r.Explorer.busy_rounds

(* {1 Domains} *)

let dconfig ?(workers = 4) ?(quantum = 2000) () =
  { Parallel.default_config with Parallel.workers; quantum }

(* One engine, one behaviour: a single domain runs Explorer's loop, so it
   reproduces [Explorer.run_image] exactly — transcript, terminals in
   order, and counts. *)
let one_domain_is_the_explorer ?strategy_override name image =
  let e = Explorer.run_image ?strategy_override image in
  let d =
    Parallel.run ~config:{ (dconfig ~workers:1 ()) with strategy_override } image
  in
  check Alcotest.string (name ^ ": transcript") e.transcript d.transcript;
  check Alcotest.bool (name ^ ": terminals, in order") true
    (e.terminals = d.terminals);
  let counts metrics =
    List.map (M.get metrics)
      N.[ search_fails; search_exits; search_guesses; snapshot_restores;
          snapshot_captures; search_extensions ]
  in
  check Alcotest.(list int) (name ^ ": counts") (counts e.metrics) (counts d.metrics)

let domains_same_solutions () =
  one_domain_is_the_explorer "queens(6)" (Workloads.Nqueens.program ~n:6);
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  List.iter
    (fun workers ->
      let r =
        Parallel.run ~config:(dconfig ~workers ()) (Workloads.Nqueens.program ~n:6)
      in
      check Alcotest.int "completed" 0 (dcompleted r);
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "solutions with %d domains" workers)
        expected (dsolutions r))
    [ 1; 2; 4 ]

let domains_counting_tree_all_leaves () =
  let r =
    Parallel.run ~config:(dconfig ~workers:4 ())
      (Workloads.Counting.program ~depth:5 ~branch:3)
  in
  check Alcotest.int "completed" 0 (dcompleted r);
  check Alcotest.int "all leaves" 243 r.Parallel.stats.Core.Stats.fails;
  check Alcotest.int "all guesses" 121 (M.get r.Parallel.metrics N.search_guesses);
  check Alcotest.int "every extension evaluated once" 363
    r.Parallel.stats.Core.Stats.extensions_evaluated;
  check Alcotest.int "work split across domains" 363
    (Array.fold_left ( + ) 0 r.Parallel.busy_rounds)

let terminal_multiset (r : Parallel.result) =
  List.sort compare
    (List.map
       (fun (t : Explorer.terminal) -> (t.Explorer.kind, t.Explorer.output))
       r.Parallel.terminals)

let domains_recycling_terminal_identity () =
  (* Recycling is on by default (no faults armed).  The reference is a
     single-domain run under tracing — the instrumented slow path — so the
     identity also guards against instrumentation perturbing semantics. *)
  let image = Workloads.Nqueens.program ~n:5 in
  Obs.Trace.start ();
  let baseline =
    Fun.protect ~finally:(fun () -> Obs.Trace.stop (); Obs.Trace.clear ())
      (fun () -> Parallel.run ~config:(dconfig ~workers:1 ()) image)
  in
  check Alcotest.int "baseline completed" 0 (dcompleted baseline);
  let expected = terminal_multiset baseline in
  List.iter
    (fun workers ->
      let r = Parallel.run ~config:(dconfig ~workers ()) image in
      check Alcotest.int
        (Printf.sprintf "%d domains completed" workers) 0 (dcompleted r);
      check Alcotest.bool
        (Printf.sprintf "%d domains: recycling reached the backend" workers)
        true
        (r.Parallel.stats.Core.Stats.mem.Mem.Mem_metrics.frames_recycled > 0);
      check Alcotest.bool
        (Printf.sprintf "terminal multiset identical at %d domains" workers)
        true
        (expected = terminal_multiset r))
    [ 1; 2; 4 ]

let domains_per_domain_metrics () =
  let workers = 4 in
  (* a workload whose paths actually dirty pages, so recycling has frames
     to reuse (a register-only guest legitimately recycles nothing) *)
  let r =
    Parallel.run ~config:(dconfig ~workers ()) (Workloads.Nqueens.program ~n:5)
  in
  check Alcotest.int "completed" 0 (dcompleted r);
  check Alcotest.int "one registry per domain" workers
    (Array.length r.Parallel.domain_metrics);
  let summed slot =
    Array.fold_left (fun acc reg -> acc + M.get reg slot) 0 r.Parallel.domain_metrics
  in
  check Alcotest.int "per-domain evaluation counts sum to the aggregate"
    r.Parallel.stats.Core.Stats.extensions_evaluated
    (summed N.search_extensions);
  check Alcotest.int "per-domain recycling counts sum to the aggregate"
    r.Parallel.stats.Core.Stats.mem.Mem.Mem_metrics.frames_recycled
    (summed N.mem_frames_recycled);
  (* Every domain owns its memory: each free is either recycled by a later
     allocation or still pooled at the end, exactly, while the pool stays
     under its 4,096-buffer cap (beyond it a free drops the buffer). *)
  let law reg =
    let get = M.get reg in
    let pool = get N.mem_free_buffers in
    get N.mem_frames_freed = get N.mem_frames_recycled + pool && pool < 4096
  in
  Array.iteri
    (fun dom reg ->
      check Alcotest.bool
        (Printf.sprintf "domain %d: freed = recycled + pooled" dom)
        true (law reg))
    r.Parallel.domain_metrics;
  (* The law catches the E11 regression — a domain row reading
     frames_recycled = 0 although its frees were reused. *)
  let busiest =
    Array.fold_left
      (fun best reg ->
        if M.get reg N.mem_frames_recycled > M.get best N.mem_frames_recycled
        then reg
        else best)
      r.Parallel.domain_metrics.(0) r.Parallel.domain_metrics
  in
  let doctored = M.create () in
  M.add doctored N.mem_frames_freed (M.get busiest N.mem_frames_freed);
  M.peak doctored N.mem_free_buffers (M.get busiest N.mem_free_buffers);
  check Alcotest.bool "some domain recycled" true
    (M.get busiest N.mem_frames_recycled > 0);
  check Alcotest.bool "a row reading frames_recycled = 0 breaks the law" false
    (law doctored)

let domains_first_exit () =
  let image = Workloads.Subset_sum.program ~target:21 [ 1; 2; 4; 8; 16 ] in
  let cfg = { (dconfig ~workers:4 ()) with Parallel.mode = `First_exit } in
  let r = Parallel.run ~config:cfg image in
  match r.Parallel.outcome with
  | Explorer.Stopped_first_exit 0 -> ()
  | Explorer.Stopped_first_exit s -> Alcotest.failf "first exit with status %d" s
  | Explorer.Completed _ -> Alcotest.fail "expected first-exit stop"
  | Explorer.Aborted m -> Alcotest.failf "aborted: %s" m

let per_path_output_attribution () =
  (* four paths each print a distinct digit then fail: the transcript holds
     all four, and each fail terminal is attributed exactly its own digit —
     under both backends (regression for per-worker harvest markers) *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:4
      @ [ mov R.rcx (r R.rax);
          add R.rcx (i 48);  (* '0' + extension index *)
          movl R.r8 "slot";
          st (R.r8 @+ 0) R.rcx ]
      @ Wl_common.write_label ~buf:"slot" ~len:1
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ align 4096; label "slot"; zeros 8 ])
  in
  List.iter
    (fun run ->
      let status, terminals, transcript = run () in
      check Alcotest.int "completed" 0 (outcome_status status);
      let outputs =
        List.filter_map
          (fun (t : Explorer.terminal) ->
            match t.Explorer.kind with
            | Explorer.Fail when t.Explorer.output <> "" -> Some t.Explorer.output
            | _ -> None)
          terminals
      in
      check (Alcotest.list Alcotest.string) "each path owns its digit"
        [ "0"; "1"; "2"; "3" ]
        (List.sort compare outputs);
      check (Alcotest.list Alcotest.string) "transcript is the four digits"
        [ "0"; "1"; "2"; "3" ]
        (List.sort compare
           (List.init (String.length transcript) (fun i ->
                String.make 1 transcript.[i]))))
    [ (fun () ->
        let r = coop ~workers:3 ~quantum:200 image in
        r.outcome, r.terminals, r.transcript);
      (fun () ->
        let r = Parallel.run ~config:(dconfig ~workers:3 ~quantum:200 ()) image in
        r.outcome, r.terminals, r.transcript) ]

let max_live_snapshots_tracked () =
  (* regression: the cooperative scheduler never updated max_live_snapshots *)
  let r = coop ~workers:4 (Workloads.Nqueens.program ~n:5) in
  check Alcotest.int "completed" 0 (completed r);
  check Alcotest.bool "live-snapshot extent tracked" true
    ((M.get r.Explorer.metrics N.snapshot_max_live) > 0);
  check Alcotest.bool "extent covers the frontier" true
    ((M.get r.Explorer.metrics N.snapshot_max_live)
    >= r.Explorer.stats.Core.Stats.max_frontier)

(* {1 Supervision and fault injection} *)

let plan faults = { Inject.seed = 0; faults }

let coop_crash_recovery () =
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  let r =
    coop ~faults:(plan [ Inject.Worker_crash 5 ]) (Workloads.Nqueens.program ~n:6)
  in
  check Alcotest.int "completed" 0 (completed r);
  check (Alcotest.list Alcotest.string) "all solutions despite the crash"
    expected (solutions r);
  check Alcotest.bool "the crash was retried" true
    (r.Explorer.stats.Core.Stats.requeues >= 1);
  check Alcotest.int "nothing quarantined" 0
    (M.get r.Explorer.metrics N.sched_quarantined)

let domains_crash_recovery () =
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  let r =
    Parallel.run
      ~config:{ (dconfig ()) with faults = Some (plan [ Inject.Worker_crash 5 ]) }
      (Workloads.Nqueens.program ~n:6)
  in
  check Alcotest.int "completed" 0 (dcompleted r);
  check (Alcotest.list Alcotest.string) "all solutions despite the crash"
    expected (dsolutions r);
  check Alcotest.bool "the crash was retried" true
    (r.Parallel.stats.Core.Stats.requeues >= 1);
  check Alcotest.int "nothing quarantined" 0
    (M.get r.Parallel.metrics N.sched_quarantined)

let coop_alloc_failure_recovery () =
  (* Several ordinals so at least one lands inside worker-path evaluation
     regardless of how many frames boot consumed; each fires at most once
     and the origin retry re-allocates successfully. *)
  let faults = [ Inject.Alloc_fail 120; Alloc_fail 200; Alloc_fail 300 ] in
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  let r = coop ~faults:(plan faults) (Workloads.Nqueens.program ~n:6) in
  check Alcotest.int "completed" 0 (completed r);
  check (Alcotest.list Alcotest.string) "all solutions despite failed allocations"
    expected (solutions r);
  check Alcotest.int "nothing quarantined" 0
    (M.get r.Explorer.metrics N.sched_quarantined)

let quarantine_after_budget () =
  (* A retry budget of 1 turns the first crash into a quarantined path:
     the run still completes, minus the killed subtree. *)
  let expected = List.sort compare (Workloads.Nqueens.host_boards 6) in
  let r =
    coop ~retry_budget:1
      ~faults:(plan [ Inject.Worker_crash 5 ])
      (Workloads.Nqueens.program ~n:6)
  in
  check Alcotest.int "completed despite the quarantine" 0 (completed r);
  check Alcotest.int "one path quarantined" 1
    (M.get r.Explorer.metrics N.sched_quarantined);
  check Alcotest.bool "quarantine recorded as a killed path" true
    (List.exists
       (fun (t : Explorer.terminal) ->
         match t.Explorer.kind with
         | Explorer.Path_killed m ->
           String.length m >= 6 && String.sub m 0 6 = "crash:"
         | _ -> false)
       r.Explorer.terminals);
  List.iter
    (fun s ->
      check Alcotest.bool "surviving solutions are genuine" true
        (List.mem s expected))
    (solutions r)

let budget_abort_parity () =
  (* All three scheduler backends must refuse a runaway search with the
     same abort, so drivers can match on one string. *)
  let image = Workloads.Counting.program ~depth:8 ~branch:3 in
  let aborted = function
    | Explorer.Aborted m -> m
    | _ -> Alcotest.fail "expected an abort"
  in
  let expect = "extension budget exhausted" in
  check Alcotest.string "explorer"
    expect (aborted (Explorer.run_image ~max_extensions:20 image).Explorer.outcome);
  check Alcotest.string "cooperative" expect
    (aborted (coop ~max_extensions:20 image).Explorer.outcome);
  check Alcotest.string "domains" expect
    (aborted
       (Parallel.run
          ~config:{ (dconfig ()) with Parallel.max_extensions = 20 }
          image)
       .Parallel.outcome)

(* {1 One path lifecycle} *)

let stale_hint_does_not_leak () =
  (* The root guesses 2; extension 0 hints 7 and fails; extension 1 guesses
     2 with no hint of its own.  A hint belongs to the path that set it:
     extension 1's children must carry hint 0, under every scheduler. *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 0); jne "second"; mov R.rdi (i 7) ]
      @ Wl_common.sys_guess_hint_reg
      @ Wl_common.sys_guess_fail
      @ [ label "second" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0)
  in
  (* a DFS frontier that records the (depth, hint) of every push *)
  let recording () =
    let pushed = ref [] in
    let make () =
      let f = Search.Frontier.dfs () in
      { f with
        Search.Frontier.push_batch =
          (fun batch ->
            (* one (depth, hint) per extension of each entry *)
            List.iter
              (fun (e : _ Search.Frontier.entry) ->
                for _ = 1 to Search.Frontier.remaining e do
                  pushed := (e.meta.depth, e.meta.hint) :: !pushed
                done)
              batch;
            f.Search.Frontier.push_batch batch) }
    in
    pushed, `Custom make
  in
  let expected = [ (1, 0); (1, 0); (2, 0); (2, 0) ] in
  let metas = Alcotest.(list (pair int int)) in
  let pushed, strategy = recording () in
  let r = Explorer.run_image ~strategy_override:strategy image in
  check Alcotest.int "explorer completed" 0
    (match r.Explorer.outcome with Explorer.Completed s -> s | _ -> -1);
  check metas "explorer pushes" expected (List.rev !pushed);
  let pushed, strategy = recording () in
  let r = coop ~workers:1 ~strategy_override:strategy image in
  check Alcotest.int "cooperative completed" 0 (completed r);
  check metas "cooperative pushes" expected (List.rev !pushed)

let frames_return_after_a_run () =
  (* Exact frame lifetime: once a run ends, every frame it allocated beyond
     the booted machines has been freed, with and without faults. *)
  let image = Workloads.Nqueens.program ~n:6 in
  let boot_frames =
    let phys = Mem.Phys_mem.create () in
    ignore (Os.Libos.boot phys image);
    Mem.Phys_mem.frames_live phys
  in
  let phys = Mem.Phys_mem.create () in
  let r = Explorer.run (Os.Libos.boot phys image) in
  check Alcotest.int "explorer completed" 0
    (match r.Explorer.outcome with Explorer.Completed s -> s | _ -> -1);
  check Alcotest.int "explorer: boot frames only" boot_frames
    (Mem.Phys_mem.frames_live phys);
  (* A run's memory counters start after worker 0's boot and take in the
     helpers' boots: a run that frees everything it allocated, helper boot
     images included, holds worker 0's boot image only. *)
  let held ?faults workers =
    let r = coop ~workers ?faults image in
    check Alcotest.int "completed" 0 (completed r);
    let mm = r.Explorer.stats.Core.Stats.mem in
    boot_frames + mm.Mem.Mem_metrics.frames_allocated - mm.Mem.Mem_metrics.frames_freed
  in
  check Alcotest.int "cooperative: boot frames only" boot_frames (held 2);
  check Alcotest.int "cooperative under faults: boot frames only" boot_frames
    (held ~faults:(Inject.generate ~seed:3) 2)

(* {1 Runaway paths and strategy overrides} *)

let runaway_path_killed () =
  (* The root guesses 2: extension 0 fails, extension 1 spins forever.
     Preemption must not keep a runaway alive: once its segment has run
     the fuel budget it dies, under quanta as without them. *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 0); jne "spin" ]
      @ Wl_common.sys_guess_fail
      @ [ label "spin"; jmp "spin"; label "after" ]
      @ Wl_common.sys_exit ~status:0)
  in
  let killed terminals =
    List.length
      (List.filter
         (fun (t : Explorer.terminal) ->
           match t.kind with Explorer.Path_killed _ -> true | _ -> false)
         terminals)
  in
  let r = Explorer.run_image ~fuel_per_step:1_000_000 image in
  check Alcotest.int "explorer: completed" 0 (completed r);
  check Alcotest.int "explorer: one kill" 1 r.stats.Core.Stats.kills;
  let r = coop ~workers:2 ~quantum:10_000 ~fuel_per_step:1_000_000 image in
  check Alcotest.int "cooperative: completed" 0 (completed r);
  check Alcotest.int "cooperative: one killed path" 1 (killed r.terminals);
  let r = Parallel.run ~config:(dconfig ~workers:2 ~quantum:10_000 ()) image in
  check Alcotest.int "domains: completed" 0 (dcompleted r);
  check Alcotest.int "domains: one killed path" 1 (killed r.terminals)

let strategy_override_forces_dfs () =
  (* A guest asking for BFS that prints each choice as it takes it: the
     transcript is the visiting order.  Forced to DFS, one domain must
     visit in the explorer's DFS order, not the guest's BFS. *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_bfs
      @ [ cmp R.rax (i 0); je "after"; mov R.r12 (i 2); label "step" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ add R.rax (i 48); movl R.r8 "slot"; st (R.r8 @+ 0) R.rax ]
      @ Wl_common.write_label ~buf:"slot" ~len:1
      @ [ dec R.r12; jne "step" ]
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ align 4096; label "slot"; zeros 8 ])
  in
  let bfs = (Explorer.run_image image).transcript in
  let dfs = (Explorer.run_image ~strategy_override:`Dfs image).transcript in
  check Alcotest.bool "the orders differ" true (bfs <> dfs);
  let forced strategy_override =
    (Parallel.run ~config:{ (dconfig ~workers:1 ()) with strategy_override } image)
      .transcript
  in
  check Alcotest.string "guest's strategy" bfs (forced None);
  check Alcotest.string "forced to DFS" dfs (forced (Some `Dfs));
  one_domain_is_the_explorer "guest's BFS" image;
  one_domain_is_the_explorer ~strategy_override:`Dfs "forced DFS" image;
  (* a [`Custom] strategy is each shard's frontier *)
  let deepest_first () =
    Search.Frontier.best_first ~name:"deepest"
      ~score:(fun m -> -.Float.of_int m.Search.Frontier.depth) ()
  in
  let reference = (Explorer.run_image image).terminals in
  let r =
    Parallel.run
      ~config:{ (dconfig ~workers:2 ()) with strategy_override = Some (`Custom deepest_first) }
      image
  in
  check Alcotest.int "custom on 2 domains: completed" 0 (dcompleted r);
  let multiset l =
    List.sort compare
      (List.map (fun (t : Explorer.terminal) -> (t.Explorer.kind, t.Explorer.output)) l)
  in
  check Alcotest.bool "custom on 2 domains: the reference terminals" true
    (multiset reference = multiset r.Parallel.terminals)

let one_machine_combinations_rejected () =
  (* A reclaim store follows one machine: more workers are refused. *)
  let image = Workloads.Nqueens.program ~n:4 in
  List.iter
    (fun (name, run) ->
      match run () with
      | _ -> Alcotest.failf "%s: accepted at 2 workers" name
      | exception Invalid_argument _ -> ())
    [ "capacity", (fun () -> Explorer.run_image ~workers:2 ~capacity:4096 image);
      "tier_stress", (fun () -> Explorer.run_image ~workers:2 ~tier_stress:1 image) ]

let tests =
  [ Alcotest.test_case "same solutions for any worker count" `Quick
      same_solutions_any_worker_count;
    Alcotest.test_case "coop: crash recovery" `Quick coop_crash_recovery;
    Alcotest.test_case "domains: crash recovery" `Quick domains_crash_recovery;
    Alcotest.test_case "coop: alloc failure recovery" `Quick
      coop_alloc_failure_recovery;
    Alcotest.test_case "quarantine after retry budget" `Quick
      quarantine_after_budget;
    Alcotest.test_case "budget abort parity" `Quick budget_abort_parity;
    Alcotest.test_case "counting tree all leaves" `Quick counting_tree_all_leaves;
    Alcotest.test_case "makespan shrinks" `Quick makespan_shrinks_with_workers;
    Alcotest.test_case "total work independent of workers" `Quick
      total_work_is_worker_independent;
    Alcotest.test_case "first exit mode" `Quick first_exit_mode;
    Alcotest.test_case "shared counter across workers" `Quick
      shared_counter_across_workers;
    Alcotest.test_case "isolation between workers" `Quick isolation_between_workers;
    Alcotest.test_case "busy rounds reported" `Quick busy_rounds_reported;
    Alcotest.test_case "domains: same solutions" `Quick domains_same_solutions;
    Alcotest.test_case "domains: counting tree all leaves" `Quick
      domains_counting_tree_all_leaves;
    Alcotest.test_case "domains: first exit mode" `Quick domains_first_exit;
    Alcotest.test_case "domains: recycling terminal identity" `Quick
      domains_recycling_terminal_identity;
    Alcotest.test_case "domains: per-domain metrics" `Quick
      domains_per_domain_metrics;
    Alcotest.test_case "per-path output attribution" `Quick
      per_path_output_attribution;
    Alcotest.test_case "stale hint does not leak" `Quick stale_hint_does_not_leak;
    Alcotest.test_case "frames return after a run" `Quick frames_return_after_a_run;
    Alcotest.test_case "max live snapshots tracked" `Quick
      max_live_snapshots_tracked;
    Alcotest.test_case "runaway path killed under quanta" `Quick
      runaway_path_killed;
    Alcotest.test_case "strategy override forces dfs" `Quick
      strategy_override_forces_dfs;
    Alcotest.test_case "one-machine options need one worker" `Quick
      one_machine_combinations_rejected ]
