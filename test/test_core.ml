(* The paper's contribution: snapshots, the explorer protocol, the
   externally-driven service, and the replay ablation. *)

module Explorer = Core.Explorer
module Snapshot = Os.Snapshot
module Service = Core.Service
module Tenancy = Core.Tenancy
module Native_bt = Core.Native_bt
module Libos = Os.Libos
module Abi = Os.Sys_abi
module R = Isa.Reg
module Wl_common = Workloads.Wl_common
open Isa.Asm

module M = Obs.Metrics
module N = Obs.Names

(* A pool's count *)
let tenancy pool slot = M.get (Tenancy.metrics pool) slot
let check = Alcotest.check

let transcript_lines (r : Explorer.result) =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' r.Explorer.transcript)

let completed (r : Explorer.result) =
  match r.Explorer.outcome with
  | Explorer.Completed s -> s
  | Explorer.Stopped_first_exit _ -> Alcotest.fail "unexpected first-exit stop"
  | Explorer.Aborted m -> Alcotest.failf "aborted: %s" m

(* {1 Explorer protocol} *)

let nqueens_all_sizes () =
  List.iter
    (fun n ->
      let r = Explorer.run_image (Workloads.Nqueens.program ~n) in
      check Alcotest.int "exit status" 0 (completed r);
      check Alcotest.int
        (Printf.sprintf "solutions for n=%d" n)
        (Workloads.Nqueens.expected_solutions n)
        (List.length (transcript_lines r)))
    [ 2; 3; 4; 5; 6 ]

let nqueens_boards_match_host () =
  let r = Explorer.run_image (Workloads.Nqueens.program ~n:6) in
  check (Alcotest.list Alcotest.string) "same boards, same DFS order"
    (Workloads.Nqueens.host_boards 6) (transcript_lines r)

let counting_tree_exact () =
  let r = Explorer.run_image (Workloads.Counting.program ~depth:4 ~branch:3) in
  check Alcotest.int "every leaf failed" 81 r.Explorer.stats.Core.Stats.fails;
  (* interior guesses: (3^4 - 1) / 2 = 40 *)
  check Alcotest.int "interior guesses" 40 (M.get r.Explorer.metrics N.search_guesses);
  check Alcotest.int "extensions = 3 * guesses" 120
    (M.get r.Explorer.metrics N.search_extensions_pushed)

let recycling_is_invisible () =
  (* Frame recycling must not change a single observable: the fixed
     nqueens(5) transcript, fail count and guest instruction count (those
     of the no-reuse allocator this replaced) — while actually exercising
     the free list. *)
  let r = Explorer.run_image (Workloads.Nqueens.program ~n:5) in
  check (Alcotest.list Alcotest.string) "transcript"
    (Workloads.Nqueens.host_boards 5) (transcript_lines r);
  check Alcotest.int "fails" 177 r.Explorer.stats.Core.Stats.fails;
  check Alcotest.int "instructions" 4171 r.Explorer.stats.Core.Stats.instructions;
  check Alcotest.bool "frames were recycled" true
    (r.Explorer.stats.Core.Stats.mem.Mem.Mem_metrics.frames_recycled > 0)

(* One restore rule: an armed fault plan whose only fault never fires (an
   allocation ordinal no run reaches) changes nothing — the same
   transcript, the same terminals in order, and the same restores, COW
   faults and frame allocations as the fault-free run. *)
let armed_plan_restores_alike () =
  let image = Workloads.Nqueens.program ~n:6 in
  let plain = Explorer.run_image image in
  let armed =
    Explorer.run_image
      ~faults:{ Inject.seed = 0; faults = [ Inject.Alloc_fail max_int ] }
      image
  in
  check Alcotest.string "transcript" plain.Explorer.transcript
    armed.Explorer.transcript;
  check Alcotest.bool "terminals, in order" true
    (plain.Explorer.terminals = armed.Explorer.terminals);
  let counts (r : Explorer.result) =
    let s = r.Explorer.stats in
    [ s.Core.Stats.restores; s.Core.Stats.mem.Mem.Mem_metrics.cow_faults;
      s.Core.Stats.mem.Mem.Mem_metrics.frames_allocated ]
  in
  check Alcotest.(list int) "restores, COW faults, frames allocated"
    (counts plain) (counts armed)

(* {1 Frame audit}

   On a poisoned allocator [Explorer.run] audits its frames at every
   scheduler stop and when it ends: no reachable frame freed, reachable
   frames exactly the live ones, and (refcount mode) the extension refs
   held equal to the frontier's plus one per running path. *)

let audited_nqueens ?strategy_override ?mode ?tier_stress ?on_stop () =
  let phys = Mem.Phys_mem.create ~poison:true () in
  let m = Libos.boot phys (Workloads.Nqueens.program ~n:6) in
  m, Explorer.run ?strategy_override ?mode ?tier_stress ?on_stop m

let audit_passes_every_scheduler () =
  let boards = List.sort compare (Workloads.Nqueens.host_boards 6) in
  List.iter
    (fun (name, strategy, tier_stress, all_boards) ->
      let _, r = audited_nqueens ~strategy_override:strategy ?tier_stress () in
      check Alcotest.int (name ^ ": exit status") 0 (completed r);
      if all_boards then
        check (Alcotest.list Alcotest.string) (name ^ ": boards") boards
          (List.sort compare (transcript_lines r));
      match strategy with
      | `Sma _ | `Beam _ ->
        check Alcotest.bool (name ^ ": evicted") true
          ((M.get r.Explorer.metrics N.search_evicted) > 0)
      | _ -> ())
    [ "dfs", `Dfs, None, true;
      "bfs", `Bfs, None, true;
      "sma", `Sma 4, None, false;
      "beam", `Beam 2, None, false;
      "tier_stress:1", `Dfs, Some 1, true ];
  (* several workers in rounds of a short quantum, so preempted paths hold
     their maps and refs across other workers' stops *)
  List.iter
    (fun (workers, faults) ->
      let name =
        Printf.sprintf "%d workers%s" workers
          (if faults = None then "" else ", faults")
      in
      let r =
        Explorer.run_image ~poison:true ~workers ~quantum:50 ?faults
          (Workloads.Nqueens.program ~n:6)
      in
      check Alcotest.int (name ^ ": exit status") 0 (completed r);
      if faults = None then
        check (Alcotest.list Alcotest.string) (name ^ ": boards") boards
          (List.sort compare (transcript_lines r)))
    [ 2, None; 2, Some (Inject.generate ~seed:3);
      4, None; 4, Some (Inject.generate ~seed:3) ];
  (* nqueens never exits inside its scope, so First_exit runs it whole;
     subset sum stops at its first exit, with the frontier still full *)
  let _, r = audited_nqueens ~mode:`First_exit () in
  check Alcotest.int "first-exit nqueens: exit status" 0 (completed r);
  let r =
    Explorer.run_image ~poison:true ~mode:`First_exit
      (Workloads.Subset_sum.program ~target:21 [ 1; 2; 4; 8; 16 ])
  in
  match r.Explorer.outcome with
  | Explorer.Stopped_first_exit 0 -> ()
  | _ -> Alcotest.fail "first-exit subset sum: expected an in-scope exit"

(* A storeless run stopped inside its scope gives back everything the scope
   held: the frames live afterwards are exactly those its machine's map
   reaches. *)
let in_scope_stop_keeps_only_the_map () =
  let only_the_map name ?mode ?max_extensions image =
    let phys = Mem.Phys_mem.create () in
    let m = Libos.boot phys image in
    let r = Explorer.run ?mode ?max_extensions m in
    (match r.Explorer.outcome with
    | Explorer.Completed _ -> Alcotest.failf "%s: expected an in-scope stop" name
    | Explorer.Stopped_first_exit _ | Explorer.Aborted _ -> ());
    match
      Mem.Phys_mem.audit phys ~reachable:(fun visit ->
          Mem.Addr_space.iter_frames m.Libos.aspace (visit "the map"))
    with
    | Ok () -> ()
    | Error detail -> Alcotest.failf "%s: %s" name detail
  in
  let queens = Workloads.Nqueens.program ~n:6 in
  only_the_map "budget 20" ~max_extensions:20 queens;
  only_the_map "budget 200" ~max_extensions:200 queens;
  only_the_map "first exit" ~mode:`First_exit
    (Workloads.Subset_sum.program ~target:21 [ 1; 2; 4; 8; 16 ]);
  (* two workers, one of them idle or mid-path when the budget runs out:
     the poisoned end-of-run audit checks the same *)
  match
    (Explorer.run_image ~poison:true ~workers:2 ~quantum:50 ~max_extensions:20 queens)
      .Explorer.outcome
  with
  | Explorer.Aborted _ -> ()
  | _ -> Alcotest.fail "two workers: expected the budget abort"

(* Break the discipline from an [on_stop] hook at stop 5: the audit must
   raise at that very stop, naming it. *)
let audit_fires_at_stop ~expect ?strategy_override hook =
  let calls = ref 0 in
  let on_stop m _ =
    incr calls;
    if !calls = 5 then hook m
  in
  match audited_nqueens ?strategy_override ~on_stop () with
  | _ -> Alcotest.failf "%s: the audit did not fire" expect
  | exception Explorer.Audit_failed msg ->
    let mentions sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    check Alcotest.bool
      (Printf.sprintf "%s, at stop 5: %s" expect msg)
      true
      (String.starts_with ~prefix:"stop 5 " msg && mentions expect)

let audit_catches_leak () =
  audit_fires_at_stop ~expect:"frames reachable" (fun m ->
      ignore (Mem.Phys_mem.alloc (Mem.Addr_space.phys m.Libos.aspace) ~owner:1))

let audit_catches_early_free () =
  audit_fires_at_stop ~expect:"is freed" (fun m ->
      let aspace = m.Libos.aspace in
      Mem.Phys_mem.free_frame (Mem.Addr_space.phys aspace)
        (Mem.Addr_space.reading_frame aspace m.Libos.cpu.Vcpu.Cpu.rip))

let audit_catches_ref_imbalance () =
  let pushed = ref [] in
  let strategy =
    `Custom
      (fun () ->
        let f = Search.Frontier.dfs () in
        { f with
          Search.Frontier.push_batch =
            (fun batch ->
              List.iter (fun e -> pushed := e :: !pushed) batch;
              f.Search.Frontier.push_batch batch) })
  in
  audit_fires_at_stop ~expect:"refs held" ~strategy_override:strategy
    (fun _ ->
      match !pushed with
      | { Search.Frontier.parent = Core.Ext.Snap s; _ } :: _ -> Snapshot.retain s
      | _ -> Alcotest.fail "no extension pushed by stop 5")

let strategy_scope_returns_zero_after_exhaustion () =
  (* Figure 1's protocol: the if-block runs with rax=1, and after the scope
     is exhausted the program continues with rax=0 and exits 77. *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:77)
  in
  let r = Explorer.run_image image in
  check Alcotest.int "continues after scope" 77 (completed r);
  check Alcotest.int "two extensions" 2 r.Explorer.stats.Core.Stats.extensions_evaluated

let guess_outside_scope_aborts () =
  let image =
    assemble ~entry:"main" ([ label "main" ] @ Wl_common.sys_guess_imm ~n:2 @ [ hlt ])
  in
  let r = Explorer.run_image image in
  match r.Explorer.outcome with
  | Explorer.Aborted msg ->
    check Alcotest.bool "mentions scope" true
      (String.length msg > 0 && String.lowercase_ascii msg <> "")
  | _ -> Alcotest.fail "expected abort"

let first_exit_mode_stops () =
  let values = [ 1; 2; 4; 8; 16 ] in
  let image = Workloads.Subset_sum.program ~target:21 values in
  let r = Explorer.run_image ~mode:`First_exit image in
  match r.Explorer.outcome with
  | Explorer.Stopped_first_exit 0 ->
    check (Alcotest.list Alcotest.string) "first mask" [ "10101" ] (transcript_lines r)
  | _ -> Alcotest.fail "expected first-exit"

let all_solutions_subset_sum () =
  let values = [ 3; 34; 4; 12; 5; 2 ] in
  let r =
    Explorer.run_image (Workloads.Subset_sum.program ~all_solutions:true ~target:9 values)
  in
  check (Alcotest.list Alcotest.string) "masks match host"
    (Workloads.Subset_sum.host_solutions ~values ~target:9)
    (transcript_lines r)

let coloring_counts () =
  List.iter
    (fun (g, k) ->
      let r = Explorer.run_image (Workloads.Coloring.program g ~k) in
      check Alcotest.int "colourings" (Workloads.Coloring.host_count g ~k)
        (List.length (transcript_lines r)))
    [ Workloads.Coloring.cycle 5, 3;
      Workloads.Coloring.complete 4, 4;
      Workloads.Coloring.petersen, 3 ]

let output_survives_backtracking () =
  (* a guest that prints then fails; Prolog-style stdout must keep both *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ (* print 'A' + extension number *)
          mov R.rcx (r R.rax);
          add R.rcx (i (Char.code 'A'));
          movl R.r8 "buf";
          stb (R.r8 @+ 0) R.rcx ]
      @ Wl_common.write_label ~buf:"buf" ~len:1
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ label "buf"; zeros 1 ])
  in
  let r = Explorer.run_image image in
  check Alcotest.string "both paths' output survives" "AB" r.Explorer.transcript;
  let outputs = List.map (fun t -> t.Explorer.output) r.Explorer.terminals in
  check (Alcotest.list Alcotest.string) "attributed per path" [ "A"; "B" ] outputs

(* [Path.harvest] returns at once when nothing was written since the
   marker.  Silent siblings around a printing one, with output before the
   scope too: the transcript and each terminal's output are what the
   chunk-list walk attributes. *)
let silent_siblings_harvest () =
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.write_label ~buf:"pre" ~len:1
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:4
      @ [ cmp R.rax (i 1); je "loud"; cmp R.rax (i 3); jne "quiet"; label "loud";
          mov R.rcx (r R.rax);
          add R.rcx (i (Char.code 'A'));
          movl R.r8 "buf";
          stb (R.r8 @+ 0) R.rcx ]
      @ Wl_common.write_label ~buf:"buf" ~len:1
      @ [ label "quiet" ]
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ label "pre"; bytes "P"; label "buf"; zeros 1 ])
  in
  let r = Explorer.run_image image in
  check Alcotest.int "completed" 0 (completed r);
  check Alcotest.string "transcript" "PBD" r.Explorer.transcript;
  check (Alcotest.list Alcotest.string) "attributed per path" [ ""; "B"; ""; "D" ]
    (List.map (fun t -> t.Explorer.output) r.Explorer.terminals)

let file_writes_are_contained () =
  (* each extension writes its own content to the same file; the surviving
     (exhausted) state must see the pre-scope file *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:3
      @ [ (* write extension number into /shared *)
          movl R.rdi "path";
          mov R.rsi (i (Abi.o_wronly lor Abi.o_creat lor Abi.o_trunc)) ]
      @ Wl_common.syscall3 ~number:Abi.sys_open
      @ [ mov R.rbx (r R.rax);
          mov R.rdi (r R.rbx);
          movl R.rsi "digit";
          mov R.rdx (i 1) ]
      @ Wl_common.syscall3 ~number:Abi.sys_write
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ label "path"; bytes "/shared\000"; label "digit"; bytes "x" ])
  in
  let phys = Mem.Phys_mem.create () in
  let machine = Libos.boot phys image in
  Libos.add_file machine ~path:"/shared" "original";
  let r = Explorer.run machine in
  check Alcotest.int "completed" 0 (completed r);
  check (Alcotest.option Alcotest.string) "file effects rolled back"
    (Some "original") (Libos.read_file machine ~path:"/shared")

let killed_path_does_not_stop_search () =
  (* extension 0 dereferences a wild pointer; extensions 1 and 2 print *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 0); jne "ok";
          mov R.rcx (i 0x7000000);
          ld R.rdx (R.rcx @+ 0);   (* fault *)
          label "ok" ]
      @ Wl_common.write_label ~buf:"msg" ~len:1
      @ Wl_common.sys_guess_fail
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0
      @ [ label "msg"; bytes "k" ])
  in
  let r = Explorer.run_image image in
  check Alcotest.int "completed" 0 (completed r);
  check Alcotest.int "one kill" 1 r.Explorer.stats.Core.Stats.kills;
  check Alcotest.string "survivor printed" "k" r.Explorer.transcript

let hint_drives_astar () =
  (* two arms: the guest hints arm 1 as closer; A* must evaluate it first *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_astar
      @ [ cmp R.rax (i 0); je "after" ]
      @ [ mov R.rdi (i 5) ]
      @ Wl_common.sys_guess_hint_reg
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 0); je "deep" ]
      (* arm 1: cheap exit *)
      @ Wl_common.sys_exit ~status:11
      (* arm 0: would exit 22 *)
      @ [ label "deep" ]
      @ Wl_common.sys_exit ~status:22
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:0)
  in
  let r = Explorer.run_image ~mode:`First_exit image in
  (* both extensions share the same hint; FIFO tie-break picks ext 0.  Run
     under DFS and A*: both deterministic, exercising the hint plumbing. *)
  match r.Explorer.outcome with
  | Explorer.Stopped_first_exit s -> check Alcotest.int "deterministic pick" 22 s
  | _ -> Alcotest.fail "expected first exit"

let max_extensions_aborts () =
  let image = Workloads.Counting.program ~depth:30 ~branch:2 in
  let r = Explorer.run_image ~max_extensions:1000 image in
  match r.Explorer.outcome with
  | Explorer.Aborted _ -> ()
  | _ -> Alcotest.fail "expected budget abort"

let shared_page_survives_backtracking () =
  (* the guest shares a page, then every leaf of a 2^3 guess tree
     increments a counter in it; after exhaustion the guest exits with the
     counter value — only possible because the page escapes snapshots *)
  let image =
    assemble ~entry:"main"
      ([ label "main";
         (* allocate a heap page and share it *)
         mov R.rdi (i 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.r15 (r R.rax); mov R.rdi (r R.rax); add R.rdi (i 4096) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.rdi (r R.r15); mov R.rsi (i 8) ]
      @ Wl_common.syscall3 ~number:Abi.sys_share
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after"; mov R.r12 (i 3) ]
      @ [ label "step"; cmp R.r12 (i 0); jle "leaf" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ dec R.r12; jmp "step"; label "leaf";
          ld R.rcx (R.r15 @+ 0); inc R.rcx; st (R.r15 @+ 0) R.rcx ]
      @ Wl_common.sys_guess_fail
      @ [ label "after"; ld R.rdi (R.r15 @+ 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_exit)
  in
  let r = Explorer.run_image image in
  check Alcotest.int "all 8 leaves counted across paths" 8 (completed r)

let timeout_kills_runaway_extension () =
  (* extension 0 spins forever; the guest-set timeout bounds it and the
     search continues to extension 1 *)
  let image =
    assemble ~entry:"main"
      ([ label "main"; mov R.rdi (i 20000) ]
      @ Wl_common.syscall3 ~number:Abi.sys_timeout
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 0); jne "good"; label "spin"; jmp "spin"; label "good" ]
      @ Wl_common.sys_exit ~status:5
      @ [ label "after" ]
      @ Wl_common.sys_exit ~status:7)
  in
  let r = Explorer.run_image image in
  check Alcotest.int "scope exhausted normally" 7 (completed r);
  check Alcotest.int "runaway killed" 1 r.Explorer.stats.Core.Stats.kills;
  check Alcotest.int "survivor exited" 1 (M.get r.Explorer.metrics N.search_exits);
  (* The timeout bounds the whole segment, also when it runs in quanta:
     the quantum is clamped to the timeout, and a path killed only at
     [fuel_per_step] would retire 50M instructions. *)
  let check_row name metrics =
    let get = M.get metrics in
    check Alcotest.int (name ^ ": runaway killed") 1 (get N.search_kills);
    check Alcotest.int (name ^ ": survivor exited") 1 (get N.search_exits);
    check Alcotest.int (name ^ ": instructions") 20_021 (get N.vcpu_instructions)
  in
  check_row "one worker" r.Explorer.metrics;
  List.iter
    (fun (workers, quantum) ->
      let r = Explorer.run_image ~workers ~quantum image in
      let name = Printf.sprintf "%d workers, quantum %d" workers quantum in
      check Alcotest.int (name ^ ": scope exhausted") 7 (completed r);
      check_row name r.Explorer.metrics)
    [ 1, 5_000; 1, 50_000; 2, 5_000; 2, 50_000 ];
  let r =
    Core.Parallel.run
      ~config:{ Core.Parallel.default_config with workers = 2; quantum = 5_000 }
      image
  in
  check Alcotest.int "2 domains: scope exhausted" 7
    (match r.Core.Parallel.outcome with Explorer.Completed s -> s | _ -> -1);
  check_row "2 domains, quantum 5000" r.Core.Parallel.metrics

let beam_strategy_runs () =
  let maze = Workloads.Grid.generate ~width:7 ~height:7 ~wall_density:0.2 ~seed:3 in
  let r =
    Explorer.run_image ~mode:`First_exit ~strategy_override:(`Beam 32)
      (Workloads.Grid.program maze)
  in
  match r.Explorer.outcome, Workloads.Grid.host_shortest maze with
  | Explorer.Stopped_first_exit len, Some opt ->
    check Alcotest.bool "reaches goal" true (len >= opt)
  | Explorer.Completed 255, None -> ()
  | _ -> Alcotest.fail "unexpected outcome"

let dfs_bounded_prunes_depth () =
  (* a 2^6 counting tree explored with bound 3 only reaches 2^3 leaves...
     bound refuses deeper extensions, so fails happen only at depth <= 3 *)
  let image = Workloads.Counting.program ~depth:6 ~branch:2 in
  let r = Explorer.run_image ~strategy_override:(`Dfs_bounded 3) image in
  check Alcotest.int "completed" 0 (completed r);
  check Alcotest.bool "pruned extensions reported" true
    ((M.get r.Explorer.metrics N.search_evicted) > 0);
  check Alcotest.int "no leaf reached" 0 r.Explorer.stats.Core.Stats.fails

(* {1 Snapshot tree properties} *)

let snapshot_parent_chain () =
  let image = Workloads.Counting.program ~depth:3 ~branch:2 in
  let phys = Mem.Phys_mem.create () in
  let machine = Libos.boot phys image in
  (* drive manually: take the strategy stop then three guesses deep *)
  (match Libos.run machine ~fuel:100000 with
  | Libos.Guess_strategy _ -> Vcpu.Cpu.set machine.Libos.cpu R.rax 1
  | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other);
  let ids = Snapshot.ids () in
  let root = Snapshot.capture ~ids ~depth:0 machine in
  let rec descend parent depth =
    if depth = 3 then parent
    else
      match Libos.run machine ~fuel:100000 with
      | Libos.Guess _ ->
        let snap = Snapshot.capture ~ids ~parent ~depth machine in
        Vcpu.Cpu.set machine.Libos.cpu R.rax 0;
        descend snap (depth + 1)
      | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other
  in
  let leaf = descend root 0 in
  check Alcotest.int "lineage length" 4 (List.length (Snapshot.lineage leaf));
  check Alcotest.int "root is last"
    root.Snapshot.id
    (List.nth (Snapshot.lineage leaf) 3).Snapshot.id

(* [Path.lineage_length] counts the parent chain the entered snapshot
   heads, as [Snapshot.lineage] lists it. *)
let path_lineage_length () =
  let image = Workloads.Counting.program ~depth:3 ~branch:2 in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  let path : Core.Path.t = Core.Path.create machine in
  let stats = Obs.Metrics.create () in
  let ids = Snapshot.ids () in
  (match Libos.run machine ~fuel:100000 with
  | Libos.Guess_strategy _ -> ()
  | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other);
  let root = Core.Path.open_scope path stats ~ids in
  check Alcotest.int "at the root" 1 (Core.Path.lineage_length path);
  let rec descend depth =
    match Core.Path.run path stats ~fuel:100000 with
    | Libos.Guess { n } ->
      let snap, _ = Core.Path.branch path stats ~ids ~n in
      Core.Path.enter path stats snap ~rax:0 ~depth:(depth + 1);
      check Alcotest.int
        (Printf.sprintf "depth %d" (depth + 1))
        (List.length (Snapshot.lineage snap))
        (Core.Path.lineage_length path);
      if depth + 1 < 3 then descend (depth + 1) else snap
    | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other
  in
  let leaf = descend 0 in
  check Alcotest.int "three deep below the root" 4 (Core.Path.lineage_length path);
  check Alcotest.int "the chain ends at the root"
    root.Snapshot.id (List.nth (Snapshot.lineage leaf) 3).Snapshot.id;
  Core.Path.retire path;
  check Alcotest.int "retired" 0 (Core.Path.lineage_length path)

let snapshot_ids_are_per_run () =
  (* Regression: snapshot ids came from one global counter, so two
     simultaneous runs shared (and raced on) the sequence.  Each allocator
     must start from 0 independently. *)
  let image = Workloads.Counting.program ~depth:2 ~branch:2 in
  let boot () = Libos.boot (Mem.Phys_mem.create ()) image in
  let m1 = boot () and m2 = boot () in
  let ids1 = Snapshot.ids () and ids2 = Snapshot.ids () in
  let s1 = Snapshot.capture ~ids:ids1 ~depth:0 m1 in
  let s1' = Snapshot.capture ~ids:ids1 ~depth:0 m1 in
  let s2 = Snapshot.capture ~ids:ids2 ~depth:0 m2 in
  check Alcotest.int "run 1 starts at 0" 0 s1.Snapshot.id;
  check Alcotest.int "run 1 continues" 1 s1'.Snapshot.id;
  check Alcotest.int "run 2 starts at 0 too" 0 s2.Snapshot.id

let snapshot_ids_atomic_across_domains () =
  (* One run's captures racing across two domains must still allocate
     distinct, dense ids. *)
  let image = Workloads.Counting.program ~depth:2 ~branch:2 in
  let ids = Snapshot.ids () in
  let captures () =
    let m = Libos.boot (Mem.Phys_mem.create ()) image in
    List.init 200 (fun _ -> (Snapshot.capture ~ids ~depth:0 m).Snapshot.id)
  in
  let d = Domain.spawn captures in
  let mine = captures () in
  let theirs = Domain.join d in
  let all = List.sort_uniq compare (mine @ theirs) in
  check Alcotest.int "distinct ids" 400 (List.length all);
  check Alcotest.int "dense from 0" 399 (List.nth all 399)

(* {1 Service} *)

let service_resume_is_repeatable () =
  let image = Workloads.Counting.program ~depth:2 ~branch:2 in
  let svc, outcome = Service.boot image in
  match outcome with
  | Service.Ready { candidate; arity; _ } ->
    check Alcotest.int "arity" 2 arity;
    (* resuming the same candidate twice must give identical outcomes *)
    let a = Service.resume svc candidate ~choice:0 () in
    let b = Service.resume svc candidate ~choice:0 () in
    (match a, b with
    | Service.Ready { arity = a1; _ }, Service.Ready { arity = a2; _ } ->
      check Alcotest.int "same arity" a1 a2
    | _ -> Alcotest.fail "expected two ready outcomes");
    check Alcotest.bool "candidates accumulate" true (Service.live_candidates svc >= 3)
  | _ -> Alcotest.fail "expected a choice point"

let service_distinct_branches () =
  (* guest prints the chosen extension; two resumes of one candidate must
     produce their own outputs *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ mov R.rcx (r R.rax);
          add R.rcx (i (Char.code '0'));
          movl R.r8 "buf";
          stb (R.r8 @+ 0) R.rcx ]
      @ Wl_common.write_label ~buf:"buf" ~len:1
      @ Wl_common.sys_exit ~status:0
      @ [ label "buf"; zeros 1 ])
  in
  let svc, outcome = Service.boot image in
  match outcome with
  | Service.Ready { candidate; _ } ->
    (match Service.resume svc candidate ~choice:0 () with
    | Service.Finished { output; _ } -> check Alcotest.string "branch 0" "0" output
    | _ -> Alcotest.fail "expected finish");
    (match Service.resume svc candidate ~choice:1 () with
    | Service.Finished { output; _ } -> check Alcotest.string "branch 1" "1" output
    | _ -> Alcotest.fail "expected finish")
  | _ -> Alcotest.fail "expected a choice point"

let service_guest_dpll_increments () =
  (* solve p, then p ∧ q for a q that flips a model bit *)
  let clauses = [ [ 1; 2 ]; [ -1; 2 ] ] in
  let image = Workloads.Guest_dpll.program ~num_vars:2 clauses in
  let svc, outcome = Service.boot image in
  (* drive DFS externally: always choice 0, backtracking manually *)
  let rec to_yield outcome stack =
    match outcome with
    | Service.Ready { candidate; arity = 1; output } -> Some (candidate, output)
    | Service.Ready { candidate; arity; _ } ->
      to_yield (Service.resume svc candidate ~choice:0 ())
        ((candidate, 1, arity) :: stack)
    | Service.Failed _ -> (
      match stack with
      | [] -> None
      | (c, k, a) :: rest ->
        to_yield (Service.resume svc c ~choice:k ())
          (if k + 1 < a then (c, k + 1, a) :: rest else rest))
    | Service.Finished _ | Service.Crashed _ -> None
  in
  match to_yield outcome [] with
  | None -> Alcotest.fail "p unsolved"
  | Some (p_ref, output) ->
    check Alcotest.bool "solved p" true
      (String.length output >= 4 && String.sub output 0 4 = "SAT\n");
    let q = Workloads.Guest_dpll.encode_increments [ [ [ -2; 1 ] ] ] in
    (match to_yield (Service.resume svc p_ref ~choice:0 ~stdin:q ()) [] with
    | Some (_, output2) ->
      check Alcotest.bool "solved p and q" true
        (String.length output2 >= 4 && String.sub output2 0 4 = "SAT\n")
    | None -> Alcotest.fail "p ∧ q should be satisfiable")

let service_release () =
  (* A workload whose steps dirty arena pages, so a child candidate owns
     frames of its own and releasing it observably shrinks the footprint. *)
  let svc, outcome =
    Service.boot
      (Workloads.Locality.program
         { depth = 2; branch = 2; touch_pages = 2; work = 1; arena_pages = 8 })
  in
  match outcome with
  | Service.Ready { candidate; _ } -> (
    (* Publish a child so releasing it observably drops frames while the
       root candidate keeps the shared ones pinned. *)
    match Service.resume svc candidate ~choice:0 () with
    | Service.Ready { candidate = child; _ } ->
      let live_before = Service.live_candidates svc in
      let frames_before = Service.distinct_frames svc in
      Service.release svc child;
      check Alcotest.int "one fewer live" (live_before - 1)
        (Service.live_candidates svc);
      check Alcotest.bool "distinct frames drop" true
        (Service.distinct_frames svc < frames_before);
      Alcotest.check_raises "resume after release"
        (Invalid_argument "Reclaim: reference 1 was released") (fun () ->
          ignore (Service.resume svc child ~choice:0 ()));
      (* The un-released sibling is untouched by the release. *)
      (match Service.resume svc candidate ~choice:1 () with
      | Service.Ready _ | Service.Finished _ | Service.Failed _ -> ()
      | Service.Crashed msg -> Alcotest.fail ("sibling resume crashed: " ^ msg))
    | _ -> Alcotest.fail "expected a child choice point")
  | _ -> Alcotest.fail "expected a choice point"

(* {1 Reclaim: demotion and promotion under memory pressure} *)

let explorer_survives_memory_pressure () =
  let image =
    Workloads.Locality.program
      { depth = 4; branch = 3; touch_pages = 3; work = 5; arena_pages = 16 }
  in
  (* Breadth-first, the frontier holds a whole level of the tree.  The
     fault-free run on unbounded memory establishes the footprint, the
     exact peak a budget has to undercut: with a store attached it would
     be the same, since a store frees a payload when its last extension
     is done, as a storeless run does. *)
  let run phys = Explorer.run ~strategy_override:`Bfs (Libos.boot phys image) in
  let phys0 = Mem.Phys_mem.create () in
  let base = run phys0 in
  let peak = Mem.Phys_mem.peak_frames_live phys0 in
  let capacity = max 24 (peak / 10) in
  check Alcotest.bool "budget is genuinely below the fault-free peak" true
    (capacity < peak);
  (* Same exploration under a frame budget the footprint does not fit. *)
  let phys = Mem.Phys_mem.create ~capacity () in
  let r = run phys in
  check Alcotest.int "same exit status" (completed base) (completed r);
  check (Alcotest.list Alcotest.string) "same transcript, same order"
    (transcript_lines base) (transcript_lines r);
  check Alcotest.int "same terminal count"
    (List.length base.Explorer.terminals)
    (List.length r.Explorer.terminals);
  check Alcotest.bool "payloads were demoted under pressure" true
    (r.Explorer.stats.Core.Stats.demotions > 0);
  check Alcotest.bool "demoted payloads were promoted back" true
    (r.Explorer.stats.Core.Stats.promotions > 0);
  check Alcotest.int "promotion retires no guest instruction"
    base.Explorer.stats.Core.Stats.instructions
    r.Explorer.stats.Core.Stats.instructions;
  check Alcotest.bool "frame budget was respected" true
    (Mem.Phys_mem.peak_frames_live phys <= capacity)

let divergent_path_killed_by_fuel () =
  (* Extension 1 spins forever; a finite [fuel_per_step] must kill that
     path alone and let the rest of the search finish. *)
  let image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_strategy ~strategy:Abi.strategy_dfs
      @ [ cmp R.rax (i 0); je "after" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 1); je "spin" ]
      @ Wl_common.sys_exit ~status:3
      @ [ label "spin"; jmp "spin"; label "after" ]
      @ Wl_common.sys_exit ~status:0)
  in
  let r = Explorer.run_image ~fuel_per_step:5_000 image in
  check Alcotest.int "search completes" 0 (completed r);
  check Alcotest.int "one path killed" 1 r.Explorer.stats.Core.Stats.kills;
  check Alcotest.bool "killed terminal names fuel" true
    (List.exists
       (fun t ->
         match t.Explorer.kind with
         | Explorer.Path_killed msg ->
           (* substring check: the reason string mentions fuel *)
           let lower = String.lowercase_ascii msg in
           let has needle =
             let n = String.length needle and l = String.length lower in
             let rec go i = i + n <= l && (String.sub lower i n = needle || go (i + 1)) in
             go 0
           in
           has "fuel"
         | _ -> false)
       r.Explorer.terminals);
  check Alcotest.bool "surviving path recorded its exit" true
    (List.exists
       (fun t -> match t.Explorer.kind with Explorer.Exit 3 -> true | _ -> false)
       r.Explorer.terminals)

(* {1 Native replay ablation} *)

let native_bt_enumerates () =
  let result =
    Native_bt.run_all (fun ctx ->
        let a = Native_bt.guess ctx 2 in
        let b = Native_bt.guess ctx 3 in
        (a, b))
  in
  check Alcotest.int "all paths" 6 (List.length result.Native_bt.solutions);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "DFS order"
    [ 0, 0; 0, 1; 0, 2; 1, 0; 1, 1; 1, 2 ]
    result.Native_bt.solutions

let native_bt_fail_prunes () =
  let result =
    Native_bt.run_all (fun ctx ->
        let a = Native_bt.guess ctx 3 in
        if a = 1 then Native_bt.fail ctx else a)
  in
  check (Alcotest.list Alcotest.int) "pruned" [ 0; 2 ] result.Native_bt.solutions

let native_bt_replay_cost () =
  (* replay-based restoration re-executes prefixes: decisions_replayed
     grows with the square-ish of the tree, unlike snapshots *)
  let result =
    Native_bt.run_all (fun ctx ->
        let rec go depth acc =
          if depth = 0 then acc
          else go (depth - 1) ((2 * acc) + Native_bt.guess ctx 2)
        in
        go 6 0)
  in
  check Alcotest.int "paths" 64 (List.length result.Native_bt.solutions);
  check Alcotest.bool "replays happened" true (result.Native_bt.replays >= 64);
  check Alcotest.bool "prefix re-execution cost" true
    (result.Native_bt.decisions_replayed > 64)

let native_bt_nqueens_matches () =
  let count n =
    let solutions = ref 0 in
    let result =
      Native_bt.run_all (fun ctx ->
          let row = Array.make n false in
          let ld = Array.make (2 * n) false in
          let rd = Array.make (2 * n) false in
          for c = 0 to n - 1 do
            let r = Native_bt.guess ctx n in
            if row.(r) || ld.(r + c) || rd.(n + r - c) then Native_bt.fail ctx;
            row.(r) <- true;
            ld.(r + c) <- true;
            rd.(n + r - c) <- true
          done)
    in
    solutions := List.length result.Native_bt.solutions;
    !solutions
  in
  check Alcotest.int "native replay queens 6" (Workloads.Nqueens.expected_solutions 6)
    (count 6)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let counting_tree_invariants =
  (* for any (depth, branch): fails = B^D, guesses = (B^D - 1)/(B - 1),
     pushed = B * guesses, evaluated = pushed — parametric correctness of
     the whole scheduler *)
  qtest "explorer node counts on random trees"
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 4))
    (fun (depth, branch) ->
      let r = Explorer.run_image (Workloads.Counting.program ~depth ~branch) in
      let leaves = Workloads.Counting.leaves ~depth ~branch in
      let interior =
        if branch = 1 then depth else (leaves - 1) / (branch - 1)
      in
      let get = M.get r.Explorer.metrics in
      (match r.Explorer.outcome with Explorer.Completed 0 -> true | _ -> false)
      && get N.search_fails = leaves
      && get N.search_guesses = interior
      && get N.search_extensions_pushed = branch * interior
      && get N.search_extensions = branch * interior)

let parallel_counts_match_sequential =
  qtest ~count:20 "parallel explorer matches sequential counts"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 3) (int_range 1 6))
    (fun (depth, branch, workers) ->
      let image = Workloads.Counting.program ~depth ~branch in
      let seq = Explorer.run_image image in
      let par = Explorer.run_image ~workers ~quantum:700 image in
      seq.Explorer.stats.Core.Stats.fails = par.Explorer.stats.Core.Stats.fails
      && (M.get seq.Explorer.metrics N.search_guesses)
         = (M.get par.Explorer.metrics N.search_guesses))

(* {1 Reclaim: the tiered payload store, driven directly}

   Everything runs on a poisoned allocator: a frame wrongly freed while a
   delta or a held snapshot still needs its bytes diverges loudly instead
   of silently. *)

module Reclaim = Core.Reclaim

(* Drive the machine to its next choice point, answering hints and
   strategy requests the way [Service.advance] does. *)
let rec run_to_guess m =
  match Libos.run m ~fuel:50_000_000 with
  | Libos.Guess { n } -> n
  | Libos.Guess_hint _ ->
    Vcpu.Cpu.set m.Libos.cpu R.rax 0;
    run_to_guess m
  | Libos.Guess_strategy _ ->
    Vcpu.Cpu.set m.Libos.cpu R.rax 1;
    run_to_guess m
  | stop ->
    Alcotest.failf "expected a choice point, got %a" Libos.pp_stop stop

let boot_store () =
  let phys = Mem.Phys_mem.create ~poison:true () in
  let image =
    Workloads.Locality.program
      { depth = 3; branch = 2; touch_pages = 2; work = 1; arena_pages = 8 }
  in
  let m = Libos.boot phys image in
  ignore (run_to_guess m);
  let metrics = M.create () in
  let store = Reclaim.create ~metrics m in
  let ids = Reclaim.snapshot_ids store in
  let root = Snapshot.capture ~ids ~owns_image:true ~depth:0 m in
  let h0 = Reclaim.add_root store root in
  (phys, m, store, ids, h0, M.get metrics)

(* Resume [parent] with [choice], run to the next publish, register it —
   captured with the restored record as its parent, the lineage the
   store's explicit frees rely on. *)
let extend ?depth store ids m parent ~choice =
  let base = Reclaim.get store parent in
  Snapshot.restore m base;
  Vcpu.Cpu.set m.Libos.cpu R.rax choice;
  ignore (run_to_guess m);
  let depth =
    match depth with Some d -> d | None -> Reclaim.depth store parent + 1
  in
  Reclaim.add store ~parent ~depth ~refs:1
    (Snapshot.capture ~ids ~parent:base ~depth m)

(* Bit-level identity of a snapshot: resume point plus every mapped page. *)
let snap_image (s : Snapshot.t) =
  ( Vcpu.Cpu.saved_rip s.Snapshot.regs,
    List.sort compare (Mem.Addr_space.snapshot_contents s.Snapshot.mem) )

let reclaim_tier_transitions () =
  let phys, m, store, ids, h0, count = boot_store () in
  let h1 = extend store ids m h0 ~choice:0 in
  let h2 = extend store ids m h1 ~choice:1 in
  let img2 = snap_image (Reclaim.get store h2) in
  check Alcotest.int "fresh entry is tier 0" 0 (Reclaim.tier store h2);
  check Alcotest.bool "live payload demotes" true (Reclaim.demote store h2);
  check Alcotest.int "demoted entry is tier 1" 1 (Reclaim.tier store h2);
  check Alcotest.bool "a demoted payload cannot demote again" false
    (Reclaim.demote store h2);
  check Alcotest.bool "delta bytes are accounted" true
    (Mem.Phys_mem.delta_bytes_held phys > 0);
  let s2 = Reclaim.get store h2 in
  check Alcotest.int "get promotes back to tier 0" 0 (Reclaim.tier store h2);
  check Alcotest.bool "promotion is bit-identical" true (snap_image s2 = img2);
  check Alcotest.int "promotion accounted" 1 (count N.reclaim_promotions);
  check Alcotest.int "delta bytes drained by promotion" 0
    (Mem.Phys_mem.delta_bytes_held phys)

let reclaim_pressure_handler_allocates_no_frames () =
  let phys, m, store, ids, h0, count = boot_store () in
  let h1 = extend store ids m h0 ~choice:0 in
  let _h2 = extend store ids m h1 ~choice:0 in
  (* Any frame allocation inside the handler would trip the injected
     fault; the policy must demote without allocating a single frame. *)
  Mem.Phys_mem.set_alloc_fault phys (Some (fun _ -> true));
  let n = Reclaim.demote_under_pressure store in
  Mem.Phys_mem.set_alloc_fault phys None;
  check Alcotest.bool "pressure demoted something" true (n >= 1);
  check Alcotest.int "demotions counted" n (count N.reclaim_demotions);
  check Alcotest.int "deepest payload went first" 1
    (Reclaim.tier store _h2)

(* An entry counts its holders: every release but the last keeps the
   payload, the last drops it, and a released entry ignores another. *)
let reclaim_counts_holders () =
  let _phys, m, store, ids, h0, _ = boot_store () in
  let base = Reclaim.get store h0 in
  Snapshot.restore m base;
  Vcpu.Cpu.set m.Libos.cpu R.rax 0;
  ignore (run_to_guess m);
  let h =
    Reclaim.add store ~parent:h0 ~depth:1 ~refs:3
      (Snapshot.capture ~ids ~parent:base ~depth:1 m)
  in
  Reclaim.release store h;
  Reclaim.release store h;
  check Alcotest.int "two releases keep the payload live" 0
    (Reclaim.tier store h);
  check Alcotest.int "and the entry held" 1 (Reclaim.held_refs store);
  Reclaim.release store h;
  Alcotest.check_raises "the third drops it"
    (Invalid_argument (Printf.sprintf "Reclaim: reference %d has no payload" h))
    (fun () -> ignore (Reclaim.tier store h));
  Alcotest.check_raises "and refuses gets"
    (Invalid_argument (Printf.sprintf "Reclaim: reference %d was released" h))
    (fun () -> ignore (Reclaim.get store h));
  Reclaim.release store h;
  check Alcotest.int "a fourth release does nothing" 0
    (Reclaim.held_refs store)

let reclaim_pinned_root_stops_at_tier1 () =
  let _phys, m, store, ids, h0, _ = boot_store () in
  let _h1 = extend store ids m h0 ~choice:0 in
  let img0 = snap_image (Reclaim.get store h0) in
  check Alcotest.bool "root demotes to a full image" true
    (Reclaim.demote store h0);
  check Alcotest.int "root stops at tier 1" 1 (Reclaim.tier store h0);
  check Alcotest.bool "root promotes from its full image" true
    (snap_image (Reclaim.get store h0) = img0)

(* The bulk operations visit entries in a fixed order, not a hash
   table's: [demote_all] deepest first and, among equal depths, newest
   handle first, so a child recorded at its parent's depth (as a scope
   root and its first capture are) still diffs against its live parent.
   Every handle promotes back afterwards.  Unknown handles raise. *)
let reclaim_bulk_order () =
  let _phys, m, store, ids, h0, _ = boot_store () in
  let h1 = extend store ids m h0 ~choice:0 in
  let h2 = extend store ids m h0 ~choice:1 in
  let h3 = extend store ids m h0 ~choice:0 in
  let h4 = extend ~depth:1 store ids m h1 ~choice:1 in
  let handles = [ h0; h1; h2; h3; h4 ] in
  let images = List.map (fun h -> snap_image (Reclaim.get store h)) handles in
  let visited slot f =
    Obs.Trace.start ();
    let n = f store in
    Obs.Trace.stop ();
    let order =
      List.filter_map
        (fun (e : Obs.Trace.view) ->
          if e.v_slot = slot then Some e.v_a else None)
        (Obs.Trace.events ())
    in
    Obs.Trace.clear ();
    (n, order)
  in
  let n, order = visited N.reclaim_demotions Reclaim.demote_all in
  check Alcotest.int "every live payload demoted" 5 n;
  check Alcotest.(list int) "deepest first, equal depths newest first"
    [ h4; h3; h2; h1; h0 ] order;
  check Alcotest.bool "every handle reconstructs bit-identically" true
    (List.map (fun h -> snap_image (Reclaim.get store h)) handles = images);
  List.iter
    (fun h ->
      match Reclaim.get store h with
      | _ -> Alcotest.failf "handle %d is unknown" h
      | exception Invalid_argument msg ->
        check Alcotest.string "unknown handle"
          (Printf.sprintf "Reclaim: unknown reference %d" h) msg)
    [ -1; h4 + 1; 1000 ]

(* The frame audit of a bare store: every live frame is reachable from
   the machine's map, a live payload, the anchor, or the unfreed records
   those derive from — and no reachable frame was freed. *)
let audit_store phys m store =
  let live = Hashtbl.create 16 in
  let rec add (s : Snapshot.t) =
    if not (s.freed || Hashtbl.mem live s.id) then begin
      Hashtbl.replace live s.id s;
      Option.iter add s.parent
    end
  in
  List.iter add
    (Option.to_list (Reclaim.anchor store) @ Reclaim.materialised store);
  let reachable visit =
    Mem.Addr_space.iter_frames m.Libos.aspace (visit "machine map");
    Hashtbl.iter
      (fun id (s : Snapshot.t) ->
        Stdx.Ptmap.iter
          (fun _ -> visit (Printf.sprintf "snapshot %d" id))
          (Mem.Addr_space.snapshot_map_for_debug s.mem))
      live
  in
  match Mem.Phys_mem.audit phys ~reachable with
  | Ok () -> ()
  | Error detail -> Alcotest.fail detail

let reclaim_tier_roundtrip_prop =
  (* Random walk over the candidate tree with random demotions and
     releases interleaved, audited after every action on a poisoned
     allocator; every unreleased handle must then reconstruct to the
     bit-identical snapshot it published, and every released one must
     have dropped its payload once the store lets go of the rest. *)
  qtest ~count:25 "tiered store reconstructs bit-identical snapshots"
    QCheck2.Gen.(
      list_size (int_range 1 12)
        (triple (int_range 0 1000) (int_range 0 1) (int_range 0 4)))
    (fun script ->
      let phys, m, store, ids, h0, _ = boot_store () in
      let published = ref [ (h0, snap_image (Reclaim.get store h0)) ] in
      let released = ref [] in
      List.iter
        (fun (pick, choice, action) ->
          let h, _ = List.nth !published (pick mod List.length !published) in
          (match action with
          | 0 | 1 ->
            (* extend, but only from parents whose resumption reaches
               another guess (the workload guesses at depths 0..2) *)
            if Reclaim.depth store h < 2 then begin
              let h' = extend store ids m h ~choice in
              published :=
                (h', snap_image (Reclaim.get store h')) :: !published
            end
          | 2 -> ignore (Reclaim.demote store h)
          | 3 -> ignore (Reclaim.demote_all store)
          | _ ->
            if h <> h0 then begin
              Reclaim.release store h;
              published := List.remove_assoc h !published;
              released := h :: !released
            end);
          audit_store phys m store)
        script;
      (* restore what [get] returns, as every driver does: the store's
         anchor follows the [get] *)
      let identical =
        List.for_all
          (fun (h, img) ->
            let s = Reclaim.get store h in
            Snapshot.restore m s;
            snap_image s = img)
          !published
      in
      audit_store phys m store;
      let rest = List.filter (( <> ) h0) (List.map fst !published) in
      List.iter (Reclaim.release store) rest;
      let dropped h =
        match Reclaim.tier store h with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      identical && List.for_all dropped (!released @ rest))

(* {1 Service robustness: fault containment} *)

let locality_image =
  Workloads.Locality.program
    { depth = 3; branch = 2; touch_pages = 2; work = 1; arena_pages = 8 }

let same_outcome msg (a : Service.outcome) (b : Service.outcome) =
  match a, b with
  | Service.Ready { arity = a1; output = o1; _ },
    Service.Ready { arity = a2; output = o2; _ } ->
    check Alcotest.int (msg ^ ": arity") a1 a2;
    check Alcotest.string (msg ^ ": output") o1 o2
  | Service.Finished { status = s1; output = o1 },
    Service.Finished { status = s2; output = o2 } ->
    check Alcotest.int (msg ^ ": status") s1 s2;
    check Alcotest.string (msg ^ ": output") o1 o2
  | Service.Failed { output = o1 }, Service.Failed { output = o2 } ->
    check Alcotest.string (msg ^ ": output") o1 o2
  | _ -> Alcotest.failf "%s: outcomes differ in kind" msg

let service_alloc_fail_contained () =
  (* An injected Alloc_fail mid-resume must return Crashed without
     corrupting sibling candidates. *)
  let svc, outcome = Service.boot locality_image in
  match outcome with
  | Service.Ready { candidate; _ } ->
    let baseline = Service.resume svc candidate ~choice:0 () in
    let phys = Service.phys svc in
    let armed =
      Inject.arm
        { Inject.seed = 0;
          faults = [ Inject.Alloc_fail (Mem.Phys_mem.next_frame_ordinal phys) ] }
    in
    Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook armed);
    (match Service.resume svc candidate ~choice:1 () with
    | Service.Crashed _ -> ()
    | _ -> Alcotest.fail "expected the injected fault to crash the resume");
    check Alcotest.bool "classified as allocation failure, not a kill" true
      (Service.last_crash_reason svc = None);
    Mem.Phys_mem.set_alloc_fault phys None;
    (* the sibling path is bit-identical resumable after the crash *)
    same_outcome "sibling resume after injected crash" baseline
      (Service.resume svc candidate ~choice:0 ())
  | _ -> Alcotest.fail "expected a choice point"

(* The session machine's whole state: registers and every mapped page. *)
let machine_image svc =
  let m = Service.machine svc in
  let page vpn =
    Mem.Addr_space.read_bytes m.Libos.aspace ~addr:(vpn * Mem.Page.size)
      ~len:Mem.Page.size
  in
  ( Vcpu.Cpu.save m.Libos.cpu,
    List.map
      (fun vpn -> (vpn, page vpn))
      (Mem.Addr_space.mapped_vpns m.Libos.aspace) )

(* Resume root -> a -> b, demote everything, release a, resume b: b's
   delta is based on a, so a keeps its payload until b has promoted
   through it, and drops it then. *)
let service_release_keeps_a_delta_base () =
  let svc, outcome = Service.boot locality_image in
  let ready = function
    | Service.Ready { candidate; _ } -> candidate
    | _ -> Alcotest.fail "expected a choice point"
  in
  let root = ready outcome in
  let a = ready (Service.resume svc root ~choice:0 ()) in
  let b = ready (Service.resume svc a ~choice:0 ()) in
  let before = Service.resume svc b ~choice:0 () in
  let image = machine_image svc in
  check Alcotest.int "root, a and b demoted" 3 (Service.demote_all svc);
  Service.release svc a;
  let promotions = Service.promotions svc in
  let after = Service.resume svc b ~choice:0 () in
  same_outcome "b resumes alike through its released base" before after;
  check Alcotest.bool "bit-identical machine state" true
    (machine_image svc = image);
  check Alcotest.int "b, a and the root promoted" 3
    (Service.promotions svc - promotions);
  check Alcotest.int "a dropped its payload once b promoted" 2
    (Service.materialised_candidates svc);
  Service.release svc b;
  check Alcotest.int "no delta bytes held" 0
    (Mem.Phys_mem.delta_bytes_held (Service.phys svc));
  check Alcotest.int "only the root stays" 1
    (Service.materialised_candidates svc)

(* [Service.pages] restores the candidate it reads, so the machine derives
   from the store's anchor again: releasing the candidate the machine
   stood at before frees no frame its map still names. *)
let service_pages_keeps_the_anchor () =
  let phys = Mem.Phys_mem.create ~poison:true () in
  let svc, outcome = Service.boot ~phys locality_image in
  let ready = function
    | Service.Ready { candidate; _ } -> candidate
    | _ -> Alcotest.fail "expected a choice point"
  in
  let root = ready outcome in
  let child = ready (Service.resume svc root ~choice:0 ()) in
  check Alcotest.bool "the root has pages" true (Service.pages svc root > 0);
  Service.release svc child;
  audit_store phys (Service.machine svc) (Service.store svc);
  same_outcome "the root resumes alike after pages"
    (Service.resume svc root ~choice:0 ())
    (Service.resume svc root ~choice:0 ())

let service_failed_resumes_keep_live_flat () =
  (* Every leaf of this tree dirties its pages and then fails, so no
     capture ever freezes a leaf segment.  Resuming the same leaf edge
     over and over must not grow the live count: each resume frees the
     previous attempt's COW tail before restoring. *)
  let svc, outcome = Service.boot locality_image in
  let phys = Service.phys svc in
  let rec leaf_parent r =
    match Service.resume svc r ~choice:0 () with
    | Service.Ready { candidate; _ } -> leaf_parent candidate
    | Service.Failed _ -> r
    | _ -> Alcotest.fail "expected a choice point or a failed leaf"
  in
  match outcome with
  | Service.Ready { candidate; _ } ->
    let r = leaf_parent candidate in
    let cow0 = (Mem.Phys_mem.metrics phys).Mem.Mem_metrics.cow_faults in
    let lives =
      List.init 20 (fun k ->
          (match Service.resume svc r ~choice:(k mod 2) () with
          | Service.Failed _ -> ()
          | _ -> Alcotest.fail "expected the leaf to fail");
          Mem.Phys_mem.frames_live phys)
    in
    check Alcotest.bool "each failed leaf dirtied pages" true
      ((Mem.Phys_mem.metrics phys).Mem.Mem_metrics.cow_faults - cow0 >= 20);
    check (Alcotest.list Alcotest.int) "live frames stay flat"
      (List.map (fun _ -> List.hd lives) lives) lives
  | _ -> Alcotest.fail "expected a choice point"

(* {1 Multi-tenant pool} *)

let pool_roots pool n image =
  List.init n (fun _ ->
      match Tenancy.boot pool image with
      | Tenancy.Admitted (id, Service.Ready { candidate; _ }) -> (id, candidate)
      | Tenancy.Admitted (_, _) -> Alcotest.fail "tenant boot missed its choice point"
      | Tenancy.Queued _ | Tenancy.Rejected -> Alcotest.fail "tenant boot refused")

(* Retire every tenant the pool admitted: not one frame may stay live. *)
let quiesce pool =
  for id = 0 to Tenancy.tenant_count pool - 1 do Tenancy.kill pool id done;
  Mem.Phys_mem.assert_quiescent (Tenancy.phys pool);
  check Alcotest.int "dedup references drained" 0
    (Mem.Phys_mem.dedup_refs (Tenancy.phys pool))

(* Tenant ids are dense from 0 and index the pool directly, past its
   initial table size too; an id never issued is unknown everywhere. *)
let tenancy_ids_index_the_pool () =
  let pool = Tenancy.create () in
  let tenants = pool_roots pool 9 locality_image in
  check Alcotest.(list int) "ids dense in admission order"
    (List.init 9 Fun.id) (List.map fst tenants);
  List.iter
    (fun (id, r) ->
      if id mod 3 = 0 then
        check Alcotest.bool "post accepted" true
          (Tenancy.post pool id r ~choice:0 ()))
    tenants;
  let served = ref [] in
  let rec drain () =
    match Tenancy.step pool with
    | Some (id, _) -> served := id :: !served; drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "each request served by its tenant" [ 0; 3; 6 ]
    (List.rev !served);
  List.iter
    (fun (id, _) ->
      check Alcotest.int "resumes land on the posting tenant"
        (if id mod 3 = 0 then 1 else 0) (Tenancy.resumes_of pool id))
    tenants;
  List.iter
    (fun id ->
      check Alcotest.bool "unknown id has no state" true
        (Tenancy.state pool id = None);
      check Alcotest.int "unknown id holds nothing" 0
        (Tenancy.tenant_frames pool id);
      (match Tenancy.kill pool id with
      | () -> Alcotest.fail "kill of an unknown tenant"
      | exception Invalid_argument msg ->
        check Alcotest.string "kill names itself" "Tenancy.kill: unknown tenant"
          msg);
      match Tenancy.service pool id with
      | _ -> Alcotest.fail "service of an unknown tenant"
      | exception Invalid_argument msg ->
        check Alcotest.string "service names itself"
          "Tenancy.service: unknown tenant" msg)
    [ -1; 9; 100 ];
  quiesce pool

let tenancy_dedup_shares_image_frames () =
  let pool = Tenancy.create () in
  let tenants = pool_roots pool 8 locality_image in
  let phys = Tenancy.phys pool in
  let pages =
    (String.length locality_image.code + Mem.Page.size - 1) / Mem.Page.size
  in
  let entries = Mem.Phys_mem.dedup_entries phys in
  (* identical pages within ONE image (zeroed arena pages) hash-cons to a
     single entry too, so the table is no larger than the page count *)
  check Alcotest.bool "image pages hash-consed" true
    (entries >= 1 && entries <= pages);
  check Alcotest.int "one reference per mapped page per tenant"
    (8 * pages) (Mem.Phys_mem.dedup_refs phys);
  check Alcotest.int "all but the first-sight pages came from the table"
    ((8 * pages) - entries) (M.get (Mem.Phys_mem.registry phys) N.mem_dedup_hits);
  check Alcotest.bool "sharing multiplier at least the tenant count" true
    (Tenancy.dedup_ratio pool >= 8.0);
  (* refcounts return to zero at teardown *)
  List.iter (fun (id, _) -> Tenancy.kill pool id) tenants;
  check Alcotest.int "dedup references drain at teardown" 0
    (Mem.Phys_mem.dedup_refs phys);
  check Alcotest.int "dedup table empties with the last tenant" 0
    (Mem.Phys_mem.dedup_entries phys);
  quiesce pool

let tenancy_fault_containment () =
  (* kill one tenant with an injected allocation fault; its siblings'
     candidates stay bit-identical resumable *)
  let pool = Tenancy.create () in
  (match pool_roots pool 3 locality_image with
  | [ (t0, r0); (t1, r1); (t2, r2) ] ->
    let run id r ~choice =
      check Alcotest.bool "posted" true (Tenancy.post pool id r ~choice ());
      match Tenancy.step pool with
      | Some (id', outcome) ->
        check Alcotest.int "round-robin served the poster" id id';
        outcome
      | None -> Alcotest.fail "pool had work but no step"
    in
    let baseline0 = run t0 r0 ~choice:0 in
    (* aim the fault at tenant 1's next allocation *)
    let phys = Tenancy.phys pool in
    check Alcotest.bool "victim posted" true (Tenancy.post pool t1 r1 ~choice:0 ());
    check (Alcotest.option Alcotest.int) "victim is next" (Some t1)
      (Tenancy.next_tenant pool);
    let armed =
      Inject.arm
        { Inject.seed = 1;
          faults = [ Inject.Alloc_fail (Mem.Phys_mem.next_frame_ordinal phys) ] }
    in
    Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook armed);
    (match Tenancy.step pool with
    | Some (id, Service.Crashed _) -> check Alcotest.int "victim crashed" t1 id
    | _ -> Alcotest.fail "expected the victim to crash");
    Mem.Phys_mem.set_alloc_fault phys None;
    (match Tenancy.state pool t1 with
    | Some (Tenancy.Crashed _) -> ()
    | _ -> Alcotest.fail "victim not marked crashed");
    check Alcotest.bool "crashed tenant refuses new work" false
      (Tenancy.post pool t1 r1 ~choice:0 ());
    check Alcotest.int "one crash counted" 1 (tenancy pool N.tenancy_crashes);
    (* survivors: bit-identical to their fault-free resumes *)
    same_outcome "survivor t0 after the storm" baseline0 (run t0 r0 ~choice:0);
    (match run t2 r2 ~choice:0 with
    | Service.Ready _ -> ()
    | _ -> Alcotest.fail "survivor t2 lost its choice point");
    check Alcotest.int "two tenants still live" 2 (Tenancy.live_tenants pool);
    quiesce pool
  | _ -> Alcotest.fail "expected three tenants")

let tenancy_round_robin_is_fair () =
  let pool = Tenancy.create () in
  match pool_roots pool 2 locality_image with
  | [ (t0, r0); (t1, r1) ] ->
    (* t0 floods the pool with work before t1 posts anything; the schedule
       must still alternate — one slot per tenant per round *)
    ignore (Tenancy.post pool t0 r0 ~choice:0 ());
    ignore (Tenancy.post pool t0 r0 ~choice:1 ());
    ignore (Tenancy.post pool t0 r0 ~choice:0 ());
    ignore (Tenancy.post pool t1 r1 ~choice:0 ());
    ignore (Tenancy.post pool t1 r1 ~choice:1 ());
    let order =
      List.init 5 (fun _ ->
          match Tenancy.step pool with
          | Some (id, _) -> id
          | None -> Alcotest.fail "queued work vanished")
    in
    check (Alcotest.list Alcotest.int) "one slot per tenant per round"
      [ t0; t1; t0; t1; t0 ] order;
    check Alcotest.bool "drained" true (Tenancy.step pool = None);
    quiesce pool
  | _ -> Alcotest.fail "expected two tenants"

let tenancy_admission_control () =
  let pool = Tenancy.create ~max_tenants:2 ~queue_limit:1 () in
  let _tenants = pool_roots pool 2 locality_image in
  (match Tenancy.boot pool locality_image with
  | Tenancy.Queued 1 -> ()
  | _ -> Alcotest.fail "third boot should queue");
  (match Tenancy.boot pool locality_image with
  | Tenancy.Rejected -> ()
  | _ -> Alcotest.fail "fourth boot should be rejected: queue full");
  check Alcotest.int "nothing admitted while full" 0
    (List.length (Tenancy.pump pool));
  check Alcotest.int "still one pending boot" 1 (Tenancy.pending_boots pool);
  (* room opens; the queued boot must eventually be admitted (backoff may
     push the retry a few pumps out) *)
  Tenancy.kill pool 0;
  let rec pump_until n =
    if n = 0 then Alcotest.fail "queued boot never admitted"
    else
      match Tenancy.pump pool with
      | [] -> pump_until (n - 1)
      | [ (_, Service.Ready _) ] -> ()
      | _ -> Alcotest.fail "unexpected admission result"
  in
  pump_until 20;
  check Alcotest.int "queue drained" 0 (Tenancy.pending_boots pool);
  check Alcotest.int "admissions counted" 3 (tenancy pool N.tenancy_admits);
  check Alcotest.int "rejections counted" 1 (tenancy pool N.tenancy_rejects);
  quiesce pool

let tenancy_deadline_kills_runaway () =
  (* extension 1 spins forever; the pool deadline must kill that tenant
     alone, classified as a deadline kill, and leave its sibling intact *)
  let spin_image =
    assemble ~entry:"main"
      ([ label "main" ]
      @ Wl_common.sys_guess_imm ~n:2
      @ [ cmp R.rax (i 1); je "spin" ]
      @ Wl_common.sys_exit ~status:0
      @ [ label "spin"; jmp "spin" ])
  in
  let pool = Tenancy.create ~deadline:5_000 () in
  match pool_roots pool 2 spin_image with
  | [ (t0, r0); (t1, r1) ] ->
    ignore (Tenancy.post pool t0 r0 ~choice:1 ());
    (match Tenancy.step pool with
    | Some (id, Service.Crashed _) -> check Alcotest.int "runaway killed" t0 id
    | _ -> Alcotest.fail "expected a deadline kill");
    check Alcotest.int "classified as deadline kill" 1
      (tenancy pool N.tenancy_deadline_kills);
    (match Tenancy.state pool t0 with
    | Some (Tenancy.Crashed _) -> ()
    | _ -> Alcotest.fail "runaway not marked crashed");
    ignore (Tenancy.post pool t1 r1 ~choice:0 ());
    (match Tenancy.step pool with
    | Some (id, Service.Finished { status; _ }) ->
      check Alcotest.int "sibling survives" t1 id;
      check Alcotest.int "sibling exits cleanly" 0 status;
      quiesce pool
    | _ -> Alcotest.fail "sibling should finish")
  | _ -> Alcotest.fail "expected two tenants"

let tenancy_frame_budget_degrades_fairly () =
  (* Probe the per-step working set on an unbudgeted pool, then give a
     budget a wide frontier will exceed: the pool must demote the tenant's
     cold candidates back under it (fair degradation), not evict — and a
     hopeless budget must evict.

     The shape matters: frontier siblings off one root are reclaimable
     (demoted, their delta frames free immediately — no child shares
     them), whereas the anchor chain under the machine's current state is
     pinned by design.  Fanning out from the root keeps the irreducible
     footprint at one candidate's delta, so a modest budget is something
     demotion can actually maintain. *)
  let image =
    Workloads.Locality.program
      { depth = 4; branch = 2; touch_pages = 4; work = 1; arena_pages = 16 }
  in
  let drive pool id root rounds =
    let cur = ref root in
    for k = 1 to rounds do
      ignore (Tenancy.post pool id !cur ~choice:(k mod 2) ());
      match Tenancy.step pool with
      | Some (_, Service.Ready { candidate; _ }) -> cur := candidate
      | Some (_, _) -> ()
      | None -> Alcotest.fail "pool had work but no step"
    done
  in
  (* resume the same root over and over: a frontier of siblings *)
  let fan pool id root rounds =
    for k = 1 to rounds do
      if not (Tenancy.post pool id root ~choice:(k mod 2) ()) then
        Alcotest.fail "tenant stopped running mid-fan";
      match Tenancy.step pool with
      | Some (_, Service.Ready _) -> ()
      | Some (_, Service.Crashed msg) ->
        Alcotest.fail ("tenant crashed mid-fan: " ^ msg)
      | Some (_, _) -> Alcotest.fail "root stopped publishing mid-fan"
      | None -> Alcotest.fail "pool had work but no step"
    done
  in
  let probe = Tenancy.create () in
  let ws =
    match pool_roots probe 1 image with
    | [ (id, root) ] ->
      drive probe id root 1;
      Tenancy.tenant_frames probe id
    | _ -> Alcotest.fail "probe boot failed"
  in
  check Alcotest.bool "probe found a real working set" true (ws >= 4);
  let budget = (2 * ws) + 4 in
  let pool = Tenancy.create ~frame_budget:budget () in
  (match pool_roots pool 1 image with
  | [ (id, root) ] ->
    fan pool id root 12;
    check Alcotest.bool "tenant still running" true
      (Tenancy.state pool id = Some Tenancy.Running);
    check Alcotest.int "no eviction needed" 0 (tenancy pool N.tenancy_budget_evictions);
    check Alcotest.bool "payloads were demoted to fit" true
      (Service.demotions (Tenancy.service pool id) > 0);
    check Alcotest.bool "budget respected after degradation" true
      (Tenancy.tenant_frames pool id <= budget);
    quiesce pool;
    quiesce probe
  | _ -> Alcotest.fail "budgeted boot failed");
  (* a budget below the live working set is incompressible: evict *)
  let pool2 = Tenancy.create ~frame_budget:2 () in
  match pool_roots pool2 1 image with
  | [ (id, root) ] ->
    drive pool2 id root 1;
    check Alcotest.bool "incompressible tenant evicted" true
      (Tenancy.state pool2 id = Some (Tenancy.Evicted "frame budget"));
    check Alcotest.int "eviction counted" 1 (tenancy pool2 N.tenancy_budget_evictions);
    check Alcotest.int "eviction returned every frame" 0
      (Tenancy.tenant_frames pool2 id);
    quiesce pool2
  | _ -> Alcotest.fail "tiny-budget boot failed"

let tenancy_shared_pressure_pool () =
  (* Many tenants over one bounded pool: pressure must demote across
     tenants rather than fail allocations, and every tenant's search must
     still complete correctly. *)
  let image =
    Workloads.Locality.program
      { depth = 3; branch = 2; touch_pages = 2; work = 1; arena_pages = 8 }
  in
  (* fault-free footprint of ONE tenant *)
  let probe = Tenancy.create () in
  let dfs pool id root =
    (* exhaustive DFS via the pool, returning terminal outputs in order *)
    let terminals = ref [] in
    let rec go r =
      ignore (Tenancy.post pool id r ~choice:0 ());
      ignore (Tenancy.post pool id r ~choice:1 ());
      (* requests are queued FIFO per tenant; serve both *)
      for _ = 1 to 2 do
        match Tenancy.step pool with
        | Some (_, Service.Ready { candidate; _ }) -> go candidate
        | Some (_, Service.Finished { status; output }) ->
          terminals := (status, output) :: !terminals
        | Some (_, Service.Failed { output }) ->
          terminals := (-1, output) :: !terminals
        | Some (_, Service.Crashed msg) -> Alcotest.fail ("crash: " ^ msg)
        | None -> Alcotest.fail "queued request vanished"
      done
    in
    go root;
    List.rev !terminals
  in
  let baseline =
    match pool_roots probe 1 image with
    | [ (id, root) ] -> dfs probe id root
    | _ -> Alcotest.fail "probe boot failed"
  in
  let peak = Mem.Phys_mem.peak_frames_live (Tenancy.phys probe) in
  (* four tenants under a pool budget well below 4x one tenant's peak *)
  let capacity = max 48 (peak * 2) in
  let pool = Tenancy.create ~capacity () in
  let tenants = pool_roots pool 4 image in
  List.iter
    (fun (id, root) ->
      let got = dfs pool id root in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        (Printf.sprintf "tenant %d terminal set" id)
        baseline got)
    tenants;
  check Alcotest.bool "budget respected" true
    (Mem.Phys_mem.peak_frames_live (Tenancy.phys pool) <= capacity);
  check Alcotest.int "all tenants survived" 4 (Tenancy.live_tenants pool);
  quiesce probe;
  quiesce pool

let tenancy_kill_all_is_quiescent () =
  (* Sessions in every state — mid-search with demoted, promoted and
     released candidates, crashed by an injected fault, finished — over a
     bounded pool, with and without image dedup.  Killing them all must
     return every frame and every dedup reference. *)
  let image =
    Workloads.Locality.program
      { depth = 3; branch = 2; touch_pages = 3; work = 1; arena_pages = 8 }
  in
  List.iter
    (fun dedup ->
      let pool = Tenancy.create ~capacity:64 ~dedup () in
      let tenants = pool_roots pool 3 image in
      let serve id r ~choice =
        ignore (Tenancy.post pool id r ~choice ());
        match Tenancy.step pool with
        | Some (_, o) -> o
        | None -> Alcotest.fail "pool had work but no step"
      in
      List.iter
        (fun (id, root) ->
          match serve id root ~choice:0 with
          | Service.Ready { candidate; _ } ->
            ignore (serve id candidate ~choice:1);
            ignore (Service.demote_all (Tenancy.service pool id));
            ignore (serve id candidate ~choice:0);
            Service.release (Tenancy.service pool id) candidate;
            ignore (serve id root ~choice:1)
          | _ -> Alcotest.fail "expected a choice point")
        tenants;
      (* one more tenant dies of an injected allocation fault mid-step *)
      (match tenants with
      | (id, root) :: _ ->
        let phys = Tenancy.phys pool in
        ignore (Tenancy.post pool id root ~choice:0 ());
        Mem.Phys_mem.set_alloc_fault phys
          (Inject.alloc_hook
             (Inject.arm
                { Inject.seed = 0;
                  faults =
                    [ Inject.Alloc_fail (Mem.Phys_mem.next_frame_ordinal phys) ] }));
        (match Tenancy.step pool with
        | Some (_, Service.Crashed _) -> ()
        | _ -> Alcotest.fail "expected the injected fault to crash the step");
        Mem.Phys_mem.set_alloc_fault phys None
      | [] -> ());
      check Alcotest.bool "the pool held frames" true
        (Mem.Phys_mem.frames_live (Tenancy.phys pool) > 0);
      quiesce pool)
    [ true; false ]

let tenancy_budget_decided_without_collection () =
  (* A frame-budget verdict reads the exact account the moment demotion
     returns: the same run decides the same way whatever the state of the
     host heap.  One run churns garbage and collects between steps, the
     other never does; every step's verdict and account must agree. *)
  let image =
    Workloads.Locality.program
      { depth = 4; branch = 2; touch_pages = 4; work = 1; arena_pages = 16 }
  in
  let run ~budget ~churn =
    let pool = Tenancy.create ~frame_budget:budget () in
    let garbage = ref [] in
    let trace =
      match pool_roots pool 1 image with
      | [ (id, root) ] ->
        List.init 6 (fun k ->
            if churn then begin
              garbage := Array.make 4096 k :: !garbage;
              Gc.full_major ()
            end;
            ignore (Tenancy.post pool id root ~choice:(k mod 2) ());
            ignore (Tenancy.step pool);
            ( Tenancy.tenant_frames pool id,
              Service.demotions (Tenancy.service pool id),
              tenancy pool N.tenancy_budget_evictions ))
      | _ -> Alcotest.fail "budgeted boot failed"
    in
    ignore (Sys.opaque_identity !garbage);
    quiesce pool;
    trace
  in
  let triple = Alcotest.(list (triple int int int)) in
  let fair = run ~budget:14 ~churn:false in
  check triple "a fair budget decides the same way under churn" fair
    (run ~budget:14 ~churn:true);
  check Alcotest.bool "the fair budget demoted" true
    (List.exists (fun (_, d, _) -> d > 0) fair);
  check Alcotest.bool "and never evicted" true
    (List.for_all (fun (_, _, e) -> e = 0) fair);
  let tiny = run ~budget:2 ~churn:false in
  check triple "an eviction is decided the same way under churn" tiny
    (run ~budget:2 ~churn:true);
  match tiny with
  | (frames, _, 1) :: _ ->
    check Alcotest.int "evicted on the first step with nothing left" 0 frames
  | _ -> Alcotest.fail "a hopeless budget must evict on the first step"

(* The move from one extension to the next allocates nothing: what an
   exploration allocates is the guesses' snapshots and frontier entries
   and the terminal list, about 15 minor words per extension on queens(8).
   The first run warms the shared tables. *)
let switch_allocation () =
  let image = Workloads.Nqueens.program ~n:8 in
  let explore () = Explorer.run (Libos.boot (Mem.Phys_mem.create ()) image) in
  ignore (explore ());
  let w0 = Gc.minor_words () in
  let r = explore () in
  let words = Gc.minor_words () -. w0 in
  let exts = r.Explorer.stats.Core.Stats.extensions_evaluated in
  check Alcotest.int "queens(8) completes" 0 (completed r);
  let per_ext = words /. float exts in
  check Alcotest.bool
    (Printf.sprintf "%.2f minor words per extension <= 20" per_ext)
    true (per_ext <= 20.0)

(* A run with a reclaim store leaves the memory as a storeless run does:
   once the counters are read, the store gives back the pinned root, its
   anchor and every payload still live, at any frame budget and with the
   store attached but unpressured.  Breadth-first, the tree peaks at 121
   frames, so every budget below puts the tiers to work. *)
let budgeted_run_returns_frames () =
  let image =
    Workloads.Locality.program
      { depth = 4; branch = 3; touch_pages = 3; work = 5; arena_pages = 16 }
  in
  let live_after ?tier_stress capacity =
    let phys = Mem.Phys_mem.create ~capacity () in
    let r =
      Explorer.run ~strategy_override:`Bfs ?tier_stress (Libos.boot phys image)
    in
    if capacity > 0 then
      check Alcotest.bool "demoted" true (r.Explorer.stats.Core.Stats.demotions > 0);
    check Alcotest.int "completes" 0 (completed r);
    Mem.Phys_mem.frames_live phys
  in
  let plain = live_after 0 in
  List.iter
    (fun (label, tier_stress, capacity) ->
      check Alcotest.int (label ^ ": frames live after the run") plain
        (live_after ?tier_stress capacity))
    [ "capacity 30", None, 30; "capacity 60", None, 60;
      "capacity 90", None, 90; "tier_stress:0", Some 0, 0 ]

(* A store frees a payload when its last extension is done, as a
   storeless run frees a snapshot: nqueens(6) with the store attached but
   unpressured peaks at the storeless run's frames, and a budget a few
   frames above that peak demotes nothing. *)
let store_run_frees_by_extension_count () =
  let image = Workloads.Nqueens.program ~n:6 in
  let run ?tier_stress capacity =
    let phys = Mem.Phys_mem.create ~capacity () in
    let r = Explorer.run ?tier_stress (Libos.boot phys image) in
    check Alcotest.int "completes" 0 (completed r);
    Mem.Phys_mem.peak_frames_live phys, r
  in
  let storeless, plain = run 0 in
  check Alcotest.int "storeless peak" 9 storeless;
  let stored, _ = run ~tier_stress:0 0 in
  check Alcotest.int "tier_stress:0 peaks at the storeless peak" storeless
    stored;
  let budgeted, r = run (storeless + 3) in
  check Alcotest.int "a budget above the peak demotes nothing" 0
    r.Explorer.stats.Core.Stats.demotions;
  check Alcotest.int "nor raises the peak" storeless budgeted;
  check Alcotest.string "same transcript" plain.Explorer.transcript
    r.Explorer.transcript

(* A [Stats] view reads its run's registry field for field, and the
   counts, plain and under tier stress, are pinned.  A session's getters
   read its registry, whose [mem.*] slots read 0. *)
let registry_and_stats_view_agree () =
  let image = Workloads.Nqueens.program ~n:6 in
  let run ?tier_stress () =
    Explorer.run ?tier_stress (Libos.boot (Mem.Phys_mem.create ()) image)
  in
  let fields (s : Core.Stats.t) =
    let m = s.mem in
    [ s.instructions; s.snapshots_created; s.restores; s.adopting_restores;
      s.extensions_evaluated; s.fails; s.max_frontier; s.kills; s.requeues;
      s.demotions; s.promotions; s.replays; m.cow_faults; m.zero_fills;
      m.frames_allocated; m.frames_recycled; m.frames_freed; m.tlb_misses;
      m.pt_walks; m.snapshots; m.restores ]
  in
  let slots metrics =
    List.map (M.get metrics)
      N.[ vcpu_instructions; snapshot_captures; snapshot_restores ]
    @ [ 0 ]
    @ List.map (M.get metrics)
        N.[ search_extensions; search_fails; search_max_frontier; search_kills;
            sched_requeues; reclaim_demotions; reclaim_promotions ]
    @ [ 0 ]
    @ List.map (M.get metrics)
        N.[ mem_cow_faults; mem_zero_fills; mem_frames_allocated;
            mem_frames_recycled; mem_frames_freed; mem_tlb_misses;
            mem_pt_walks; mem_snapshots; mem_restores ]
  in
  let plain = run () and stressed = run ~tier_stress:1 () in
  List.iter
    (fun (name, (r : Explorer.result), expected) ->
      check Alcotest.(list int) (name ^ ": view = registry") (slots r.metrics)
        (fields r.stats);
      check Alcotest.(list int) (name ^ ": counts") expected (fields r.stats))
    [ ( "plain", plain,
        [ 13048; 150; 895; 0; 894; 746; 21; 0; 0; 0; 0; 0; 152; 1; 153; 146;
          153; 131; 131; 150; 895 ] );
      ( "tier_stress:1", stressed,
        [ 13048; 150; 895; 0; 894; 746; 21; 0; 0; 895; 745; 0; 147; 6; 2383;
          2375; 2383; 1499; 1499; 895; 1640 ] ) ];
  let svc, outcome =
    Service.boot
      (Workloads.Locality.program
         { depth = 3; branch = 2; touch_pages = 2; work = 1; arena_pages = 8 })
  in
  (match outcome with
  | Service.Ready { candidate; _ } -> (
    match Service.resume svc candidate ~choice:0 () with
    | Service.Ready { candidate = child; _ } ->
      check Alcotest.bool "demoted" true (Service.demote_all svc >= 1);
      ignore (Service.resume svc child ~choice:0 ())
    | _ -> Alcotest.fail "expected a child choice point")
  | _ -> Alcotest.fail "expected a choice point");
  let get = M.get (Service.metrics svc) in
  check Alcotest.bool "the session demoted and promoted" true
    (Service.demotions svc > 0 && Service.promotions svc > 0);
  check Alcotest.(list int) "session getters read its registry"
    [ get N.reclaim_demotions; get N.reclaim_promotions ]
    [ Service.demotions svc; Service.promotions svc ];
  check Alcotest.(list int) "a session's mem slots read 0" [ 0; 0; 0 ]
    (List.map get N.[ mem_frames_allocated; mem_frames_freed; mem_cow_faults ])

(* A run's frees pair its allocations: [mem.frames_allocated] minus
   [mem.frames_freed] is the run's change in live frames, with a store or
   without, stressed or under a frame budget. *)
let run_frames_pair () =
  let image = Workloads.Nqueens.program ~n:6 in
  (* the budgeted row runs breadth-first, whose frontier holds a whole
     level: half its unbounded peak puts the tiers to work while every
     path still runs *)
  let peak =
    let phys = Mem.Phys_mem.create () in
    ignore (Explorer.run ~strategy_override:`Bfs (Libos.boot phys image));
    Mem.Phys_mem.peak_frames_live phys
  in
  List.iter
    (fun (label, strategy_override, tier_stress, capacity) ->
      let phys = Mem.Phys_mem.create ~capacity () in
      let m = Libos.boot phys image in
      let live0 = Mem.Phys_mem.frames_live phys in
      let r = Explorer.run ?strategy_override ?tier_stress m in
      check Alcotest.int (label ^ ": completes") 0 (completed r);
      check Alcotest.int (label ^ ": every terminal") 746
        (List.length r.Explorer.terminals);
      if capacity > 0 then
        check Alcotest.bool (label ^ ": demoted and promoted") true
          (r.Explorer.stats.Core.Stats.demotions > 0
          && r.Explorer.stats.Core.Stats.promotions > 0);
      let get = M.get r.Explorer.metrics in
      check Alcotest.int (label ^ ": allocated - freed = change in live")
        (Mem.Phys_mem.frames_live phys - live0)
        (get N.mem_frames_allocated - get N.mem_frames_freed))
    [ "plain", None, None, 0; "tier_stress:0", None, Some 0, 0;
      "tier_stress:1", None, Some 1, 0; "half the peak", Some `Bfs, None, peak / 2 ]

let tests =
  [ Alcotest.test_case "nqueens all sizes" `Quick nqueens_all_sizes;
    Alcotest.test_case "nqueens boards match host" `Quick nqueens_boards_match_host;
    Alcotest.test_case "counting tree exact" `Quick counting_tree_exact;
    Alcotest.test_case "frame recycling is invisible" `Quick
      recycling_is_invisible;
    Alcotest.test_case "scope returns 0 after exhaustion" `Quick
      strategy_scope_returns_zero_after_exhaustion;
    Alcotest.test_case "guess outside scope aborts" `Quick guess_outside_scope_aborts;
    Alcotest.test_case "audit passes every scheduler" `Quick
      audit_passes_every_scheduler;
    Alcotest.test_case "audit catches a leak" `Quick audit_catches_leak;
    Alcotest.test_case "audit catches an early free" `Quick
      audit_catches_early_free;
    Alcotest.test_case "audit catches a ref imbalance" `Quick
      audit_catches_ref_imbalance;
    Alcotest.test_case "first-exit mode" `Quick first_exit_mode_stops;
    Alcotest.test_case "all-solutions subset sum" `Quick all_solutions_subset_sum;
    Alcotest.test_case "coloring counts" `Quick coloring_counts;
    Alcotest.test_case "stdout survives backtracking" `Quick output_survives_backtracking;
    Alcotest.test_case "silent siblings harvest nothing" `Quick silent_siblings_harvest;
    Alcotest.test_case "file writes contained" `Quick file_writes_are_contained;
    Alcotest.test_case "killed path does not stop search" `Quick
      killed_path_does_not_stop_search;
    Alcotest.test_case "hint plumbing" `Quick hint_drives_astar;
    Alcotest.test_case "extension budget aborts" `Quick max_extensions_aborts;
    Alcotest.test_case "shared page survives backtracking" `Quick
      shared_page_survives_backtracking;
    Alcotest.test_case "timeout kills runaway extension" `Quick
      timeout_kills_runaway_extension;
    Alcotest.test_case "beam strategy" `Quick beam_strategy_runs;
    Alcotest.test_case "bounded dfs prunes" `Quick dfs_bounded_prunes_depth;
    Alcotest.test_case "snapshot parent chain" `Quick snapshot_parent_chain;
    Alcotest.test_case "path lineage length" `Quick path_lineage_length;
    Alcotest.test_case "snapshot ids are per-run" `Quick snapshot_ids_are_per_run;
    Alcotest.test_case "snapshot ids atomic across domains" `Quick
      snapshot_ids_atomic_across_domains;
    Alcotest.test_case "service resume repeatable" `Quick service_resume_is_repeatable;
    Alcotest.test_case "service distinct branches" `Quick service_distinct_branches;
    Alcotest.test_case "service incremental dpll" `Quick service_guest_dpll_increments;
    Alcotest.test_case "service release" `Quick service_release;
    Alcotest.test_case "explorer survives memory pressure" `Quick
      explorer_survives_memory_pressure;
    Alcotest.test_case "reclaim tier transitions" `Quick
      reclaim_tier_transitions;
    Alcotest.test_case "reclaim pressure allocates no frames" `Quick
      reclaim_pressure_handler_allocates_no_frames;
    Alcotest.test_case "reclaim counts holders" `Quick reclaim_counts_holders;
    Alcotest.test_case "reclaim pinned root stops at tier 1" `Quick
      reclaim_pinned_root_stops_at_tier1;
    Alcotest.test_case "reclaim bulk operations visit in order" `Quick
      reclaim_bulk_order;
    reclaim_tier_roundtrip_prop;
    Alcotest.test_case "service alloc fail contained" `Quick
      service_alloc_fail_contained;
    Alcotest.test_case "service failed resumes keep live flat" `Quick
      service_failed_resumes_keep_live_flat;
    Alcotest.test_case "service release keeps a delta's base" `Quick
      service_release_keeps_a_delta_base;
    Alcotest.test_case "service pages keeps the anchor" `Quick
      service_pages_keeps_the_anchor;
    Alcotest.test_case "tenancy ids index the pool" `Quick
      tenancy_ids_index_the_pool;
    Alcotest.test_case "tenancy dedup shares image frames" `Quick
      tenancy_dedup_shares_image_frames;
    Alcotest.test_case "tenancy fault containment" `Quick
      tenancy_fault_containment;
    Alcotest.test_case "tenancy round robin fair" `Quick
      tenancy_round_robin_is_fair;
    Alcotest.test_case "tenancy admission control" `Quick
      tenancy_admission_control;
    Alcotest.test_case "tenancy deadline kill" `Quick
      tenancy_deadline_kills_runaway;
    Alcotest.test_case "tenancy frame budget degrades fairly" `Quick
      tenancy_frame_budget_degrades_fairly;
    Alcotest.test_case "tenancy kill all is quiescent" `Quick
      tenancy_kill_all_is_quiescent;
    Alcotest.test_case "tenancy budget decided without collection" `Quick
      tenancy_budget_decided_without_collection;
    Alcotest.test_case "tenancy shared pressure pool" `Quick
      tenancy_shared_pressure_pool;
    Alcotest.test_case "divergent path killed by fuel" `Quick
      divergent_path_killed_by_fuel;
    Alcotest.test_case "native replay enumerates" `Quick native_bt_enumerates;
    Alcotest.test_case "native replay fail prunes" `Quick native_bt_fail_prunes;
    Alcotest.test_case "native replay cost" `Quick native_bt_replay_cost;
    Alcotest.test_case "native replay queens" `Quick native_bt_nqueens_matches;
    counting_tree_invariants;
    parallel_counts_match_sequential;
    Alcotest.test_case "switch allocates little per extension" `Quick
      switch_allocation;
    Alcotest.test_case "budgeted run returns every frame" `Quick
      budgeted_run_returns_frames;
    Alcotest.test_case "a store-mode run frees by extension count" `Quick
      store_run_frees_by_extension_count;
    Alcotest.test_case "a run's frees pair its allocations" `Quick
      run_frames_pair;
    Alcotest.test_case "in-scope stop keeps only the map" `Quick
      in_scope_stop_keeps_only_the_map;
    Alcotest.test_case "armed plan restores alike" `Quick
      armed_plan_restores_alike;
    Alcotest.test_case "registry and stats view agree" `Quick
      registry_and_stats_view_agree ]
