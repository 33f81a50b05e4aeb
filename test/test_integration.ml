(* Cross-cutting integration properties that tie subsystems together. *)

module Explorer = Core.Explorer
module Libos = Os.Libos
module Abi = Os.Sys_abi
module R = Isa.Reg
module Wl_common = Workloads.Wl_common
open Isa.Asm

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* {1 Interpreter vs symbolic comparison semantics} *)

let setcc_matches_cond_holds =
  (* after [cmp a, b], setcc must agree with Symex.Expr.cond_holds — the
     contract that makes symbolic branch constraints meaningful *)
  qtest "setcc agrees with Expr.cond_holds for every condition"
    QCheck2.Gen.(
      triple (int_range 0 11) (int_range (-3) 3) (int_range (-3) 3))
    (fun (ci, a, b) ->
      let cond =
        List.nth
          Isa.Insn.[ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ]
          ci
      in
      let image =
        assemble ~entry:"main"
          [ label "main";
            mov R.rax (i a);
            cmp R.rax (i b);
            setcc cond R.rdi;
            mov R.rax (i Abi.sys_exit);
            syscall ]
      in
      let machine = Libos.boot (Mem.Phys_mem.create ()) image in
      match Libos.run machine ~fuel:100 with
      | Libos.Exited { status } ->
        status = (if Symex.Expr.cond_holds cond a b then 1 else 0)
      | _ -> false)

(* {1 Determinism} *)

let runs_are_deterministic () =
  let image = Workloads.Nqueens.program ~n:6 in
  let run () =
    let r = Explorer.run_image ~strategy_override:(`Random 17) image in
    r.Explorer.transcript, r.Explorer.stats.Core.Stats.extensions_evaluated
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical transcript and work" true (a = b)

let strategies_agree_on_solution_sets () =
  let image = Workloads.Coloring.program (Workloads.Coloring.cycle 5) ~k:3 in
  let sols strategy =
    let r = Explorer.run_image ~strategy_override:strategy image in
    List.sort compare
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' r.Explorer.transcript))
  in
  let dfs = sols `Dfs in
  check Alcotest.int "30 colourings" 30 (List.length dfs);
  List.iter
    (fun s -> check (Alcotest.list Alcotest.string) "same set" dfs (sols s))
    [ `Bfs; `Astar; `Random 3; `Sma 512 ]

(* {1 SAT assumptions vs clauses} *)

let assumptions_equal_unit_clauses =
  qtest ~count:150 "solve ~assumptions:[l] = solve with unit clause l"
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 8))
    (fun (seed, var) ->
      let cnf = Workloads.Cnf_gen.random_3sat ~num_vars:8 ~num_clauses:25 ~seed in
      let lit = if seed mod 2 = 0 then var else -var in
      let with_assumption =
        let s = Sat.Solver.create () in
        Sat.Solver.add_cnf s cnf.Workloads.Cnf_gen.clauses;
        Sat.Solver.solve ~assumptions:[ lit ] s
      in
      let with_clause =
        let s = Sat.Solver.create () in
        Sat.Solver.add_cnf s (cnf.Workloads.Cnf_gen.clauses @ [ [ lit ] ]);
        Sat.Solver.solve s
      in
      with_assumption = with_clause)

(* {1 Prolog vs guest vs host triple agreement} *)

let three_way_queens_agreement () =
  List.iter
    (fun n ->
      let host = List.sort compare (Workloads.Nqueens.host_boards n) in
      let guest =
        let r = Explorer.run_image (Workloads.Nqueens.program ~n) in
        List.sort compare
          (List.filter (fun l -> l <> "")
             (String.split_on_char '\n' r.Explorer.transcript))
      in
      let prolog = List.sort compare (Prolog.Samples.solve_queens_boards n) in
      check (Alcotest.list Alcotest.string) "host = guest" host guest;
      check (Alcotest.list Alcotest.string) "host = prolog" host prolog)
    [ 4; 5 ]

(* {1 Guest misc syscalls} *)

let run_exit items =
  let machine = Libos.boot (Mem.Phys_mem.create ()) (assemble ~entry:"main" items) in
  match Libos.run machine ~fuel:1_000_000 with
  | Libos.Exited { status } -> status
  | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other

let vtime_monotonic () =
  let status =
    run_exit
      ([ label "main" ]
      @ Wl_common.syscall3 ~number:Abi.sys_vtime
      @ [ mov R.rbx (r R.rax); nop; nop; nop ]
      @ Wl_common.syscall3 ~number:Abi.sys_vtime
      @ [ sub R.rax (r R.rbx); mov R.rdi (r R.rax) ]
      @ Wl_common.syscall3 ~number:Abi.sys_exit)
  in
  check Alcotest.bool "time advanced by the retired gap" true (status >= 3)

let write_to_readonly_fd () =
  let image =
    assemble ~entry:"main"
      ([ label "main"; movl R.rdi "path"; mov R.rsi (i Abi.o_rdonly) ]
      @ Wl_common.syscall3 ~number:Abi.sys_open
      @ [ mov R.rdi (r R.rax); movl R.rsi "path"; mov R.rdx (i 1) ]
      @ Wl_common.syscall3 ~number:Abi.sys_write
      @ [ neg R.rax; mov R.rdi (r R.rax) ]
      @ Wl_common.syscall3 ~number:Abi.sys_exit
      @ [ label "path"; bytes "/f\000" ])
  in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  Libos.add_file machine ~path:"/f" "x";
  (match Libos.run machine ~fuel:100000 with
  | Libos.Exited { status } -> check Alcotest.int "EBADF" Abi.ebadf status
  | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other)

let append_mode () =
  let image =
    assemble ~entry:"main"
      ([ label "main"; movl R.rdi "path";
         mov R.rsi (i (Abi.o_wronly lor Abi.o_creat lor Abi.o_append)) ]
      @ Wl_common.syscall3 ~number:Abi.sys_open
      @ [ mov R.rbx (r R.rax);
          mov R.rdi (r R.rbx); movl R.rsi "suffix"; mov R.rdx (i 4) ]
      @ Wl_common.syscall3 ~number:Abi.sys_write
      @ Wl_common.sys_exit ~status:0
      @ [ label "path"; bytes "/log\000"; label "suffix"; bytes "tail" ])
  in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  Libos.add_file machine ~path:"/log" "head-";
  (match Libos.run machine ~fuel:100000 with
  | Libos.Exited { status = 0 } ->
    check (Alcotest.option Alcotest.string) "appended" (Some "head-tail")
      (Libos.read_file machine ~path:"/log")
  | other -> Alcotest.failf "unexpected %a" Libos.pp_stop other)

let brk_shrink_unmaps () =
  let status =
    run_exit
      ([ label "main"; mov R.rdi (i 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.r15 (r R.rax); mov R.rdi (r R.rax); add R.rdi (i 8192) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ sti (R.r15 @+ 4096) 7; mov R.rdi (r R.r15) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk    (* shrink back *)
      @ Wl_common.sys_exit ~status:1)
  in
  check Alcotest.int "survived shrink" 1 status

let shrink_then_access_faults () =
  let image =
    assemble ~entry:"main"
      ([ label "main"; mov R.rdi (i 0) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ mov R.r15 (r R.rax); mov R.rdi (r R.rax); add R.rdi (i 8192) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ sti (R.r15 @+ 4096) 7; mov R.rdi (r R.r15) ]
      @ Wl_common.syscall3 ~number:Abi.sys_brk
      @ [ ld R.rax (R.r15 @+ 4096); hlt ])   (* beyond the new break *)
  in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  match Libos.run machine ~fuel:100000 with
  | Libos.Killed (Libos.Fault _) -> ()
  | other -> Alcotest.failf "expected fault, got %a" Libos.pp_stop other

(* {1 Parallel vs sequential cross-check} *)

let parallel_matches_sequential_on_repairs () =
  let spec =
    { Workloads.Log_repair.records = [ 10; 20; 30; 40 ];
      corrupted = [ 0; 3 ];
      candidates = [ 10; 40; 25 ] }
  in
  let journal = Workloads.Log_repair.make_journal spec in
  let count_with run =
    List.length
      (List.filter (( = ) "REPAIRED") (String.split_on_char '\n' (run ())))
  in
  let sequential =
    count_with (fun () ->
        (Explorer.run_image
           ~files:[ Workloads.Log_repair.journal_path, journal ]
           (Workloads.Log_repair.program spec))
          .Explorer.transcript)
  in
  let parallel =
    count_with (fun () ->
        (* the journal is preloaded on worker 0; the helpers see it through
           the snapshots they restore *)
        (Explorer.run_image
           ~files:[ Workloads.Log_repair.journal_path, journal ]
           ~strategy_override:`Bfs ~workers:4 ~quantum:2000
           (Workloads.Log_repair.program spec))
          .Explorer.transcript)
  in
  check Alcotest.int "BFS finds the same repair count" sequential parallel;
  check Alcotest.int "host agrees" sequential
    (List.length (Workloads.Log_repair.host_repairs spec))

let tests =
  [ setcc_matches_cond_holds;
    Alcotest.test_case "runs are deterministic" `Quick runs_are_deterministic;
    Alcotest.test_case "strategies agree on solution sets" `Quick
      strategies_agree_on_solution_sets;
    assumptions_equal_unit_clauses;
    Alcotest.test_case "three-way queens agreement" `Quick three_way_queens_agreement;
    Alcotest.test_case "vtime monotonic" `Quick vtime_monotonic;
    Alcotest.test_case "write to readonly fd" `Quick write_to_readonly_fd;
    Alcotest.test_case "append mode" `Quick append_mode;
    Alcotest.test_case "brk shrink survives" `Quick brk_shrink_unmaps;
    Alcotest.test_case "shrink then access faults" `Quick shrink_then_access_faults;
    Alcotest.test_case "repair counts across schedulers" `Quick
      parallel_matches_sequential_on_repairs ]
