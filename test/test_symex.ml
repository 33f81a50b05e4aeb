(* The symbolic executor: expressions, the labeling solver, path
   enumeration, and the equivalence of the two forking backends. *)

module Expr = Symex.Expr
module Cons = Symex.Cons
module Engine = Symex.Engine
module Insn = Isa.Insn

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* {1 Expr} *)

let expr_folding () =
  check Alcotest.bool "consts fold" true
    (Expr.bin Insn.Add (Expr.const 2) (Expr.const 3) = Expr.const 5);
  check Alcotest.bool "add zero" true
    (Expr.bin Insn.Add (Expr.sym 0) (Expr.const 0) = Expr.sym 0);
  check Alcotest.bool "mul zero" true
    (Expr.bin Insn.Imul (Expr.sym 0) (Expr.const 0) = Expr.const 0);
  check Alcotest.bool "mul one" true
    (Expr.bin Insn.Imul (Expr.const 1) (Expr.sym 3) = Expr.sym 3);
  check Alcotest.bool "div by zero stays symbolic" true
    (not (Expr.is_concrete (Expr.bin Insn.Div (Expr.const 1) (Expr.const 0))))

let expr_eval () =
  let e =
    Expr.bin Insn.Imul
      (Expr.bin Insn.Add (Expr.sym 0) (Expr.const 3))
      (Expr.sym 1)
  in
  check (Alcotest.option Alcotest.int) "eval" (Some 50)
    (Expr.eval ~env:(fun v -> if v = 0 then 7 else 5) e);
  check (Alcotest.option Alcotest.int) "div by zero undefined" None
    (Expr.eval ~env:(fun _ -> 0) (Expr.bin Insn.Div (Expr.const 1) (Expr.sym 0)))

let expr_vars () =
  let e = Expr.bin Insn.Xor (Expr.sym 2) (Expr.bin Insn.Add (Expr.sym 5) (Expr.const 1)) in
  check (Alcotest.list Alcotest.int) "vars" [ 2; 5 ]
    (List.sort compare (Stdx.Intset.elements (Expr.vars e)))

let eval_matches_interp_semantics =
  (* Expr binop semantics must match the interpreter's for concrete
     values: run both on random pairs *)
  qtest "expr semantics = interp semantics"
    QCheck2.Gen.(triple (int_range 0 10) (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (opi, a, b) ->
      let op =
        List.nth
          [ Insn.Add; Insn.Sub; Insn.Imul; Insn.Div; Insn.Rem; Insn.And;
            Insn.Or; Insn.Xor; Insn.Shl; Insn.Shr; Insn.Sar ]
          opi
      in
      let direct =
        match op with
        | Insn.Add -> Some (a + b)
        | Insn.Sub -> Some (a - b)
        | Insn.Imul -> Some (a * b)
        | Insn.Div -> if b = 0 then None else Some (a / b)
        | Insn.Rem -> if b = 0 then None else Some (a mod b)
        | Insn.And -> Some (a land b)
        | Insn.Or -> Some (a lor b)
        | Insn.Xor -> Some (a lxor b)
        | Insn.Shl -> if b < 0 || b > 62 then None else Some (a lsl b)
        | Insn.Shr -> if b < 0 || b > 62 then None else Some (a lsr b)
        | Insn.Sar -> if b < 0 || b > 62 then None else Some (a asr b)
      in
      Expr.eval ~env:(fun _ -> 0) (Expr.Bin (op, Expr.const a, Expr.const b)) = direct)

(* {1 Cons / labeling solver} *)

let cons_simple_model () =
  let c = Cons.make ~cond:Insn.E ~a:(Expr.sym 0) ~b:(Expr.const 77) ~expect:true in
  match Cons.solve [ c ] with
  | Cons.Model [ (0, 77) ] -> ()
  | Cons.Model m ->
    Alcotest.failf "wrong model: %s"
      (String.concat "," (List.map (fun (v, x) -> Printf.sprintf "%d=%d" v x) m))
  | Cons.Unsat -> Alcotest.fail "should be sat"
  | Cons.Budget_exceeded -> Alcotest.fail "budget"

let cons_unsat () =
  let a = Cons.make ~cond:Insn.L ~a:(Expr.sym 0) ~b:(Expr.const 5) ~expect:true in
  let b = Cons.make ~cond:Insn.G ~a:(Expr.sym 0) ~b:(Expr.const 10) ~expect:true in
  check Alcotest.bool "contradiction" true (Cons.solve [ a; b ] = Cons.Unsat)

let cons_multi_var () =
  (* s0 + s1 = 300 with s0 > 200 *)
  let sum = Expr.bin Insn.Add (Expr.sym 0) (Expr.sym 1) in
  let cs =
    [ Cons.make ~cond:Insn.E ~a:sum ~b:(Expr.const 300) ~expect:true;
      Cons.make ~cond:Insn.G ~a:(Expr.sym 0) ~b:(Expr.const 200) ~expect:true ]
  in
  match Cons.solve cs with
  | Cons.Model m ->
    let v k = List.assoc k m in
    check Alcotest.int "sum" 300 (v 0 + v 1);
    check Alcotest.bool "bound" true (v 0 > 200)
  | Cons.Unsat | Cons.Budget_exceeded -> Alcotest.fail "solvable"

let cons_negate () =
  let c = Cons.make ~cond:Insn.E ~a:(Expr.sym 0) ~b:(Expr.const 3) ~expect:true in
  let n = Cons.negate c in
  match Cons.solve [ c; n ] with
  | Cons.Unsat -> ()
  | Cons.Model _ | Cons.Budget_exceeded -> Alcotest.fail "c and not c"

let cons_budget () =
  (* unsatisfiable over 3 unpruned vars exceeds a tiny budget *)
  let sum =
    Expr.bin Insn.Add (Expr.bin Insn.Add (Expr.sym 0) (Expr.sym 1)) (Expr.sym 2)
  in
  let c = Cons.make ~cond:Insn.E ~a:sum ~b:(Expr.const (-1)) ~expect:true in
  check Alcotest.bool "budget exceeded" true
    (Cons.solve ~budget:1000 [ c ] = Cons.Budget_exceeded)

let cons_empty () =
  check Alcotest.bool "no constraints" true (Cons.solve [] = Cons.Model [])

let models_always_satisfy =
  qtest ~count:150 "labeling models satisfy their constraints"
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (triple (int_range 0 2) (int_range 0 255) bool))
    (fun spec ->
      let cs =
        List.map
          (fun (v, bound, expect) ->
            Cons.make ~cond:Insn.L ~a:(Expr.sym v) ~b:(Expr.const bound) ~expect)
          spec
      in
      match Cons.solve cs with
      | Cons.Model m ->
        let env v = List.assoc v m in
        List.for_all (fun c -> Cons.holds_under ~env c = Some true) cs
      | Cons.Unsat ->
        (* cross-check with brute force over the (<= 3) variables *)
        let vars = Cons.vars cs in
        let rec try_all assign = function
          | [] ->
            let env v = List.assoc v assign in
            List.for_all (fun c -> Cons.holds_under ~env c = Some true) cs
          | v :: rest ->
            let found = ref false in
            for x = 0 to 255 do
              if (not !found) && try_all ((v, x) :: assign) rest then found := true
            done;
            !found
        in
        not (try_all [] vars)
      | Cons.Budget_exceeded -> true)

(* {1 Engine} *)

let path_count_tree () =
  List.iter
    (fun depth ->
      let config = { Engine.default_config with symbolic_stdin = depth } in
      let r = Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth) in
      check Alcotest.int
        (Printf.sprintf "2^%d paths" depth)
        (1 lsl depth) (List.length r.Engine.paths))
    [ 1; 3; 5 ]

let password_is_cracked () =
  let config = { Engine.default_config with symbolic_stdin = 4 } in
  let r = Engine.run ~config Workloads.Symex_targets.password in
  check Alcotest.int "5 paths" 5 (List.length r.Engine.paths);
  match List.find_opt (fun p -> p.Engine.end_ = Engine.Exited 1) r.Engine.paths with
  | None -> Alcotest.fail "bug not reached"
  | Some p ->
    let bytes = List.sort compare p.Engine.input in
    let recovered =
      String.init (List.length bytes) (fun i -> Char.chr (snd (List.nth bytes i)))
    in
    check Alcotest.string "recovered key" Workloads.Symex_targets.password_key recovered

let inputs_replay_concretely () =
  (* feed each discovered input back through the concrete libOS and check
     the concrete run exits with the same status *)
  let config = { Engine.default_config with symbolic_stdin = 4 } in
  let r = Engine.run ~config Workloads.Symex_targets.password in
  List.iter
    (fun (p : Engine.path_report) ->
      match p.Engine.end_ with
      | Engine.Exited expected ->
        let stdin =
          String.init 4 (fun i ->
              match List.assoc_opt i p.Engine.input with
              | Some v -> Char.chr v
              | None -> '\000')
        in
        let machine =
          Os.Libos.boot (Mem.Phys_mem.create ()) Workloads.Symex_targets.password
        in
        Os.Libos.set_stdin machine stdin;
        (match Os.Libos.run machine ~fuel:1_000_000 with
        | Os.Libos.Exited { status } ->
          check Alcotest.int "concrete replay agrees" expected status
        | other -> Alcotest.failf "unexpected %a" Os.Libos.pp_stop other)
      | _ -> ())
    r.Engine.paths

let fork_modes_equivalent () =
  (* identical path sets under Cow and Eager_copy *)
  let signature mode =
    let config =
      { Engine.default_config with symbolic_stdin = 5; fork_mode = mode }
    in
    let r = Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:5) in
    List.sort compare
      (List.map
         (fun (p : Engine.path_report) ->
           (match p.Engine.end_ with Engine.Exited s -> s | _ -> -1),
           List.sort compare p.Engine.input)
         r.Engine.paths)
  in
  check Alcotest.bool "same path signatures" true
    (signature Engine.Cow = signature Engine.Eager_copy)

let cow_copies_less () =
  let run mode =
    let config = { Engine.default_config with symbolic_stdin = 6; fork_mode = mode } in
    Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:6)
  in
  let cow = run Engine.Cow in
  let eager = run Engine.Eager_copy in
  check Alcotest.int "no eager copies under cow" 0 cow.Engine.eager_pages_copied;
  check Alcotest.bool "eager copies dwarf COW faults" true
    (eager.Engine.eager_pages_copied
     > 10 * Obs.Metrics.get cow.Engine.mem Obs.Names.mem_cow_faults)

(* Every frame a run allocates is freed by its end, under both fork modes:
   path tails and eager copies as their paths end, paths left on the
   frontier at [max_paths], and the fork snapshots with the boot image. *)
let frames_return () =
  let run mode max_paths =
    let config =
      { Engine.default_config with symbolic_stdin = 8; fork_mode = mode; max_paths }
    in
    let r = Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:8) in
    let get = Obs.Metrics.get r.Engine.mem in
    let name =
      Printf.sprintf "%s, max_paths %d"
        (match mode with Engine.Cow -> "cow" | Engine.Eager_copy -> "eager")
        max_paths
    in
    check Alcotest.bool (name ^ ": frames allocated") true
      (get Obs.Names.mem_frames_allocated > 0);
    check Alcotest.int (name ^ ": frames allocated = freed")
      (get Obs.Names.mem_frames_allocated)
      (get Obs.Names.mem_frames_freed)
  in
  List.iter
    (fun mode -> List.iter (run mode) [ Engine.default_config.max_paths; 40 ])
    [ Engine.Cow; Engine.Eager_copy ]

let classifier_outputs_contained () =
  let config = { Engine.default_config with symbolic_stdin = 2 } in
  let r = Engine.run ~config Workloads.Symex_targets.classifier in
  let outputs = List.sort compare (List.map (fun p -> p.Engine.output) r.Engine.paths) in
  check (Alcotest.list Alcotest.string) "one class per path" [ "H"; "L"; "M" ] outputs

let strategies_explore_same_paths () =
  let signature strategy =
    let config =
      { Engine.default_config with symbolic_stdin = 4; strategy }
    in
    let r = Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:4) in
    List.sort compare
      (List.map (fun p -> List.sort compare p.Engine.input) r.Engine.paths)
  in
  let dfs = signature `Dfs in
  check Alcotest.bool "bfs same" true (signature `Bfs = dfs);
  check Alcotest.bool "coverage same" true (signature `Coverage = dfs);
  check Alcotest.bool "random same" true (signature (`Random 3) = dfs)

let infeasible_paths_pruned () =
  (* abs_diff: |a-b| = 100 has exactly 4 path ends but the double branch
     structure creates infeasible combinations that must be pruned *)
  let config = { Engine.default_config with symbolic_stdin = 2 } in
  let r = Engine.run ~config Workloads.Symex_targets.abs_diff in
  check Alcotest.int "4 feasible paths" 4 (List.length r.Engine.paths);
  List.iter
    (fun (p : Engine.path_report) ->
      if p.Engine.end_ = Engine.Exited 7 then begin
        let v k = Option.value (List.assoc_opt k p.Engine.input) ~default:0 in
        check Alcotest.int "difference is 100" 100 (abs (v 0 - v 1))
      end)
    r.Engine.paths

let concretization_pins_addresses () =
  let config = { Engine.default_config with symbolic_stdin = 1 } in
  let r = Engine.run ~config Workloads.Symex_targets.lookup_table in
  check Alcotest.bool "concretised at least once" true (r.Engine.concretizations >= 1);
  (* in-bounds path: the load's value must match the pinned index under the
     reported model (table[i] = 3i + 5, exit = value + 100) *)
  List.iter
    (fun (p : Engine.path_report) ->
      match p.Engine.end_ with
      | Engine.Exited status when status >= 100 ->
        let idx = Option.value (List.assoc_opt 0 p.Engine.input) ~default:(-1) in
        check Alcotest.int "exit matches table entry" ((3 * idx) + 5 + 100) status
      | _ -> ())
    r.Engine.paths;
  check Alcotest.bool "has an in-bounds path" true
    (List.exists
       (fun p -> match p.Engine.end_ with Engine.Exited s -> s >= 100 | _ -> false)
       r.Engine.paths)

let solver_cache_hits () =
  let config = { Engine.default_config with symbolic_stdin = 6 } in
  let r = Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:6) in
  check Alcotest.bool "cache absorbed repeat solves" true (r.Engine.solver_cache_hits > 0)

let concretized_inputs_replay () =
  (* lookup_table inputs must replay concretely to the same exit *)
  let config = { Engine.default_config with symbolic_stdin = 1 } in
  let r = Engine.run ~config Workloads.Symex_targets.lookup_table in
  List.iter
    (fun (p : Engine.path_report) ->
      match p.Engine.end_ with
      | Engine.Exited expected ->
        let stdin =
          String.init 1 (fun k ->
              Char.chr (Option.value (List.assoc_opt k p.Engine.input) ~default:0))
        in
        let machine =
          Os.Libos.boot (Mem.Phys_mem.create ()) Workloads.Symex_targets.lookup_table
        in
        Os.Libos.set_stdin machine stdin;
        (match Os.Libos.run machine ~fuel:1_000_000 with
        | Os.Libos.Exited { status } -> check Alcotest.int "replay" expected status
        | other -> Alcotest.failf "unexpected %a" Os.Libos.pp_stop other)
      | _ -> ())
    r.Engine.paths

(* Differential check: with zero symbolic input the engine is a concrete
   interpreter and must agree with Vcpu.Interp on final register state. *)
let reg_gen = QCheck2.Gen.map Isa.Reg.of_int (QCheck2.Gen.int_range 0 3)

let safe_insn_gen =
  QCheck2.Gen.(
    oneof
      [ map2 (fun r v -> Isa.Asm.mov r (Isa.Asm.i v)) reg_gen (int_range (-1000) 1000);
        map2 (fun r s -> Isa.Asm.mov r (Isa.Asm.r s)) reg_gen reg_gen;
        map2 (fun r v -> Isa.Asm.add r (Isa.Asm.i v)) reg_gen (int_range (-50) 50);
        map2 (fun r s -> Isa.Asm.add r (Isa.Asm.r s)) reg_gen reg_gen;
        map2 (fun r s -> Isa.Asm.sub r (Isa.Asm.r s)) reg_gen reg_gen;
        map2 (fun r v -> Isa.Asm.imul r (Isa.Asm.i v)) reg_gen (int_range (-5) 5);
        map2 (fun r s -> Isa.Asm.xor r (Isa.Asm.r s)) reg_gen reg_gen;
        map2 (fun r s -> Isa.Asm.and_ r (Isa.Asm.r s)) reg_gen reg_gen;
        map2 (fun r s -> Isa.Asm.or_ r (Isa.Asm.r s)) reg_gen reg_gen;
        map (fun r -> Isa.Asm.neg r) reg_gen;
        map (fun r -> Isa.Asm.inc r) reg_gen;
        map (fun r -> Isa.Asm.not_ r) reg_gen ])

let concrete_differential =
  qtest ~count:200 "zero-symbolic engine agrees with the interpreter"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40) safe_insn_gen)
    (fun insns ->
      (* program: straight-line ALU code, then exit(rax land 0xff) *)
      let items =
        (Isa.Asm.label "main" :: insns)
        @ [ Isa.Asm.mov Isa.Reg.rdi (Isa.Asm.r Isa.Reg.rax);
            Isa.Asm.and_ Isa.Reg.rdi (Isa.Asm.i 0xff);
            Isa.Asm.mov Isa.Reg.rax (Isa.Asm.i Os.Sys_abi.sys_exit);
            Isa.Asm.syscall ]
      in
      let image = Isa.Asm.assemble ~entry:"main" items in
      let concrete =
        let machine = Os.Libos.boot (Mem.Phys_mem.create ()) image in
        match Os.Libos.run machine ~fuel:1_000_000 with
        | Os.Libos.Exited { status } -> status
        | _ -> -1
      in
      let symbolic =
        let config = { Engine.default_config with symbolic_stdin = 0 } in
        let r = Engine.run ~config image in
        match r.Engine.paths with
        | [ { Engine.end_ = Engine.Exited status; _ } ] -> status
        | _ -> -2
      in
      concrete = symbolic)

let tests =
  [ Alcotest.test_case "expr folding" `Quick expr_folding;
    Alcotest.test_case "expr eval" `Quick expr_eval;
    Alcotest.test_case "expr vars" `Quick expr_vars;
    eval_matches_interp_semantics;
    Alcotest.test_case "cons simple model" `Quick cons_simple_model;
    Alcotest.test_case "cons unsat" `Quick cons_unsat;
    Alcotest.test_case "cons multi var" `Quick cons_multi_var;
    Alcotest.test_case "cons negate" `Quick cons_negate;
    Alcotest.test_case "cons budget" `Quick cons_budget;
    Alcotest.test_case "cons empty" `Quick cons_empty;
    models_always_satisfy;
    Alcotest.test_case "path counts" `Quick path_count_tree;
    Alcotest.test_case "password cracked" `Quick password_is_cracked;
    Alcotest.test_case "inputs replay concretely" `Quick inputs_replay_concretely;
    Alcotest.test_case "fork modes equivalent" `Quick fork_modes_equivalent;
    Alcotest.test_case "cow copies less" `Quick cow_copies_less;
    Alcotest.test_case "frames return after a run" `Quick frames_return;
    Alcotest.test_case "classifier outputs contained" `Quick classifier_outputs_contained;
    Alcotest.test_case "strategies explore same paths" `Quick strategies_explore_same_paths;
    Alcotest.test_case "infeasible pruned" `Quick infeasible_paths_pruned;
    Alcotest.test_case "concretization pins addresses" `Quick
      concretization_pins_addresses;
    Alcotest.test_case "solver cache hits" `Quick solver_cache_hits;
    Alcotest.test_case "concretized inputs replay" `Quick concretized_inputs_replay;
    concrete_differential ]
