(* In-vivo multi-path analysis, S2E style (§2).

   The target binary reads input and hides a bug behind a chain of
   comparisons.  The symbolic executor forks the entire machine state at
   every symbolic branch — each fork is a lightweight snapshot, so state
   forking costs one page-table grab instead of a state copy — and the
   constraint solver recovers the concrete input that reaches each path.

     dune exec examples/find_bug.exe                              *)

let pp_end = function
  | Symex.Engine.Exited s -> Printf.sprintf "exit(%d)" s
  | Symex.Engine.Faulted m -> "FAULT: " ^ m
  | Symex.Engine.Unsupported m -> "unsupported: " ^ m
  | Symex.Engine.Step_limit -> "step limit"

let input_string report =
  let bytes = List.sort compare report.Symex.Engine.input in
  String.concat "" (List.map (fun (_, v) -> Printf.sprintf "\\x%02x" v) bytes)

let () =
  print_endline "=== target 1: password check (the KLEE classic) ===";
  let config = { Symex.Engine.default_config with symbolic_stdin = 4 } in
  let result = Symex.Engine.run ~config Workloads.Symex_targets.password in
  Printf.printf "explored %d paths, %d forks, %d solver calls\n"
    result.Symex.Engine.explored result.Symex.Engine.forks
    result.Symex.Engine.solver_calls;
  List.iter
    (fun (p : Symex.Engine.path_report) ->
      Printf.printf "  path depth=%d %-10s input=%s\n" p.Symex.Engine.depth
        (pp_end p.Symex.Engine.end_) (input_string p))
    result.Symex.Engine.paths;
  (match
     List.find_opt
       (fun p -> p.Symex.Engine.end_ = Symex.Engine.Exited 1)
       result.Symex.Engine.paths
   with
  | Some bug ->
    let sorted = List.sort compare bug.Symex.Engine.input in
    let recovered = String.init (List.length sorted)
        (fun i -> Char.chr (snd (List.nth sorted i))) in
    Printf.printf "bug reached; recovered password: %S (expected %S)\n\n"
      recovered Workloads.Symex_targets.password_key
  | None -> print_endline "BUG NOT FOUND\n");

  print_endline "=== target 2: branch tree, COW vs eager state copying ===";
  List.iter
    (fun (name, mode) ->
      let config =
        { Symex.Engine.default_config with
          symbolic_stdin = 8;
          fork_mode = mode }
      in
      let r = Symex.Engine.run ~config (Workloads.Symex_targets.branch_tree ~depth:8) in
      Printf.printf
        "  %-11s: %4d paths, COW faults %5d, eagerly copied pages %6d\n" name
        (List.length r.Symex.Engine.paths)
        (Obs.Metrics.get r.Symex.Engine.mem Obs.Names.mem_cow_faults)
        r.Symex.Engine.eager_pages_copied)
    [ "cow", Symex.Engine.Cow; "eager-copy", Symex.Engine.Eager_copy ];

  print_endline "\n=== target 3: |a - b| = 100 (solver works for its living) ===";
  let config = { Symex.Engine.default_config with symbolic_stdin = 2 } in
  let r = Symex.Engine.run ~config Workloads.Symex_targets.abs_diff in
  List.iter
    (fun (p : Symex.Engine.path_report) ->
      Printf.printf "  %-10s input=%s\n" (pp_end p.Symex.Engine.end_) (input_string p))
    r.Symex.Engine.paths
