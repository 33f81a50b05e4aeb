(* Quickstart: the paper's Figure 1, end to end.

   We assemble the n-queens guest program (which contains no backtracking
   logic, only sys_guess / sys_guess_fail), run it under the DFS strategy,
   and print the transcript: every solution the guest printed before
   failing its way through the whole search space.

     dune exec examples/quickstart.exe -- [board size]           *)

let () =
  let n =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 6
  in
  Printf.printf "n-queens on a %dx%d board via system-level backtracking\n\n" n n;
  let image = Workloads.Nqueens.program ~n in
  let result = Core.Explorer.run_image image in
  (match result.Core.Explorer.outcome with
  | Core.Explorer.Completed 0 -> ()
  | Core.Explorer.Completed status ->
    Printf.printf "guest exited with unexpected status %d\n" status
  | Core.Explorer.Stopped_first_exit _ -> ()
  | Core.Explorer.Aborted msg -> Printf.printf "exploration aborted: %s\n" msg);
  let boards =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' result.Core.Explorer.transcript)
  in
  List.iter (fun board -> Printf.printf "  %s\n" board) boards;
  Printf.printf "\n%d solutions (hand-coded reference says %d)\n"
    (List.length boards)
    (Workloads.Nqueens.host_count n);
  let get = Obs.Metrics.get result.Core.Explorer.metrics in
  let module N = Obs.Names in
  Printf.printf
    "search: %d guesses, %d extensions evaluated, %d snapshots, %d restores\n"
    (get N.search_guesses) (get N.search_extensions)
    (get N.snapshot_captures) (get N.snapshot_restores);
  Printf.printf "memory: %d COW faults, %d pages copied (vs %d mapped pages)\n"
    (get N.mem_cow_faults) (get N.mem_pages_copied) (get N.mem_frames_allocated)
