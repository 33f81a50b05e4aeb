(* Flexible search strategies over one unchanged guest program (§3.1).

   The same maze-walking binary runs under DFS, BFS, A*, memory-bounded
   SM-A* and a random strategy.  The guest communicates its heuristic
   (Manhattan distance to the goal) with sys_guess_hint; the strategy is
   chosen entirely outside the program — "the search strategy is
   implemented separately from the extensions or the partial candidates".

     dune exec examples/strategies_tour.exe                       *)

let () =
  let maze = Workloads.Grid.generate ~width:9 ~height:9 ~wall_density:0.28 ~seed:41 in
  Array.iter (fun row -> Printf.printf "   %s\n" row) maze;
  (match Workloads.Grid.host_shortest maze with
  | Some d -> Printf.printf "optimal path length (host BFS reference): %d\n\n" d
  | None -> print_endline "goal unreachable\n");
  let image = Workloads.Grid.program maze in
  Printf.printf "%-12s %8s %12s %12s %10s\n" "strategy" "found" "evaluated" "max live" "evicted";
  List.iter
    (fun (name, strategy) ->
      let r =
        Core.Explorer.run_image ~mode:`First_exit ~max_extensions:500_000
          ~strategy_override:strategy image
      in
      match r.Core.Explorer.outcome with
      | Core.Explorer.Stopped_first_exit len ->
        Printf.printf "%-12s %8d %12d %12d %10d\n" name len
          (Obs.Metrics.get r.Core.Explorer.metrics Obs.Names.search_extensions)
          (Obs.Metrics.get r.Core.Explorer.metrics Obs.Names.snapshot_max_live)
          (Obs.Metrics.get r.Core.Explorer.metrics Obs.Names.search_evicted)
      | Core.Explorer.Completed 255 ->
        Printf.printf "%-12s %8s (exhausted: unreachable)\n" name "-"
      | Core.Explorer.Completed s -> Printf.printf "%-12s completed %d\n" name s
      | Core.Explorer.Aborted m -> Printf.printf "%-12s aborted: %s\n" name m)
    [ "dfs", `Dfs;
      "bfs", `Bfs;
      "astar", `Astar;
      "sma-256", `Sma 256;
      "random", `Random 7 ]
