(* lwsnap: drive the lightweight-snapshot backtracking system from the
   command line.  Subcommands: run, solve, symex, prolog, disasm, fuzz,
   trace. *)

open Cmdliner

(* Drain the tracer into a Chrome trace_event file (Perfetto-loadable). *)
let write_trace_file path =
  let events = Obs.Trace.events () in
  let dropped = Obs.Trace.dropped () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Obs.Export.chrome_json_string ~dropped events));
  Printf.printf "[trace: %d events (%d dropped) written to %s]\n"
    (List.length events) dropped path

let strategy_conv =
  let parse = function
    | "dfs" -> Ok `Dfs
    | "bfs" -> Ok `Bfs
    | "astar" -> Ok `Astar
    | "sma" -> Ok (`Sma 256)
    | "wastar" -> Ok (`Wastar 2.0)
    | "beam" -> Ok (`Beam 64)
    | "random" -> Ok (`Random 42)
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt (s : Core.Explorer.strategy) =
    Format.pp_print_string fmt
      (match s with
      | `Dfs -> "dfs"
      | `Bfs -> "bfs"
      | `Astar -> "astar"
      | `Sma _ -> "sma"
      | `Wastar _ -> "wastar"
      | `Beam _ -> "beam"
      | `Dfs_bounded _ -> "dfs-bounded"
      | `Random _ -> "random"
      | `Custom _ -> "custom")
  in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(value & opt (some strategy_conv) None
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Override the guest's strategy: dfs, bfs, astar, sma, wastar, beam, random.")

let first_arg =
  Arg.(value & flag & info [ "first" ] ~doc:"Stop at the first in-scope exit.")

let fuel_arg =
  Arg.(value & opt int 50_000_000
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Guest instructions per scheduling step (default 50M).  A \
                 path that exceeds it is killed and recorded as a \
                 Path_killed terminal, so divergent guests die instead of \
                 hanging the run.")

let capacity_arg =
  Arg.(value & opt int 0
       & info [ "capacity" ] ~docv:"FRAMES"
           ~doc:"Bound physical memory to FRAMES frames (0 = unbounded).  \
                 Under pressure, snapshot payloads are demoted to page \
                 deltas and promoted back when scheduled.")

let size_arg ~default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Problem size.")

let build_image workload n =
  if Filename.check_suffix workload ".s" then
    if Sys.file_exists workload then begin
      let text = In_channel.with_open_text workload In_channel.input_all in
      match Isa.Asm_parser.assemble_text text with
      | image -> Ok image
      | exception Isa.Asm_parser.Parse_error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" workload line message)
      | exception Isa.Asm.Error message ->
        Error (Printf.sprintf "%s: %s" workload message)
    end
    else Error (Printf.sprintf "no such file %S" workload)
  else
  match workload with
  | "nqueens" -> Ok (Workloads.Nqueens.program ~n)
  | "coloring" -> Ok (Workloads.Coloring.program Workloads.Coloring.petersen ~k:n)
  | "counting" -> Ok (Workloads.Counting.program ~depth:n ~branch:2)
  | "grid" ->
    let maze = Workloads.Grid.generate ~width:n ~height:n ~wall_density:0.25 ~seed:7 in
    Ok (Workloads.Grid.program maze)
  | "subset" ->
    Ok (Workloads.Subset_sum.program ~all_solutions:true ~target:(3 * n)
          (List.init n (fun k -> k + 1)))
  | other -> Error (Printf.sprintf "unknown workload %S" other)

(* Run the explorer with a recorder attached and write the replay bundle:
   the probe logs scheduler decisions, the installed sys hook logs the
   ordinary-syscall stream.  Recording needs an unbounded in-memory
   scheduler, so the machine is booted on a fresh unbounded memory here
   rather than going through [run_image]. *)
let record_explored ?source ?stdin ?(files = []) ?mode ?strategy_override
    ~fuel ~meta image path =
  let phys = Mem.Phys_mem.create () in
  let machine = Os.Libos.boot phys image in
  List.iter (fun (p, c) -> Os.Libos.add_file machine ~path:p c) files;
  Option.iter (Os.Libos.set_stdin machine) stdin;
  let recorder = Record.Recorder.create ~fuel_per_step:fuel ~meta () in
  Record.Recorder.install recorder machine;
  let result =
    Core.Explorer.run ?mode ~fuel_per_step:fuel ?strategy_override
      ~probe:(Record.Recorder.probe recorder) machine
  in
  Record.Bundle.write ~path
    (Record.Bundle.of_image ?source ?stdin ~files image
       (Record.Recorder.log recorder));
  Printf.printf "[replay bundle: %d events written to %s]\n"
    (Record.Recorder.events recorder) path;
  result

let run_cmd =
  let workload =
    Arg.(value & pos 0 string "nqueens"
         & info [] ~docv:"WORKLOAD"
             ~doc:"A built-in workload (nqueens, coloring, counting, grid, \
                   subset) or a path to a .s assembly file (see \
                   examples/guess_three.s for the dialect).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a trace of the run and write it to FILE as Chrome \
                   trace_event JSON (open in Perfetto or chrome://tracing).")
  in
  let record_out =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"FILE"
             ~doc:"Record the run's nondeterministic inputs (scheduler \
                   decisions, syscall results) and write a self-contained \
                   replay bundle to FILE for $(b,lwsnap replay).  \
                   Incompatible with --capacity (recording needs the plain \
                   in-memory scheduler).")
  in
  let action workload n strategy first fuel capacity trace_out record_out =
    match build_image workload n with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok image ->
      if record_out <> None && capacity > 0 then begin
        prerr_endline "lwsnap: --record is incompatible with --capacity";
        exit 2
      end;
      let mode = if first then `First_exit else `Run_to_completion in
      (match trace_out with Some _ -> Obs.Trace.start () | None -> ());
      let result =
        match record_out with
        | Some path ->
          let source =
            if Filename.check_suffix workload ".s" && Sys.file_exists workload
            then
              Some (In_channel.with_open_text workload In_channel.input_all)
            else None
          in
          record_explored ?source ~mode ?strategy_override:strategy ~fuel
            ~meta:(Printf.sprintf "lwsnap run %s (n=%d)" workload n)
            image path
        | None ->
          Core.Explorer.run_image ~mode ~fuel_per_step:fuel
            ?capacity:(if capacity > 0 then Some capacity else None)
            ?strategy_override:strategy image
      in
      print_string result.Core.Explorer.transcript;
      (match result.Core.Explorer.outcome with
      | Core.Explorer.Completed s -> Printf.printf "[completed, status %d]\n" s
      | Core.Explorer.Stopped_first_exit s -> Printf.printf "[first exit, status %d]\n" s
      | Core.Explorer.Aborted m -> Printf.printf "[aborted: %s]\n" m);
      Format.printf "%a@." Obs.Metrics.pp result.Core.Explorer.metrics;
      (match trace_out with
      | Some path ->
        Obs.Trace.stop ();
        write_trace_file path;
        Obs.Trace.clear ()
      | None -> ());
      0
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a guest search workload under the explorer.")
    Term.(const action $ workload $ size_arg ~default:6 $ strategy_arg
          $ first_arg $ fuel_arg $ capacity_arg $ trace_out $ record_out)

(* The time-travel debugger: a small command interpreter over
   [Record.Replay].  One grammar serves both the interactive prompt and
   --script (semicolon-separated), so CI can drive the same paths a human
   would. *)
let replay_cmd =
  let bundle_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BUNDLE"
             ~doc:"A replay bundle written by $(b,run --record) or the \
                   fuzzer's counterexample emitter.")
  in
  let script_arg =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"CMDS"
             ~doc:"Execute semicolon-separated debugger commands and exit, \
                   e.g. \"break stop 3; continue; regs; rstep; where\".")
  in
  let anchor_arg =
    Arg.(value & opt int 8
         & info [ "anchor-every" ] ~docv:"K"
             ~doc:"Drop a reverse-seek anchor every K scheduler stops \
                   (default 8).  Smaller = faster reverse motion, more \
                   memory.")
  in
  let parse_int s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "not a number: %S" s)
  in
  let action path script anchor_every =
    match Record.Bundle.read ~path with
    | Error msg ->
      Printf.eprintf "lwsnap: %s: %s\n" path msg;
      1
    | Ok bundle -> (
      let cur = Record.Replay.create ~anchor_every bundle in
      let machine = Record.Replay.machine cur in
      let pp_bp fmt (bp : Record.Replay.bp) =
        match bp with
        | Record.Replay.Bp_pc a -> Format.fprintf fmt "pc 0x%x" a
        | Record.Replay.Bp_sys n ->
          Format.fprintf fmt "sys %d (%s)" n (Os.Sys_abi.name_of_syscall n)
        | Record.Replay.Bp_stop k -> Format.fprintf fmt "stop %d" k
      in
      let where () =
        Printf.printf "time %d/%d  stop %d/%d  rip=0x%x"
          (Record.Replay.time cur)
          (Record.Replay.total_time cur)
          (Record.Replay.stop_index cur)
          (Record.Replay.segments cur)
          machine.Os.Libos.cpu.Vcpu.Cpu.rip;
        (match Record.Replay.current_stop cur with
        | Some stop when not (Record.Replay.at_end cur) ->
          Printf.printf "  [segment ends: %s]"
            (Format.asprintf "%a" Record.Log.pp_stop stop)
        | Some stop ->
          Printf.printf "  [at end: %s]"
            (Format.asprintf "%a" Record.Log.pp_stop stop)
        | None -> ());
        print_newline ()
      in
      let report = function
        | Record.Replay.Stopped -> where ()
        | Record.Replay.Break (id, bp) ->
          Printf.printf "breakpoint %d (%s) hit\n" id
            (Format.asprintf "%a" pp_bp bp);
          where ()
        | Record.Replay.End ->
          print_endline "[log boundary]";
          where ()
      in
      let hexdump addr s =
        String.iteri
          (fun i c ->
            if i mod 16 = 0 then Printf.printf "%s0x%08x  " (if i > 0 then "\n" else "") (addr + i);
            Printf.printf "%02x " (Char.code c))
          s;
        print_newline ()
      in
      let repeat n f =
        let rec go i = if i < n then match f () with
          | Record.Replay.Stopped -> go (i + 1)
          | halt -> halt
        else Record.Replay.Stopped
        in
        report (go 0)
      in
      (* returns [false] to quit *)
      let exec line =
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> Ok true
        | [ ("quit" | "q" | "exit") ] -> Ok false
        | [ "info" ] ->
          Printf.printf
            "bundle: %d stop segments, %d instructions, fuel/step %d%s\n\
             live frames: %d\n"
            (Record.Replay.segments cur)
            (Record.Replay.total_time cur)
            bundle.Record.Bundle.log.Record.Log.fuel_per_step
            (match Record.Replay.meta cur with
            | "" -> ""
            | m -> Printf.sprintf "\nmeta: %s" m)
            (Mem.Phys_mem.frames_live
               (Mem.Addr_space.phys machine.Os.Libos.aspace));
          Ok true
        | [ "where" ] | [ "w" ] ->
          where ();
          Ok true
        | [ ("step" | "s") ] ->
          report (Record.Replay.step cur);
          Ok true
        | [ ("step" | "s"); n ] ->
          Result.map
            (fun n -> repeat n (fun () -> Record.Replay.step cur); true)
            (parse_int n)
        | [ ("rstep" | "rs") ] ->
          report (Record.Replay.rstep cur);
          Ok true
        | [ ("rstep" | "rs"); n ] ->
          Result.map
            (fun n -> repeat n (fun () -> Record.Replay.rstep cur); true)
            (parse_int n)
        | [ ("continue" | "c") ] ->
          report (Record.Replay.continue cur);
          Ok true
        | [ ("rcontinue" | "rc") ] ->
          report (Record.Replay.rcontinue cur);
          Ok true
        | [ "seek"; n ] ->
          Result.map
            (fun n -> report (Record.Replay.seek cur n); true)
            (parse_int n)
        | [ "seek-stop"; n ] ->
          Result.map
            (fun n -> report (Record.Replay.seek_stop cur n); true)
            (parse_int n)
        | [ "regs" ] ->
          Format.printf "%a@." Vcpu.Cpu.pp machine.Os.Libos.cpu;
          Ok true
        | [ "mem"; addr; len ] -> (
          match (parse_int addr, parse_int len) with
          | Ok addr, Ok len -> (
            match Record.Replay.read_mem cur ~addr ~len with
            | Some bytes ->
              hexdump addr bytes;
              Ok true
            | None ->
              Printf.printf "unmapped range 0x%x+%d\n" addr len;
              Ok true)
          | (Error _ as e), _ | _, (Error _ as e) ->
            Result.map (fun _ -> true) e)
        | [ "stdout" ] ->
          print_string (Os.Libos.stdout_text machine);
          print_newline ();
          Ok true
        | [ "break"; "pc"; a ] ->
          Result.map
            (fun a ->
              Printf.printf "breakpoint %d\n"
                (Record.Replay.add_bp cur (Record.Replay.Bp_pc a));
              true)
            (parse_int a)
        | [ "break"; "sys"; n ] ->
          Result.map
            (fun n ->
              Printf.printf "breakpoint %d\n"
                (Record.Replay.add_bp cur (Record.Replay.Bp_sys n));
              true)
            (parse_int n)
        | [ "break"; "stop"; k ] ->
          Result.map
            (fun k ->
              Printf.printf "breakpoint %d\n"
                (Record.Replay.add_bp cur (Record.Replay.Bp_stop k));
              true)
            (parse_int k)
        | [ "delete"; id ] ->
          Result.map
            (fun id ->
              if not (Record.Replay.remove_bp cur id) then
                Printf.printf "no breakpoint %d\n" id;
              true)
            (parse_int id)
        | [ "breaks" ] ->
          List.iter
            (fun (id, bp) ->
              Printf.printf "%d: %s\n" id (Format.asprintf "%a" pp_bp bp))
            (Record.Replay.bps cur);
          Ok true
        | [ "help" ] ->
          print_endline
            "commands: info where step|s [N] rstep|rs [N] continue|c \
             rcontinue|rc seek T seek-stop K regs mem ADDR LEN stdout \
             break pc|sys|stop N delete ID breaks quit";
          Ok true
        | cmd :: _ -> Error (Printf.sprintf "unknown command %S (try help)" cmd)
      in
      let exec_report line =
        match exec line with
        | Ok cont -> cont
        | Error msg ->
          Printf.printf "error: %s\n" msg;
          true
      in
      try
        match script with
        | Some s ->
          List.iter
            (fun line -> ignore (exec_report line))
            (String.split_on_char ';' s);
          0
        | None ->
          where ();
          let rec loop () =
            print_string "(replay) ";
            flush Stdlib.stdout;
            match In_channel.input_line In_channel.stdin with
            | None -> 0
            | Some line -> if exec_report line then loop () else 0
          in
          loop ()
      with Record.Replay.Diverged msg ->
        Printf.eprintf "lwsnap: replay diverged from the record: %s\n" msg;
        3)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Time-travel through a recorded run: deterministic replay with \
             reverse-step/reverse-continue in O(anchor interval) via \
             snapshot anchors, and breakpoints on pc, syscall number, or \
             stop index.")
    Term.(const action $ bundle_arg $ script_arg $ anchor_arg)

let trace_cmd =
  let workload =
    Arg.(value & pos 0 string "nqueens"
         & info [] ~docv:"WORKLOAD"
             ~doc:"A built-in workload (nqueens, coloring, counting, grid, \
                   subset) or a path to a .s assembly file.")
  in
  let format_arg =
    Arg.(value
         & opt
             (enum
                [ ("chrome", `Chrome); ("summary", `Summary);
                  ("tree", `Tree_json); ("dot", `Tree_dot) ])
             `Chrome
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,chrome) (trace_event JSON for \
                   Perfetto), $(b,summary) (flat text aggregates), \
                   $(b,tree) (snapshot tree as JSON with per-node cost), \
                   $(b,dot) (snapshot tree as Graphviz).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file (default: trace.json / trace-tree.json / \
                   trace-tree.dot by format; summary prints to stdout).")
  in
  let action workload n strategy first fuel capacity format out =
    match build_image workload n with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok image ->
      let mode = if first then `First_exit else `Run_to_completion in
      Obs.Trace.start ();
      let result =
        Core.Explorer.run_image ~mode ~fuel_per_step:fuel
          ?capacity:(if capacity > 0 then Some capacity else None)
          ?strategy_override:strategy image
      in
      Obs.Trace.stop ();
      (match result.Core.Explorer.outcome with
      | Core.Explorer.Completed s -> Printf.printf "[completed, status %d]\n" s
      | Core.Explorer.Stopped_first_exit s ->
        Printf.printf "[first exit, status %d]\n" s
      | Core.Explorer.Aborted m -> Printf.printf "[aborted: %s]\n" m);
      let events = Obs.Trace.events () in
      let write path content what =
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc content);
        Printf.printf "[%s written to %s]\n" what path
      in
      (match format with
      | `Chrome ->
        write_trace_file (Option.value out ~default:"trace.json")
      | `Summary -> (
        let text = Obs.Export.summary events in
        match out with
        | None -> print_string text
        | Some p -> write p text "trace summary")
      | `Tree_json ->
        write
          (Option.value out ~default:"trace-tree.json")
          (Obs.Json.to_string (Obs.Export.tree_json events))
          "snapshot tree (JSON)"
      | `Tree_dot ->
        write
          (Option.value out ~default:"trace-tree.dot")
          (Obs.Export.tree_dot events)
          "snapshot tree (DOT)");
      Obs.Trace.clear ();
      0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload with tracing on and export the event stream \
             (Chrome JSON, text summary, or annotated snapshot tree).")
    Term.(const action $ workload $ size_arg ~default:6 $ strategy_arg
          $ first_arg $ fuel_arg $ capacity_arg $ format_arg $ out)

let solve_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.cnf" ~doc:"DIMACS CNF input.")
  in
  let guest =
    Arg.(value & flag
         & info [ "guest" ]
             ~doc:"Solve inside the guest DPLL under system-level backtracking \
                   instead of the host CDCL solver.")
  in
  let action path guest =
    let text = In_channel.with_open_text path In_channel.input_all in
    let cnf = Workloads.Cnf_gen.of_dimacs text in
    if guest then begin
      let image =
        Workloads.Guest_dpll.program ~num_vars:cnf.Workloads.Cnf_gen.num_vars
          cnf.Workloads.Cnf_gen.clauses
      in
      let result = Core.Explorer.run_image ~mode:`First_exit image in
      print_string result.Core.Explorer.transcript;
      match result.Core.Explorer.outcome with
      | Core.Explorer.Stopped_first_exit _ -> 0
      | Core.Explorer.Completed s when s = Workloads.Guest_dpll.exit_unsat -> 20
      | Core.Explorer.Completed _ -> 0
      | Core.Explorer.Aborted m ->
        prerr_endline m;
        1
    end
    else begin
      let solver = Sat.Solver.create () in
      Sat.Solver.add_cnf solver cnf.Workloads.Cnf_gen.clauses;
      match Sat.Solver.solve solver with
      | Sat.Solver.Sat ->
        print_endline "SAT";
        List.iter
          (fun (v, b) -> Printf.printf "%d " (if b then v else -v))
          (Sat.Solver.model solver);
        print_newline ();
        0
      | Sat.Solver.Unsat ->
        print_endline "UNSAT";
        20
      | Sat.Solver.Unknown ->
        print_endline "UNKNOWN";
        30
    end
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve a DIMACS CNF (host CDCL or guest DPLL).")
    Term.(const action $ file $ guest)

let symex_cmd =
  let target =
    Arg.(value & pos 0 string "password"
         & info [] ~docv:"TARGET" ~doc:"One of: password, tree, classifier, absdiff.")
  in
  let eager =
    Arg.(value & flag & info [ "eager" ] ~doc:"Use eager state copies instead of COW.")
  in
  let action target eager =
    let image, stdin_bytes =
      match target with
      | "password" -> Workloads.Symex_targets.password, 4
      | "tree" -> Workloads.Symex_targets.branch_tree ~depth:6, 6
      | "classifier" -> Workloads.Symex_targets.classifier, 2
      | "absdiff" -> Workloads.Symex_targets.abs_diff, 2
      | other -> failwith (Printf.sprintf "unknown target %S" other)
    in
    let config =
      { Symex.Engine.default_config with
        symbolic_stdin = stdin_bytes;
        fork_mode = (if eager then Symex.Engine.Eager_copy else Symex.Engine.Cow) }
    in
    let r = Symex.Engine.run ~config image in
    Printf.printf "paths=%d forks=%d infeasible=%d solver_calls=%d\n"
      r.Symex.Engine.explored r.Symex.Engine.forks r.Symex.Engine.infeasible
      r.Symex.Engine.solver_calls;
    List.iter
      (fun (p : Symex.Engine.path_report) ->
        let input =
          String.concat ","
            (List.map (fun (v, x) -> Printf.sprintf "s%d=%d" v x)
               (List.sort compare p.Symex.Engine.input))
        in
        let end_ =
          match p.Symex.Engine.end_ with
          | Symex.Engine.Exited s -> Printf.sprintf "exit(%d)" s
          | Symex.Engine.Faulted m -> "fault: " ^ m
          | Symex.Engine.Unsupported m -> "unsupported: " ^ m
          | Symex.Engine.Step_limit -> "step-limit"
        in
        Printf.printf "  %-12s [%s]\n" end_ input)
      r.Symex.Engine.paths;
    0
  in
  Cmd.v (Cmd.info "symex" ~doc:"Symbolically execute a built-in target.")
    Term.(const action $ target $ eager)

let prolog_cmd =
  let consult =
    Arg.(value & opt (some file) None
         & info [ "c"; "consult" ] ~docv:"FILE.pl" ~doc:"Consult a Prolog source file.")
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"GOAL" ~doc:"Goal to solve, e.g. \"append(X, Y, [1, 2])\".")
  in
  let max_solutions =
    Arg.(value & opt int 10
         & info [ "max" ] ~docv:"N" ~doc:"Stop after N solutions (default 10).")
  in
  let action n consult query max_solutions =
    match query with
    | None ->
      let count, stats = Prolog.Samples.count_queens n in
      Printf.printf "%d solutions (unifications=%d backtracks=%d choice_points=%d)\n"
        count stats.Prolog.Machine.unifications stats.Prolog.Machine.backtracks
        stats.Prolog.Machine.choice_points;
      0
    | Some goal -> (
      match
        let program =
          match consult with
          | None -> []
          | Some path ->
            Prolog.Parser.parse_program
              (In_channel.with_open_text path In_channel.input_all)
        in
        let db =
          Prolog.Machine.db_of_clauses (Prolog.Samples.list_clauses @ program)
        in
        let parsed = Prolog.Parser.parse_query goal in
        let found = ref 0 in
        let _ =
          Prolog.Parser.run_query db parsed ~on_solution:(fun bindings ->
              incr found;
              if bindings = [] then print_endline "true"
              else
                print_endline
                  (String.concat ", "
                     (List.map
                        (fun (name, t) -> name ^ " = " ^ Prolog.Term.to_string t)
                        bindings));
              !found < max_solutions)
        in
        if !found = 0 then print_endline "false";
        0
      with
      | status -> status
      | exception Prolog.Parser.Error { line; message } ->
        Printf.eprintf "parse error at line %d: %s\n" line message;
        1)
  in
  Cmd.v
    (Cmd.info "prolog"
       ~doc:"Run the Prolog engine: n-queens by default, or consult a file \
             and solve a query.")
    Term.(const action $ size_arg ~default:6 $ consult $ query $ max_solutions)

let disasm_cmd =
  let workload =
    Arg.(value & pos 0 string "nqueens" & info [] ~docv:"WORKLOAD")
  in
  let action workload n =
    match build_image workload n with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok image ->
      let listing =
        Isa.Disasm.disassemble ~code:image.Isa.Asm.code ~origin:image.Isa.Asm.origin ()
      in
      Format.printf "%a" Isa.Disasm.pp_listing listing;
      0
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload image.")
    Term.(const action $ workload $ size_arg ~default:6)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Base seed; program $(i,i) uses seed N+i.")
  in
  let budget =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"K" ~doc:"Number of random programs to check.")
  in
  let depth =
    Arg.(value & opt int 3
         & info [ "depth" ] ~docv:"D" ~doc:"Guess-tree depth bound.")
  in
  let fanout =
    Arg.(value & opt int 3
         & info [ "fanout" ] ~docv:"F" ~doc:"Extensions per sys_guess.")
  in
  let ckpt_every =
    Arg.(value & opt int 1
         & info [ "ckpt-every" ] ~docv:"K"
             ~doc:"Checkpoint round-trip every K-th scheduler stop.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE.s"
             ~doc:"Where to write a shrunk counterexample (default \
                   fuzz-counterexample-seed<N>.s).")
  in
  let render_only =
    Arg.(value & flag
         & info [ "render" ]
             ~doc:"Print the generated program for --seed and exit without \
                   running the oracle (for inspecting reproducers).")
  in
  let faults =
    Arg.(value & opt int 0
         & info [ "faults" ] ~docv:"K"
             ~doc:"Additionally run each program under K seeded \
                   fault-injection plans (allocation failures, worker \
                   crashes, fuel jitter) on the supervised parallel \
                   backends; recovery must leave the terminal multiset \
                   identical to the fault-free baseline.  A diverging plan \
                   is written to fuzz-fault-plan-seed<N>.txt.")
  in
  let tenants =
    Arg.(value & opt int 0
         & info [ "tenants" ] ~docv:"N"
             ~doc:"Additionally run each program as N interleaved tenants \
                   over one shared multi-tenant pool (Core.Tenancy), \
                   cross-checked against a single-tenant baseline: every \
                   tenant's terminal multiset must match, dedup references \
                   must scale linearly with the tenant count and drain to \
                   zero at teardown, and every live frame must be \
                   attributed to a tenant account or the shared table.")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"On divergence, re-run the shrunk counterexample (or the \
                   diverging fault plans) with tracing on and write the \
                   event stream next to the reproducer as \
                   $(i,FILE).trace.json, so the failing pipeline's \
                   behaviour is inspectable in Perfetto.")
  in
  let traced_rerun path f =
    Obs.Trace.start ();
    (try ignore (f ()) with _ -> ());
    Obs.Trace.stop ();
    let tpath = path ^ ".trace.json" in
    let events = Obs.Trace.events () in
    Out_channel.with_open_text tpath (fun oc ->
        Out_channel.output_string oc
          (Obs.Export.chrome_json_string ~dropped:(Obs.Trace.dropped ()) events));
    Obs.Trace.clear ();
    Printf.printf "fuzz: trace of the diverging run (%d events) written to %s\n"
      (List.length events) tpath
  in
  (* Re-run the shrunk counterexample's baseline exploration under a
     recorder and drop a self-contained replay bundle next to the .s, so
     the divergence can be stepped through (forward and backward) with
     [lwsnap replay] instead of re-fuzzed.  Best-effort: a recording
     failure must not mask the divergence report. *)
  let emit_replay_bundle ~seed path prog =
    let rpath = Filename.remove_extension path ^ ".replay" in
    let source = Fuzz.Gen_prog.render prog in
    match
      let image = Isa.Asm_parser.assemble_text source in
      record_explored ~source ~fuel:50_000_000
        ~meta:(Printf.sprintf "fuzz counterexample seed %d" seed)
        image rpath
    with
    | (_ : Core.Explorer.result) ->
      Printf.printf "fuzz: time-travel it with: lwsnap replay %s\n" rpath
    | exception e ->
      Printf.printf "fuzz: could not record a replay bundle: %s\n"
        (Printexc.to_string e)
  in
  let action seed budget depth fanout ckpt_every out render_only faults
      tenants trace =
    let cfg = { Fuzz.Gen_prog.default_cfg with max_depth = depth; max_fanout = fanout } in
    if render_only then begin
      print_string (Fuzz.Gen_prog.render (Fuzz.Gen_prog.generate ~cfg seed));
      Printf.printf
        "; if this seed diverged, a replay bundle was written alongside the\n\
         ; reproducer: lwsnap replay fuzz-counterexample-seed%d.replay\n"
        seed;
      0
    end
    else
    let check_faults i prog =
      if faults <= 0 then 0
      else
        match Fuzz.Oracle.check_prog_faults ~seed:(seed + i) ~plans:faults prog with
        | None -> 0
        | Some (plan, d) ->
          let path = Printf.sprintf "fuzz-fault-plan-seed%d.txt" (seed + i) in
          Out_channel.with_open_text path (fun oc ->
              Printf.fprintf oc
                "# fault plan diverging on %s\n# %s\n%s\n# program:\n%s"
                d.Fuzz.Oracle.pipeline d.Fuzz.Oracle.detail
                (Inject.render plan)
                (Fuzz.Gen_prog.render prog));
          Printf.printf
            "fuzz: seed %d under fault plan diverges on %s: %s\n\
             fuzz: diverging plan written to %s\n%!"
            (seed + i) d.Fuzz.Oracle.pipeline d.Fuzz.Oracle.detail path;
          if trace then
            traced_rerun path (fun () ->
                Fuzz.Oracle.check_prog_faults ~seed:(seed + i) ~plans:faults
                  prog);
          1
    in
    let check_tenants i prog =
      if tenants <= 0 then 0
      else
        match Fuzz.Oracle.check_prog_tenants ~tenants prog with
        | None -> 0
        | Some d ->
          Printf.printf "fuzz: seed %d as %d tenants diverges: %s\n%!"
            (seed + i) tenants d.Fuzz.Oracle.detail;
          let still_diverges p =
            Fuzz.Oracle.check_prog_tenants ~tenants p <> None
          in
          let small = Fuzz.Shrink.minimise ~still_diverges prog in
          let path =
            match out with
            | Some p -> p
            | None -> Printf.sprintf "fuzz-counterexample-seed%d.s" (seed + i)
          in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Fuzz.Gen_prog.render small));
          Printf.printf
            "fuzz: shrunk reproducer (%d -> %d nodes+stmts) written to %s\n"
            (Fuzz.Gen_prog.size prog) (Fuzz.Gen_prog.size small) path;
          emit_replay_bundle ~seed:(seed + i) path small;
          if trace then
            traced_rerun path (fun () ->
                Fuzz.Oracle.check_prog_tenants ~tenants small);
          1
    in
    let rec check i =
      if i >= budget then begin
        Printf.printf
          "fuzz: %d programs, 7 pipelines each (icache-off, tight-fuel, \
           ckpt-roundtrip, tiered-store, parallel-coop, parallel-domains, \
           ept-replay vs the block-dispatch baseline) plus the frame \
           audit%s%s: no divergences\n"
          budget
          (if faults > 0 then
             Printf.sprintf " plus %d fault plans each" faults
           else "")
          (if tenants > 0 then
             Printf.sprintf " plus a %d-tenant pool cross-check each" tenants
           else "");
        0
      end
      else begin
        let prog = Fuzz.Gen_prog.generate ~cfg (seed + i) in
        match Fuzz.Oracle.check_prog ~ckpt_every prog with
        | None ->
          if check_faults i prog <> 0 then 1
          else if check_tenants i prog <> 0 then 1
          else begin
            if (i + 1) mod 50 = 0 then
              Printf.printf "fuzz: %d/%d programs ok\n%!" (i + 1) budget;
            check (i + 1)
          end
        | Some d ->
          Printf.printf "fuzz: seed %d diverges on %s: %s\n%!" (seed + i)
            d.Fuzz.Oracle.pipeline d.Fuzz.Oracle.detail;
          let still_diverges p =
            match Fuzz.Oracle.check_prog ~ckpt_every p with
            | Some d' -> d'.Fuzz.Oracle.pipeline = d.Fuzz.Oracle.pipeline
            | None -> false
          in
          let small = Fuzz.Shrink.minimise ~still_diverges prog in
          let path =
            match out with
            | Some p -> p
            | None -> Printf.sprintf "fuzz-counterexample-seed%d.s" (seed + i)
          in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Fuzz.Gen_prog.render small));
          Printf.printf
            "fuzz: shrunk reproducer (%d -> %d nodes+stmts) written to %s\n"
            (Fuzz.Gen_prog.size prog) (Fuzz.Gen_prog.size small) path;
          emit_replay_bundle ~seed:(seed + i) path small;
          if trace then
            traced_rerun path (fun () -> Fuzz.Oracle.check_prog ~ckpt_every small);
          1
      end
    in
    check 0
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random guests cross-checked over every \
             execution pipeline.")
    Term.(const action $ seed $ budget $ depth $ fanout $ ckpt_every $ out
          $ render_only $ faults $ tenants $ trace_flag)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lwsnap" ~version:"1.0.0"
      ~doc:"Lightweight snapshots and system-level backtracking."
  in
  exit (Cmd.eval' (Cmd.group ~default info
                     [ run_cmd; replay_cmd; trace_cmd; solve_cmd; symex_cmd;
                       prolog_cmd; disasm_cmd; fuzz_cmd ]))
