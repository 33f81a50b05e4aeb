(* The experiment harness: regenerates every experiment in DESIGN.md's
   per-experiment index (E1-E8, derived from the paper's claims — a HotOS
   position paper has no numbered tables) plus bechamel micro-benchmarks.

     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- --only E3    one experiment
     dune exec bench/main.exe -- --quick      reduced sizes            *)

module As = Mem.Addr_space
module Phys = Mem.Phys_mem
module M = Obs.Metrics
module N = Obs.Names
module Explorer = Core.Explorer
module Service = Core.Service
module U = Bench_util

let quick = ref false

(* ------------------------------------------------------------------ *)
(* E1: n-queens — system-level vs hand-coded vs Prolog (§5)           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  U.header "E1  n-queens: system-level backtracking vs the §5 comparators"
    "Claim: \"substantially worse than a hand-coded implementation, but \
     better than a Prolog implementation\" for this trivial-granularity \
     problem.  All-solutions enumeration.  (Hand-coded runs native; the \
     system-level guest pays the interpreter as well as the snapshots — \
     see us/ext for the per-extension overhead alone.)";
  let row = U.row_format [ 2; 5; 12; 12; 12; 12; 14; 10 ] in
  row [ "n"; "sols"; "hand ms"; "syslvl ms"; "prolog ms"; "replay ms";
        "guest instrs"; "us/ext" ];
  let sizes = if !quick then [ 5; 6 ] else [ 5; 6; 7; 8 ] in
  List.iter
    (fun n ->
      let hand_ms, hand_count = U.time_ms (fun () -> Workloads.Nqueens.host_count n) in
      let image = Workloads.Nqueens.program ~n in
      let sys_ms, result = U.time_ms (fun () -> Explorer.run_image image) in
      let stats = result.Explorer.stats in
      let sols =
        List.length
          (List.filter (fun l -> l <> "")
             (String.split_on_char '\n' result.Explorer.transcript))
      in
      assert (sols = hand_count);
      let prolog_ms, prolog_count =
        U.time_ms (fun () -> fst (Prolog.Samples.count_queens n))
      in
      assert (prolog_count = sols);
      let replay_ms, replay_sols =
        U.time_ms (fun () ->
            let r =
              Core.Native_bt.run_all (fun ctx ->
                  let row_ = Array.make n false in
                  let ld = Array.make (2 * n) false in
                  let rd = Array.make (2 * n) false in
                  for c = 0 to n - 1 do
                    let q = Core.Native_bt.guess ctx n in
                    if row_.(q) || ld.(q + c) || rd.(n + q - c) then
                      Core.Native_bt.fail ctx;
                    row_.(q) <- true;
                    ld.(q + c) <- true;
                    rd.(n + q - c) <- true
                  done)
            in
            List.length r.Core.Native_bt.solutions)
      in
      assert (replay_sols = sols);
      let per_ext =
        sys_ms *. 1000.0 /. Float.of_int (max 1 stats.Core.Stats.extensions_evaluated)
      in
      row
        [ U.fint n; U.fint sols; U.fms hand_ms; U.fms sys_ms; U.fms prolog_ms;
          U.fms replay_ms; U.fint stats.Core.Stats.instructions; U.fus per_ext ])
    sizes

(* ------------------------------------------------------------------ *)
(* E2: snapshot cost vs address-space size (§3, §4)                   *)
(* ------------------------------------------------------------------ *)

let dirty_aspace pages =
  let phys = Phys.create () in
  let t = As.create phys in
  for vpn = 0 to pages - 1 do
    As.map_zero t ~vpn;
    As.write_u64 t (Mem.Page.addr_of_vpn vpn) vpn  (* materialise *)
  done;
  phys, t

let e2 () =
  U.header "E2  snapshot capture/restore latency vs address-space size"
    "Claim: lightweight snapshots are created and restored \"with very high \
     frequency\"; naive fork has \"large performance overheads\".  COW \
     capture/restore must be flat in the address-space size; eager copies \
     (fork-style clone, libckpt full checkpoint) must grow linearly.  The \
     allocator recycles released frames (explicit release + zero-fill \
     elision), which must cut the bytes newly allocated per COW fault \
     (B/fault) well below the page a no-reuse allocator pays.";
  let row = U.row_format [ 6; 11; 11; 11; 8; 11; 10; 10; 11 ] in
  row [ "pages"; "capture us"; "restore us"; "1st-wr us"; "B/fault";
        "release us"; "clone ms"; "ckpt ms"; "incr(8d) ms" ];
  let sizes = if !quick then [ 64; 512 ] else [ 16; 64; 256; 1024; 4096 ] in
  let json_rows = ref [] in
  List.iter
    (fun pages ->
      let phys, t = dirty_aspace pages in
      let iters = 2000 in
      let capture_ms, _ =
        U.time_ms (fun () ->
            for _ = 1 to iters do
              ignore (As.snapshot t)
            done)
      in
      let snap = As.snapshot t in
      let restore_ms, _ =
        U.time_ms (fun () ->
            for _ = 1 to iters do
              As.restore t snap
            done)
      in
      (* First write after a snapshot: the COW fault service.  The
         segment's one private frame is discarded before the restore
         drops it, so the next fault's buffer comes from the free
         list — steady state allocates nothing. *)
      let fault_iters = 500 in
      let m0 = M.copy (Phys.registry phys) in
      let fault_ms, _ =
        U.time_ms (fun () ->
            for _ = 1 to fault_iters do
              let s = As.snapshot t in
              As.write_u64 t 0 1;
              ignore (As.discard_segment t ~base:s);
              As.restore t s
            done)
      in
      let md = M.get (M.sub (Phys.registry phys) m0) in
      let bpf =
        Float.of_int
          ((md N.mem_frames_allocated - md N.mem_frames_recycled)
          * Mem.Page.size)
        /. Float.of_int (max 1 (md N.mem_cow_faults))
      in
      (* Acceptance: recycling must cut freshly-allocated bytes per COW
         fault by at least 1.3x against a no-reuse allocator, which pays
         exactly one page per fault at every size (measured).  In
         practice steady state recycles every buffer. *)
      if bpf *. 1.3 > Float.of_int Mem.Page.size then
        failwith
          (Printf.sprintf "E2: %.0f B/fault at %d pages, over a page / 1.3"
             bpf pages);
      (* Explicit release lifecycle: parent snapshot, dirty 8 pages,
         child snapshot, backtrack to the parent, release the child —
         the delta frames feed the next iteration's faults. *)
      let rel_iters = 200 in
      let rel_ms, _ =
        U.time_ms (fun () ->
            for _ = 1 to rel_iters do
              let parent = As.snapshot t in
              for k = 0 to 7 do
                As.write_u64 t (Mem.Page.addr_of_vpn (k mod pages)) 7
              done;
              let child = As.snapshot t in
              As.restore t parent;
              ignore (As.release_snapshot ~phys ~parent child)
            done)
      in
      let clone_ms, _ = U.time_ms (fun () -> ignore (Ckpt.clone phys t)) in
      let ckpt_ms, _ = U.time_ms (fun () -> ignore (Ckpt.full_capture t)) in
      let chain = Ckpt.incr_start t in
      let incr_ms, _ =
        U.time_ms (fun () ->
            (* dirty 8 pages, then take one incremental checkpoint *)
            for k = 0 to 7 do
              As.write_u64 t (Mem.Page.addr_of_vpn (k mod pages)) 9
            done;
            Ckpt.incr_capture chain t)
      in
      let total = M.get (M.sub (Phys.registry phys) m0) in
      json_rows :=
        Obs.Json.Obj
          [ "pages", Obs.Json.Int pages;
            "capture_us",
            Obs.Json.Float (capture_ms *. 1000.0 /. Float.of_int iters);
            "restore_us",
            Obs.Json.Float (restore_ms *. 1000.0 /. Float.of_int iters);
            "fault_us",
            Obs.Json.Float (fault_ms *. 1000.0 /. Float.of_int fault_iters);
            "bytes_per_fault", Obs.Json.Float bpf;
            "release_us",
            Obs.Json.Float (rel_ms *. 1000.0 /. Float.of_int rel_iters);
            "clone_ms", Obs.Json.Float clone_ms;
            "ckpt_ms", Obs.Json.Float ckpt_ms;
            "incr_ms", Obs.Json.Float incr_ms;
            "cow_faults", Obs.Json.Int (total N.mem_cow_faults);
            "frames_allocated", Obs.Json.Int (total N.mem_frames_allocated);
            "frames_recycled", Obs.Json.Int (total N.mem_frames_recycled);
            "frames_freed", Obs.Json.Int (total N.mem_frames_freed);
            "zero_fills_elided", Obs.Json.Int (total N.mem_zero_fills_elided) ]
        :: !json_rows;
      row
        [ U.fint pages;
          U.fus (capture_ms *. 1000.0 /. Float.of_int iters);
          U.fus (restore_ms *. 1000.0 /. Float.of_int iters);
          U.fus (fault_ms *. 1000.0 /. Float.of_int fault_iters);
          Printf.sprintf "%.0f" bpf;
          U.fus (rel_ms *. 1000.0 /. Float.of_int rel_iters);
          U.fms clone_ms;
          U.fms ckpt_ms;
          U.fms incr_ms ])
    sizes;
  U.emit_json ~experiment:"E2" ~quick:!quick
    ~params:[ "fault_iters", Obs.Json.Int 500; "release_iters", Obs.Json.Int 200 ]
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E3: problem granularity and memory locality (§5)                   *)
(* ------------------------------------------------------------------ *)

let e3 () =
  U.header "E3  granularity/locality sweep: snapshots vs hand-coded undo"
    "Claim (§5): trivial extension steps favour hand-coded backtracking; \
     larger instruction counts and more pages touched per step amortise \
     the snapshot machinery.  Both programs run on the same interpreter — \
     the ratio isolates the state-management mechanism.  W = ALU ops per \
     step, K = pages written per step.";
  let row = U.row_format [ 7; 4; 11; 11; 9; 11; 11 ] in
  row [ "W"; "K"; "hand ms"; "syslvl ms"; "ratio"; "cow/step"; "instr/step" ];
  let base =
    { Workloads.Locality.depth = (if !quick then 3 else 4);
      branch = 3;
      touch_pages = 0;
      work = 0;
      arena_pages = 32 }
  in
  let sweeps =
    [ 0, 1; 0, 8; 100, 1; 100, 8; 1000, 1; 1000, 8; 10000, 1; 10000, 8 ]
  in
  let json_rows = ref [] in
  List.iter
    (fun (work, touch_pages) ->
      let p = { base with Workloads.Locality.work; touch_pages } in
      let hand_image = Workloads.Locality.program_handcoded p in
      let hand_ms, hand_status =
        U.time_ms (fun () ->
            let m = Os.Libos.boot (Phys.create ()) hand_image in
            match Os.Libos.run m ~fuel:2_000_000_000 with
            | Os.Libos.Exited { status } -> status
            | other -> Format.kasprintf failwith "handcoded: %a" Os.Libos.pp_stop other)
      in
      assert (hand_status = Workloads.Locality.expected_paths p land 0xff);
      let sys_image = Workloads.Locality.program p in
      let sys_ms, result = U.time_ms (fun () -> Explorer.run_image sys_image) in
      let stats = result.Explorer.stats in
      assert (stats.Core.Stats.fails = Workloads.Locality.expected_paths p);
      let steps = max 1 stats.Core.Stats.extensions_evaluated in
      let get = M.get result.Explorer.metrics in
      json_rows :=
        Obs.Json.Obj
          [ "work", Obs.Json.Int work;
            "touch_pages", Obs.Json.Int touch_pages;
            "hand_ms", Obs.Json.Float hand_ms;
            "syslvl_ms", Obs.Json.Float sys_ms;
            "frames_recycled", Obs.Json.Int (get N.mem_frames_recycled);
            "frames_freed", Obs.Json.Int (get N.mem_frames_freed);
            "zero_fills_elided", Obs.Json.Int (get N.mem_zero_fills_elided);
            "metrics", M.to_json result.Explorer.metrics ]
        :: !json_rows;
      row
        [ U.fint work; U.fint touch_pages; U.fms hand_ms; U.fms sys_ms;
          U.fratio (sys_ms /. hand_ms);
          Printf.sprintf "%.2f"
            (Float.of_int (get N.mem_cow_faults) /. Float.of_int steps);
          U.fint (stats.Core.Stats.instructions / steps) ])
    sweeps;
  U.emit_json ~experiment:"E3" ~quick:!quick
    ~params:
      [ "depth", Obs.Json.Int base.Workloads.Locality.depth;
        "branch", Obs.Json.Int base.Workloads.Locality.branch;
        "arena_pages", Obs.Json.Int base.Workloads.Locality.arena_pages ]
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E4: incremental solving from snapshots (§2)                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  U.header "E4  incremental solving: p then p∧q vs from scratch"
    "Claim (§2): \"an incremental solver given formula p immediately \
     followed by p∧q can solve both in less time than solving p and then \
     solving p∧q from scratch\" — and a lightweight snapshot of solved p \
     gives that incrementality to a solver with no incremental support of \
     its own (the guest DPLL publishes its solved state via sys_guess).";
  let num_vars = if !quick then 20 else 30 in
  let num_clauses = num_vars * 3 in
  let chain_len = 4 in
  let base = Workloads.Cnf_gen.planted ~num_vars ~num_clauses ~seed:77 in
  let increments =
    Workloads.Cnf_gen.increments ~num_vars ~count:chain_len ~width:2 ~seed:78
  in
  let prefix k = List.concat (List.filteri (fun idx _ -> idx < k) increments) in

  (* host CDCL: warm push-chain vs cold re-solves *)
  let host_warm_ms, _ =
    U.time_ms (fun () ->
        let s = Sat.Solver.create () in
        Sat.Solver.add_cnf s base.Workloads.Cnf_gen.clauses;
        ignore (Sat.Solver.solve s);
        List.iter
          (fun q ->
            Sat.Solver.push s;
            Sat.Solver.add_cnf s q;
            ignore (Sat.Solver.solve s))
          increments)
  in
  let host_cold_ms, _ =
    U.time_ms (fun () ->
        for k = 0 to chain_len do
          let s = Sat.Solver.create () in
          Sat.Solver.add_cnf s (base.Workloads.Cnf_gen.clauses @ prefix k);
          ignore (Sat.Solver.solve s)
        done)
  in
  (* guest DPLL under snapshots: one run consuming the whole chain, vs
     from-scratch runs of each prefix *)
  let stdin_chain = Workloads.Guest_dpll.encode_increments increments in
  let guest_warm_ms, warm_result =
    U.time_ms (fun () ->
        (* first-exit: stop once one path has consumed the whole chain *)
        Explorer.run_image ~mode:`First_exit ~stdin:stdin_chain
          (Workloads.Guest_dpll.program ~num_vars base.Workloads.Cnf_gen.clauses))
  in
  let sat_count =
    List.length
      (List.filter (fun l -> l = "SAT")
         (String.split_on_char '\n' warm_result.Explorer.transcript))
  in
  let guest_cold_ms, _ =
    U.time_ms (fun () ->
        for k = 0 to chain_len do
          ignore
            (Explorer.run_image ~mode:`First_exit
               (Workloads.Guest_dpll.program ~num_vars
                  (base.Workloads.Cnf_gen.clauses @ prefix k)))
        done)
  in
  Printf.printf
    "problem: %d vars, %d base clauses, %d increments of 2 clauses; \
     solved states along the warm chain: %d\n\n"
    num_vars num_clauses chain_len sat_count;
  let row = U.row_format [ 30; 12; 12; 9 ] in
  row [ "system"; "warm ms"; "cold ms"; "speedup" ];
  row
    [ "host CDCL (push/pop)"; U.fms host_warm_ms; U.fms host_cold_ms;
      U.fratio (host_cold_ms /. host_warm_ms) ];
  row
    [ "guest DPLL (snapshots)"; U.fms guest_warm_ms; U.fms guest_cold_ms;
      U.fratio (guest_cold_ms /. guest_warm_ms) ]

(* ------------------------------------------------------------------ *)
(* E5: symbolic-execution state forking, COW vs software copy (§2)    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  U.header "E5  S2E-style state forking: COW snapshots vs eager copies"
    "Claim (§2): replacing S2E's software copy-on-write layers with \
     hardware snapshots cuts state-forking cost.  Both backends explore \
     identical path sets; only the forking mechanism differs.";
  let row = U.row_format [ 12; 7; 6; 10; 10; 11; 13 ] in
  row [ "target"; "mode"; "paths"; "ms"; "paths/s"; "kB copied"; "copied/fork" ];
  let depth = if !quick then 6 else 8 in
  let targets =
    [ Printf.sprintf "tree(%d)" depth, Workloads.Symex_targets.branch_tree ~depth, depth;
      "password", Workloads.Symex_targets.password, 4;
      "classifier", Workloads.Symex_targets.classifier, 2 ]
  in
  List.iter
    (fun (name, image, stdin_bytes) ->
      List.iter
        (fun (mode_name, mode) ->
          let config =
            { Symex.Engine.default_config with
              symbolic_stdin = stdin_bytes;
              fork_mode = mode }
          in
          let ms, r = U.time_ms (fun () -> Symex.Engine.run ~config image) in
          let paths = List.length r.Symex.Engine.paths in
          let copied_bytes =
            match mode with
            | Symex.Engine.Cow -> M.get r.Symex.Engine.mem N.mem_bytes_copied
            | Symex.Engine.Eager_copy ->
              r.Symex.Engine.eager_pages_copied * Mem.Page.size
          in
          row
            [ name; mode_name; U.fint paths; U.fms ms;
              U.fint (int_of_float (Float.of_int paths /. ms *. 1000.0));
              U.fint (copied_bytes / 1024);
              Printf.sprintf "%.1f pg"
                (Float.of_int (copied_bytes / Mem.Page.size)
                /. Float.of_int (max 1 r.Symex.Engine.forks)) ])
        [ "cow", Symex.Engine.Cow; "eager", Symex.Engine.Eager_copy ])
    targets

(* ------------------------------------------------------------------ *)
(* E6: flexible search strategies (§3.1)                              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  U.header "E6  search strategies over one unchanged guest program"
    "Claim (§3.1): the strategy schedules extension evaluation separately \
     from the program; DFS/BFS/A*/SM-A* explore the same maze guest with \
     very different cost/optimality/memory profiles (A* consumes the \
     guest's sys_guess_hint distances).";
  let row = U.row_format [ 6; 10; 7; 5; 11; 10; 9 ] in
  row [ "maze"; "strategy"; "found"; "opt"; "evaluated"; "max live"; "evicted" ];
  let seeds = if !quick then [ 41 ] else [ 41; 113; 7 ] in
  List.iter
    (fun seed ->
      let maze = Workloads.Grid.generate ~width:9 ~height:9 ~wall_density:0.28 ~seed in
      let opt = Workloads.Grid.host_shortest maze in
      let image = Workloads.Grid.program maze in
      List.iter
        (fun (name, strategy) ->
          let r =
            Explorer.run_image ~mode:`First_exit ~max_extensions:2_000_000
              ~strategy_override:strategy image
          in
          match r.Explorer.outcome with
          | Explorer.Stopped_first_exit len ->
            row
              [ U.fint seed; name; U.fint len;
                (match opt with Some o when o = len -> "yes" | Some _ | None -> "no");
                U.fint r.Explorer.stats.Core.Stats.extensions_evaluated;
                U.fint (M.get r.Explorer.metrics N.snapshot_max_live);
                U.fint (M.get r.Explorer.metrics N.search_evicted) ]
          | Explorer.Completed _ -> row [ U.fint seed; name; "-"; "-"; "-"; "-"; "-" ]
          | Explorer.Aborted m -> Printf.printf "%d %s aborted: %s\n" seed name m)
        [ "dfs", `Dfs; "bfs", `Bfs; "astar", `Astar; "sma-128", `Sma 128;
          "wastar-2", `Wastar 2.0; "beam-64", `Beam 64; "random", `Random 5 ])
    seeds

(* ------------------------------------------------------------------ *)
(* E7: snapshot-tree space accounting (§3.1)                          *)
(* ------------------------------------------------------------------ *)

let e7 () =
  U.header "E7  snapshot trees: COW sharing across partial candidates"
    "Claim (§3.1): the immutable parent relationship encodes the candidate \
     tree space-efficiently.  Every interior node of a guess tree is kept \
     alive as a service candidate; actual frame usage is compared with the \
     naive size (every snapshot stored whole).";
  let row = U.row_format [ 16; 11; 11; 11; 11; 9 ] in
  row [ "workload"; "candidates"; "pages/cand"; "naive MB"; "actual MB"; "sharing" ];
  let workloads =
    let locality depth touch =
      Printf.sprintf "locality(%d,%d)" depth touch,
      Workloads.Locality.program
        { Workloads.Locality.depth; branch = 2; touch_pages = touch; work = 0;
          arena_pages = 16 }
    in
    if !quick then [ "queens(5)", Workloads.Nqueens.program ~n:5 ]
    else
      [ "queens(6)", Workloads.Nqueens.program ~n:6;
        locality 5 2;
        locality 5 8;
        "counting(2^8)", Workloads.Counting.program ~depth:8 ~branch:2 ]
  in
  List.iter
    (fun (name, image) ->
      let svc, first = Service.boot image in
      (* client-driven BFS over every candidate the guest publishes *)
      let queue = Queue.create () in
      let candidates = ref [] in
      let note outcome =
        match outcome with
        | Service.Ready { candidate; arity; _ } ->
          candidates := candidate :: !candidates;
          for choice = 0 to arity - 1 do
            Queue.add (candidate, choice) queue
          done
        | Service.Failed _ | Service.Finished _ | Service.Crashed _ -> ()
      in
      note first;
      while not (Queue.is_empty queue) do
        let candidate, choice = Queue.take queue in
        note (Service.resume svc candidate ~choice ())
      done;
      let n = Service.live_candidates svc in
      let total_pages =
        List.fold_left (fun acc c -> acc + Service.pages svc c) 0 !candidates
      in
      let naive_mb = Float.of_int (total_pages * Mem.Page.size) /. 1048576.0 in
      let actual_frames = Service.distinct_frames svc in
      let actual_mb = Float.of_int (actual_frames * Mem.Page.size) /. 1048576.0 in
      row
        [ name; U.fint n;
          Printf.sprintf "%.1f" (Float.of_int total_pages /. Float.of_int (max 1 n));
          Printf.sprintf "%.2f" naive_mb; Printf.sprintf "%.3f" actual_mb;
          U.fratio (naive_mb /. actual_mb) ])
    workloads

(* ------------------------------------------------------------------ *)
(* E8: MMU mechanism ablation — persistent map vs radix tables (§4)   *)
(* ------------------------------------------------------------------ *)

let replay_trace ~write ~snapshot ~restore =
  let rng = Stdx.Prng.create ~seed:12345 in
  let snaps = ref [||] in
  let nsnaps = ref 0 in
  let add s =
    if !nsnaps < 128 then begin
      if Array.length !snaps = !nsnaps then
        snaps := Array.append !snaps (Array.make (max 16 !nsnaps) s);
      !snaps.(!nsnaps) <- s;
      incr nsnaps
    end
  in
  for step = 1 to 30_000 do
    let vpn = Stdx.Prng.int rng 256 in
    write (Mem.Page.addr_of_vpn vpn + Stdx.Prng.int rng 4088) step;
    if step mod 100 = 0 then add (snapshot ());
    if step mod 400 = 0 && !nsnaps > 0 then
      restore !snaps.(Stdx.Prng.int rng !nsnaps)
  done

let e8 () =
  U.header "E8  ablation: persistent-trie MMU vs 4-level radix page table"
    "Both back-ends implement the same COW snapshot semantics; the radix \
     variant mirrors nested paging (page-table pages are COW'd on the \
     first post-snapshot write).  Same 30k-write/300-snapshot trace.";
  let row = U.row_format [ 18; 10; 12; 12; 14; 12 ] in
  row [ "backend"; "ms"; "cow faults"; "pt copies"; "tlb hit rate"; "frames" ];
  let as_ms, as_metrics =
    U.time_ms (fun () ->
        let phys = Phys.create () in
        let t = As.create phys in
        for vpn = 0 to 255 do
          As.map_zero t ~vpn
        done;
        replay_trace
          ~write:(fun addr v -> As.write_u64 t addr v)
          ~snapshot:(fun () -> As.snapshot t)
          ~restore:(fun s -> As.restore t s);
        Phys.registry phys)
  in
  let ept_ms, ept_metrics =
    U.time_ms (fun () ->
        let phys = Phys.create () in
        let t = Mem.Ept.create phys in
        for vpn = 0 to 255 do
          Mem.Ept.map_zero t ~vpn
        done;
        replay_trace
          ~write:(fun addr v -> Mem.Ept.write_u64 t addr v)
          ~snapshot:(fun () -> Mem.Ept.snapshot t)
          ~restore:(fun s -> Mem.Ept.restore t s);
        Phys.registry phys)
  in
  let print_row name ms metrics =
    let get = M.get metrics in
    let hit_rate =
      Float.of_int (get N.mem_tlb_hits)
      /. Float.of_int (max 1 (get N.mem_tlb_hits + get N.mem_tlb_misses))
    in
    row
      [ name; U.fms ms; U.fint (get N.mem_cow_faults); U.fint (get N.mem_pt_node_copies);
        Printf.sprintf "%.1f%%" (100.0 *. hit_rate); U.fint (get N.mem_frames_allocated) ]
  in
  print_row "persistent trie" as_ms as_metrics;
  print_row "radix (EPT-like)" ept_ms ept_metrics

(* ------------------------------------------------------------------ *)
(* E9: interpreter ablation — uncached step vs block dispatch         *)
(* ------------------------------------------------------------------ *)

let e9 () =
  U.header "E9  ablation: interpreter dispatch"
    "Two fetch pipelines over identical semantics: no cache (every      fetch decodes from guest memory) and basic-block superinstruction      dispatch (fuse straight-line runs into one chain of closures, resolve      the fetch frame once per block).  Each row is the fastest of 7 runs,      taken round-robin across the rows.  The work-heavy row is the      off >= 10.85x block gate; the cliff rows re-measure the data/code-page-separation penalty, which      block dispatch makes steeper.  Infrastructure, not a paper claim.";
  let row = U.row_format [ 12; 10; 10; 14; 12 ] in
  row [ "workload"; "dispatch"; "ms"; "instructions"; "ns/instr" ];
  (* Drive a guest to completion on a bare interpreter (serving brk and
     demand-zero faults inline), with or without the block cache. *)
  let measure image cached () =
    U.time_once_ms (fun () ->
        let machine = Os.Libos.boot (Phys.create ()) image in
        let cpu = machine.Os.Libos.cpu in
        let aspace = machine.Os.Libos.aspace in
        let icache =
          if cached then Some (Vcpu.Interp.create_icache aspace) else None
        in
        let brk = ref Os.Libos.default_layout.Os.Libos.heap_base in
        let rec drive () =
          match Vcpu.Interp.run ?icache cpu aspace ~fuel:2_000_000_000 with
          | Vcpu.Interp.Syscall ->
            let number = Vcpu.Cpu.get cpu Isa.Reg.rax in
            if number = Os.Sys_abi.sys_brk then begin
              let req = Vcpu.Cpu.get cpu Isa.Reg.rdi in
              if req > !brk then
                for vpn = Mem.Page.vpn_of_addr !brk
                    to Mem.Page.vpn_of_addr (req - 1) do
                  As.map_zero aspace ~vpn
                done;
              if req > 0 then brk := req;
              Vcpu.Cpu.set cpu Isa.Reg.rax !brk;
              drive ()
            end
            else ()  (* exit *)
          | Vcpu.Interp.Fault (Vcpu.Interp.Page_fault { addr; _ }) ->
            As.map_zero aspace ~vpn:(Mem.Page.vpn_of_addr addr);
            drive ()
          | Vcpu.Interp.Halt | Vcpu.Interp.Out_of_fuel
          | Vcpu.Interp.Fault _ -> ()
        in
        drive ();
        cpu.Vcpu.Cpu.retired)
  in
  let mode_name cached = if cached then "block" else "off" in
  (* Row group 1: the locality search guest (branchy; short blocks). *)
  let p =
    { Workloads.Locality.depth = 4; branch = 3; touch_pages = 1;
      work = (if !quick then 500 else 2000); arena_pages = 8 }
  in
  let locality = Workloads.Locality.program_handcoded p in
  (* Row group 2: work-heavy straight-line ALU (the gated configuration). *)
  let iters = if !quick then 20_000 else 200_000 in
  let work = Workloads.Dispatch_micro.work_heavy ~iters () in
  (* Row group 3: the data/code-page-separation cliff under block dispatch. *)
  let cliff_iters = if !quick then 20_000 else 200_000 in
  let rows =
    [ "locality", locality, false;
      "locality", locality, true;
      "work-heavy", work, false;
      "work-heavy", work, true;
      "cliff-sep",
      Workloads.Dispatch_micro.cliff ~separate_data:true ~iters:cliff_iters, true;
      "cliff-mixed",
      Workloads.Dispatch_micro.cliff ~separate_data:false ~iters:cliff_iters, true ]
  in
  (* every row's reps round-robin, so a burst of load cannot cover a row *)
  let timings =
    U.min_ms_interleaved ~reps:7
      (List.map (fun (_, image, cached) -> measure image cached) rows)
  in
  let measured =
    List.map2
      (fun (workload, _, cached) (ms, retired) ->
        let ns = ms *. 1e6 /. Float.of_int retired in
        row
          [ workload; mode_name cached; U.fms ms; U.fint retired;
            Printf.sprintf "%.1f" ns ];
        ( (workload, cached),
          ns,
          Obs.Json.Obj
            [ "workload", Obs.Json.Str workload;
              "dispatch", Obs.Json.Str (mode_name cached);
              "ms", Obs.Json.Float ms;
              "instructions", Obs.Json.Int retired;
              "ns_per_instr", Obs.Json.Float ns ] ))
      rows timings
  in
  let ns key =
    Option.get (List.find_map (fun (k, ns, _) -> if k = key then Some ns else None) measured)
  in
  let off_ns = ns ("work-heavy", false) and block_ns = ns ("work-heavy", true)
  and sep_ns = ns ("cliff-sep", true) and mixed_ns = ns ("cliff-mixed", true) in
  Printf.printf
    "\n  work-heavy block vs off: %s   data/code separation cliff: %s\n"
    (U.fratio (off_ns /. block_ns))
    (U.fratio (mixed_ns /. sep_ns));
  (* The gate was block >= 2x faster than the deleted per-instruction
     cache.  In the last full run that measured all three (BENCH_E9.json
     before the per-instruction mode went), off/insn on work-heavy was
     218.3 / 40.25 = 5.42 ns/instr, so the same bar against the uncached
     row is 2 x 5.42 = 10.85. *)
  if off_ns < 10.85 *. block_ns then
    failwith "E9: block dispatch under 10.85x over uncached on work-heavy";
  U.emit_json ~experiment:"E9" ~quick:!quick
    ~params:
      [ "locality_work", Obs.Json.Int p.Workloads.Locality.work;
        "work_heavy_iters", Obs.Json.Int iters;
        "work_heavy_unroll",
        Obs.Json.Int Workloads.Dispatch_micro.default_unroll;
        "cliff_iters", Obs.Json.Int cliff_iters ]
    (List.map (fun (_, _, json) -> json) measured)

(* ------------------------------------------------------------------ *)
(* E10: parallel exploration (Figure 2)                               *)
(* ------------------------------------------------------------------ *)

let e10 () =
  U.header "E10  parallel exploration: simulated multi-worker scheduling"
    "Figure 2 runs one evaluation thread per hardware thread over a shared \
     search graph; per section 3 a parallel DFS simply forks without \
     waiting, made safe by snapshot isolation.  Workers are full virtual \
     CPUs over shared physical memory, scheduled in deterministic rounds \
     of a fixed instruction quantum - the round count is the virtual \
     makespan.  Every row asserts the sequential explorer's terminal \
     multiset, and quick mode asserts the exact round counts.";
  let row = U.row_format [ 14; 9; 9; 10; 9; 12 ] in
  row [ "workload"; "workers"; "rounds"; "speedup"; "eff."; "fails/exits" ];
  (* the rounds at 1/2/4/8 workers: the schedule is deterministic, so a
     changed count means the cooperative schedule changed *)
  let jobs =
    [ "queens(7)", Workloads.Nqueens.program ~n:7, [ 3586; 1794; 898; 450 ];
      "locality",
      Workloads.Locality.program
        { Workloads.Locality.depth = (if !quick then 3 else 5); branch = 3;
          touch_pages = 2; work = 300; arena_pages = 8 },
      [ 41; 21; 11; 7 ] ]
  in
  (* the oracle: the sequential explorer's terminal multiset *)
  let multiset terminals =
    List.sort compare
      (List.map
         (fun (t : Explorer.terminal) -> (t.Explorer.kind, t.Explorer.output))
         terminals)
  in
  List.iter
    (fun (name, image, quick_rounds) ->
      let expected = multiset (Explorer.run_image image).Explorer.terminals in
      let base_rounds = ref 0 in
      List.iter2
        (fun workers quick_rounds ->
          let r = Explorer.run_image ~workers ~quantum:2000 image in
          (match r.Explorer.outcome with
          | Explorer.Completed _ -> ()
          | Explorer.Stopped_first_exit _ | Explorer.Aborted _ ->
            failwith "E10: unexpected outcome");
          if multiset r.Explorer.terminals <> expected then
            failwith
              (Printf.sprintf
                 "E10: %s at %d workers: terminals differ from the explorer's"
                 name workers);
          if !quick && r.Explorer.rounds <> quick_rounds then
            failwith
              (Printf.sprintf "E10: %s at %d workers: %d rounds, expected %d"
                 name workers r.Explorer.rounds quick_rounds);
          if workers = 1 then base_rounds := r.Explorer.rounds;
          let speedup =
            Float.of_int !base_rounds /. Float.of_int r.Explorer.rounds
          in
          row
            [ name; U.fint workers; U.fint r.Explorer.rounds;
              U.fratio speedup;
              Printf.sprintf "%.0f%%" (100.0 *. speedup /. Float.of_int workers);
              Printf.sprintf "%d/%d" r.Explorer.stats.Core.Stats.fails
                (M.get r.Explorer.metrics N.search_exits) ])
        [ 1; 2; 4; 8 ] quick_rounds)
    jobs

(* ------------------------------------------------------------------ *)
(* E11: true multicore exploration (OCaml 5 domains)                  *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let host_cores = Domain.recommended_domain_count () in
  U.header "E11  true multicore exploration: OCaml 5 domains"
    (Printf.sprintf
       "The `Domains backend of Core.Parallel runs one OCaml domain per \
        worker, each owning a private physical memory with the full frame \
        recycling lifecycle, pulling from a sharded work-stealing queue \
        (steal-half batching).  Wall-clock speedup requires real cores: \
        this host reports %d (Domain.recommended_domain_count); speedup \
        assertions on the work-heavy rows are gated on that count.  \
        Terminal-set identity with the cooperative scheduler \
        (Explorer.run_image ~workers:4) is asserted on every row."
       host_cores);
  let row = U.row_format [ 8; 8; 9; 9; 8; 12; 8; 10; 20 ] in
  row
    [ "workload"; "domains"; "ms"; "speedup"; "eff."; "fails/exits"; "steals";
      "recycled"; "items/domain" ];
  let solution_lines transcript =
    List.sort compare
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' transcript))
  in
  let dpll_image =
    let cnf =
      Workloads.Cnf_gen.planted
        ~num_vars:(if !quick then 12 else 18)
        ~num_clauses:(if !quick then 36 else 60)
        ~seed:7
    in
    Workloads.Guest_dpll.program ~num_vars:cnf.Workloads.Cnf_gen.num_vars
      cnf.Workloads.Cnf_gen.clauses
  in
  (* [work_heavy] rows have enough guest work per path for parallelism to
     pay; they carry the speedup assertions (on capable hosts) and get
     best-of-3 timing to keep those assertions off the noise floor. *)
  let jobs =
    [ "queens", Workloads.Nqueens.program ~n:(if !quick then 6 else 7), false;
      "dpll", dpll_image, false;
      "locality",
      Workloads.Locality.program
        { Workloads.Locality.depth = (if !quick then 3 else 4); branch = 3;
          touch_pages = 2; work = (if !quick then 2_000 else 10_000);
          arena_pages = 8 },
      true ]
  in
  let json_rows = ref [] in
  List.iter
    (fun (name, image, work_heavy) ->
      let signature metrics transcript =
        M.get metrics N.search_fails, M.get metrics N.search_exits,
        solution_lines transcript
      in
      let reference =
        let r =
          Explorer.run_image ~workers:4
            ~quantum:Core.Parallel.default_config.quantum image
        in
        signature r.Explorer.metrics r.Explorer.transcript
      in
      let base_ms = ref 0.0 in
      let domain0_after = ref (-1) and replica_after = ref (-1) in
      List.iter
        (fun domains ->
          let config =
            { Core.Parallel.default_config with Core.Parallel.workers = domains }
          in
          let run_once () =
            U.time_once_ms (fun () -> Core.Parallel.run ~config image)
          in
          let ms, r =
            if work_heavy && not !quick then
              List.fold_left
                (fun (best_ms, best_r) () ->
                  let ms, r = run_once () in
                  if ms < best_ms then (ms, r) else (best_ms, best_r))
                (run_once ()) [ (); () ]
            else run_once ()
          in
          (match r.Core.Parallel.outcome with
          | Explorer.Completed _ -> ()
          | Explorer.Stopped_first_exit _ | Explorer.Aborted _ ->
            failwith "E11: unexpected outcome");
          if signature r.Core.Parallel.metrics r.Core.Parallel.transcript
             <> reference
          then
            failwith
              (Printf.sprintf
                 "E11: %s at %d domains diverges from the cooperative \
                  terminal set"
                 name domains);
          if domains = 1 then base_ms := ms;
          let speedup = !base_ms /. ms in
          if work_heavy && domains = 2 && host_cores >= 2 && speedup < 1.0 then
            failwith
              (Printf.sprintf "E11: %s slower at 2 domains (%.2fx)" name speedup);
          if work_heavy && domains = 4 && host_cores >= 4 && speedup < 2.0 then
            failwith
              (Printf.sprintf "E11: %s below 2x at 4 domains (%.2fx)" name
                 speedup);
          let stats = r.Core.Parallel.stats in
          let recycled = stats.Core.Stats.mem.Mem.Mem_metrics.frames_recycled in
          (* Per-domain recycling, exactly: every domain owns its memory,
             so each free is either recycled by a later allocation or
             still pooled at the end, while the pool stays under its
             4,096-buffer cap.  A row reading frames_recycled = 0 although
             its frees were reused (the regression this gate was written
             for) breaks the equation. *)
          let per_domain =
            Array.to_list
              (Array.mapi
                 (fun dom reg ->
                   let get = M.get reg in
                   let evaluated = get N.search_extensions in
                   let dom_recycled = get N.mem_frames_recycled in
                   let freed = get N.mem_frames_freed in
                   let pool = get N.mem_free_buffers in
                   if freed <> dom_recycled + pool || pool >= 4096 then
                     failwith
                       (Printf.sprintf
                          "E11: %s at %d domains: domain %d freed %d frames, \
                           recycled %d, pools %d"
                          name domains dom freed dom_recycled pool);
                   (* Every domain's run ends with its frame audit (a
                      failure raises), so what is left is exact: domain 0
                      holds its final map, as with one domain, and every
                      other domain its root replica, the same on each. *)
                   let live_after = get N.mem_frames_live in
                   let expected = if dom = 0 then domain0_after else replica_after in
                   if !expected < 0 then expected := live_after
                   else if live_after <> !expected then
                     failwith
                       (Printf.sprintf
                          "E11: %s at %d domains: domain %d ends with %d frames \
                           live, not %d"
                          name domains dom live_after !expected);
                   Obs.Json.Obj
                     [ "domain", Obs.Json.Int dom;
                       "extensions_evaluated", Obs.Json.Int evaluated;
                       "frames_recycled", Obs.Json.Int dom_recycled;
                       "frames_freed", Obs.Json.Int freed;
                       "free_buffers", Obs.Json.Int pool;
                       "steals", Obs.Json.Int (get N.queue_steals);
                       "tlb_shootdowns", Obs.Json.Int (get N.mem_tlb_shootdowns);
                       "frames_live_after", Obs.Json.Int live_after ])
                 r.Core.Parallel.domain_metrics)
          in
          let get = M.get r.Core.Parallel.metrics in
          json_rows :=
            Obs.Json.Obj
              [ "workload", Obs.Json.Str name;
                "work_heavy", Obs.Json.Bool work_heavy;
                "domains", Obs.Json.Int domains;
                "ms", Obs.Json.Float ms;
                "speedup", Obs.Json.Float speedup;
                "matches_reference", Obs.Json.Bool true;
                "steals", Obs.Json.Int (get N.queue_steals);
                "steal_batches", Obs.Json.Int (get N.queue_steal_batches);
                "stolen_items", Obs.Json.Int (get N.queue_stolen_items);
                "frames_recycled", Obs.Json.Int recycled;
                "per_domain", Obs.Json.Arr per_domain;
                "metrics", M.to_json r.Core.Parallel.metrics ]
            :: !json_rows;
          row
            [ name; U.fint domains; U.fms ms; U.fratio speedup;
              Printf.sprintf "%.0f%%" (100.0 *. speedup /. Float.of_int domains);
              Printf.sprintf "%d/%d" stats.Core.Stats.fails (get N.search_exits);
              U.fint (get N.queue_steals);
              U.fint recycled;
              String.concat "/"
                (Array.to_list (Array.map string_of_int r.Core.Parallel.busy_rounds))
            ])
        [ 1; 2; 4; 8 ])
    jobs;
  U.emit_json ~experiment:"E11" ~quick:!quick
    ~params:[ "host_cores", Obs.Json.Int host_cores ]
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  U.header "MICRO  bechamel microbenchmarks"
    "Core operations, estimated by OLS over monotonic-clock samples \
     (snapshot primitives over a 256-page dirty address space).";
  let open Bechamel in
  let _, aspace = dirty_aspace 256 in
  let snap = As.snapshot aspace in
  let rng = Stdx.Prng.create ~seed:9 in
  let ptmap =
    List.fold_left
      (fun m k -> Stdx.Ptmap.add k k m)
      Stdx.Ptmap.empty
      (List.init 10_000 (fun _ -> Stdx.Prng.next rng land 0xFFFFF))
  in
  let counting_image = Workloads.Counting.program ~depth:1 ~branch:2 in
  let tests =
    [ Test.make ~name:"snapshot_capture" (Staged.stage (fun () -> As.snapshot aspace));
      Test.make ~name:"snapshot_restore" (Staged.stage (fun () -> As.restore aspace snap));
      (* each segment discards its COW frame before the restore, as
         [Path.switch] does, so the buffer is recycled, not leaked *)
      Test.make ~name:"cow_fault_roundtrip"
        (Staged.stage (fun () ->
             let s = As.snapshot aspace in
             As.write_u64 aspace 0 1;
             ignore (As.discard_segment aspace ~base:s);
             As.restore aspace s));
      Test.make ~name:"write_u64_no_fault"
        (Staged.stage (fun () -> As.write_u64 aspace 8 42));
      (* one discarded leaf segment: restore, a read-modify-write on each
         of 8 pages, discard *)
      Test.make ~name:"leaf_segment_8_pages"
        (Staged.stage (fun () ->
             As.restore aspace snap;
             for k = 0 to 7 do
               let addr = Mem.Page.addr_of_vpn k in
               As.write_u64 aspace addr (As.read_u64 aspace addr + 1)
             done;
             ignore (As.discard_segment aspace ~base:snap)));
      Test.make ~name:"ptmap_find_10k"
        (Staged.stage (fun () -> Stdx.Ptmap.find_opt 0x1234 ptmap));
      Test.make ~name:"ptmap_add_10k"
        (Staged.stage (fun () -> Stdx.Ptmap.add 0x98765 1 ptmap));
      Test.make ~name:"guess_tree_2ext"
        (Staged.stage (fun () -> Explorer.run_image counting_image)) ]
  in
  U.run_micro ~name:"lwsnap" tests

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E12: exploration under a frame budget (reclaim: demote + promote)  *)
(* ------------------------------------------------------------------ *)

let e12 () =
  U.header "E12  frame-budgeted exploration: the tiered payload store"
    "Snapshots are cheap in time but not free in space: a breadth-first \
     exploration holds a whole level of frontier snapshots' frames live \
     at once (section 2's 'memory-management capabilities' concern).  \
     Under a frame budget the store no longer forgets payloads - it \
     demotes them (deepest, least-recently-resumed first) to dirty-page \
     deltas against a live ancestor and promotes them back by apply \
     when the scheduler pops them, re-executing no guest code; a \
     payload whose extensions have all run is freed, as without a \
     store.  Every budgeted run must visit the same terminals in the \
     same order as the unbounded one, peak live frames must never \
     exceed the budget, no budgeted run may leave more frames live \
     after it returns than the unbounded one, the quarter-peak run \
     must demote and promote, and it must stay within 3x of the \
     unbounded time (min of 5 runs each; the old evict-and-replay store \
     sat at 32-75x here).";
  let row = U.row_format [ 10; 9; 10; 8; 8; 9; 8; 9 ] in
  row
    [ "budget"; "capacity"; "peak-live"; "demote"; "promote"; "delta-KB";
      "ms"; "slowdown" ];
  let params =
    { Workloads.Locality.depth = (if !quick then 3 else 4); branch = 3;
      touch_pages = 3; work = (if !quick then 5 else 50); arena_pages = 16 }
  in
  let image = Workloads.Locality.program params in
  (* Breadth-first: the frontier holds a whole level of the tree, so the
     unbounded run's peak — the footprint the budgets below have to
     undercut — is far above a path's worth of frames.  A store frees
     each payload once its extensions have run, as a storeless run frees
     a snapshot, so attaching one ([tier_stress:0]) peaks alike. *)
  let run capacity () =
    let phys = Phys.create ~capacity () in
    let r = Explorer.run ~strategy_override:`Bfs (Os.Libos.boot phys image) in
    phys, r
  in
  (* Rows must start from comparable GC state: each budgeted run leaves
     demoted deltas and store records on the major heap, and without a
     collection here a later row pays the earlier rows' heap debt in its
     own wall clock (the skew dwarfs the tier machinery being measured).
     Same discipline as E13.  A row takes well under a millisecond, so it
     is timed as the min of 5 runs after one warmup. *)
  (* Pressure decisions read exact frame counts, never GC timing, so every
     repetition of a row must demote and promote exactly alike and peak at
     the same live count — the determinism gate. *)
  let decisions (phys, (r : Explorer.result)) =
    let get = M.get r.Explorer.metrics in
    [ get N.reclaim_demotions; get N.reclaim_promotions;
      Phys.peak_frames_live phys; Phys.pressure_events phys ]
  in
  let timed capacity =
    let first = decisions (run capacity ()) in
    let samples =
      List.init 5 (fun _ ->
          Gc.compact ();
          U.time_once_ms (run capacity))
    in
    if List.exists (fun (_, x) -> decisions x <> first) samples then
      failwith
        (Printf.sprintf
           "E12: capacity %d: pressure decisions differ between identical runs"
           capacity);
    List.fold_left (fun m (ms, _) -> Float.min m ms) infinity samples,
    snd (List.hd samples)
  in
  let base_ms, (phys0, base) = timed 0 in
  let peak = Phys.peak_frames_live phys0 in
  let base_live_after = Phys.frames_live phys0 in
  let base_terminals = List.length base.Explorer.terminals in
  row
    [ "unbounded"; "-"; U.fint peak; "0"; "0"; "0"; U.fms base_ms;
      U.fratio 1.0 ];
  let json_row ~label ~capacity ~peak_live ~peak_delta ~live_after ~ms
      ~slowdown metrics =
    Obs.Json.Obj
      [ "budget", Obs.Json.Str label;
        "capacity", Obs.Json.Int capacity;
        "peak_live", Obs.Json.Int peak_live;
        "peak_delta_bytes", Obs.Json.Int peak_delta;
        "frames_live_after", Obs.Json.Int live_after;
        "ms", Obs.Json.Float ms;
        "slowdown", Obs.Json.Float slowdown;
        "metrics", M.to_json metrics ]
  in
  let json_rows =
    ref
      [ json_row ~label:"unbounded" ~capacity:0 ~peak_live:peak ~peak_delta:0
          ~live_after:base_live_after ~ms:base_ms ~slowdown:1.0
          base.Explorer.metrics ]
  in
  List.iter
    (fun (label, num, den) ->
      let capacity = max 16 (peak * num / den) in
      let ms, (phys, r) = timed capacity in
      (match r.Explorer.outcome with
      | Explorer.Completed _ -> ()
      | Explorer.Stopped_first_exit _ | Explorer.Aborted _ ->
        failwith "E12: exploration did not complete under budget");
      if List.length r.Explorer.terminals <> base_terminals then
        failwith "E12: terminal count diverged under memory pressure";
      if r.Explorer.transcript <> base.Explorer.transcript then
        failwith "E12: transcript diverged under memory pressure";
      if Phys.peak_frames_live phys > capacity then
        failwith "E12: frame budget exceeded";
      let live_after = Phys.frames_live phys in
      if live_after > base_live_after then
        failwith
          (Printf.sprintf
             "E12: capacity %d: %d frames live after the run, the unbounded \
              run leaves %d" capacity live_after base_live_after);
      let s = r.Explorer.stats in
      let slowdown = ms /. base_ms in
      if label = "1/4 peak"
         && (s.Core.Stats.demotions = 0 || s.Core.Stats.promotions = 0)
      then failwith "E12: the quarter-peak budget no longer exercises the tiers";
      if label = "1/4 peak" && slowdown >= 3.0 then
        failwith
          (Printf.sprintf
             "E12: quarter-peak slowdown %.1fx >= 3x - the delta tiers are \
              not absorbing the pressure" slowdown);
      json_rows :=
        json_row ~label ~capacity ~peak_live:(Phys.peak_frames_live phys)
          ~peak_delta:(Phys.peak_delta_bytes phys) ~live_after ~ms ~slowdown
          r.Explorer.metrics
        :: !json_rows;
      row
        [ label; U.fint capacity; U.fint (Phys.peak_frames_live phys);
          U.fint s.Core.Stats.demotions; U.fint s.Core.Stats.promotions;
          U.fint (Phys.peak_delta_bytes phys / 1024); U.fms ms;
          U.fratio slowdown ])
    [ "3/4 peak", 3, 4; "1/2 peak", 1, 2; "1/3 peak", 1, 3;
      "1/4 peak", 1, 4 ];
  U.emit_json ~schema:4 ~experiment:"E12" ~quick:!quick
    ~params:
      [ "strategy", Obs.Json.Str "bfs";
        "depth", Obs.Json.Int params.Workloads.Locality.depth;
        "branch", Obs.Json.Int params.Workloads.Locality.branch;
        "touch_pages", Obs.Json.Int params.Workloads.Locality.touch_pages;
        "work", Obs.Json.Int params.Workloads.Locality.work ]
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E13: observability overhead (lib/obs tracing on the E3 workload)   *)
(* ------------------------------------------------------------------ *)

let e13 () =
  U.header "E13  tracing overhead: the obs ring tracer on an E3 workload"
    "The lib/obs tracer must be effectively free when disabled (the count \
     it makes anyway plus one boolean load per record call) and cheap \
     when enabled.  Runs an E3-style locality workload with tracing off \
     and on (5 alternating off/on pairs, each side the fastest of its \
     5), measures the per-call cost of a disabled record call \
     directly, and projects the disabled overhead from the number of \
     events the traced run actually records — the projection is the \
     assertable form of the <1% claim, since the true cost sits below \
     run-to-run timing noise.  Asserts: projected disabled overhead \
     < 1%, enabled overhead < 10%, identical exploration either way.";
  let p =
    { Workloads.Locality.depth = (if !quick then 3 else 4); branch = 3;
      touch_pages = 4; work = (if !quick then 2000 else 4000);
      arena_pages = 32 }
  in
  let image = Workloads.Locality.program p in
  let reps = 5 in
  (* a full major collection right before each timed run keeps GC state
     comparable between the two modes (the enabled mode allocates its ring
     just before running) *)
  let off () =
    Gc.full_major ();
    U.time_once_ms (fun () -> Explorer.run_image image)
  in
  (* enabled: a fresh ring per rep so every rep pays full recording, but
     ring allocation itself stays outside the timed region (one
     pre-touch record forces this domain's lazy buffer registration) *)
  let capacity = 1 lsl 16 in
  let scratch = M.create () in
  let on () =
    Obs.Trace.start ~capacity ();
    Obs.Trace.instant scratch N.mem_pressure_events 0 0;
    Gc.full_major ();
    let timed = U.time_once_ms (fun () -> Explorer.run_image image) in
    Obs.Trace.stop ();
    timed
  in
  (* off and on alternate, so a burst of host load lands on both sides *)
  let (off_ms, off_r), (on_ms, on_r) =
    match U.min_ms_interleaved ~reps [ off; on ] with
    | [ off; on ] -> off, on
    | _ -> assert false
  in
  let recorded = Obs.Trace.recorded () in
  let dropped = Obs.Trace.dropped () in
  let events = Obs.Trace.events () in
  let export_ms, chrome =
    U.time_once_ms (fun () -> Obs.Export.chrome_json_string ~dropped events)
  in
  Obs.Trace.clear ();
  (* per-call cost of a guarded record call while tracing is disabled *)
  let guard_iters = 10_000_000 in
  let guard_ms, () =
    U.time_once_ms (fun () ->
        for i = 0 to guard_iters - 1 do
          Obs.Trace.instant scratch N.mem_cow_faults i 0
        done)
  in
  let guard_ns = guard_ms *. 1e6 /. Float.of_int guard_iters in
  let projected_pct =
    100.0 *. (guard_ns *. Float.of_int recorded /. 1e6) /. off_ms
  in
  let enabled_pct = 100.0 *. ((on_ms /. off_ms) -. 1.0) in
  let signature (r : Explorer.result) =
    ( r.Explorer.stats.Core.Stats.fails,
      M.get r.Explorer.metrics N.search_exits,
      r.Explorer.transcript )
  in
  if signature off_r <> signature on_r then
    failwith "E13: tracing changed the exploration result";
  let row = U.row_format [ 26; 14 ] in
  row [ "tracing off (min of 5)"; U.fms off_ms ^ " ms" ];
  row [ "tracing on  (min of 5)"; U.fms on_ms ^ " ms" ];
  row [ "enabled overhead"; Printf.sprintf "%.1f%%" enabled_pct ];
  row [ "events recorded"; U.fint recorded ];
  row [ "events dropped"; U.fint dropped ];
  row [ "disabled call"; Printf.sprintf "%.2f ns" guard_ns ];
  row [ "projected off overhead"; Printf.sprintf "%.4f%%" projected_pct ];
  row
    [ "chrome export";
      Printf.sprintf "%s ms (%d bytes)" (U.fms export_ms)
        (String.length chrome) ];
  if projected_pct >= 1.0 then
    failwith "E13: projected disabled-tracing overhead reached 1%";
  if enabled_pct >= 10.0 then
    failwith "E13: enabled-tracing overhead reached 10%";
  U.emit_json ~experiment:"E13" ~quick:!quick
    ~params:
      [ "depth", Obs.Json.Int p.Workloads.Locality.depth;
        "branch", Obs.Json.Int p.Workloads.Locality.branch;
        "touch_pages", Obs.Json.Int p.Workloads.Locality.touch_pages;
        "work", Obs.Json.Int p.Workloads.Locality.work;
        "ring_capacity", Obs.Json.Int capacity;
        "reps", Obs.Json.Int reps ]
    [ Obs.Json.Obj
        [ "off_ms", Obs.Json.Float off_ms;
          "on_ms", Obs.Json.Float on_ms;
          "enabled_overhead_pct", Obs.Json.Float enabled_pct;
          "events_recorded", Obs.Json.Int recorded;
          "events_dropped", Obs.Json.Int dropped;
          "disabled_call_ns", Obs.Json.Float guard_ns;
          "projected_disabled_overhead_pct", Obs.Json.Float projected_pct;
          "export_ms", Obs.Json.Float export_ms;
          "export_bytes", Obs.Json.Int (String.length chrome);
          "metrics", M.to_json on_r.Explorer.metrics ] ]

(* ------------------------------------------------------------------ *)
(* E14: multi-tenant snapshot service (density, isolation, fairness)  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  U.header
    "E14  multi-tenant snapshot service: session density and fault isolation"
    "The paper's service runs many clients' candidate sets at once \
     (section 3.2 'would need memory-management capabilities', section 4 \
     'several sessions').  One shared frame pool hosts N same-image \
     sessions: content-addressed dedup hash-conses their read-only image \
     pages (COW on first divergence), per-tenant accounts attribute every \
     other frame, and scheduling is round-robin.  The sweep reports \
     session density (sessions/GB of frames), resume latency p50/p99 and \
     the dedup sharing multiplier from 1 tenant up; the storm row then \
     kills 10% of the tenants mid-sweep with injected allocation faults \
     and asserts the survivors' outcome logs are bit-identical to the \
     fault-free run — the fault-isolation contract, measured.";
  let module Tenancy = Core.Tenancy in
  let row = U.row_format [ 8; 7; 11; 9; 8; 8; 7; 10 ] in
  row
    [ "tenants"; "killed"; "frames-live"; "sess/GB"; "p50-us"; "p99-us";
      "dedup"; "survivors" ];
  let params =
    { Workloads.Locality.depth = 3; branch = 2; touch_pages = 1; work = 1;
      arena_pages = 4 }
  in
  let image = Workloads.Locality.program params in
  let rounds = 3 in
  (* Boot [n] tenants into one pool, then [rounds] round-robin resume
     rounds each following its own candidate chain.  [victims] are killed
     after boot by aiming a single-shot injected allocation fault at each
     one's next frame ([Inject.Alloc_fail] on the allocator's next
     ordinal) and serving only that tenant.  Returns the pool, each
     tenant's outcome log (terminal signatures, for the survivor
     comparison) and every step's wall-clock latency. *)
  let drive n victims =
    let pool = Tenancy.create () in
    let phys = Tenancy.phys pool in
    let cursors =
      Array.init n (fun _ ->
          match Tenancy.boot pool image with
          | Tenancy.Admitted (id, Service.Ready { candidate; _ }) ->
            (id, ref candidate)
          | _ -> failwith "E14: boot failed")
    in
    let log = Array.make n [] in
    let note id o =
      let s =
        match (o : Service.outcome) with
        | Service.Ready { arity; output; _ } ->
          Printf.sprintf "ready(%d):%s" arity output
        | Service.Finished { status; output } ->
          Printf.sprintf "exit(%d):%s" status output
        | Service.Failed { output } -> "fail:" ^ output
        | Service.Crashed msg -> "crashed:" ^ msg
      in
      log.(id) <- s :: log.(id)
    in
    List.iter
      (fun vid ->
        let _, cur = cursors.(vid) in
        ignore (Tenancy.post pool vid !cur ~choice:0 ());
        let armed =
          Inject.arm
            { Inject.seed = 0;
              faults = [ Inject.Alloc_fail (Phys.next_frame_ordinal phys) ] }
        in
        Phys.set_alloc_fault phys (Inject.alloc_hook armed);
        (match Tenancy.step pool with
        | Some (id, Service.Crashed _) when id = vid -> ()
        | _ -> failwith "E14: fault storm missed its victim");
        Phys.set_alloc_fault phys None)
      victims;
    let latencies = ref [] in
    for k = 1 to rounds do
      Array.iter
        (fun (id, cur) ->
          if Tenancy.state pool id = Some Tenancy.Running then begin
            ignore (Tenancy.post pool id !cur ~choice:(k mod 2) ());
            let ms, served = U.time_once_ms (fun () -> Tenancy.step pool) in
            latencies := (ms *. 1000.0) :: !latencies;
            match served with
            | Some (sid, o) when sid = id ->
              note id o;
              (match o with
              | Service.Ready { candidate; _ } -> cur := candidate
              | _ -> ())
            | _ -> failwith "E14: round-robin served the wrong tenant"
          end)
        cursors
    done;
    pool, log, !latencies
  in
  (* Every decision the pool takes — demotions, budget evictions, pressure
     sheds, crash containment — reads exact frame counts, never GC timing:
     two identical drives must agree on all of them and on the live count.
     Killing every tenant afterwards must return the pool to quiescence. *)
  let decisions pool =
    let svcs = List.init (Tenancy.tenant_count pool) (Tenancy.service pool) in
    let phys = Tenancy.phys pool in
    let get = M.get (Tenancy.metrics pool) in
    [ List.fold_left (fun n s -> n + Service.demotions s) 0 svcs;
      get N.tenancy_budget_evictions; Tenancy.pressure_level2 pool;
      get N.tenancy_crashes; Phys.pressure_events phys; Phys.frames_live phys ]
  in
  let retire pool =
    for id = 0 to Tenancy.tenant_count pool - 1 do Tenancy.kill pool id done;
    Phys.assert_quiescent (Tenancy.phys pool)
  in
  let drive n victims =
    let ((pool, log, _) as first) = drive n victims in
    let pool', log', _ = drive n victims in
    if decisions pool <> decisions pool' || log <> log' then
      failwith
        (Printf.sprintf "E14: %d tenants: two identical drives decided differently"
           n);
    retire pool';
    first
  in
  let percentile p xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  in
  let frames_per_gb = 1024 * 1024 * 1024 / Mem.Page.size in
  let json_rows = ref [] in
  let emit_row ~n ~killed ~pool ~latencies ~survivors_ok =
    let phys = Tenancy.phys pool in
    let live = Phys.frames_live phys in
    let sessions_per_gb =
      float_of_int ((n - killed) * frames_per_gb) /. float_of_int (max 1 live)
    in
    let p50 = percentile 0.50 latencies in
    let p99 = percentile 0.99 latencies in
    let dedup = Tenancy.dedup_ratio pool in
    json_rows :=
      Obs.Json.Obj
        [ "tenants", Obs.Json.Int n;
          "killed", Obs.Json.Int killed;
          "frames_live", Obs.Json.Int live;
          "sessions_per_gb", Obs.Json.Float sessions_per_gb;
          "p50_resume_us", Obs.Json.Float p50;
          "p99_resume_us", Obs.Json.Float p99;
          "dedup_ratio", Obs.Json.Float dedup;
          "survivors_ok", Obs.Json.Bool survivors_ok ]
      :: !json_rows;
    row
      [ U.fint n; U.fint killed; U.fint live;
        Printf.sprintf "%.0f" sessions_per_gb; U.fus p50; U.fus p99;
        U.fratio dedup;
        (if killed = 0 then "-" else if survivors_ok then "ok" else "FAIL") ];
    dedup
  in
  let counts = if !quick then [ 1; 16; 100 ] else [ 1; 10; 100; 1000 ] in
  let biggest = List.nth counts (List.length counts - 1) in
  let baseline_log = ref [||] in
  List.iter
    (fun n ->
      let pool, log, latencies = drive n [] in
      if n = biggest then baseline_log := log;
      let dedup = emit_row ~n ~killed:0 ~pool ~latencies ~survivors_ok:true in
      if n >= 100 && dedup <= 1.5 then
        failwith
          (Printf.sprintf
             "E14: dedup ratio %.2f at %d same-image tenants - sharing is \
              not happening"
             dedup n))
    counts;
  (* The fault storm: kill every 10th tenant mid-sweep with an injected
     allocation fault; every survivor's outcome log must be bit-identical
     to the fault-free run above. *)
  let victims = List.filter (fun v -> v mod 10 = 0) (List.init biggest Fun.id) in
  let pool, log, latencies = drive biggest victims in
  let survivors_ok =
    List.for_all
      (fun id -> log.(id) = !baseline_log.(id))
      (List.filter (fun id -> not (List.mem id victims))
         (List.init biggest Fun.id))
  in
  ignore
    (emit_row ~n:biggest ~killed:(List.length victims) ~pool ~latencies
       ~survivors_ok);
  if not survivors_ok then
    failwith "E14: a fault-storm survivor's outcomes diverged from the \
              fault-free run";
  if M.get (Tenancy.metrics pool) N.tenancy_crashes <> List.length victims then
    failwith "E14: crash containment miscounted the storm's victims";
  U.emit_json ~experiment:"E14" ~quick:!quick
    ~params:
      [ "depth", Obs.Json.Int params.Workloads.Locality.depth;
        "branch", Obs.Json.Int params.Workloads.Locality.branch;
        "touch_pages", Obs.Json.Int params.Workloads.Locality.touch_pages;
        "work", Obs.Json.Int params.Workloads.Locality.work;
        "arena_pages", Obs.Json.Int params.Workloads.Locality.arena_pages;
        "rounds", Obs.Json.Int rounds ]
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* E15: record/replay — recording overhead, reverse-seek latency      *)
(* ------------------------------------------------------------------ *)

let e15 () =
  U.header "E15  record/replay: recording overhead and time-travel latency"
    "Recording a run's nondeterministic inputs (scheduler decisions plus \
     the ordinary-syscall stream, lib/record) must not slow exploration \
     by 10% or more; the time-travel cursor's reverse-step must cost \
     O(anchor interval), not O(run length).  Runs n-queens unrecorded \
     and recorded (min of 5 each, identical exploration asserted), then \
     replays the bundle and measures forward-pass and reverse-step \
     latency at anchor spacings 1/4/16/64.";
  let n = if !quick then 5 else 6 in
  let image = Workloads.Nqueens.program ~n in
  let reps = 5 in
  let boot () = Os.Libos.boot (Phys.create ()) image in
  let min_ms f =
    ignore (f ());
    let best = ref infinity in
    let last = ref None in
    for _ = 1 to reps do
      let ms, r = f () in
      if ms < !best then best := ms;
      last := Some r
    done;
    (!best, Option.get !last)
  in
  let off_ms, off_r =
    min_ms (fun () ->
        let m = boot () in
        Gc.full_major ();
        U.time_once_ms (fun () -> Explorer.run m))
  in
  let last_recorder = ref (Record.Recorder.create ()) in
  let on_ms, on_r =
    min_ms (fun () ->
        let m = boot () in
        let recorder = Record.Recorder.create () in
        Record.Recorder.install recorder m;
        last_recorder := recorder;
        Gc.full_major ();
        U.time_once_ms (fun () ->
            Explorer.run ~probe:(Record.Recorder.probe recorder) m))
  in
  let signature (r : Explorer.result) =
    ( r.Explorer.stats.Core.Stats.fails,
      M.get r.Explorer.metrics N.search_exits,
      r.Explorer.transcript )
  in
  if signature off_r <> signature on_r then
    failwith "E15: recording changed the exploration result";
  let overhead_pct = 100.0 *. ((on_ms /. off_ms) -. 1.0) in
  let log = Record.Recorder.log !last_recorder in
  let log_bytes = String.length (Record.Log.encode log) in
  let events = Record.Recorder.events !last_recorder in
  let instructions = off_r.Explorer.stats.Core.Stats.instructions in
  let row = U.row_format [ 26; 16 ] in
  row [ "recording off (min of 5)"; U.fms off_ms ^ " ms" ];
  row [ "recording on  (min of 5)"; U.fms on_ms ^ " ms" ];
  row [ "record overhead"; Printf.sprintf "%.1f%%" overhead_pct ];
  row [ "guest instructions"; U.fint instructions ];
  row [ "events logged"; U.fint events ];
  row [ "log size"; Printf.sprintf "%d bytes" log_bytes ];
  (* the time-travel axis: one bundle, four anchor spacings *)
  let bundle = Record.Bundle.of_image image log in
  let rsteps_wanted = if !quick then 50 else 200 in
  let row = U.row_format [ 12; 14; 10; 14 ] in
  row [ "anchor_every"; "fwd pass ms"; "rsteps"; "us/rstep" ];
  let seek_rows =
    List.map
      (fun anchor_every ->
        let cur = Record.Replay.create ~anchor_every bundle in
        let fwd_ms, () =
          U.time_once_ms (fun () ->
              match Record.Replay.seek cur (Record.Replay.total_time cur) with
              | Record.Replay.Stopped -> ()
              | Record.Replay.End | Record.Replay.Break _ ->
                failwith "E15: seek to end interrupted")
        in
        let k = min rsteps_wanted (Record.Replay.total_time cur - 1) in
        let rstep_ms, () =
          U.time_once_ms (fun () ->
              for _ = 1 to k do
                match Record.Replay.rstep cur with
                | Record.Replay.Stopped -> ()
                | Record.Replay.End | Record.Replay.Break _ ->
                  failwith "E15: rstep hit the boundary"
              done)
        in
        let us_per = rstep_ms *. 1000.0 /. Float.of_int k in
        row
          [ string_of_int anchor_every; U.fms fwd_ms; string_of_int k;
            Printf.sprintf "%.1f" us_per ];
        Obs.Json.Obj
          [ "anchor_every", Obs.Json.Int anchor_every;
            "forward_ms", Obs.Json.Float fwd_ms;
            "rsteps", Obs.Json.Int k;
            "us_per_rstep", Obs.Json.Float us_per ])
      [ 1; 4; 16; 64 ]
  in
  if overhead_pct >= 10.0 then
    failwith "E15: recording overhead reached 10%";
  U.emit_json ~experiment:"E15" ~quick:!quick
    ~params:
      [ "workload", Obs.Json.Str "nqueens";
        "n", Obs.Json.Int n;
        "reps", Obs.Json.Int reps;
        "rsteps", Obs.Json.Int rsteps_wanted ]
    (Obs.Json.Obj
       [ "off_ms", Obs.Json.Float off_ms;
         "on_ms", Obs.Json.Float on_ms;
         "record_overhead_pct", Obs.Json.Float overhead_pct;
         "instructions", Obs.Json.Int instructions;
         "events", Obs.Json.Int events;
         "log_bytes", Obs.Json.Int log_bytes ]
     :: seek_rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [ "E1", e1; "E2", e2; "E3", e3; "E4", e4; "E5", e5; "E6", e6; "E7", e7;
    "E8", e8; "E9", e9; "E10", e10; "E11", e11; "E12", e12; "E13", e13;
    "E14", e14; "E15", e15; "MICRO", micro ]

let () =
  let only = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--only" :: name :: rest ->
      only := String.uppercase_ascii name :: !only;
      parse rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !only = [] then experiments
    else List.filter (fun (name, _) -> List.mem name !only) experiments
  in
  Printf.printf
    "lwsnap experiment harness — reproduces the claims of \"Lightweight \
     Snapshots and System-level Backtracking\" (HotOS 2013)\n";
  List.iter (fun (_, run) -> run ()) selected
