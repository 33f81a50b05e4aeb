(* The repository benchmark: two workloads driven through lwsnap's public
   API only, each loading some layers heavily and bypassing others.

     main.exe --workload W --seed N --seconds S --trace 0|1

   For S seconds a run repeats rounds of a set-up -- image assembly, boot
   and one plain execution of the whole workload -- and one execution of
   another kind, each on a freshly compacted heap:

   - [--trace 0]: executions that read the clock once per resume -- per
     scheduler stop ([Explorer.run ~on_stop]) or per [Tenancy.step] --
     which give the resume latency; the plain ones give the wall time;
   - [--trace 1]: traced executions that also charge wall time to layers
     from outside the library -- probe hooks on [Explorer.run], a timing
     wrapper over the DFS frontier, timers around [Tenancy.step],
     [Tenancy.post] and [Service.release] -- and whose overhead is
     measured against the interleaved plain ones.

   Every execution's outputs and exact counts are checked against fixed
   expectations and against each other.  The last line of stdout is one
   JSON object: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1]. *)

module Explorer = Core.Explorer
module Stats = Core.Stats
module Service = Core.Service
module Tenancy = Core.Tenancy
module Libos = Os.Libos
module Phys = Mem.Phys_mem
module Frontier = Search.Frontier
module Locality = Workloads.Locality

(* {1 Clock and samples} *)

(* Nanoseconds.  Allocation-free, so an instrumented execution allocates
   exactly what a plain one does: the GC runs at the same points, and so
   do the finaliser-driven frame-pressure decisions of [tenants]. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Index of the [p]-quantile in [n] sorted values, by nearest rank. *)
let nearest_rank p n = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1))

(* One execution's resume latencies.  They live off the OCaml heap and
   are sorted in place, so they neither show in [peak_heap_mb] nor add
   marking work to the executions they time. *)
module Samples = struct
  open Bigarray

  type t = { buf : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create capacity = { buf = Array1.create int c_layout capacity; n = 0 }

  let add t x =
    if t.n < Array1.dim t.buf then begin
      Array1.unsafe_set t.buf t.n x;
      t.n <- t.n + 1
    end

  (* The nearest-rank p50 and p99.9 of the samples, in ns; empties [t]. *)
  let take_p50_p999 t =
    let a = t.buf in
    let swap i j =
      let x = a.{i} in
      a.{i} <- a.{j};
      a.{j} <- x
    in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c = if l + 1 < len && a.{l + 1} > a.{l} then l + 1 else l in
        if a.{c} > a.{i} then begin
          swap i c;
          sift c len
        end
      end
    in
    let n = t.n in
    for i = (n / 2) - 1 downto 0 do sift i n done;
    for last = n - 1 downto 1 do
      swap 0 last;
      sift 0 last
    done;
    t.n <- 0;
    let pct p = if n = 0 then nan else float a.{nearest_rank p n} in
    pct 0.5, pct 0.999
end

(* The 5th percentile of a run's per-execution values.  Other load on a
   shared host slows executions by up to 1.6x in phases that last from a
   few seconds to a minute, and never speeds them up: a low percentile over
   a run of a minute tracks the run's fastest phase, where the median
   follows whichever phase covers most of the run. *)
let low_percentile xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(nearest_rank 0.05 n)

(* {1 Executions} *)

(* [Steps]: read the clock once per resume, for the latency percentiles;
   [Traced]: that plus the per-layer timers. *)
type mode = Plain | Steps | Traced

(* resumes in the largest execution: 72,378 on nqueens *)
let samples = Samples.create (1 lsl 17)

(* The execution's resume latency percentiles, from [samples]. *)
let resume_layers = function
  | Plain -> []
  | Steps | Traced ->
    let p50, p999 = Samples.take_p50_p999 samples in
    [ "resume.p50_us", p50 /. 1e3; "resume.p999_us", p999 /. 1e3 ]

type exec = {
  wall_ns : int;
  ops : int;  (** paths evaluated (Explorer) or resumes served (tenants) *)
  failed : int;  (** killed, crashed or quarantined paths; [Crashed] outcomes *)
  errors : string list;  (** output mismatches, each also one failure *)
  counts : (string * int) list;
      (** exact per-layer counts: a fixed function of workload and seed,
          identical across modes and executions *)
  layers : (string * float) list;  (** timings and GC counts *)
}

let ms ns = float ns /. 1e6

let gc_layers (g0 : Gc.stat) (g1 : Gc.stat) =
  [ "gc.major_collections", float (g1.major_collections - g0.major_collections);
    "gc.minor_collections", float (g1.minor_collections - g0.minor_collections) ]

(* Check [counts] against the exact values a workload must reproduce. *)
let expect_counts expected counts =
  List.filter_map
    (fun (name, want) ->
      let got = List.assoc name counts in
      if got = want then None
      else Some (Printf.sprintf "%s = %d, expected %d" name got want))
    expected

(* {2 Explorer workloads} *)

(* Wall time between probe events, charged to the layer the interval
   belongs to.  An interval ending in [eval] (or [crash]) is guest
   execution inside [Libos.run]; one ending in [capture] is output harvest
   plus [Snapshot.capture]; one ending in [resume] or [set_rax] is the
   path switch (discard, release, restore or adopt) plus the frontier
   calls, which the frontier wrapper times separately.  The interval from
   one [eval] to the next is a resume, as in [Steps] mode. *)
type ledger = {
  mutable last : int;
  mutable last_stop : int;
  mutable segment : int;
  mutable segments : int;
  mutable capture : int;
  mutable switch : int;
  mutable frontier : int;
  mutable frontier_ops : int;
}

let ledger_probe l =
  let charge () =
    let t = now_ns () in
    let d = t - l.last in
    l.last <- t;
    d
  in
  let segment () =
    l.segment <- l.segment + charge ();
    l.segments <- l.segments + 1;
    Samples.add samples (l.last - l.last_stop);
    l.last_stop <- l.last
  in
  let switch () = l.switch <- l.switch + charge () in
  { Record.Probe.eval = (fun ~retired:_ _ -> segment ());
    crash = (fun ~retired:_ _ -> segment ());
    capture = (fun ~snap:_ -> l.capture <- l.capture + charge ());
    resume = (fun ~snap:_ ~rax:_ -> switch ());
    set_rax = (fun _ -> switch ()) }

let timed_dfs l () =
  let f = Frontier.dfs () in
  let timed g x =
    let t0 = now_ns () in
    let r = g x in
    l.frontier <- l.frontier + (now_ns () - t0);
    l.frontier_ops <- l.frontier_ops + 1;
    r
  in
  { f with
    Frontier.push_batch = timed f.Frontier.push_batch;
    pop = timed f.Frontier.pop;
    length = timed f.Frontier.length;
    evicted = timed f.Frontier.evicted }

let explorer_counts (m : Libos.t) (s : Stats.t) =
  let mm = s.Stats.mem in
  let fuses, hits, splits =
    Option.value (Libos.block_counts m) ~default:(0, 0, 0)
  in
  [ "vcpu.instructions", s.instructions;
    "vcpu.block_fuses", fuses;
    "vcpu.block_hits", hits;
    "vcpu.block_splits", splits;
    "os.syscalls", Array.fold_left ( + ) 0 m.counters.syscall_count;
    "os.demand_pages", m.counters.demand_pages;
    "snapshot.captures", s.snapshots_created;
    "snapshot.restores", s.restores;
    "snapshot.adopting_restores", s.adopting_restores;
    "search.extensions", s.extensions_evaluated;
    "search.fails", s.fails;
    "search.max_frontier", s.max_frontier;
    "mem.cow_faults", mm.cow_faults;
    "mem.zero_fills", mm.zero_fills;
    "mem.frames_allocated", mm.frames_allocated;
    "mem.frames_recycled", mm.frames_recycled;
    "mem.frames_freed", mm.frames_freed;
    "mem.tlb_misses", mm.tlb_misses;
    "mem.pt_walks", mm.pt_walks;
    "mem.pressure_events", Phys.pressure_events (Mem.Addr_space.phys m.aspace);
    "reclaim.demotions", s.demotions;
    "reclaim.promotions", s.promotions;
    "reclaim.replays", s.replays ]

(* An Explorer workload: [image] is assembled during set-up; [expected]
   are exact counts; [check] inspects the result for anything else. *)
let explorer ~image ~expected ~check () =
  let image = image () in
  fun mode ->
    let m = Libos.boot (Phys.create ()) image in
    let l =
      { last = 0; last_stop = 0; segment = 0; segments = 0; capture = 0;
        switch = 0; frontier = 0; frontier_ops = 0 }
    in
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let r =
      match mode with
      | Plain -> Explorer.run m
      | Steps ->
        let last = ref t0 in
        Explorer.run m ~on_stop:(fun _ _ ->
            let t = now_ns () in
            Samples.add samples (t - !last);
            last := t)
      | Traced ->
        l.last <- t0;
        l.last_stop <- t0;
        Explorer.run m ~probe:(ledger_probe l)
          ~strategy_override:(`Custom (timed_dfs l))
    in
    let wall = now_ns () - t0 in
    let g1 = Gc.quick_stat () in
    let s = r.Explorer.stats in
    let counts = explorer_counts m s in
    let errors =
      (match r.outcome with
      | Explorer.Completed 0 -> []
      | _ -> [ "the guest did not exit with status 0" ])
      @ expect_counts expected counts @ check r
    in
    let layers =
      resume_layers mode @ gc_layers g0 g1
      @
      match mode with
      | Traced ->
        let switch = l.switch - l.frontier in
        let residual = wall - l.segment - l.capture - l.switch in
        [ "os.segment_ms", ms l.segment;
          "os.segments", float l.segments;
          "vcpu.ns_per_instr", float l.segment /. float (max 1 s.instructions);
          "snapshot.capture_ms", ms l.capture;
          "snapshot.switch_ms", ms switch;
          "search.frontier_ms", ms l.frontier;
          "search.frontier_ops", float l.frontier_ops;
          "ledger.wall_ms", ms wall;
          "ledger.residual_pct", 100.0 *. float residual /. float wall ]
      | Plain | Steps -> []
    in
    { wall_ns = wall; ops = s.extensions_evaluated;
      failed = s.kills + s.requeues; errors; counts; layers }

let nqueens_n = 9

let nqueens_boards =
  lazy (List.sort compare (Workloads.Nqueens.host_boards nqueens_n))

let nqueens =
  explorer
    ~image:(fun () -> Workloads.Nqueens.program ~n:nqueens_n)
    ~expected:
      [ "vcpu.instructions", 935_853; "search.extensions", 72_378 ]
    ~check:(fun r ->
      let boards =
        List.filter_map
          (fun (t : Explorer.terminal) ->
            if t.output = "" then None else Some (String.trim t.output))
          r.Explorer.terminals
      in
      let want = Lazy.force nqueens_boards in
      if List.sort compare boards = want then []
      else
        [ Printf.sprintf "%d boards printed, not the %d host boards"
            (List.length boards) (List.length want) ])

(* {2 The tenants workload}

   A closed loop of [clients] clients, each with one request outstanding,
   over one [Tenancy] pool whose frame capacity the clients exceed, so the
   pool runs under frame pressure throughout.  Every client runs
   DFS over its own session, in a choice order drawn from the seed, and
   releases a candidate once its last choice is served.  Each step writes
   8 pages, so the pool also loads copy-on-write.  The sizes keep one
   execution near 150 ms, so that a run holds a few hundred of them. *)

let tenant_params =
  { Locality.depth = 6; branch = 3; touch_pages = 8; work = 0;
    arena_pages = 32 }

let clients = 4
let pool_frames = 400

type node = { cand : Service.ref_; order : int array; mutable next : int }

type client = {
  id : int;
  rng : Random.State.t option;  (** [None]: choices in natural order *)
  mutable stack : node list;
  mutable release : Service.ref_ option;
      (** the candidate whose last choice is in flight *)
  seen : (string, int) Hashtbl.t;  (** outcome multiset *)
  mutable fails : int;
  mutable crashes : int;
}

let new_client id rng =
  { id; rng; stack = []; release = None; seen = Hashtbl.create 8; fails = 0;
    crashes = 0 }

let choice_order rng n =
  let a = Array.init n Fun.id in
  Option.iter
    (fun rng ->
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done)
    rng;
  a

let served c (o : Service.outcome) =
  let key =
    match o with
    | Ready { arity; output; _ } -> Printf.sprintf "ready(%d):%s" arity output
    | Finished { status; output } -> Printf.sprintf "exit(%d):%s" status output
    | Failed { output } -> "fail:" ^ output
    | Crashed msg -> "crashed:" ^ msg
  in
  Hashtbl.replace c.seen key
    (1 + Option.value ~default:0 (Hashtbl.find_opt c.seen key));
  match o with
  | Ready { candidate; arity; _ } ->
    c.stack <- { cand = candidate; order = choice_order c.rng arity; next = 0 }
               :: c.stack
  | Failed _ -> c.fails <- c.fails + 1
  | Finished _ -> ()
  | Crashed _ -> c.crashes <- c.crashes + 1

(* The client's next resume in DFS order, if its search is not done. *)
let next_request c =
  match c.stack with
  | [] -> None
  | node :: rest ->
    let choice = node.order.(node.next) in
    node.next <- node.next + 1;
    if node.next = Array.length node.order then begin
      c.stack <- rest;
      c.release <- Some node.cand
    end;
    Some (node.cand, choice)

let multiset c = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) c.seen [])

(* The unbounded single-session run every tenant must agree with. *)
let tenants_reference image =
  let svc, first = Service.boot image in
  let c = new_client 0 None in
  served c first;
  let rec loop () =
    match next_request c with
    | None -> ()
    | Some (cand, choice) ->
      served c (Service.resume svc cand ~choice ());
      Option.iter (Service.release svc) c.release;
      c.release <- None;
      loop ()
  in
  loop ();
  multiset c

type tenancy_ledger = {
  mutable step : int;
  mutable pressure_step : int;
  mutable post : int;
  mutable release_t : int;
}

let tenants ~seed () =
  let leaves = Locality.expected_paths tenant_params in
  let reference = tenants_reference (Locality.program tenant_params) in
  fun () ->
    let image = Locality.program tenant_params in
    fun mode ->
      let l = { step = 0; pressure_step = 0; post = 0; release_t = 0 } in
      let g0 = Gc.quick_stat () in
      let t0 = now_ns () in
      let pool = Tenancy.create ~capacity:pool_frames () in
      let phys = Tenancy.phys pool in
      let errors = ref [] in
      let cs =
        Array.init clients (fun i ->
            let c = new_client i (Some (Random.State.make [| seed; i |])) in
            (match Tenancy.boot pool image with
            | Tenancy.Admitted (id, first) when id = i -> served c first
            | _ -> errors := Printf.sprintf "client %d not admitted" i :: !errors);
            c)
      in
      let clock () = match mode with Traced -> now_ns () | Plain | Steps -> 0 in
      let post c =
        match next_request c with
        | None -> ()
        | Some (cand, choice) ->
          let t = clock () in
          if not (Tenancy.post pool c.id cand ~choice ()) then
            errors := Printf.sprintf "client %d stopped running" c.id :: !errors;
          l.post <- l.post + (clock () - t)
      in
      let release c =
        match c.release with
        | None -> ()
        | Some cand ->
          let t = clock () in
          Service.release (Tenancy.service pool c.id) cand;
          c.release <- None;
          l.release_t <- l.release_t + (clock () - t)
      in
      let step () =
        match mode with
        | Plain -> Tenancy.step pool
        | Steps ->
          let t = now_ns () in
          let r = Tenancy.step pool in
          Samples.add samples (now_ns () - t);
          r
        | Traced ->
          let p = Phys.pressure_events phys in
          let t = now_ns () in
          let r = Tenancy.step pool in
          let d = now_ns () - t in
          Samples.add samples d;
          l.step <- l.step + d;
          if Phys.pressure_events phys > p then
            l.pressure_step <- l.pressure_step + d;
          r
      in
      Array.iter post cs;
      let resumes = ref 0 in
      let rec loop () =
        match step () with
        | None -> ()
        | Some (id, o) ->
          incr resumes;
          let c = cs.(id) in
          served c o;
          release c;
          post c;
          loop ()
      in
      loop ();
      (* Every frame's GC finaliser holds the physical memory, so anything
         the physical memory reaches stays alive for good: its dedup table
         (emptied by retiring the sessions) and its pressure handler,
         which reaches the whole pool.  Without both steps each execution
         leaks its pool into the heap of every later one. *)
      Array.iter (fun c -> Tenancy.kill pool c.id) cs;
      Phys.set_pressure_handler phys None;
      let wall = now_ns () - t0 in
      let g1 = Gc.quick_stat () in
      Array.iter
        (fun c ->
          if c.fails <> leaves || c.crashes <> 0 then
            errors :=
              Printf.sprintf "client %d: %d fails and %d crashes, expected %d and 0"
                c.id c.fails c.crashes leaves
              :: !errors;
          if multiset c <> reference then
            errors :=
              Printf.sprintf "client %d: outcomes differ from the single-session run"
                c.id
              :: !errors)
        cs;
      let svcs = Array.map (fun c -> Tenancy.service pool c.id) cs in
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 svcs in
      let machine s = Service.machine s in
      let block pick =
        sum (fun s -> Option.fold ~none:0 ~some:pick (Libos.block_counts (machine s)))
      in
      let mm = Phys.metrics phys in
      let demotions = sum Service.demotions
      and promotions = sum Service.promotions
      and replays = sum Service.replays in
      let counts =
        [ "vcpu.instructions", sum (fun s -> (machine s).cpu.retired);
          "vcpu.block_fuses", block (fun (fuses, _, _) -> fuses);
          "vcpu.block_hits", block (fun (_, hits, _) -> hits);
          "vcpu.block_splits", block (fun (_, _, splits) -> splits);
          "os.syscalls",
          sum (fun s -> Array.fold_left ( + ) 0 (machine s).counters.syscall_count);
          "os.demand_pages", sum (fun s -> (machine s).counters.demand_pages);
          "snapshot.captures", mm.snapshots;
          "snapshot.restores", mm.restores;
          "search.extensions", !resumes;
          "search.fails", Array.fold_left (fun acc c -> acc + c.fails) 0 cs;
          "mem.cow_faults", mm.cow_faults;
          "mem.zero_fills", mm.zero_fills;
          "mem.frames_allocated", mm.frames_allocated;
          "mem.frames_recycled", mm.frames_recycled;
          "mem.frames_freed", mm.frames_freed;
          "mem.tlb_misses", mm.tlb_misses;
          "mem.pt_walks", mm.pt_walks;
          "mem.pressure_events", Phys.pressure_events phys;
          "tenancy.pressure_level2", Tenancy.pressure_level2 pool;
          "reclaim.demotions", demotions;
          "reclaim.promotions", promotions;
          "reclaim.replays", replays ]
      in
      let layers =
        resume_layers mode @ gc_layers g0 g1
        @
        match mode with
        | Traced ->
          let residual = wall - l.step - l.post - l.release_t in
          [ "tenancy.step_ms", ms l.step;
            "tenancy.pressure_step_ms", ms l.pressure_step;
            "tenancy.post_ms", ms l.post;
            "tenancy.release_ms", ms l.release_t;
            "ledger.wall_ms", ms wall;
            "ledger.residual_pct", 100.0 *. float residual /. float wall ]
        | Plain | Steps -> []
      in
      { wall_ns = wall; ops = !resumes;
        failed = Array.fold_left (fun acc c -> acc + c.crashes) 0 cs;
        errors = List.rev !errors; counts; layers }

let workloads =
  [ "nqueens", (fun ~seed:_ -> nqueens);
    "tenants", (fun ~seed -> tenants ~seed ()) ]

(* {1 Metrics} *)

let per_layer =
  [ "os.segment_ms", "ms"; "os.segments", "count"; "os.syscalls", "count";
    "os.demand_pages", "count"; "vcpu.instructions", "count";
    "vcpu.ns_per_instr", "ns"; "vcpu.block_hits", "count";
    "vcpu.block_fuses", "count"; "vcpu.block_splits", "count";
    "snapshot.switch_ms", "ms"; "snapshot.capture_ms", "ms";
    "snapshot.captures", "count"; "snapshot.restores", "count";
    "snapshot.adopting_restores", "count"; "snapshot.adopt_ratio", "ratio";
    "search.frontier_ms", "ms"; "search.frontier_ops", "count";
    "search.extensions", "count"; "search.max_frontier", "count";
    "mem.cow_faults", "count"; "mem.zero_fills", "count";
    "mem.frames_allocated", "count"; "mem.frames_recycled", "count";
    "mem.frames_freed", "count"; "mem.recycle_ratio", "ratio";
    "mem.tlb_misses", "count"; "mem.pt_walks", "count";
    "mem.pressure_events", "count"; "tenancy.step_ms", "ms";
    "tenancy.pressure_step_ms", "ms"; "tenancy.post_ms", "ms";
    "tenancy.release_ms", "ms"; "tenancy.pressure_level2", "count";
    "reclaim.demotions", "count"; "reclaim.promotions", "count";
    "reclaim.replays", "count"; "reclaim.tier_hit_rate", "ratio";
    "gc.major_collections", "count"; "gc.minor_collections", "count";
    "resume.p50_us", "us"; "resume.p999_us", "us";
    "ledger.wall_ms", "ms"; "ledger.residual_pct", "%";
    "ledger.trace_overhead_pct", "%" ]

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* Ratios derived from the exact counts. *)
let derived counts =
  let c name = Option.value ~default:0 (List.assoc_opt name counts) in
  let rebuilt = c "reclaim.promotions" + c "reclaim.replays" in
  [ "snapshot.adopt_ratio",
    ratio (c "snapshot.adopting_restores") (c "snapshot.restores");
    "mem.recycle_ratio", ratio (c "mem.frames_recycled") (c "mem.frames_allocated");
    (* the share of resumes whose candidate was still live, not rebuilt *)
    "reclaim.tier_hit_rate",
    1.0 -. ratio rebuilt (c "search.extensions") ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

(* {1 Main} *)

let warmups = 2

let differing c0 counts =
  List.filter_map
    (fun (name, v) ->
      let v0 = List.assoc name c0 in
      if v = v0 then None else Some (Printf.sprintf "%s %d vs %d" name v v0))
    counts

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ "--workload", Arg.Set_string workload,
      " " ^ String.concat "|" (List.map fst workloads);
      "--seed", Arg.Set_int seed, " workload seed";
      "--seconds", Arg.Set_int seconds, " measured seconds";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let make =
    match List.assoc_opt !workload workloads with
    | Some make when !trace = 0 || !trace = 1 -> make
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let traced = !trace = 1 in
  let prepare = make ~seed:!seed in
  (* Every execution is checked as it ends and only what the metrics need
     is kept, so the run's own records stay out of [peak_heap_mb]. *)
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let first = ref None in
  let check ~compare e =
    attempted := !attempted + e.ops;
    failed := !failed + e.failed + List.length e.errors;
    errors := List.rev_append e.errors !errors;
    if compare then
      match !first with
      | None -> first := Some e
      | Some e0 -> (
        match differing e0.counts e.counts with
        | [] -> ()
        | d ->
          incr failed;
          errors :=
            ("exact counts differ between executions: " ^ String.concat ", " d)
            :: !errors)
  in
  (* One set-up: image assembly, boot and a first, plain execution. *)
  let setup () =
    Gc.compact ();
    let t0 = now_ns () in
    let exec = prepare () in
    let e = exec Plain in
    now_ns () - t0, exec, e
  in
  (* The first executions in a process grow the heap, and the GC's pacing
     -- hence the finaliser-driven frame accounting of [tenants] --
     depends on its size: their outputs are checked, but their exact
     counts are not compared with the rest. *)
  for _ = 1 to warmups do
    let _, _, e = setup () in
    check ~compare:false e
  done;
  (* Rounds of a set-up, whose execution is a plain one, and one [other]
     execution, so that every kind is sampled across the whole run. *)
  let other = if traced then Traced else Steps in
  let setups = ref [] and plain = ref [] and p50s = ref [] and traces = ref [] in
  let deadline = now_ns () + (!seconds * 1_000_000_000) in
  while now_ns () < deadline || List.length !setups < 3 do
    let t, exec, e = setup () in
    check ~compare:true e;
    setups := ms t /. 1e3 :: !setups;
    plain := ms e.wall_ns :: !plain;
    Gc.compact ();
    let e = exec other in
    check ~compare:true e;
    if traced then traces := e :: !traces
    else p50s := List.assoc "resume.p50_us" e.layers :: !p50s
  done;
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let first = Option.get !first in
  let errors = List.rev !errors in
  List.iteri (fun k msg -> if k < 10 then prerr_endline ("MISMATCH: " ^ msg)) errors;
  Printf.printf "workload %s, seed %d: %d rounds of a set-up and a%s execution\n"
    !workload !seed (List.length !setups)
    (if traced then " traced" else " step-timed");
  Printf.printf "error_rate %g (%d failed of %d attempted)\n"
    (ratio !failed !attempted) !failed !attempted;
  List.iter (fun (name, v) -> Printf.printf "  %s %d\n" name v) first.counts;
  let explore_ms = low_percentile !plain in
  let metrics =
    if traced then begin
      (* The layer split of the traced execution with the median wall
         time, so that the layers add up to one whole. *)
      let by_wall = List.sort (fun a b -> compare a.wall_ns b.wall_ns) !traces in
      let mid = List.nth by_wall (List.length by_wall / 2) in
      let traced_ms = low_percentile (List.map (fun e -> ms e.wall_ns) !traces) in
      let values =
        ("ledger.trace_overhead_pct", 100.0 *. ((traced_ms /. explore_ms) -. 1.0))
        :: mid.layers @ derived mid.counts
        @ List.map (fun (k, v) -> k, float v) mid.counts
      in
      List.map
        (fun (name, unit) ->
          name, Option.value ~default:0.0 (List.assoc_opt name values), unit)
        per_layer
    end
    else
      let instructions = List.assoc "vcpu.instructions" first.counts in
      [ "setup_s", low_percentile !setups, "s";
        "explore_ms", explore_ms, "ms";
        "ext_per_s", float first.ops /. (explore_ms /. 1e3), "1/s";
        "guest_mips", float instructions /. (explore_ms *. 1e3), "MIPS";
        "resume_p50_us", low_percentile !p50s, "us";
        "peak_heap_mb", float (top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB";
        "success_rate", 1.0 -. ratio !failed !attempted, "ratio" ]
  in
  print_result ~correct:(errors = []) ~attempted:!attempted ~failed:!failed metrics
