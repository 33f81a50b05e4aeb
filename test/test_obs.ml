(* The observability layer: ring tracer, metrics registry, exporters. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module N = Obs.Names
module Export = Obs.Export
module Json = Obs.Json
module Explorer = Core.Explorer
module Stats = Core.Stats
let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Tracing state is global; every test that enables it must clear it on
   the way out so the rest of the suite stays untraced. *)
let with_trace ?capacity f =
  Trace.start ?capacity ();
  Fun.protect ~finally:Trace.clear f

(* {1 Ring tracer} *)

(* A record call counts whether or not it traces. *)
let disabled_records_nothing () =
  Trace.clear ();
  let r = Metrics.create () in
  Trace.instant r N.mem_cow_faults 1 0;
  Trace.peak r N.search_max_frontier 5;
  Trace.sample N.search_max_frontier 7;
  Trace.span_begin N.sys_write 0;
  Trace.span_end r N.sys_write 0 0;
  check Alcotest.int "recorded" 0 (Trace.recorded ());
  check Alcotest.int "dropped" 0 (Trace.dropped ());
  check Alcotest.int "events" 0 (List.length (Trace.events ()));
  check Alcotest.int "instant counted" 1 (Metrics.get r N.mem_cow_faults);
  check Alcotest.int "peak raised" 5 (Metrics.get r N.search_max_frontier);
  check Alcotest.int "span counted" 1 (Metrics.get r N.sys_write)

let ring_wraparound_keeps_newest () =
  let r = Metrics.create () in
  with_trace ~capacity:16 (fun () ->
      for i = 0 to 39 do
        Trace.instant r N.mem_cow_faults i 0
      done;
      Trace.stop ();
      check Alcotest.int "recorded counts overwritten" 40 (Trace.recorded ());
      check Alcotest.int "dropped" 24 (Trace.dropped ());
      let surviving = List.map (fun e -> e.Trace.v_a) (Trace.events ()) in
      check
        (Alcotest.list Alcotest.int)
        "newest events survive, in order"
        (List.init 16 (fun k -> 24 + k))
        surviving)

let span_pairing_survives_wraparound () =
  let r = Metrics.create () in
  with_trace ~capacity:16 (fun () ->
      Trace.span_begin N.sys_write 0 (* an orphan *);
      for _ = 1 to 12 do
        Trace.span_begin N.sys_read 0;
        Trace.span_end r N.sys_read 0 0
      done;
      Trace.stop ();
      (* 25 events; the ring keeps the last 16 = pairs 5..12 intact *)
      let aggs = Export.span_summary (Trace.events ()) in
      (match List.assoc_opt "sys.read" aggs with
      | None -> Alcotest.fail "no aggregate for sys.read"
      | Some a ->
        check Alcotest.int "complete pairs" 8 a.Export.s_count;
        check Alcotest.int "unmatched" 0 a.Export.s_unmatched);
      check Alcotest.bool "overwritten orphan leaves no aggregate" true
        (not (List.mem_assoc "sys.write" aggs)))

let truncated_span_counts_unmatched () =
  let r = Metrics.create () in
  with_trace ~capacity:16 (fun () ->
      Trace.span_begin N.sys_brk 0;
      for i = 0 to 14 do
        Trace.instant r N.mem_maps i 0
      done;
      Trace.span_end r N.sys_brk 0 0;
      Trace.stop ();
      (* 17 events: the begin fell off the ring, its end survives *)
      let a = List.assoc "sys.brk" (Export.span_summary (Trace.events ())) in
      check Alcotest.int "dangling end is unmatched" 1 a.Export.s_unmatched;
      check Alcotest.int "no complete pairs" 0 a.Export.s_count)

let four_domains_produce_clean_records () =
  with_trace ~capacity:8192 (fun () ->
      let n = 5000 in
      let doms =
        List.init 4 (fun d ->
            let r = Metrics.create () in
            Domain.spawn (fun () ->
                for i = 0 to n - 1 do
                  Trace.instant r N.mem_zero_fills d i
                done))
      in
      List.iter Domain.join doms;
      Trace.stop ();
      check Alcotest.int "recorded" (4 * n) (Trace.recorded ());
      check Alcotest.int "dropped" 0 (Trace.dropped ());
      let evs = Trace.events () in
      check Alcotest.int "merged event count" (4 * n) (List.length evs);
      (* every record is intact: the name survived, each domain's [b]
         payloads arrive as the exact sequence 0..n-1, and timestamps
         are globally non-decreasing after the merge *)
      let next = Hashtbl.create 8 in
      let last_ts = ref min_int in
      List.iter
        (fun e ->
          if e.Trace.v_slot <> N.mem_zero_fills
             || not (String.equal e.Trace.v_name "mem.zero_fills")
          then Alcotest.failf "corrupt event %S" e.Trace.v_name;
          if e.Trace.v_ts < !last_ts then Alcotest.fail "timestamps regress";
          last_ts := e.Trace.v_ts;
          let expect =
            match Hashtbl.find_opt next e.Trace.v_tid with
            | Some k -> k
            | None -> 0
          in
          if e.Trace.v_b <> expect then
            Alcotest.failf "tid %d: expected seq %d, got %d" e.Trace.v_tid
              expect e.Trace.v_b;
          Hashtbl.replace next e.Trace.v_tid (expect + 1))
        evs;
      check Alcotest.int "four distinct recording domains" 4
        (Hashtbl.length next))

(* {1 Chrome trace_event export} *)

let chrome_json_roundtrips () =
  with_trace (fun () ->
      ignore (Explorer.run_image (Workloads.Nqueens.program ~n:4));
      Trace.stop ();
      let s =
        Export.chrome_json_string ~dropped:(Trace.dropped ()) (Trace.events ())
      in
      let doc = Json.parse s in
      let evs =
        match Json.member "traceEvents" doc with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing"
      in
      check Alcotest.bool "events present" true (evs <> []);
      List.iter
        (fun e ->
          (match Json.member "ph" e with
          | Some (Json.Str ("B" | "E" | "i" | "C")) -> ()
          | _ -> Alcotest.fail "event with missing or unknown ph");
          (match Json.member "ts" e with
          | Some (Json.Int ts) when ts >= 0 -> ()
          | _ -> Alcotest.fail "event without a timestamp");
          match (Json.member "name" e, Json.member "pid" e) with
          | Some (Json.Str _), Some (Json.Int _) -> ()
          | _ -> Alcotest.fail "event without name/pid")
        evs;
      let names =
        List.filter_map
          (fun e ->
            match Json.member "name" e with
            | Some (Json.Str n) -> Some n
            | _ -> None)
          evs
      in
      let has n = List.exists (String.equal n) names in
      check Alcotest.bool "guess traced" true (has "search.guesses");
      check Alcotest.bool "syscall span traced" true (has "sys.write");
      check Alcotest.bool "snapshot capture traced" true (has "snapshot.captures"))

let json_string_escaping_roundtrips () =
  let s = "a\"b\\c\nd\te\x01f\127 \xcf\x80" in
  match Json.parse (Json.to_string (Json.Str s)) with
  | Json.Str s' -> check Alcotest.string "escapes survive" s s'
  | _ -> Alcotest.fail "not a string"

(* {1 Snapshot-tree export} *)

let tree_export_is_sane () =
  with_trace (fun () ->
      ignore (Explorer.run_image (Workloads.Counting.program ~depth:3 ~branch:2));
      Trace.stop ();
      let evs = Trace.events () in
      let nodes = Export.snapshot_tree evs in
      check Alcotest.bool "several nodes" true (List.length nodes > 1);
      let roots = List.filter (fun n -> n.Export.n_parent = -1) nodes in
      check Alcotest.int "exactly one root" 1 (List.length roots);
      List.iter
        (fun n ->
          if n.Export.n_us < 0 || n.Export.n_instr < 0 then
            Alcotest.fail "negative node cost")
        nodes;
      let evals =
        List.length
          (List.filter
             (fun e ->
               e.Trace.v_kind = Trace.Span_begin
               && String.equal e.Trace.v_name "os.segments")
             evs)
      in
      let visits = List.fold_left (fun s n -> s + n.Export.n_visits) 0 nodes in
      check Alcotest.int "visits account for every eval" evals visits;
      (match Json.member "nodes" (Export.tree_json evs) with
      | Some (Json.Arr l) -> check Alcotest.int "json nodes" (List.length nodes) (List.length l)
      | _ -> Alcotest.fail "tree_json lacks nodes");
      let dot = Export.tree_dot evs in
      check Alcotest.bool "dot preamble" true
        (String.length dot > 8 && String.equal (String.sub dot 0 8) "digraph "))

(* {1 Parallel exploration under tracing} *)

let traced_domains_run_matches_untraced () =
  let image = Workloads.Nqueens.program ~n:5 in
  let config = { Core.Parallel.default_config with Core.Parallel.workers = 4 } in
  let lines (r : Core.Parallel.result) =
    List.sort compare
      (List.filter (fun l -> l <> "")
         (String.split_on_char '\n' r.Core.Parallel.transcript))
  in
  let plain = Core.Parallel.run ~config image in
  with_trace (fun () ->
      let traced = Core.Parallel.run ~config image in
      Trace.stop ();
      check Alcotest.int "fails" plain.Core.Parallel.stats.Stats.fails
        traced.Core.Parallel.stats.Stats.fails;
      check Alcotest.int "exits" (Metrics.get plain.Core.Parallel.metrics N.search_exits)
        (Metrics.get traced.Core.Parallel.metrics N.search_exits);
      check (Alcotest.list Alcotest.string) "same solutions" (lines plain)
        (lines traced);
      let worker_spans =
        List.filter
          (fun e ->
            e.Trace.v_kind = Trace.Span_begin
            && String.equal e.Trace.v_name "sched.workers")
          (Trace.events ())
      in
      check Alcotest.int "one span per worker domain" 4
        (List.length worker_spans);
      check Alcotest.int "one worker counted per domain" 4
        (Metrics.get traced.Core.Parallel.metrics N.sched_workers))

(* {1 The trace and the registry agree} *)

(* Every slot the program traces as an instant. *)
let instant_slots =
  N.[ mem_cow_faults; mem_zero_fills; mem_frames_recycled; mem_releases; mem_maps;
      mem_unmaps; mem_share_flushes; mem_pressure_events; mem_out_of_frames;
      mem_dedup_hits; snapshot_captures; snapshot_restores; search_scopes;
      search_guesses; search_hints; search_fails; search_exits; search_kills;
      sched_requeues; sched_quarantined; queue_imports; reclaim_demotions;
      tenancy_admits; tenancy_rejects; tenancy_queued_boots; tenancy_deadline_kills;
      tenancy_teardowns; record_appends; replay_seeks; replay_anchor_restores ]

(* Every span slot, and every peak the program samples. *)
let span_slots =
  N.[ sys_write; sys_read; sys_open; sys_close; sys_brk; sys_lseek; sys_unlink;
      sys_vtime; sys_timeout; sys_share; sys_socket; sys_ioctl; sys_other;
      os_segments; sched_workers; reclaim_promotions ]

let sampled_slots = N.[ search_max_frontier ]

(* A traced stretch of work against the registry it counted into: every
   event is a declared slot, of the kind it is recorded as, every instant
   slot's events number its count (none where it counted none), every span
   slot's completed pairs its count, and a sampled peak's largest sample
   is its value. *)
let agree what (reg : Metrics.t) =
  check Alcotest.int (what ^ ": nothing dropped") 0 (Trace.dropped ());
  let evs = Trace.events () in
  let instants = Hashtbl.create 16 and samples = Hashtbl.create 4 in
  let bump tbl slot f =
    Hashtbl.replace tbl slot (f (Hashtbl.find_opt tbl slot))
  in
  List.iter
    (fun (e : Trace.view) ->
      if Metrics.find e.v_name <> Some e.v_slot then
        Alcotest.failf "%s: %S is not its slot's name" what e.v_name;
      let among slots kind =
        if not (List.mem e.v_slot slots) then
          Alcotest.failf "%s: %s recorded as %s" what e.v_name kind
      in
      match e.v_kind with
      | Trace.Instant ->
        among instant_slots "an instant";
        bump instants e.v_slot (fun n -> 1 + Option.value n ~default:0)
      | Trace.Counter ->
        among sampled_slots "a sample";
        bump samples e.v_slot (fun m -> max e.v_a (Option.value m ~default:min_int))
      | Trace.Span_begin | Trace.Span_end -> among span_slots "a span")
    evs;
  let expect kind slot n =
    check Alcotest.int
      (Printf.sprintf "%s: %s %s" what (Metrics.name slot) kind)
      (Metrics.get reg slot) n
  in
  List.iter
    (fun slot ->
      expect "instants" slot (Option.value (Hashtbl.find_opt instants slot) ~default:0))
    instant_slots;
  Hashtbl.iter (expect "largest sample") samples;
  let spans = Export.span_summary evs in
  List.iter
    (fun slot ->
      let a =
        Option.value (List.assoc_opt (Metrics.name slot) spans)
          ~default:{ Export.s_count = 0; s_total_us = 0; s_max_us = 0; s_unmatched = 0 }
      in
      check Alcotest.int
        (Printf.sprintf "%s: %s unmatched" what (Metrics.name slot))
        0 a.Export.s_unmatched;
      expect "pairs" slot a.Export.s_count)
    span_slots;
  (* the scenarios below exercise both kinds of record call *)
  check Alcotest.bool (what ^ ": instants traced") true (Hashtbl.length instants > 0);
  check Alcotest.bool (what ^ ": spans traced") true (spans <> [])

let traced f =
  with_trace (fun () ->
      let r = f () in
      Trace.stop ();
      r)

(* [run_image] boots its first machine before the run's registry starts
   counting: the boot's [mem.*] events are the rest of the trace. *)
let boot_counts image =
  let phys = Mem.Phys_mem.create () in
  ignore (Os.Libos.boot phys image);
  Mem.Phys_mem.registry phys

let explorer_trace_agrees () =
  let image = Workloads.Nqueens.program ~n:6 in
  let boot = boot_counts image in
  List.iter
    (fun (what, workers, quantum) ->
      traced (fun () ->
          let r = Explorer.run_image ~workers ?quantum image in
          let reg = Metrics.copy r.Explorer.metrics in
          Metrics.merge ~into:reg boot;
          agree what reg))
    [ ("1 worker", 1, None); ("2 cooperative workers", 2, Some 500) ]

(* A pool counts [tenancy.*] into its own registry, each session
   [reclaim.*] into the session's, and the memory the rest. *)
let tenancy_trace_agrees () =
  let image = Workloads.Nqueens.program ~n:5 in
  traced (fun () ->
      let pool = Core.Tenancy.create () in
      let ready = function
        | Core.Service.Ready { candidate; arity; _ } -> Some (candidate, arity)
        | _ -> None
      in
      let roots =
        List.map
          (fun _ ->
            match Core.Tenancy.boot pool image with
            | Core.Tenancy.Admitted (id, first) -> (id, Option.get (ready first))
            | _ -> Alcotest.fail "tenant refused")
          [ 0; 1 ]
      in
      let post id (r, arity) k = ignore (Core.Tenancy.post pool id r ~choice:(k mod arity) ()) in
      List.iter (fun (id, root) -> post id root 0) roots;
      (* each tenant walks down and starts over from its root at every
         leaf, 40 steps in all; halfway, tenant 0's candidates are demoted,
         so its next resume promotes one *)
      for k = 1 to 40 do
        if k = 20 then ignore (Core.Service.demote_all (Core.Tenancy.service pool 0));
        match Core.Tenancy.step pool with
        | None -> Alcotest.fail "no request queued"
        | Some (id, outcome) ->
          post id (Option.value (ready outcome) ~default:(List.assoc id roots)) k
      done;
      for id = 0 to Core.Tenancy.tenant_count pool - 1 do
        Core.Tenancy.kill pool id
      done;
      let reg = Metrics.copy (Core.Tenancy.metrics pool) in
      for id = 0 to Core.Tenancy.tenant_count pool - 1 do
        Metrics.merge ~into:reg (Core.Service.metrics (Core.Tenancy.service pool id))
      done;
      Metrics.merge ~into:reg (Mem.Phys_mem.registry (Core.Tenancy.phys pool));
      check Alcotest.int "both tenants retired" 2 (Metrics.get reg N.tenancy_teardowns);
      check Alcotest.bool "a promotion" true (Metrics.get reg N.reclaim_promotions > 0);
      agree "2 tenants" reg)

(* A replay cursor counts into its own memory's registry. *)
let replay_trace_agrees () =
  let image = Workloads.Nqueens.program ~n:6 in
  let machine = Os.Libos.boot (Mem.Phys_mem.create ()) image in
  let recorder = Record.Recorder.create () in
  Record.Recorder.install recorder machine;
  ignore (Explorer.run ~probe:(Record.Recorder.probe recorder) machine);
  let bundle = Record.Bundle.of_image image (Record.Recorder.log recorder) in
  traced (fun () ->
      let cur = Record.Replay.create ~anchor_every:8 bundle in
      let total = Record.Replay.total_time cur in
      List.iter
        (fun n -> ignore (Record.Replay.seek cur n))
        [ total; 0; total / 2; total / 3 ];
      let reg =
        Mem.Phys_mem.registry
          (Mem.Addr_space.phys (Record.Replay.machine cur).Os.Libos.aspace)
      in
      check Alcotest.int "every seek counted" 4 (Metrics.get reg N.replay_seeks);
      check Alcotest.bool "a backward seek restored an anchor" true
        (Metrics.get reg N.replay_anchor_restores > 0);
      agree "replay" reg)

(* {1 Metrics registry} *)

(* Registries built from random op sequences over a few counter and peak
   slots. *)
let counters = N.[ search_fails; mem_cow_faults ]
let peaks = N.[ search_max_frontier; snapshot_max_live ]

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (oneof
         [ map2 (fun s v -> `C (s, v)) (oneofl counters) (int_range 0 1000);
           map2 (fun s v -> `P (s, v)) (oneofl peaks) (int_range 0 1000) ]))

let build ops =
  let r = Metrics.create () in
  List.iter
    (function
      | `C (s, v) -> Metrics.add r s v
      | `P (s, v) -> Metrics.peak r s v)
    ops;
  r

let merged a b =
  let acc = Metrics.create () in
  Metrics.merge ~into:acc a;
  Metrics.merge ~into:acc b;
  acc

let equal a b = Metrics.to_list a = Metrics.to_list b

let merge_commutes =
  qtest "Metrics.merge commutes"
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (x, y) ->
      let a = build x and b = build y in
      equal (merged a b) (merged b a))

let merge_associates =
  qtest "Metrics.merge associates"
    QCheck2.Gen.(triple ops_gen ops_gen ops_gen)
    (fun (x, y, z) ->
      let a = build x and b = build y and c = build z in
      equal (merged (merged a b) c) (merged a (merged b c)))

let merge_builds_the_concatenation =
  qtest "merge of split op list = registry of whole list"
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (x, y) -> equal (merged (build x) (build y)) (build (x @ y)))

(* [sub] is [merge]'s inverse on counters; a peak keeps its first
   argument's value. *)
let sub_undoes_merge =
  qtest "sub undoes merge"
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (x, y) ->
      let a = build x and b = build y in
      let counts r =
        List.filter
          (fun (name, _) -> not (List.exists (fun p -> Metrics.find name = Some p) peaks))
          (Metrics.to_list r)
      in
      counts (Metrics.sub (merged a b) b) = counts a)

(* Every slot is declared under its own name, which [find] resolves, and
   every registry lists each one, zeros included. *)
let slot_names_resolve () =
  let names = List.map fst (Metrics.to_list (Metrics.create ())) in
  check Alcotest.bool "several slots" true (List.length names > 40);
  check Alcotest.int "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let r = Metrics.create () in
  List.iteri
    (fun i name ->
      match Metrics.find name with
      | None -> Alcotest.failf "%s does not resolve" name
      | Some s -> Metrics.add r s (i + 1))
    names;
  check (Alcotest.list Alcotest.string) "the slots' names" names
    (List.map fst (Metrics.to_list r));
  check (Alcotest.list Alcotest.int) "find resolves each name to its own slot"
    (List.init (List.length names) (fun i -> i + 1))
    (List.map snd (Metrics.to_list r));
  check Alcotest.bool "an unknown name" true (Metrics.find "no.such_slot" = None)

let tests =
  [ Alcotest.test_case "disabled tracer records nothing" `Quick
      disabled_records_nothing;
    Alcotest.test_case "ring wraparound keeps newest" `Quick
      ring_wraparound_keeps_newest;
    Alcotest.test_case "span pairing survives wraparound" `Quick
      span_pairing_survives_wraparound;
    Alcotest.test_case "truncated span counts unmatched" `Quick
      truncated_span_counts_unmatched;
    Alcotest.test_case "4-domain tracing produces clean records" `Quick
      four_domains_produce_clean_records;
    Alcotest.test_case "chrome JSON round-trips through the parser" `Quick
      chrome_json_roundtrips;
    Alcotest.test_case "JSON string escaping round-trips" `Quick
      json_string_escaping_roundtrips;
    Alcotest.test_case "snapshot-tree export is sane" `Quick
      tree_export_is_sane;
    Alcotest.test_case "traced Domains run matches untraced" `Quick
      traced_domains_run_matches_untraced;
    Alcotest.test_case "trace agrees with the registry: explorer" `Quick
      explorer_trace_agrees;
    Alcotest.test_case "trace agrees with the registry: tenancy" `Quick
      tenancy_trace_agrees;
    Alcotest.test_case "trace agrees with the registry: replay seek" `Quick
      replay_trace_agrees;
    merge_commutes;
    merge_associates;
    merge_builds_the_concatenation;
    sub_undoes_merge;
    Alcotest.test_case "slot names are unique and resolve" `Quick
      slot_names_resolve ]
