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

let disabled_records_nothing () =
  Trace.clear ();
  Trace.instant ~a:1 "x";
  Trace.counter "c" 5;
  Trace.span_begin "s";
  Trace.span_end "s";
  check Alcotest.int "recorded" 0 (Trace.recorded ());
  check Alcotest.int "dropped" 0 (Trace.dropped ());
  check Alcotest.int "events" 0 (List.length (Trace.events ()))

let ring_wraparound_keeps_newest () =
  with_trace ~capacity:16 (fun () ->
      for i = 0 to 39 do
        Trace.instant ~a:i "tick"
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
  with_trace ~capacity:16 (fun () ->
      Trace.span_begin "orphan";
      for _ = 1 to 12 do
        Trace.span_begin "s";
        Trace.span_end "s"
      done;
      Trace.stop ();
      (* 25 events; the ring keeps the last 16 = pairs 5..12 intact *)
      let aggs = Export.span_summary (Trace.events ()) in
      (match List.assoc_opt "s" aggs with
      | None -> Alcotest.fail "no aggregate for s"
      | Some a ->
        check Alcotest.int "complete pairs" 8 a.Export.s_count;
        check Alcotest.int "unmatched" 0 a.Export.s_unmatched);
      check Alcotest.bool "overwritten orphan leaves no aggregate" true
        (not (List.mem_assoc "orphan" aggs)))

let truncated_span_counts_unmatched () =
  with_trace ~capacity:16 (fun () ->
      Trace.span_begin "t";
      for i = 0 to 14 do
        Trace.instant ~a:i "filler"
      done;
      Trace.span_end "t";
      Trace.stop ();
      (* 17 events: the begin fell off the ring, its end survives *)
      let a = List.assoc "t" (Export.span_summary (Trace.events ())) in
      check Alcotest.int "dangling end is unmatched" 1 a.Export.s_unmatched;
      check Alcotest.int "no complete pairs" 0 a.Export.s_count)

let four_domains_produce_clean_records () =
  with_trace ~capacity:8192 (fun () ->
      let n = 5000 in
      let doms =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to n - 1 do
                  Trace.instant ~a:d ~b:i "d.tick"
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
          if not (String.equal e.Trace.v_name "d.tick") then
            Alcotest.failf "corrupt name %S" e.Trace.v_name;
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
      check Alcotest.bool "guess stop traced" true (has "stop.guess");
      check Alcotest.bool "syscall span traced" true (has "sys.guess");
      check Alcotest.bool "snapshot capture traced" true (has "snap.capture"))

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
               && String.equal e.Trace.v_name "explorer.eval")
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
            && String.equal e.Trace.v_name "worker")
          (Trace.events ())
      in
      check Alcotest.int "one span per worker domain" 4
        (List.length worker_spans))

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
    merge_commutes;
    merge_associates;
    merge_builds_the_concatenation;
    sub_undoes_merge;
    Alcotest.test_case "slot names are unique and resolve" `Quick
      slot_names_resolve ]
