(* Timing and table-printing helpers shared by the experiments. *)

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Median wall-clock milliseconds over [reps] runs after one warmup; the
   last run's result is returned for inspection. *)
let time_ms ?(reps = 3) f =
  ignore (f ());
  let samples =
    List.init reps (fun _ ->
        let t0 = now_ms () in
        let result = f () in
        now_ms () -. t0, result)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
  let median_ms = fst (List.nth sorted (reps / 2)) in
  let _, result = List.nth samples (reps - 1) in
  median_ms, result

let time_once_ms f =
  let t0 = now_ms () in
  let result = f () in
  now_ms () -. t0, result

(* Fastest of [reps] runs after one warmup, for a per-operation cost on a
   shared host: load only ever adds time, and a median of three swings
   with it (two runs of one binary read one E9 row as 11.5 and 5.3 ms).
   Several measurements run round-robin, one rep of each in turn, so a
   burst of host load spreads over all of them instead of covering one.
   Each keeps its fastest time and its last result.  A measurement returns
   its own time, so its setup can stay outside the timed region. *)
let min_ms_interleaved ~reps fs =
  List.iter (fun f -> ignore (f ())) fs;
  let fs = Array.of_list fs in
  let best = Array.map (fun _ -> infinity) fs and last = Array.map (fun _ -> None) fs in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        let ms, r = f () in
        best.(i) <- Float.min best.(i) ms;
        last.(i) <- Some r)
      fs
  done;
  Array.to_list (Array.mapi (fun i ms -> ms, Option.get last.(i)) best)

(* {1 Tables} *)

let header title claim =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "%s\n\n" claim

let row_format widths =
  fun cells ->
    let padded =
      List.map2
        (fun w cell -> Printf.sprintf "%*s" w cell)
        widths cells
    in
    print_endline (String.concat "  " padded)

let fms ms =
  if ms < 0.1 then Printf.sprintf "%.3f" ms
  else if ms < 10.0 then Printf.sprintf "%.2f" ms
  else if ms < 1000.0 then Printf.sprintf "%.1f" ms
  else Printf.sprintf "%.0f" ms

let fus us =
  if us < 10.0 then Printf.sprintf "%.2f" us
  else if us < 1000.0 then Printf.sprintf "%.1f" us
  else Printf.sprintf "%.0f" us

let fratio r = Printf.sprintf "%.2fx" r

let fint = string_of_int

(* {1 Machine-readable results} *)

(* Write BENCH_<experiment>.json next to the working directory.  Schema
   (version 1 unless the experiment bumps it; documented in
   EXPERIMENTS.md): {experiment, quick, schema_version, params, rows}
   where [params] holds experiment-level settings and [rows] one object
   per printed table row, typically including a "metrics" sub-object from
   [Obs.Metrics.to_json]. *)
let emit_json ?(schema = 1) ~experiment ~quick ~params rows =
  let doc =
    Obs.Json.Obj
      [ "experiment", Obs.Json.Str experiment;
        "quick", Obs.Json.Bool quick;
        "schema_version", Obs.Json.Int schema;
        "params", Obs.Json.Obj params;
        "rows", Obs.Json.Arr rows ]
  in
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[machine-readable results written to %s]\n" path

(* {1 Bechamel micro-benchmarks} *)

let run_micro ~name tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let clock = Hashtbl.find results (Measure.label Toolkit.Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun test_name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (test_name, est) :: acc
        | Some [] | None -> acc)
      clock []
  in
  List.iter
    (fun (test_name, ns) -> Printf.printf "  %-40s %12.1f ns/op\n" test_name ns)
    (List.sort compare rows)
