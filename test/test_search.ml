(* Search-strategy frontiers: scheduling orders, bounds, eviction. *)

module F = Search.Frontier

let check = Alcotest.check

let meta ?(depth = 0) ?(hint = 0) () = { F.depth; hint }

(* one single-extension entry per (meta, item), in one batch *)
let push_all f entries =
  f.F.push_batch (List.map (fun (m, x) -> F.single m x) entries)

let pop f =
  match f.F.pop () with e -> Some e.F.parent | exception F.Empty -> None

let evicted f = List.map (fun e -> e.F.parent) (f.F.evicted ())

let drain f =
  let rec go acc =
    match pop f with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let dfs_explores_first_extension_first () =
  let f = F.dfs () in
  push_all f [ meta (), "a0"; meta (), "a1"; meta (), "a2" ];
  check (Alcotest.option Alcotest.string) "extension 0 first" (Some "a0") (pop f);
  (* children pushed during a0 are explored before a1 *)
  push_all f [ meta ~depth:1 (), "b0"; meta ~depth:1 (), "b1" ];
  check (Alcotest.list Alcotest.string) "depth first order" [ "b0"; "b1"; "a1"; "a2" ]
    (drain f)

let bfs_is_fifo () =
  let f = F.bfs () in
  push_all f [ meta (), "a0"; meta (), "a1" ];
  check (Alcotest.option Alcotest.string) "first in" (Some "a0") (pop f);
  push_all f [ meta ~depth:1 (), "b0" ];
  check (Alcotest.list Alcotest.string) "level order" [ "a1"; "b0" ] (drain f)

let astar_orders_by_f () =
  let f = F.astar () in
  push_all f
    [ meta ~depth:5 ~hint:10 (), "f15";
      meta ~depth:1 ~hint:2 (), "f3";
      meta ~depth:2 ~hint:2 (), "f4";
      meta ~depth:0 ~hint:3 (), "f3b" ];
  check (Alcotest.list Alcotest.string) "ascending f, FIFO ties"
    [ "f3"; "f3b"; "f4"; "f15" ] (drain f)

let sma_bounds_memory () =
  let f = F.sma ~capacity:3 () in
  push_all f
    (List.init 10 (fun k -> meta ~depth:0 ~hint:k (), Printf.sprintf "h%d" k));
  check Alcotest.bool "bounded" true (f.F.length () <= 3);
  let dropped = evicted f in
  check Alcotest.int "evictions reported" 7 (List.length dropped);
  check (Alcotest.list Alcotest.string) "evictions drained" [] (evicted f);
  (* the best survive *)
  check (Alcotest.list Alcotest.string) "best kept" [ "h0"; "h1"; "h2" ] (drain f)

let zero_capacity_rejected () =
  Alcotest.check_raises "sma capacity 0"
    (Invalid_argument "Frontier.sma(0): capacity must be positive") (fun () ->
      ignore (F.sma ~capacity:0 ()));
  Alcotest.check_raises "beam width 0"
    (Invalid_argument "Frontier.beam(0): capacity must be positive") (fun () ->
      ignore (F.beam ~width:0 ()));
  Alcotest.check_raises "sma negative capacity"
    (Invalid_argument "Frontier.sma(-2): capacity must be positive") (fun () ->
      ignore (F.sma ~capacity:(-2) ()))

let capacity_one_keeps_single_best () =
  let f = F.sma ~capacity:1 () in
  push_all f
    [ meta ~hint:4 (), "h4"; meta ~hint:1 (), "h1"; meta ~hint:3 (), "h3" ];
  check Alcotest.int "never more than one held" 1 (f.F.length ());
  check Alcotest.int "the other two evicted" 2 (List.length (evicted f));
  check (Alcotest.list Alcotest.string) "the best survives" [ "h1" ] (drain f)

let beam_width_one_is_pure_greedy () =
  let f = F.beam ~width:1 () in
  push_all f
    [ meta ~depth:9 ~hint:2 (), "deep-close"; meta ~depth:0 ~hint:7 (), "shallow-far" ];
  check Alcotest.int "loser evicted" 1 (List.length (evicted f));
  (* the beam scores on the hint alone — depth must not matter *)
  check (Alcotest.list Alcotest.string) "hint alone decides" [ "deep-close" ] (drain f)

let eviction_conserves_entries () =
  (* Every pushed extension leaves the frontier exactly once — popped or
     reported via [evicted] — which is what lets the scheduler release the
     snapshot behind each evicted extension without leaking or
     double-releasing (the reclaim store's handles are freed on that
     report). *)
  let f = F.sma ~capacity:3 () in
  let seen = Hashtbl.create 32 in
  let note tag x =
    if Hashtbl.mem seen x then Alcotest.failf "%s returned %s twice" tag x;
    Hashtbl.replace seen x tag
  in
  List.iter
    (fun batch ->
      push_all f batch;
      List.iter (note "evicted") (evicted f);
      match pop f with Some x -> note "popped" x | None -> ())
    [ List.init 5 (fun k -> meta ~hint:k (), Printf.sprintf "a%d" k);
      List.init 5 (fun k -> meta ~hint:(9 - k) (), Printf.sprintf "b%d" k);
      [] ];
  List.iter (note "drained") (drain f);
  List.iter (note "evicted") (evicted f);
  check Alcotest.int "all ten accounted for exactly once" 10 (Hashtbl.length seen)

let random_is_seed_deterministic () =
  let mk seed =
    let f = F.random ~seed () in
    push_all f (List.init 20 (fun k -> meta (), k));
    drain f
  in
  check (Alcotest.list Alcotest.int) "same seed same order" (mk 5) (mk 5);
  check Alcotest.bool "different seed differs" true (mk 5 <> mk 6)

let random_is_permutation () =
  let f = F.random ~seed:11 () in
  push_all f (List.init 50 (fun k -> meta (), k));
  check (Alcotest.list Alcotest.int) "permutation" (List.init 50 Fun.id)
    (List.sort compare (drain f))

let best_first_custom_score () =
  let f = F.best_first ~name:"depth-desc" ~score:(fun m -> -.Float.of_int m.F.depth) () in
  push_all f [ meta ~depth:1 (), "d1"; meta ~depth:9 (), "d9"; meta ~depth:4 (), "d4" ];
  check (Alcotest.list Alcotest.string) "deepest first" [ "d9"; "d4"; "d1" ] (drain f)

let wastar_greediness () =
  (* weight 0 = uniform-cost (depth only); large weight = greedy on hint *)
  let f = F.wastar ~weight:10.0 () in
  push_all f
    [ meta ~depth:9 ~hint:0 (), "deep-close"; meta ~depth:0 ~hint:5 (), "shallow-far" ];
  check (Alcotest.option Alcotest.string) "greedy prefers small hint"
    (Some "deep-close") (pop f);
  let f0 = F.wastar ~weight:0.0 () in
  push_all f0
    [ meta ~depth:9 ~hint:0 (), "deep"; meta ~depth:0 ~hint:5 (), "shallow" ];
  check (Alcotest.option Alcotest.string) "weight 0 prefers shallow"
    (Some "shallow") (pop f0)

let beam_keeps_best_hints () =
  let f = F.beam ~width:2 () in
  push_all f
    (List.map (fun h -> meta ~hint:h (), Printf.sprintf "h%d" h) [ 5; 1; 9; 3 ]);
  check Alcotest.int "bounded" 2 (f.F.length ());
  check Alcotest.int "evicted two" 2 (List.length (evicted f));
  check (Alcotest.list Alcotest.string) "best hints kept" [ "h1"; "h3" ] (drain f)

let dfs_bounded_refuses_deep () =
  let f = F.dfs_bounded ~max_depth:2 () in
  push_all f
    [ meta ~depth:1 (), "d1"; meta ~depth:2 (), "d2"; meta ~depth:3 (), "d3" ];
  check (Alcotest.list Alcotest.string) "deep refused" [ "d3" ]
    (evicted f);
  check (Alcotest.list Alcotest.string) "shallow kept in order" [ "d1"; "d2" ] (drain f)

let empty_pops_none () =
  List.iter
    (fun f ->
      check Alcotest.bool (f.F.name ^ " empty") true (pop f = None);
      check Alcotest.int (f.F.name ^ " length") 0 (f.F.length ()))
    [ F.dfs (); F.bfs (); F.astar (); F.sma ~capacity:4 (); F.random ~seed:1 () ]

let length_is_constant_time () =
  (* The explorers consult [length] on every push (max_frontier tracking).
     Regression: dfs/dfs_bounded computed it with [List.length] on the live
     stack, making an n-push search quadratic; 100k pushes took seconds.
     With the O(1) counter this loop is a few milliseconds, so a generous
     CPU-time bound keeps the test robust while still failing the
     quadratic implementation. *)
  List.iter
    (fun f ->
      let t0 = Sys.time () in
      for i = 1 to 100_000 do
        push_all f [ (meta (), i) ];
        ignore (f.F.length ())
      done;
      check Alcotest.int (f.F.name ^ " length") 100_000 (f.F.length ());
      let elapsed = Sys.time () -. t0 in
      check Alcotest.bool
        (Printf.sprintf "%s: 100k pushes with length lookups in %.2fs" f.F.name
           elapsed)
        true (elapsed < 2.0))
    [ F.dfs (); F.dfs_bounded ~max_depth:10 () ]

(* a frontier factory at any element type *)
type factory = { make : 'a. unit -> 'a F.t }

let guess_entries_match_singles () =
  (* One entry per guess hands out the same extensions in the same order,
     holds the same length and evicts the same extensions as one
     single-extension entry per extension, under every strategy. *)
  let script =
    [ "a", 3, meta ~depth:1 ~hint:2 ();
      "b", 2, meta ~depth:2 ~hint:0 ();
      "c", 4, meta ~depth:3 ~hint:1 () ]
  in
  let trace (type p) (f : p F.t) ~(push : string -> int -> F.meta -> unit)
      ~(ext : p F.entry -> int -> string * int) =
    let out = ref [] in
    let note x = out := x :: !out in
    (* what one [evicted] call reports, as a set *)
    let evict () =
      List.concat_map
        (fun e -> List.init (F.remaining e) (fun k -> ext e (e.F.next + k)))
        (f.F.evicted ())
      |> List.sort compare
      |> List.iter (fun x -> note ("evicted", x))
    in
    let pop () =
      match f.F.pop () with
      | e -> note ("pop", ext e (F.popped e))
      | exception F.Empty -> note ("empty", ("", -1))
    in
    List.iter
      (fun (name, n, m) ->
        push name n m;
        note ("length", ("", f.F.length ()));
        evict ();
        pop ();
        evict ())
      script;
    for _ = 1 to 12 do
      pop ()
    done;
    evict ();
    List.rev !out
  in
  let run { make } =
    let singles =
      let f = make () in
      trace f
        ~push:(fun name n m ->
          f.F.push_batch (List.init n (fun i -> F.single m (name, i))))
        ~ext:(fun e _ -> e.F.parent)
    in
    let guesses =
      let f = make () in
      trace f
        ~push:(fun name n m -> f.F.push_batch [ F.guess name ~count:n m ])
        ~ext:(fun e i -> e.F.parent, i)
    in
    singles, guesses
  in
  let events = Alcotest.(list (pair string (pair string int))) in
  List.iter
    (fun (name, factory) ->
      let singles, guesses = run factory in
      check events name singles guesses)
    [ "dfs", { make = F.dfs };
      "bfs", { make = F.bfs };
      "astar", { make = F.astar };
      "sma", { make = (fun () -> F.sma ~capacity:3 ()) };
      "random", { make = (fun () -> F.random ~seed:7 ()) };
      "wastar", { make = (fun () -> F.wastar ~weight:2.0 ()) };
      "beam", { make = (fun () -> F.beam ~width:2 ()) };
      "dfs_bounded", { make = (fun () -> F.dfs_bounded ~max_depth:2 ()) } ]

let tests =
  [ Alcotest.test_case "dfs order" `Quick dfs_explores_first_extension_first;
    Alcotest.test_case "bfs fifo" `Quick bfs_is_fifo;
    Alcotest.test_case "astar orders by depth+hint" `Quick astar_orders_by_f;
    Alcotest.test_case "sma bounds memory" `Quick sma_bounds_memory;
    Alcotest.test_case "zero capacity rejected" `Quick zero_capacity_rejected;
    Alcotest.test_case "capacity one keeps single best" `Quick
      capacity_one_keeps_single_best;
    Alcotest.test_case "beam width one" `Quick beam_width_one_is_pure_greedy;
    Alcotest.test_case "eviction conserves entries" `Quick
      eviction_conserves_entries;
    Alcotest.test_case "random deterministic by seed" `Quick random_is_seed_deterministic;
    Alcotest.test_case "random is a permutation" `Quick random_is_permutation;
    Alcotest.test_case "custom best-first" `Quick best_first_custom_score;
    Alcotest.test_case "weighted A*" `Quick wastar_greediness;
    Alcotest.test_case "beam search" `Quick beam_keeps_best_hints;
    Alcotest.test_case "bounded dfs" `Quick dfs_bounded_refuses_deep;
    Alcotest.test_case "empty frontiers" `Quick empty_pops_none;
    Alcotest.test_case "length is O(1)" `Quick length_is_constant_time;
    Alcotest.test_case "guess entries match singles" `Quick
      guess_entries_match_singles ]
