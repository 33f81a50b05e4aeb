(* Substrate data structures: Patricia tries, pairing heaps, PRNG, vectors. *)

module Ptmap = Stdx.Ptmap
module Pheap = Stdx.Pheap
module Prng = Stdx.Prng
module Vec = Stdx.Vec
module Intset = Stdx.Intset

let check = Alcotest.check
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* {1 Ptmap} *)

let ptmap_basic () =
  let m = Ptmap.of_list [ 1, "a"; 2, "b"; 3, "c" ] in
  check (Alcotest.option Alcotest.string) "find 2" (Some "b") (Ptmap.find_opt 2 m);
  check Alcotest.int "cardinal" 3 (Ptmap.cardinal m);
  let m = Ptmap.remove 2 m in
  check (Alcotest.option Alcotest.string) "removed" None (Ptmap.find_opt 2 m);
  check Alcotest.bool "mem 1" true (Ptmap.mem 1 m);
  check Alcotest.bool "empty" true (Ptmap.is_empty Ptmap.empty)

let ptmap_overwrite () =
  let m = Ptmap.add 7 "x" (Ptmap.add 7 "y" Ptmap.empty) in
  check Alcotest.int "single binding" 1 (Ptmap.cardinal m);
  check (Alcotest.option Alcotest.string) "latest wins" (Some "x") (Ptmap.find_opt 7 m)

let ptmap_negative_keys () =
  let m = Ptmap.of_list [ -5, 1; 3, 2; min_int, 3; max_int, 4 ] in
  check (Alcotest.option Alcotest.int) "neg" (Some 1) (Ptmap.find_opt (-5) m);
  check (Alcotest.option Alcotest.int) "min_int" (Some 3) (Ptmap.find_opt min_int m);
  check (Alcotest.option Alcotest.int) "max_int" (Some 4) (Ptmap.find_opt max_int m);
  check Alcotest.int "cardinal" 4 (Ptmap.cardinal m)

let ptmap_update () =
  let m = Ptmap.of_list [ 1, 10 ] in
  let m = Ptmap.update 1 (Option.map (( + ) 5)) m in
  check (Alcotest.option Alcotest.int) "updated" (Some 15) (Ptmap.find_opt 1 m);
  let m = Ptmap.update 1 (fun _ -> None) m in
  check Alcotest.bool "deleted" false (Ptmap.mem 1 m);
  let m = Ptmap.update 9 (fun _ -> Some 42) m in
  check (Alcotest.option Alcotest.int) "inserted" (Some 42) (Ptmap.find_opt 9 m)

let ptmap_union () =
  let a = Ptmap.of_list [ 1, 1; 2, 2; 3, 3 ] in
  let b = Ptmap.of_list [ 3, 30; 4, 40 ] in
  let u = Ptmap.union (fun _ x y -> x + y) a b in
  check (Alcotest.option Alcotest.int) "left only" (Some 1) (Ptmap.find_opt 1 u);
  check (Alcotest.option Alcotest.int) "right only" (Some 40) (Ptmap.find_opt 4 u);
  check (Alcotest.option Alcotest.int) "combined" (Some 33) (Ptmap.find_opt 3 u)

let ptmap_sym_diff () =
  let a = Ptmap.of_list [ 1, 1; 2, 2; 3, 3 ] in
  let b = Ptmap.add 2 20 (Ptmap.remove 3 a) in
  let diff = Ptmap.sym_diff ( = ) a b in
  check Alcotest.int "two differences" 2 (List.length diff);
  check (Alcotest.list Alcotest.int) "no self diff" []
    (List.map (fun (k, _, _) -> k) (Ptmap.sym_diff ( = ) a a))

(* sym_diff against the obvious model, on a base map and a second map
   derived from it by a random script — so the two share some subtrees,
   align at others and diverge in shape at the rest *)
let ptmap_sym_diff_model =
  let gen =
    QCheck2.Gen.(
      pair
        (list (pair (int_range (-64) 64) small_int))
        (list (pair (int_range (-64) 64) (option small_int))))
  in
  qtest "ptmap sym_diff agrees with a model" gen (fun (base, script) ->
      let a = Ptmap.of_list base in
      let b =
        List.fold_left
          (fun m (k, op) ->
            match op with Some v -> Ptmap.add k v m | None -> Ptmap.remove k m)
          a script
      in
      let keys =
        List.sort_uniq compare (List.map fst base @ List.map fst script)
      in
      let model =
        List.filter_map
          (fun k ->
            let l = Ptmap.find_opt k a and r = Ptmap.find_opt k b in
            if l = r then None else Some (k, l, r))
          keys
      in
      List.sort compare (Ptmap.sym_diff ( = ) a b) = model)

(* iter_diff_keys may over-report where shapes diverge, but never misses a
   key sym_diff reports and never invents one; a [b] that only rebinds
   keys of [a] keeps [a]'s shape, so there it is exact. *)
let ptmap_iter_diff_keys =
  let gen =
    QCheck2.Gen.(
      triple
        (list (pair (int_range (-64) 64) small_int))
        (list (pair (int_range (-64) 64) (option small_int)))
        (list (pair (int_range (-64) 64) small_int)))
  in
  qtest "ptmap iter_diff_keys brackets sym_diff" gen
    (fun (base, script, rebinds) ->
      let a = Ptmap.of_list base in
      let b =
        List.fold_left
          (fun m (k, op) ->
            match op with Some v -> Ptmap.add k v m | None -> Ptmap.remove k m)
          a script
      in
      let diff_keys x y =
        let acc = ref [] in
        Ptmap.iter_diff_keys ( = ) (fun acc k -> acc := k :: !acc) acc x y;
        List.sort_uniq compare !acc
      in
      let sym_keys x y =
        List.sort compare (List.map (fun (k, _, _) -> k) (Ptmap.sym_diff ( = ) x y))
      in
      let keys m = List.map fst (Ptmap.bindings m) in
      let reported = diff_keys a b in
      let rebound =
        List.fold_left
          (fun m (k, v) -> if Ptmap.mem k a then Ptmap.add k v m else m)
          a rebinds
      in
      List.for_all (fun k -> List.mem k reported) (sym_keys a b)
      && List.for_all (fun k -> List.mem k (keys a) || List.mem k (keys b)) reported
      && diff_keys a rebound = sym_keys a rebound
      && diff_keys a a = [])

(* fold_diff_now visits exactly the now side of sym_diff, in the order of a
   List.fold_left over it, on every relation two maps can have: physically
   equal, equal but rebuilt, derived by a script (shared subtrees, aligned
   rebinds, and shape divergence where keys are added and removed),
   disjoint, and empty on either side. *)
let ptmap_fold_diff_now =
  let kv = QCheck2.Gen.(pair (int_range (-64) 64) small_int) in
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 5) (list kv)
        (list (pair (int_range (-64) 64) (option small_int))))
  in
  qtest "ptmap fold_diff_now is sym_diff's now side, in order" gen
    (fun (relation, base, script) ->
      let a = Ptmap.of_list base in
      let scripted =
        List.fold_left
          (fun m (k, op) ->
            match op with Some v -> Ptmap.add k v m | None -> Ptmap.remove k m)
          a script
      in
      let a, b =
        match relation with
        | 0 -> a, a
        | 1 -> a, Ptmap.of_list (List.rev (Ptmap.bindings a))
        | 2 -> a, scripted
        | 3 ->
          (* disjoint: every key of [b] is odd, every key of [a] even *)
          Ptmap.of_list (List.map (fun (k, v) -> 2 * k, v) base),
          Ptmap.of_list (List.map (fun (k, v) -> (2 * k) + 1, v) base)
        | 4 -> Ptmap.empty, scripted
        | _ -> scripted, Ptmap.empty
      in
      let visited =
        List.rev
          (Ptmap.fold_diff_now ( = ) (fun () k v acc -> (k, v) :: acc) () a b [])
      in
      let now_side =
        List.filter_map
          (fun (k, _, now) -> Option.map (fun v -> k, v) now)
          (Ptmap.sym_diff ( = ) a b)
      in
      let model =
        List.filter (fun (k, v) -> Ptmap.find_opt k a <> Some v) (Ptmap.bindings b)
      in
      visited = now_side
      && List.sort compare visited = List.sort compare model)

(* model-based property: a Ptmap behaves like a Hashtbl under a random
   script of add/remove operations *)
let ptmap_model =
  let gen = QCheck2.Gen.(list (pair (int_range (-100) 100) (option small_int))) in
  qtest "ptmap agrees with Hashtbl model" gen (fun script ->
      let tbl = Hashtbl.create 32 in
      let m =
        List.fold_left
          (fun m (k, op) ->
            match op with
            | Some v ->
              Hashtbl.replace tbl k v;
              Ptmap.add k v m
            | None ->
              Hashtbl.remove tbl k;
              Ptmap.remove k m)
          Ptmap.empty script
      in
      Hashtbl.length tbl = Ptmap.cardinal m
      && Hashtbl.fold (fun k v acc -> acc && Ptmap.find_opt k m = Some v) tbl true)

let ptmap_union_model =
  let gen =
    QCheck2.Gen.(pair (list (pair (int_range 0 63) small_int))
                   (list (pair (int_range 0 63) small_int)))
  in
  qtest "union = right-biased merge of models" gen (fun (la, lb) ->
      let a = Ptmap.of_list la and b = Ptmap.of_list lb in
      let u = Ptmap.union (fun _ _ y -> y) a b in
      List.for_all
        (fun k ->
          let expect =
            match Ptmap.find_opt k b with
            | Some v -> Some v
            | None -> Ptmap.find_opt k a
          in
          Ptmap.find_opt k u = expect)
        (List.init 64 Fun.id))

(* {1 Pheap} *)

let pheap_order () =
  let h =
    List.fold_left
      (fun h (p, v) -> Pheap.insert ~prio:p v h)
      Pheap.empty
      [ 3.0, "c"; 1.0, "a"; 2.0, "b"; 1.5, "ab" ]
  in
  let drained = List.map snd (Pheap.to_sorted_list h) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "ab"; "b"; "c" ] drained

let pheap_fifo_ties () =
  let h =
    List.fold_left (fun h v -> Pheap.insert ~prio:1.0 v h) Pheap.empty [ 1; 2; 3 ]
  in
  check (Alcotest.list Alcotest.int) "FIFO on equal priorities" [ 1; 2; 3 ]
    (List.map snd (Pheap.to_sorted_list h))

let pheap_delete_max () =
  let h =
    List.fold_left
      (fun h (p, v) -> Pheap.insert ~prio:p v h)
      Pheap.empty [ 1.0, "a"; 5.0, "worst"; 3.0, "b" ]
  in
  match Pheap.delete_max h with
  | Some ((p, v), rest) ->
    check (Alcotest.float 0.0) "max prio" 5.0 p;
    check Alcotest.string "max value" "worst" v;
    check Alcotest.int "size" 2 (Pheap.size rest)
  | None -> Alcotest.fail "expected a max"

let pheap_model =
  let gen = QCheck2.Gen.(list (pair (float_bound_inclusive 100.0) small_int)) in
  qtest "pheap drains in sorted order" gen (fun entries ->
      let h =
        List.fold_left (fun h (p, v) -> Pheap.insert ~prio:p v h) Pheap.empty entries
      in
      let drained = List.map fst (Pheap.to_sorted_list h) in
      List.sort compare drained = drained
      && List.length drained = List.length entries)

(* {1 Prng} *)

let prng_deterministic () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.next a) (Prng.next b)
  done

let prng_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 10_000 do
    let f = Prng.float rng 1.0 in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let prng_shuffle_permutes () =
  let rng = Prng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

(* {1 Vec} *)

let vec_push_pop () =
  let v = Vec.create ~dummy:0 () in
  for k = 0 to 99 do
    ignore (Vec.push v k)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 42 (Vec.get v 42);
  check (Alcotest.option Alcotest.int) "pop" (Some 99) (Vec.pop v);
  Vec.truncate v 10;
  check Alcotest.int "truncated" 10 (Vec.length v);
  check (Alcotest.list Alcotest.int) "to_list" (List.init 10 Fun.id) (Vec.to_list v)

let vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1))

(* {1 Intset} *)

let intset_ops () =
  let s = Intset.of_list [ 5; 1; 5; 9 ] in
  check Alcotest.int "dedup" 3 (Intset.cardinal s);
  check Alcotest.bool "mem" true (Intset.mem 9 s);
  check Alcotest.bool "subset" true (Intset.subset (Intset.of_list [ 1; 5 ]) s);
  check Alcotest.bool "not subset" false (Intset.subset s (Intset.of_list [ 1; 5 ]));
  check (Alcotest.list Alcotest.int) "union"
    [ 1; 2; 5; 9 ]
    (List.sort compare (Intset.elements (Intset.union s (Intset.of_list [ 2; 1 ]))))

let tests =
  [ Alcotest.test_case "ptmap basic" `Quick ptmap_basic;
    Alcotest.test_case "ptmap overwrite" `Quick ptmap_overwrite;
    Alcotest.test_case "ptmap negative keys" `Quick ptmap_negative_keys;
    Alcotest.test_case "ptmap update" `Quick ptmap_update;
    Alcotest.test_case "ptmap union" `Quick ptmap_union;
    Alcotest.test_case "ptmap sym_diff" `Quick ptmap_sym_diff;
    ptmap_sym_diff_model;
    ptmap_iter_diff_keys;
    ptmap_fold_diff_now;
    ptmap_model;
    ptmap_union_model;
    Alcotest.test_case "pheap order" `Quick pheap_order;
    Alcotest.test_case "pheap fifo ties" `Quick pheap_fifo_ties;
    Alcotest.test_case "pheap delete_max" `Quick pheap_delete_max;
    pheap_model;
    Alcotest.test_case "prng deterministic" `Quick prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick prng_bounds;
    Alcotest.test_case "prng shuffle permutes" `Quick prng_shuffle_permutes;
    Alcotest.test_case "vec push/pop" `Quick vec_push_pop;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "intset ops" `Quick intset_ops ]
