(* Core.Work_queue: the sharded work-stealing frontier behind the Domains
   backend.  Distributed-termination ordering, stop semantics,
   initial-path accounting under real contending domains, and the
   steal-half migration rule. *)

module Wq = Core.Work_queue
module Frontier = Search.Frontier

let check = Alcotest.check

let meta depth = { Frontier.depth; hint = 0 }

(* Entries in these tests carry bare ints (their depth) as parents. *)
let create ?shards ?initial_paths () = Wq.create ?shards ?initial_paths Frontier.dfs

let one depth = Frontier.single (meta depth) depth

(* A take whose stolen entries stay as they are; the parent handed out. *)
let take q ~dom =
  Option.map (fun (e : _ Frontier.entry) -> e.parent) (Wq.take q ~dom ~steal:(fun ~victim:_ e -> e))

(* Four domains expand a synthetic binary tree through the queue, one
   shard each.  Every worker pushes children BEFORE finish_path, so the
   queue may never report termination while work is pending; all domains
   must drain the whole tree and exit their take loops. *)
let push_then_finish_termination () =
  let q = create ~shards:4 () in
  Wq.push_batch q ~dom:0 [ one 0 ];
  let max_depth = 7 in
  let taken = Atomic.make 0 in
  let worker dom () =
    let rec loop () =
      match take q ~dom with
      | None -> ()
      | Some depth ->
        Atomic.incr taken;
        if depth < max_depth then Wq.push_batch q ~dom [ one (depth + 1); one (depth + 1) ];
        Wq.finish_path q;
        loop ()
    in
    loop ()
  in
  let domains = List.init 4 (fun dom -> Domain.spawn (worker dom)) in
  List.iter Domain.join domains;
  (* a complete binary tree of depth 7: 2^8 - 1 nodes *)
  check Alcotest.int "every pushed path was taken exactly once" 255
    (Atomic.get taken);
  check Alcotest.int "frontier drained" 0 (Wq.length q);
  check Alcotest.int "push accounting" 255 (Wq.pushed q);
  check Alcotest.bool "not stopped" false (Wq.stopped q)

(* take must block while paths are in flight (the frontier being empty is
   not termination), and stop must wake every blocked taker. *)
let stop_wakes_blocked_takers () =
  let q = create ~shards:3 ~initial_paths:1 () in
  let waiting = Atomic.make 0 in
  let results = Array.make 3 (Some 0) in
  let taker dom () =
    Atomic.incr waiting;
    results.(dom) <- take q ~dom
  in
  let domains = List.init 3 (fun dom -> Domain.spawn (taker dom)) in
  (* let the takers reach the queue (and, in practice, block on it) *)
  while Atomic.get waiting < 3 do
    Domain.cpu_relax ()
  done;
  for _ = 0 to 100_000 do
    Domain.cpu_relax ()
  done;
  check Alcotest.bool "not yet stopped" false (Wq.stopped q);
  Wq.stop q;
  List.iter Domain.join domains;
  Array.iteri
    (fun i r -> check Alcotest.bool (Printf.sprintf "taker %d woken" i) true (r = None))
    results;
  check Alcotest.bool "stopped" true (Wq.stopped q)

(* initial_paths pre-counts the root path a worker carries natively: with
   it, an empty frontier blocks takers until that path finishes; without
   it, an empty frontier means immediate termination. *)
let initial_paths_accounting () =
  let q0 = create () in
  check Alcotest.bool "no initial paths: empty queue terminates" true
    (take q0 ~dom:0 = None);
  let q = create ~initial_paths:1 () in
  let got = ref (Some (-1)) in
  let taker = Domain.spawn (fun () -> got := take q ~dom:0) in
  (* the implicit root path pushes one child, then finishes *)
  Wq.push_batch q ~dom:0 [ Frontier.single (meta 1) 7 ];
  Wq.finish_path q;
  Domain.join taker;
  check Alcotest.bool "taker got the root's child" true (!got = Some 7);
  (* that child is now in flight; finishing it ends the search *)
  Wq.finish_path q;
  check Alcotest.bool "drained and no paths in flight" true (take q ~dom:0 = None)

(* Steal-half: a take on an empty shard migrates half the victim's items
   in one batch — the thief consumes one and keeps the rest locally — and
   leaves ceil(n/2) with the victim. *)
let steal_half_leaves_half () =
  let steal_case n =
    let q = create ~shards:2 () in
    Wq.push_batch q ~dom:0 (List.init n one);
    (match take q ~dom:1 with
    | None -> Alcotest.failf "n=%d: thief found nothing" n
    | Some _ -> ());
    let k = n / 2 in
    check Alcotest.int
      (Printf.sprintf "n=%d: victim keeps ceil(n/2)" n)
      (n - k)
      (Wq.shard_length q 0);
    check Alcotest.int
      (Printf.sprintf "n=%d: thief keeps the batch minus one" n)
      (k - 1)
      (Wq.shard_length q 1);
    check Alcotest.int (Printf.sprintf "n=%d: one steal batch" n) 1
      (Wq.steal_batches q);
    check Alcotest.int (Printf.sprintf "n=%d: stolen accounting" n) k
      (Wq.stolen_items q);
    check Alcotest.int (Printf.sprintf "n=%d: nothing lost" n) (n - 1)
      (Wq.length q)
  in
  steal_case 8;
  steal_case 5

(* A singleton is stolen whole — a literal floor(n/2) would leave the
   thief empty-handed forever and stall the fleet on one-item frontiers. *)
let steal_singleton () =
  let q = create ~shards:2 () in
  Wq.push_batch q ~dom:0 [ Frontier.single (meta 0) 42 ];
  check Alcotest.bool "thief gets the singleton" true (take q ~dom:1 = Some 42);
  check Alcotest.int "victim empty" 0 (Wq.shard_length q 0);
  check Alcotest.int "thief shard empty" 0 (Wq.shard_length q 1);
  check Alcotest.int "stolen accounting" 1 (Wq.stolen_items q)

(* Conservation: concurrent thieves hammering one victim shard must hand
   out every item exactly once, with no duplication or loss. *)
let concurrent_steal_conservation () =
  let n = 1000 in
  let q = create ~shards:4 () in
  Wq.push_batch q ~dom:0 (List.init n (fun i -> Frontier.single (meta 0) i));
  let seen = Array.make n (Atomic.make 0) in
  Array.iteri (fun i _ -> seen.(i) <- Atomic.make 0) seen;
  let worker dom () =
    let rec loop () =
      match take q ~dom with
      | None -> ()
      | Some i ->
        Atomic.incr seen.(i);
        Wq.finish_path q;
        loop ()
    in
    loop ()
  in
  let domains = List.init 4 (fun dom -> Domain.spawn (worker dom)) in
  List.iter Domain.join domains;
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "item %d taken %d times" i (Atomic.get c))
    seen;
  check Alcotest.int "frontier drained" 0 (Wq.length q);
  check Alcotest.bool "steals migrate in batches" true
    (Wq.stolen_items q >= Wq.steal_batches q)

(* Steal-half splits an entry's range: one DFS entry of 8 extensions in
   shard 0, then a take from shard 1.  The two shards' extension numbers
   do not overlap and are 0..7 between them, each once; the stolen half
   passed through the thief's [steal] once, as one range. *)
let steal_half_splits_a_range () =
  let q = create ~shards:2 () in
  Wq.push_batch q ~dom:0 [ Frontier.guess "parent" ~count:8 (meta 1) ];
  let imported = ref [] in
  let steal ~victim (e : _ Frontier.entry) =
    imported := (victim, e.next, e.count) :: !imported;
    e
  in
  let taken =
    match Wq.take q ~dom:1 ~steal with
    | Some e -> Frontier.popped e
    | None -> Alcotest.fail "the thief found nothing"
  in
  let numbers dom =
    List.concat_map
      (fun (e : _ Frontier.entry) -> List.init (e.count - e.next) (( + ) e.next))
      (Wq.drain q ~dom)
  in
  let thief = taken :: numbers 1 and victim = numbers 0 in
  check Alcotest.(list (triple int int int)) "one range stolen from shard 0"
    [ (0, 0, 4) ] !imported;
  check Alcotest.(list int) "the thief's half" [ 0; 1; 2; 3 ] thief;
  check Alcotest.(list int) "the victim's half" [ 4; 5; 6; 7 ] victim;
  check Alcotest.(list int) "each extension once" (List.init 8 Fun.id)
    (List.sort compare (thief @ victim))

let tests =
  [ Alcotest.test_case "push-then-finish termination, 4 domains" `Quick
      push_then_finish_termination;
    Alcotest.test_case "stop wakes blocked takers" `Quick
      stop_wakes_blocked_takers;
    Alcotest.test_case "initial_paths accounting" `Quick
      initial_paths_accounting;
    Alcotest.test_case "steal-half leaves ceil(n/2) with the victim" `Quick
      steal_half_leaves_half;
    Alcotest.test_case "singleton is stolen whole" `Quick steal_singleton;
    Alcotest.test_case "conservation under concurrent steals" `Quick
      concurrent_steal_conservation;
    Alcotest.test_case "steal-half splits a range" `Quick steal_half_splits_a_range ]
