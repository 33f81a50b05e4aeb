module Pheap = Stdx.Pheap
module Prng = Stdx.Prng

type meta = { depth : int; hint : int }

type 'a entry = {
  parent : 'a;
  mutable next : int;
  count : int;
  meta : meta;
}

exception Empty

type 'a t = {
  name : string;
  push_batch : 'a entry list -> unit;
  pop : unit -> 'a entry;
  length : unit -> int;
  evicted : unit -> 'a entry list;
}

let guess parent ~count meta = { parent; next = 0; count; meta }
let single meta parent = { parent; next = 0; count = 1; meta }
let popped e = e.next - 1
let remaining e = e.count - e.next

(* Hand out [e]'s next extension; [true] once it was the last. *)
let[@inline] take e =
  let next = e.next + 1 in
  e.next <- next;
  next >= e.count

let no_evictions () = []

(* A stack of entries, each popped extension by extension: the DFS order
   with a guess's extension 0 first, for [dfs] and [dfs_bounded]. *)
let stack () =
  let stack = ref [] in
  (* Explorers consult [length] on every push ([max_frontier] tracking), so
     it must be O(1) — a [List.length] here makes deep searches quadratic. *)
  let count = ref 0 in
  let push batch =
    List.iter (fun e -> count := !count + remaining e) batch;
    (* prepend keeping batch order, so the first entry pops first *)
    stack :=
      List.fold_right (fun e acc -> if remaining e > 0 then e :: acc else acc)
        batch !stack
  in
  let pop () =
    match !stack with
    | [] -> raise Empty
    | e :: rest ->
      if take e then stack := rest;
      decr count;
      e
  in
  push, pop, (fun () -> !count)

let dfs () =
  let push_batch, pop, length = stack () in
  { name = "dfs"; push_batch; pop; length; evicted = no_evictions }

let bfs () =
  let q = Queue.create () in
  let count = ref 0 in
  { name = "bfs";
    push_batch =
      (fun batch ->
        List.iter
          (fun e ->
            if remaining e > 0 then begin
              count := !count + remaining e;
              Queue.add e q
            end)
          batch);
    pop =
      (fun () ->
        match Queue.peek q with
        | exception Queue.Empty -> raise Empty
        | e ->
          if take e then ignore (Queue.take q);
          decr count;
          e);
    length = (fun () -> !count);
    evicted = no_evictions }

(* The strategies that order siblings one at a time hold single-extension
   entries: [each] sees every extension of a batch, in order. *)
let expand batch each =
  List.iter
    (fun e ->
      for i = e.next to e.count - 1 do
        each { e with next = i; count = i + 1 }
      done)
    batch

let pop_min heap () =
  match Pheap.delete_min !heap with
  | None -> raise Empty
  | Some ((_, e), rest) ->
    heap := rest;
    ignore (take e);
    e

let heap_based ~name ~score () =
  let heap = ref Pheap.empty in
  { name;
    push_batch =
      (fun batch ->
        expand batch (fun e -> heap := Pheap.insert ~prio:(score e.meta) e !heap));
    pop = pop_min heap;
    length = (fun () -> Pheap.size !heap);
    evicted = no_evictions }

let best_first ~name ~score () = heap_based ~name ~score ()

let astar () =
  heap_based ~name:"astar" ~score:(fun m -> Float.of_int (m.depth + m.hint)) ()

(* Best-first with a hard capacity: the worst entries are evicted and
   reported so the scheduler can release their snapshots. *)
let bounded_best ~name ~score ~capacity () =
  if capacity <= 0 then invalid_arg ("Frontier." ^ name ^ ": capacity must be positive");
  let heap = ref Pheap.empty in
  let dropped = ref [] in
  { name;
    push_batch =
      (fun batch ->
        expand batch (fun e ->
            heap := Pheap.insert ~prio:(score e.meta) e !heap;
            if Pheap.size !heap > capacity then
              match Pheap.delete_max !heap with
              | None -> ()
              | Some ((_, worst), rest) ->
                heap := rest;
                dropped := worst :: !dropped));
    pop = pop_min heap;
    length = (fun () -> Pheap.size !heap);
    evicted =
      (fun () ->
        let d = !dropped in
        dropped := [];
        d) }

let sma ~capacity () =
  bounded_best
    ~name:(Printf.sprintf "sma(%d)" capacity)
    ~score:(fun m -> Float.of_int (m.depth + m.hint))
    ~capacity ()

let wastar ~weight () =
  if weight < 0.0 then invalid_arg "Frontier.wastar: negative weight";
  heap_based
    ~name:(Printf.sprintf "wastar(%.1f)" weight)
    ~score:(fun m -> Float.of_int m.depth +. (weight *. Float.of_int m.hint))
    ()

let beam ~width () =
  bounded_best
    ~name:(Printf.sprintf "beam(%d)" width)
    ~score:(fun m -> Float.of_int m.hint)
    ~capacity:width ()

let dfs_bounded ~max_depth () =
  if max_depth < 0 then invalid_arg "Frontier.dfs_bounded: negative bound";
  let push, pop, length = stack () in
  let dropped = ref [] in
  { name = Printf.sprintf "dfs<=%d" max_depth;
    push_batch =
      (fun batch ->
        let keep, drop = List.partition (fun e -> e.meta.depth <= max_depth) batch in
        dropped := List.rev_append drop !dropped;
        push keep);
    pop;
    length;
    evicted =
      (fun () ->
        let d = !dropped in
        dropped := [];
        d) }

let random ~seed () =
  let rng = Prng.create ~seed in
  let heap = ref Pheap.empty in
  { name = "random";
    push_batch =
      (fun batch ->
        expand batch (fun e -> heap := Pheap.insert ~prio:(Prng.float rng 1.0) e !heap));
    pop = pop_min heap;
    length = (fun () -> Pheap.size !heap);
    evicted = no_evictions }
