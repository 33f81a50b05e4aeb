(** Search-strategy frontiers.

    The paper separates the search strategy from partial candidates and
    extensions (§3.1): the strategy is a policy that schedules the next
    unevaluated extension, and an extension is "a reference to their parent
    partial candidate and the extension number".  A frontier is that
    policy's working set.

    The scheduler pushes one {!entry} per guess: the parent and the range
    of extension numbers still to run.  DFS, BFS and bounded DFS hold
    those entries as they are and hand out their extensions in number
    order, so a guess costs one entry however many extensions it has.  The
    best-first, random and capacity-bounded strategies order or evict
    siblings one at a time, so they expand each entry into single-extension
    entries at push time.

    All built-in strategies are deterministic: DFS and BFS by construction,
    best-first ones by FIFO tie-breaking, and the random strategy by an
    explicit seed. *)

type meta = {
  depth : int;  (** guesses taken from the root to this extension *)
  hint : int;   (** guest-provided heuristic distance ([sys_guess_hint]) *)
}

type 'a entry = {
  parent : 'a;  (** the parent partial candidate *)
  mutable next : int;
      (** the extension number {!field-pop} hands out next; a frontier
          advances it *)
  count : int;  (** one past the last extension number *)
  meta : meta;  (** shared by every extension of the entry *)
}
(** Extensions [next] to [count - 1] of [parent]. *)

val guess : 'a -> count:int -> meta -> 'a entry
(** The [count] extensions of one guess, numbered from 0. *)

val single : meta -> 'a -> 'a entry
(** One extension, numbered 0: how schedulers whose items are not guesses
    (the symbolic executor) push. *)

val popped : 'a entry -> int
(** The extension number {!field-pop} just handed out from this entry.
    Read it before the next [pop]: a DFS or BFS entry hands out its next
    sibling from the same record. *)

val remaining : 'a entry -> int
(** Extensions of the entry not yet handed out: what an evicted entry
    releases. *)

exception Empty

type 'a t = {
  name : string;
  push_batch : 'a entry list -> unit;
      (** in order: under DFS the first entry's extension 0 pops first *)
  pop : unit -> 'a entry;
      (** hand out the next extension: the entry returned, at number
          {!popped}.  Raises {!Empty} on an empty frontier. *)
  length : unit -> int;  (** extensions held, in O(1) *)
  evicted : unit -> 'a entry list;
      (** entries dropped by a memory-bounded strategy since the last call;
          their {!remaining} extensions never run (the caller must release
          their snapshots).  The built-in strategies drop entries only in
          [push_batch]. *)
}

val dfs : unit -> 'a t
(** Depth-first: a batch's extension 0 is explored before its siblings. *)

val bfs : unit -> 'a t
(** Breadth-first: strict FIFO over batches. *)

val astar : unit -> 'a t
(** Best-first on [f = depth + hint]; ties broken FIFO. *)

val sma : capacity:int -> unit -> 'a t
(** Memory-bounded A*: as {!astar} but the frontier never holds more than
    [capacity] extensions; the worst (highest [f]) entries are evicted and
    reported via [evicted].  A simplification of SM-A* (no backed-up
    values), which the paper lists as a target strategy. *)

val random : seed:int -> unit -> 'a t
(** Uniformly random exploration order (deterministic in [seed]). *)

val best_first : name:string -> score:(meta -> float) -> unit -> 'a t
(** Custom best-first strategy: lower score pops first. *)

val wastar : weight:float -> unit -> 'a t
(** Weighted A*: best-first on [f = depth + weight * hint].  Weights above
    1 trade optimality for greediness. *)

val beam : width:int -> unit -> 'a t
(** Greedy beam search: best-first on the hint alone, never holding more
    than [width] extensions (the worst are evicted and reported). *)

val dfs_bounded : max_depth:int -> unit -> 'a t
(** Depth-first with a depth bound: entries deeper than [max_depth] are
    refused whole at push time and reported via [evicted]. *)
