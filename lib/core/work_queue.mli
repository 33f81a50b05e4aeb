(** A sharded work-stealing queue over strategy frontiers.

    This is the shared search graph of Figure 2 for the true-multicore
    backend of {!Parallel}.  Each worker domain owns one {e shard} — a
    plain sequential {!Search.Frontier} of the strategy, behind its own
    mutex — and in steady state touches nothing else: push entries into
    your shard, pop extensions from your shard.  Shards hold {e entries},
    one per guess: a parent and the range of its extension numbers still
    to run ({!Search.Frontier.entry}).  Only when a shard runs dry does its
    owner steal, migrating {e half} the victim's extensions in one lock
    acquisition (steal-half batching, Cilk-style), so a deep subtree is
    split a logarithmic number of times instead of leaking one leaf per
    steal; an entry whose range the half cuts through is split into two
    ranges, one per shard.

    The queue also implements distributed termination: one atomic counter
    tracks {e outstanding} work (queued extensions plus paths in flight),
    so {!take} returns [None] exactly when every shard is empty {e and} no
    worker is still evaluating a path that could push more.  Wakeups are
    targeted: a push signals at most one sleeping worker per extension made
    available, never the whole fleet. *)

type 'a t

val create : ?shards:int -> ?initial_paths:int -> (unit -> 'a Search.Frontier.t) -> 'a t
(** [create ~shards make_frontier] builds [shards] (default 1) independent
    frontiers by calling [make_frontier] once per shard.  [initial_paths]
    (default 0) pre-counts paths already being evaluated before any
    {!take} — the domains backend starts with 1 for the scope-opening path
    domain 0 carries. *)

val shard_count : 'a t -> int

val push_batch : 'a t -> dom:int -> 'a Search.Frontier.entry list -> unit
(** Push entries into shard [dom] (the caller's own shard).  At most one
    sleeping worker is signalled per extension actually enqueued; entries
    the strategy evicts surface via {!drain_dropped}. *)

val take :
  'a t -> dom:int ->
  steal:(victim:int -> 'a Search.Frontier.entry -> 'a Search.Frontier.entry) ->
  'a Search.Frontier.entry option
(** Hand out the next extension for worker [dom] as an entry of its own,
    at number {!Search.Frontier.popped} and with nothing remaining: from its
    own shard first, else by stealing half of the first non-empty sibling
    shard.  Each stolen range entry goes through [steal ~victim] once, in
    the thief's domain and outside every lock, before it joins the thief's
    shard — where the thief rebuilds a foreign parent as its own.  Blocks
    while all shards are empty but paths are still in flight.  [None]
    means the search is over: the scope is exhausted, or {!stop} was
    called.  A successful take keeps the caller counted as outstanding
    until it calls {!finish_path}. *)

val finish_path : 'a t -> unit
(** The path taken earlier has been fully handled (its entries, if any,
    were pushed first).  Push-then-finish ordering matters: finishing first
    could let the queue report termination while children are pending. *)

val drain_dropped : 'a t -> dom:int -> 'a Search.Frontier.entry list
(** Entries shard [dom]'s strategy evicted since the last drain.  They
    have already left the termination accounting; the shard's owner drains
    them to release the snapshots they reference. *)

val drain : 'a t -> dom:int -> 'a Search.Frontier.entry list
(** Empty shard [dom], as range entries: after a {!stop}, its owner gives
    back the entries that will never run. *)

val leave : 'a t -> unit
(** The caller's worker is done with the queue: wait until every shard's
    worker is.  Each calls it once, after its last {!take}; past it no
    steal still reads what the caller is about to free. *)

val stop : 'a t -> unit
(** Make every current and future {!take} return [None] (first-exit mode,
    aborts). *)

val stopped : 'a t -> bool

val length : 'a t -> int
(** Extensions queued across all shards. *)

val shard_length : 'a t -> int -> int
(** Extensions queued in one shard. *)

val pushed : 'a t -> int
(** Total extensions ever pushed. *)

val evicted : 'a t -> int
(** Extensions dropped by memory-bounded strategies. *)

val steal_batches : 'a t -> int
(** Steal operations that migrated at least one extension. *)

val stolen_items : 'a t -> int
(** Extensions migrated by steals (including the one the thief took). *)

val max_length : 'a t -> int
(** Peak queued length, sampled on both push and take. *)
