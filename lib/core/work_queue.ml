(* Sharded work-stealing queue: one strategy frontier per domain, each
   behind its own mutex, with steal-half batching between shards.

   A worker touches only its own shard in steady state; cross-shard traffic
   happens only when a shard runs dry, and then the thief migrates half the
   victim's extensions in one lock acquisition, so a deep local subtree is
   split O(log n) times rather than leaking one leaf per steal.  Shards
   hold per-guess entries; a steal hands the victim's extensions out one by
   one and coalesces the consecutive ones of an entry back into one range,
   so a split entry becomes two ranges, never a list of singletons.

   Termination is a single atomic [outstanding] counter: extensions queued
   plus paths in flight.  Pushes only ever happen while the pusher is
   itself in flight, so the counter can reach 0 only when the whole scope
   is exhausted — 0 is absorbing, which makes the lock-free check in [take]
   sound.  Lost wakeups are prevented by a version counter: sleepers record
   the version before scanning, and pushers bump it after inserting (and
   before signalling), so a sleeper re-checks whenever an insert raced its
   scan. *)

module Frontier = Search.Frontier

type 'a shard = {
  lock : Mutex.t;
  frontier : 'a Frontier.t;  (* guarded by [lock] *)
  mutable dropped : 'a Frontier.entry list;
      (* evicted by the strategy, not yet drained; guarded by [lock] *)
}

type 'a t = {
  shards : 'a shard array;
  outstanding : int Atomic.t; (* queued extensions + in-flight paths; 0 = terminated *)
  qlen : int Atomic.t;        (* queued extensions, all shards *)
  stop_requested : bool Atomic.t;
  version : int Atomic.t;     (* bumped after every insert *)
  sleep : Mutex.t;
  wakeup : Condition.t;
  mutable sleepers : int;     (* guarded by [sleep] *)
  mutable left : int;         (* workers done with the queue; guarded by [sleep] *)
  pushed_n : int Atomic.t;
  evicted_n : int Atomic.t;
  steal_batches : int Atomic.t;
  stolen_items : int Atomic.t;
  max_len : int Atomic.t;
}

let create ?(shards = 1) ?(initial_paths = 0) make_frontier =
  if shards < 1 then invalid_arg "Work_queue.create: need at least one shard";
  { shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); frontier = make_frontier (); dropped = [] });
    outstanding = Atomic.make initial_paths;
    qlen = Atomic.make 0;
    stop_requested = Atomic.make false;
    version = Atomic.make 0;
    sleep = Mutex.create ();
    wakeup = Condition.create ();
    sleepers = 0;
    left = 0;
    pushed_n = Atomic.make 0;
    evicted_n = Atomic.make 0;
    steal_batches = Atomic.make 0;
    stolen_items = Atomic.make 0;
    max_len = Atomic.make 0 }

let shard_count t = Array.length t.shards

let extensions entries =
  List.fold_left (fun k e -> k + Frontier.remaining e) 0 entries

let sample_len t =
  let len = Atomic.get t.qlen in
  let rec bump () =
    let cur = Atomic.get t.max_len in
    if len > cur && not (Atomic.compare_and_set t.max_len cur len) then bump ()
  in
  bump ();
  Obs.Trace.sample Obs.Names.search_max_frontier len

(* Wake at most [n] sleepers — one per extension made available, never the
   whole fleet. *)
let signal_waiters t n =
  if n > 0 then begin
    Mutex.lock t.sleep;
    let k = min n t.sleepers in
    for _ = 1 to k do
      Condition.signal t.wakeup
    done;
    Mutex.unlock t.sleep
  end

(* Insert entries (already counted) into [sh]; what its strategy evicts
   leaves the termination accounting and waits in [dropped].  No wakeup
   bookkeeping for evictions: they only remove work, and the inserter is
   itself in flight, so [outstanding] cannot reach 0 here.  Returns the
   extensions evicted. *)
let insert t sh entries =
  Mutex.lock sh.lock;
  sh.frontier.Frontier.push_batch entries;
  let ev = sh.frontier.Frontier.evicted () in
  if ev <> [] then sh.dropped <- List.rev_append ev sh.dropped;
  Mutex.unlock sh.lock;
  let n = extensions ev in
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.evicted_n n);
    ignore (Atomic.fetch_and_add t.outstanding (-n));
    ignore (Atomic.fetch_and_add t.qlen (-n))
  end;
  Atomic.incr t.version;
  n

let push_batch t ~dom batch =
  let n = extensions batch in
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.pushed_n n);
    ignore (Atomic.fetch_and_add t.outstanding n);
    ignore (Atomic.fetch_and_add t.qlen n);
    let ev = insert t t.shards.(dom) batch in
    sample_len t;
    signal_waiters t (n - ev)
  end

(* The extension handed out, as an entry of its own: a thief may advance
   the shard's entry as soon as the lock is released. *)
let pop_local t dom =
  let sh = t.shards.(dom) in
  Mutex.lock sh.lock;
  let e =
    match sh.frontier.Frontier.pop () with
    | e -> Some { e with count = e.next }
    | exception Frontier.Empty -> None
  in
  Mutex.unlock sh.lock;
  e

(* Hand out up to [k] extensions of a locked frontier as range entries in
   pop order: consecutive extensions of one parent join one range. *)
let rec pop_ranges frontier k acc =
  if k = 0 then List.rev acc
  else
    match frontier.Frontier.pop () with
    | exception Frontier.Empty -> List.rev acc
    | e ->
      let i = Frontier.popped e in
      let acc =
        match acc with
        | (r : _ Frontier.entry) :: rest when r.parent == e.parent && r.count = i ->
          { r with count = i + 1 } :: rest
        | _ -> { e with next = i; count = i + 1 } :: acc
      in
      pop_ranges frontier (k - 1) acc

(* Steal half the victim's extensions (the only one when it holds one),
   pass each stolen entry through [steal] outside every lock, migrate them
   into the thief's own shard (empty: only its owner fills it) and pop the
   thief's first extension there.  Locks are never held pairwise, so
   steals cannot deadlock. *)
let try_steal t ~dom ~steal =
  let n = Array.length t.shards in
  let rec attempt i =
    if i >= n then None
    else begin
      let victim = (dom + i) mod n in
      let sh = t.shards.(victim) in
      Mutex.lock sh.lock;
      let len = sh.frontier.Frontier.length () in
      let k = if len <= 1 then len else len / 2 in
      let batch = pop_ranges sh.frontier k [] in
      Mutex.unlock sh.lock;
      if k = 0 then attempt (i + 1)
      else begin
        Atomic.incr t.steal_batches;
        ignore (Atomic.fetch_and_add t.stolen_items k);
        let ev = insert t t.shards.(dom) (List.map (steal ~victim) batch) in
        match pop_local t dom with
        | None -> attempt (i + 1)  (* the thief's strategy evicted them all *)
        | Some _ as first ->
          (* the rest are claimable by sleepers *)
          signal_waiters t (k - ev - 1);
          first
      end
    end
  in
  attempt 1

let rec take t ~dom ~steal =
  if Atomic.get t.stop_requested then None
  else begin
    let v0 = Atomic.get t.version in
    let got e =
      sample_len t;
      ignore (Atomic.fetch_and_add t.qlen (-1));
      Some e
    in
    match pop_local t dom with
    | Some e -> got e
    | None -> (
      match try_steal t ~dom ~steal with
      | Some e -> got e
      | None ->
        if Atomic.get t.outstanding = 0 then begin
          (* Global termination: nothing queued anywhere and nobody who
             could still push.  Wake every other waiter so they see it. *)
          Mutex.lock t.sleep;
          Condition.broadcast t.wakeup;
          Mutex.unlock t.sleep;
          None
        end
        else begin
          Mutex.lock t.sleep;
          (* Sleep only if nothing was inserted since we started scanning
             — otherwise the insert may have raced our scan. *)
          if
            Atomic.get t.version = v0
            && Atomic.get t.outstanding > 0
            && not (Atomic.get t.stop_requested)
          then begin
            t.sleepers <- t.sleepers + 1;
            Condition.wait t.wakeup t.sleep;
            t.sleepers <- t.sleepers - 1
          end;
          Mutex.unlock t.sleep;
          take t ~dom ~steal
        end)
  end

let finish_path t =
  let before = Atomic.fetch_and_add t.outstanding (-1) in
  if before <= 1 then begin
    Mutex.lock t.sleep;
    Condition.broadcast t.wakeup;
    Mutex.unlock t.sleep
  end

let drain_dropped t ~dom =
  let sh = t.shards.(dom) in
  Mutex.lock sh.lock;
  let d = sh.dropped in
  sh.dropped <- [];
  Mutex.unlock sh.lock;
  d

let drain t ~dom =
  let sh = t.shards.(dom) in
  Mutex.lock sh.lock;
  let left = pop_ranges sh.frontier (sh.frontier.Frontier.length ()) [] in
  Mutex.unlock sh.lock;
  ignore (Atomic.fetch_and_add t.qlen (-extensions left));
  left

let leave t =
  Mutex.lock t.sleep;
  t.left <- t.left + 1;
  if t.left = Array.length t.shards then Condition.broadcast t.wakeup;
  while t.left < Array.length t.shards do
    Condition.wait t.wakeup t.sleep
  done;
  Mutex.unlock t.sleep

let stop t =
  Atomic.set t.stop_requested true;
  Mutex.lock t.sleep;
  Condition.broadcast t.wakeup;
  Mutex.unlock t.sleep

let stopped t = Atomic.get t.stop_requested
let length t = Atomic.get t.qlen

let shard_length t dom =
  let sh = t.shards.(dom) in
  Mutex.lock sh.lock;
  let len = sh.frontier.Frontier.length () in
  Mutex.unlock sh.lock;
  len

let pushed t = Atomic.get t.pushed_n
let evicted t = Atomic.get t.evicted_n
let steal_batches t = Atomic.get t.steal_batches
let stolen_items t = Atomic.get t.stolen_items
let max_length t = Atomic.get t.max_len
