(* Sharded work-stealing queue: one strategy frontier per domain, each
   behind its own mutex, with steal-half batching between shards.

   The previous design — a single frontier behind a single mutex with a
   [Condition.broadcast] per push — serialised every worker on one lock
   and woke the whole fleet for one item.  Here a worker touches only its
   own shard in steady state; cross-shard traffic happens only when a
   shard runs dry, and then the thief migrates half the victim's items in
   one lock acquisition, so a deep local subtree is split O(log n) times
   rather than leaking one leaf per steal.

   Termination is a single atomic [outstanding] counter: paths queued plus
   paths in flight.  Pushes only ever happen while the pusher is itself in
   flight, so the counter can reach 0 only when the whole scope is
   exhausted — 0 is absorbing, which makes the lock-free check in [take]
   sound.  Lost wakeups are prevented by a version counter: sleepers
   record the version before scanning, and pushers bump it after inserting
   (and before signalling), so a sleeper re-checks whenever an insert
   raced its scan. *)

module Frontier = Search.Frontier

type 'a shard = {
  lock : Mutex.t;
  frontier : 'a Frontier.t; (* guarded by [lock] *)
}

type 'a t = {
  shards : 'a shard array;
  meta_of : 'a -> Frontier.meta;
      (* recomputes scheduling metadata when a stolen item is re-pushed
         into the thief's shard *)
  outstanding : int Atomic.t; (* queued + in-flight paths; 0 = terminated *)
  qlen : int Atomic.t;        (* queued items, all shards *)
  stop_requested : bool Atomic.t;
  version : int Atomic.t;     (* bumped after every insert *)
  sleep : Mutex.t;
  wakeup : Condition.t;
  mutable sleepers : int;     (* guarded by [sleep] *)
  drop_lock : Mutex.t;
  mutable dropped : 'a list;  (* evicted by bounded strategies; see [drain_dropped] *)
  pushed_n : int Atomic.t;
  evicted_n : int Atomic.t;
  steal_batches : int Atomic.t;
  stolen_items : int Atomic.t;
  max_len : int Atomic.t;
}

let create ?(shards = 1) ?(initial_paths = 0) ~meta_of make_frontier =
  if shards < 1 then invalid_arg "Work_queue.create: need at least one shard";
  { shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); frontier = make_frontier () });
    meta_of;
    outstanding = Atomic.make initial_paths;
    qlen = Atomic.make 0;
    stop_requested = Atomic.make false;
    version = Atomic.make 0;
    sleep = Mutex.create ();
    wakeup = Condition.create ();
    sleepers = 0;
    drop_lock = Mutex.create ();
    dropped = [];
    pushed_n = Atomic.make 0;
    evicted_n = Atomic.make 0;
    steal_batches = Atomic.make 0;
    stolen_items = Atomic.make 0;
    max_len = Atomic.make 0 }

let shard_count t = Array.length t.shards

let sample_len t =
  let len = Atomic.get t.qlen in
  let rec bump () =
    let cur = Atomic.get t.max_len in
    if len > cur && not (Atomic.compare_and_set t.max_len cur len) then bump ()
  in
  bump ();
  if Obs.Trace.enabled () then Obs.Trace.counter Obs.Names.queue_len len

(* Wake at most [n] sleepers — one per item made available, never the
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

(* Items a bounded strategy evicted leave the termination accounting here;
   they surface through [drain_dropped] so the scheduler can release their
   snapshots.  No wakeup bookkeeping: eviction only removes work, and the
   pusher/thief responsible is itself still in flight, so [outstanding]
   cannot reach 0 in this call. *)
let record_dropped t = function
  | [] -> ()
  | items ->
    let n = List.length items in
    ignore (Atomic.fetch_and_add t.evicted_n n);
    ignore (Atomic.fetch_and_add t.outstanding (-n));
    ignore (Atomic.fetch_and_add t.qlen (-n));
    Mutex.lock t.drop_lock;
    t.dropped <- List.rev_append items t.dropped;
    Mutex.unlock t.drop_lock

let drain_dropped t =
  if t.dropped == [] then [] (* racy peek: a miss is re-checked next drain *)
  else begin
    Mutex.lock t.drop_lock;
    let d = t.dropped in
    t.dropped <- [];
    Mutex.unlock t.drop_lock;
    d
  end

(* Every item is a single-extension entry of its frontier. *)
let pop_item frontier =
  match frontier.Frontier.pop () with
  | e -> Some e.Frontier.parent
  | exception Frontier.Empty -> None

let evicted_items frontier =
  List.map (fun e -> e.Frontier.parent) (frontier.Frontier.evicted ())

let push_batch t ~dom batch =
  let n = List.length batch in
  if n > 0 then begin
    let sh = t.shards.(dom) in
    ignore (Atomic.fetch_and_add t.pushed_n n);
    ignore (Atomic.fetch_and_add t.outstanding n);
    ignore (Atomic.fetch_and_add t.qlen n);
    Mutex.lock sh.lock;
    sh.frontier.Frontier.push_batch
      (List.map (fun (meta, x) -> Frontier.single meta x) batch);
    let ev = evicted_items sh.frontier in
    Mutex.unlock sh.lock;
    record_dropped t ev;
    Atomic.incr t.version;
    sample_len t;
    signal_waiters t (n - List.length ev)
  end

let pop_local t dom =
  let sh = t.shards.(dom) in
  Mutex.lock sh.lock;
  let item = pop_item sh.frontier in
  Mutex.unlock sh.lock;
  item

(* Pop up to [k] items from a locked frontier, preserving pop order. *)
let rec pop_up_to frontier k acc =
  if k = 0 then List.rev acc
  else
    match pop_item frontier with
    | None -> List.rev acc
    | Some x -> pop_up_to frontier (k - 1) (x :: acc)

(* Steal half the victim's items (all of them when it holds just one): the
   first is consumed by the thief, the rest migrate into the thief's own
   shard.  Locks are never held pairwise, so steals cannot deadlock. *)
let try_steal t ~dom =
  let n = Array.length t.shards in
  let rec attempt i =
    if i >= n then None
    else begin
      let v = (dom + i) mod n in
      let sh = t.shards.(v) in
      Mutex.lock sh.lock;
      let len = sh.frontier.Frontier.length () in
      let k = if len <= 1 then len else len / 2 in
      let batch = pop_up_to sh.frontier k [] in
      Mutex.unlock sh.lock;
      match batch with
      | [] -> attempt (i + 1)
      | first :: rest ->
        Atomic.incr t.steal_batches;
        ignore (Atomic.fetch_and_add t.stolen_items k);
        if rest <> [] then begin
          let own = t.shards.(dom) in
          Mutex.lock own.lock;
          own.frontier.Frontier.push_batch
            (List.map (fun x -> Frontier.single (t.meta_of x) x) rest);
          let ev = evicted_items own.frontier in
          Mutex.unlock own.lock;
          record_dropped t ev;
          Atomic.incr t.version;
          (* the migrated items are claimable by other sleepers *)
          signal_waiters t (List.length rest - List.length ev)
        end;
        Some first
    end
  in
  attempt 1

let rec take t ~dom =
  if Atomic.get t.stop_requested then None
  else begin
    let v0 = Atomic.get t.version in
    let got item =
      sample_len t;
      ignore (Atomic.fetch_and_add t.qlen (-1));
      Some item
    in
    match pop_local t dom with
    | Some item -> got item
    | None ->
      (match try_steal t ~dom with
      | Some item -> got item
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
          take t ~dom
        end)
  end

let finish_path t =
  let before = Atomic.fetch_and_add t.outstanding (-1) in
  if before <= 1 then begin
    Mutex.lock t.sleep;
    Condition.broadcast t.wakeup;
    Mutex.unlock t.sleep
  end

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
