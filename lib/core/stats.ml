type t = {
  mutable guesses : int;
  mutable extensions_pushed : int;
  mutable extensions_evaluated : int;
  mutable fails : int;
  mutable exits : int;
  mutable kills : int;
  mutable snapshots_created : int;
  mutable restores : int;
  mutable adopting_restores : int;
  mutable evicted : int;
  mutable max_frontier : int;
  mutable max_live_snapshots : int;
  mutable instructions : int;
  mutable requeues : int;
  mutable quarantined : int;
  mutable steals : int;
  mutable payload_evictions : int;
  mutable demotions : int;
  mutable promotions : int;
  mutable replays : int;
  mutable replay_fallbacks : int;
  mutable replayed_instructions : int;
  mem : Mem.Mem_metrics.t;
}

let create () =
  { guesses = 0; extensions_pushed = 0; extensions_evaluated = 0; fails = 0;
    exits = 0; kills = 0; snapshots_created = 0; restores = 0;
    adopting_restores = 0; evicted = 0;
    max_frontier = 0; max_live_snapshots = 0; instructions = 0;
    requeues = 0; quarantined = 0; steals = 0; payload_evictions = 0;
    demotions = 0; promotions = 0; replays = 0;
    replay_fallbacks = 0; replayed_instructions = 0;
    mem = Mem.Mem_metrics.create () }

(* Fold [x] into [acc]: event counters add; extent peaks were observed
   against the same shared frontier, so they combine by max. *)
let merge acc x =
  acc.guesses <- acc.guesses + x.guesses;
  acc.extensions_pushed <- acc.extensions_pushed + x.extensions_pushed;
  acc.extensions_evaluated <- acc.extensions_evaluated + x.extensions_evaluated;
  acc.fails <- acc.fails + x.fails;
  acc.exits <- acc.exits + x.exits;
  acc.kills <- acc.kills + x.kills;
  acc.snapshots_created <- acc.snapshots_created + x.snapshots_created;
  acc.restores <- acc.restores + x.restores;
  acc.evicted <- acc.evicted + x.evicted;
  acc.max_frontier <- max acc.max_frontier x.max_frontier;
  acc.max_live_snapshots <- max acc.max_live_snapshots x.max_live_snapshots;
  acc.instructions <- acc.instructions + x.instructions;
  acc.requeues <- acc.requeues + x.requeues;
  acc.quarantined <- acc.quarantined + x.quarantined;
  acc.steals <- acc.steals + x.steals;
  acc.payload_evictions <- acc.payload_evictions + x.payload_evictions;
  acc.demotions <- acc.demotions + x.demotions;
  acc.promotions <- acc.promotions + x.promotions;
  acc.replays <- acc.replays + x.replays;
  acc.replay_fallbacks <- acc.replay_fallbacks + x.replay_fallbacks;
  acc.replayed_instructions <- acc.replayed_instructions + x.replayed_instructions;
  Mem.Mem_metrics.add acc.mem x.mem

(* Publish into an Obs.Metrics registry: the canonical machine-readable
   form (BENCH_E*.json, trace tooling).  Counter fields map to counters,
   the two extent peaks to gauges combined by max — so publishing several
   per-worker records into one registry agrees with [merge]ing them first
   and publishing once. *)
let publish t (reg : Obs.Metrics.t) =
  let c name v = Obs.Metrics.incr reg ~by:v name in
  c "explorer.guesses" t.guesses;
  c "explorer.extensions_pushed" t.extensions_pushed;
  c "explorer.extensions_evaluated" t.extensions_evaluated;
  c "explorer.fails" t.fails;
  c "explorer.exits" t.exits;
  c "explorer.kills" t.kills;
  c "explorer.snapshots_created" t.snapshots_created;
  c "explorer.restores" t.restores;
  c "explorer.evicted" t.evicted;
  Obs.Metrics.gauge_max reg "explorer.max_frontier" t.max_frontier;
  Obs.Metrics.gauge_max reg "explorer.max_live_snapshots" t.max_live_snapshots;
  c "explorer.instructions" t.instructions;
  c "explorer.requeues" t.requeues;
  c "explorer.quarantined" t.quarantined;
  c "explorer.steals" t.steals;
  c "explorer.payload_evictions" t.payload_evictions;
  c "explorer.demotions" t.demotions;
  c "explorer.promotions" t.promotions;
  c "explorer.replays" t.replays;
  c "explorer.replay_fallbacks" t.replay_fallbacks;
  c "explorer.replayed_instructions" t.replayed_instructions;
  let m = t.mem in
  c "mem.cow_faults" m.Mem.Mem_metrics.cow_faults;
  c "mem.zero_fills" m.Mem.Mem_metrics.zero_fills;
  c "mem.pages_copied" m.Mem.Mem_metrics.pages_copied;
  c "mem.bytes_copied" m.Mem.Mem_metrics.bytes_copied;
  c "mem.frames_allocated" m.Mem.Mem_metrics.frames_allocated;
  c "mem.snapshots" m.Mem.Mem_metrics.snapshots;
  c "mem.restores" m.Mem.Mem_metrics.restores;
  c "mem.tlb_hits" m.Mem.Mem_metrics.tlb_hits;
  c "mem.tlb_misses" m.Mem.Mem_metrics.tlb_misses;
  c "mem.tlb_flushes" m.Mem.Mem_metrics.tlb_flushes;
  c "mem.tlb_shootdowns" m.Mem.Mem_metrics.tlb_shootdowns;
  c "mem.pt_walks" m.Mem.Mem_metrics.pt_walks;
  c "mem.pt_node_copies" m.Mem.Mem_metrics.pt_node_copies;
  c "mem.frames_freed" m.Mem.Mem_metrics.frames_freed;
  c "mem.frames_recycled" m.Mem.Mem_metrics.frames_recycled;
  c "mem.zero_fills_elided" m.Mem.Mem_metrics.zero_fills_elided

let pp fmt t =
  Format.fprintf fmt
    "@[<v>guesses=%d pushed=%d evaluated=%d fails=%d exits=%d kills=%d@ \
     snapshots=%d restores=%d evicted=%d max_frontier=%d \
     max_live=%d@ instructions=%d@ requeues=%d quarantined=%d steals=%d \
     payload_evictions=%d demotions=%d promotions=%d replays=%d \
     replay_fallbacks=%d \
     replayed_instructions=%d@ %a@]"
    t.guesses t.extensions_pushed t.extensions_evaluated t.fails t.exits
    t.kills t.snapshots_created t.restores t.evicted
    t.max_frontier t.max_live_snapshots t.instructions t.requeues
    t.quarantined t.steals t.payload_evictions t.demotions t.promotions
    t.replays t.replay_fallbacks
    t.replayed_instructions
    Mem.Mem_metrics.pp t.mem
