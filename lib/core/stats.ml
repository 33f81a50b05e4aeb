type t = {
  instructions : int;
  snapshots_created : int;
  restores : int;
  adopting_restores : int;
  extensions_evaluated : int;
  fails : int;
  max_frontier : int;
  kills : int;
  requeues : int;
  demotions : int;
  promotions : int;
  replays : int;
  mem : Mem.Mem_metrics.t;
}

let of_metrics m =
  let module N = Obs.Names in
  let get = Obs.Metrics.get m in
  { instructions = get N.vcpu_instructions;
    snapshots_created = get N.snapshot_captures;
    restores = get N.snapshot_restores;
    adopting_restores = 0;
    extensions_evaluated = get N.search_extensions;
    fails = get N.search_fails;
    max_frontier = get N.search_max_frontier;
    kills = get N.search_kills;
    requeues = get N.sched_requeues;
    demotions = get N.reclaim_demotions;
    promotions = get N.reclaim_promotions;
    replays = get N.reclaim_replays;
    mem = Mem.Mem_metrics.of_metrics m }
