type t = {
  cow_faults : int;
  zero_fills : int;
  frames_allocated : int;
  frames_recycled : int;
  frames_freed : int;
  tlb_misses : int;
  pt_walks : int;
  snapshots : int;
  restores : int;
}

let of_metrics m =
  let module N = Obs.Names in
  let get = Obs.Metrics.get m in
  { cow_faults = get N.mem_cow_faults;
    zero_fills = get N.mem_zero_fills;
    frames_allocated = get N.mem_frames_allocated;
    frames_recycled = get N.mem_frames_recycled;
    frames_freed = get N.mem_frames_freed;
    tlb_misses = get N.mem_tlb_misses;
    pt_walks = get N.mem_pt_walks;
    snapshots = get N.mem_snapshots;
    restores = get N.mem_restores }
