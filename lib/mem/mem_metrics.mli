(** The memory events the repo benchmark reads by field name, as a
    read-only view of a registry's [mem.*] slots (see {!Obs.Names}, where
    each event is declared; the registry is the only store). *)

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

val of_metrics : Obs.Metrics.t -> t
