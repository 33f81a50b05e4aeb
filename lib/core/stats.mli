(** The exploration counts the repo benchmark reads by field name, as a
    read-only view of a run's registry ({!Explorer.result}'s [metrics],
    the only store; {!Obs.Names} declares each event). *)

type t = {
  instructions : int;          (** [vcpu.instructions] *)
  snapshots_created : int;     (** [snapshot.captures] *)
  restores : int;              (** [snapshot.restores] *)
  adopting_restores : int;     (** always 0: no restore adopts a snapshot's
                                   frames *)
  extensions_evaluated : int;  (** [search.extensions] *)
  fails : int;                 (** [search.fails] *)
  max_frontier : int;          (** [search.max_frontier] *)
  kills : int;                 (** [search.kills] *)
  requeues : int;              (** [sched.requeues] *)
  demotions : int;             (** [reclaim.demotions] *)
  promotions : int;            (** [reclaim.promotions] *)
  replays : int;               (** [reclaim.replays] *)
  mem : Mem.Mem_metrics.t;     (** the [mem.*] slots *)
}

val of_metrics : Obs.Metrics.t -> t
