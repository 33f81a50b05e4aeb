(** Exploration statistics: search events plus the memory-subsystem events
    accumulated while exploring.  One record per {!Explorer.run}. *)

type t = {
  mutable guesses : int;               (** [sys_guess] calls served *)
  mutable extensions_pushed : int;
  mutable extensions_evaluated : int;
  mutable fails : int;                 (** [sys_guess_fail] calls *)
  mutable exits : int;                 (** paths that terminated via exit *)
  mutable kills : int;                 (** paths killed (fault / fuel) *)
  mutable snapshots_created : int;
  mutable restores : int;
  mutable adopting_restores : int;     (** always 0: no restore adopts a
                                           snapshot's frames.  Kept only
                                           because [perfbench] reads it; not
                                           merged, published or printed *)
  mutable evicted : int;               (** dropped by memory-bounded strategies *)
  mutable max_frontier : int;
  mutable max_live_snapshots : int;
  mutable instructions : int;          (** guest instructions retired *)
  mutable requeues : int;              (** crashed paths rescheduled *)
  mutable quarantined : int;           (** paths killed after the retry budget *)
  mutable steals : int;                (** work items consumed by a domain other
                                           than the one that produced them *)
  mutable payload_evictions : int;     (** snapshot payloads truncated outright *)
  mutable demotions : int;             (** live payloads demoted to deltas *)
  mutable promotions : int;            (** deltas rebuilt by applying them *)
  mutable replays : int;               (** truncated payloads rebuilt by re-execution *)
  mutable replay_fallbacks : int;      (** [get]s that promotion alone could not serve *)
  mutable replayed_instructions : int; (** re-executed during those rebuilds;
                                           already excluded from [instructions] *)
  mem : Mem.Mem_metrics.t;             (** memory events during the run *)
}

val create : unit -> t

val merge : t -> t -> unit
(** [merge acc x] folds [x] into [acc]: event counters and memory metrics
    add; [max_frontier]/[max_live_snapshots] combine by max (per-worker
    peaks observed against one shared frontier).  The domains backend of
    {!Parallel} merges each worker's private [t] at join. *)

val publish : t -> Obs.Metrics.t -> unit
(** Publish every field into a metrics registry ([explorer.*] and
    [mem.*] names) — the canonical machine-readable form used by
    [BENCH_E*.json].  Counter fields publish as counters, the extent
    peaks as max-combined gauges, so publishing per-worker records into
    one registry agrees with {!merge}-then-publish. *)

val pp : Format.formatter -> t -> unit
