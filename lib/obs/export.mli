(** Exporters over a merged event stream ([Trace.events ()]). *)

val chrome_json : ?dropped:int -> Trace.view list -> Json.t
(** Chrome [trace_event] document (loadable in Perfetto and
    [chrome://tracing]): spans become B/E pairs, instants [i], counter
    samples [C]; the recording domain id is the [tid]; the drop count
    is recorded under [otherData.dropped]. *)

val chrome_json_string : ?dropped:int -> Trace.view list -> string

type span_agg = {
  s_count : int;  (** completed begin/end pairs *)
  s_total_us : int;
  s_max_us : int;
  s_unmatched : int;  (** begins without end + ends without begin *)
}

val span_summary : Trace.view list -> (string * span_agg) list
(** Per-name span aggregates, name-sorted.  Pairing is per (domain,
    name) with a stack, so nesting of a name within one domain is
    handled; pairs truncated by ring wraparound count as unmatched. *)

val summary : Trace.view list -> string
(** Flat human-readable text: span aggregates, instant counts, counter
    last/max values. *)

type node = {
  n_id : int;
  n_parent : int;  (** -1: root; -2: synthetic (referenced, never captured) *)
  mutable n_visits : int;
  mutable n_us : int;
  mutable n_instr : int;
  mutable n_restores : int;
}

val snapshot_tree : Trace.view list -> node list
(** Snapshot tree rebuilt from [snapshot.captures]/[snapshot.restores]
    instants and [os.segments] spans, each node annotated with its
    evaluation cost (visits, microseconds, instructions retired,
    restores). *)

val tree_json : Trace.view list -> Json.t
val tree_dot : Trace.view list -> string
