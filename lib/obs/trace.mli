(** Fixed-capacity, allocation-light ring-buffer tracer over the metric
    slots.

    An event is a {!Metrics.slot}: the call that counts an occurrence into
    a registry is the call that traces it, under the same slot, and the
    slot's name is looked up only when the events are read ({!events}).
    Payloads are plain ints, so a record call allocates nothing, traced or
    not; untraced, it costs the count plus one boolean load and a branch.
    Each domain records into its own preallocated ring buffer (registered
    lazily through domain-local storage); buffers are merged and stably
    sorted by timestamp at export time, so the Domains backend traces
    safely.

    [start]/[stop]/[clear] must be called from a quiescent point — no
    other domain concurrently recording.  Recording itself is safe from
    any number of domains. *)

type kind = Span_begin | Span_end | Instant | Counter

type view = {
  v_kind : kind;
  v_slot : Metrics.slot;
  v_name : string;  (** the slot's name *)
  v_ts : int;  (** microseconds since [start], monotone per domain *)
  v_tid : int;  (** recording domain's id *)
  v_a : int;  (** payload (the sampled value for [Counter]) *)
  v_b : int;  (** payload *)
}

val start : ?capacity:int -> unit -> unit
(** Enable tracing into fresh ring buffers of [capacity] events per
    domain (default 65536, minimum 16).  Resets the timestamp epoch and
    discards any events from a previous session. *)

val stop : unit -> unit
(** Disable recording; captured events stay readable via {!events}. *)

val clear : unit -> unit
(** Disable recording and discard all captured events. *)

(** {1 Record calls}

    [a] and [b] are the event's payloads; each slot's comment in {!Names}
    says what they carry. *)

val instant : Metrics.t -> Metrics.slot -> int -> int -> unit
(** [instant m slot a b] counts one occurrence into [slot] and, when
    tracing, records an instant. *)

val span_begin : Metrics.slot -> int -> unit
(** [span_begin slot a]: when tracing, records the start of a span. *)

val span_end : Metrics.t -> Metrics.slot -> int -> int -> unit
(** [span_end m slot a b] counts one completed span into [slot] and, when
    tracing, records its end. *)

val peak : Metrics.t -> Metrics.slot -> int -> unit
(** [peak m slot v] raises the peak slot to [v] and, when tracing, records
    [v] as a sample. *)

val sample : Metrics.slot -> int -> unit
(** [sample slot v]: when tracing, records [v] as a sample of a peak whose
    maximum its owner keeps itself. *)

(** {1 Reading} *)

val recorded : unit -> int
(** Total events recorded this session, including overwritten ones. *)

val dropped : unit -> int
(** Events lost to ring wraparound (oldest are overwritten first). *)

val events : unit -> view list
(** Merged view of all per-domain buffers, stably sorted by timestamp
    (per-buffer order is preserved for equal timestamps).  Call after
    {!stop} and after joining any recording domains. *)
