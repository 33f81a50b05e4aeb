(** The path lifecycle — the one place every scheduler's paths live and die.

    A {e path} is one execution of the guest from a candidate (a popped
    extension, or the scope-opening root) to its next scheduling stop.
    Every scheduler — {!Explorer}, both backends of {!Parallel} — runs the
    same lifecycle over a machine, §3 and Figures 1–2 of the paper:

    + {!enter}: restore the extension's snapshot, adopting its frames when
      this is its last restore;
    + {!run}: run a quantum to the next stop;
    + {!classify}: harvest the path's stdout and turn the stop into a
      terminal, a branch, a hint, a preemption or a scope request;
    + {!retire}: free the segment's COW tail and give the origin's
      extension ref back;
    + {!supervise}: on a crash, retry from the origin or quarantine.

    The schedulers keep only their policies: which extension next, on which
    machine, and where a crashed path goes.

    {1 Ordering rules}

    These hold for every scheduler; the functions below are written so that
    calling them in lifecycle order satisfies them.

    - {b Discard before resolve.}  {!retire} frees the finished segment's
      COW tail (the frames acquired since the last restore, when no capture
      froze them) by diffing against the live map, so it must run before
      anything rebuilds or restores the machine — including resolving the
      next extension through a {!Reclaim} store, whose promotions and
      replays clobber the machine.
    - {b Release before the [sole_extension] check.}  {!retire} gives the
      finished path's origin ref back before the next {!enter} asks
      {!Snapshot.sole_extension}; otherwise the previous sibling's
      still-held ref (and its chain of live descendants) would mask every
      last-extension restore and the adopting fast path could never fire.
    - {b Nothing reads through the dangling map until the next restore.}
      After {!retire} the machine's map may reference freed frames (which
      another worker may already be reusing); only a restore makes it
      valid again.  This is why releasing before restoring is sound: the
      freed deltas are unreachable from every live snapshot. *)

type terminal_kind =
  | Exit of int                (** the path terminated via exit(status) *)
  | Fail                       (** sys_guess_fail *)
  | Path_killed of string      (** fault or fuel exhaustion, described *)

type terminal = {
  kind : terminal_kind;
  output : string;  (** stdout produced by this path since its snapshot *)
  depth : int;
}

val terminal_log : unit -> terminal Stdx.Vec.t
(** An empty terminal log for {!create}: several paths may share one. *)

type 'o t
(** Per-machine path state: the stdout marker, depth, pending hint, the
    snapshot the segment derives from, the origin (['o]: what a crashed
    path restarts from), the segment epoch and the retry count. *)

val create :
  ?refcount:bool -> ?inj:Inject.t -> ?transcript:Buffer.t ->
  ?terminals:terminal Stdx.Vec.t -> ?owns_map:bool -> Os.Libos.t -> 'o t
(** Path state over a booted machine.  Segment tails are always freed;
    unless [refcount] is [false] because a {!Reclaim} store manages
    snapshot lifetime, the snapshot refcounts run too ({!Snapshot.retain},
    [release_ext], adopting restores).  [inj] is the
    fault plan {!run} applies; restores never adopt under an armed plan,
    which can crash any path, because adopting consumes the origin a retry
    restores.  Harvested stdout goes to [transcript], finished paths to
    [terminals] (in completion order).  [owns_map] starts a segment on the
    boot map with no base, so a {!discard} before the first capture frees
    the whole map ({!Service}'s first step). *)

val machine : 'o t -> Os.Libos.t
val depth : 'o t -> int

val live : 'o t -> bool
(** Entered (or opened at a scope root) and not yet retired. *)

val lineage_length : 'o t -> int
(** Snapshots on the lineage of the segment's base (0 when not live). *)

val harvest : 'o t -> string
(** Move the stdout produced since the last harvest (or entry) into the
    transcript; returns it as this path's attributed output. *)

val record : ?depth:int -> 'o t -> terminal_kind -> string -> unit
(** Record a terminal at the path's depth (or [depth]). *)

(** {1 Entry} *)

val enter :
  ?origin:'o -> ?retries:int -> ?graft:(unit -> unit) ->
  'o t -> Stats.t -> Snapshot.t -> rax:int -> depth:int -> unit
(** Start a path at [snap]: restore it, adopting when
    {!Snapshot.sole_extension} (see {!create}); record the segment epoch;
    reset the stdout marker and the pending hint; deliver [rax].  Counts the
    restore.  [graft] finishes the entry state on top of [snap] before the
    marker and [rax] are set (the Domains backend's steal import); what it
    maps belongs to the segment.  [retries] (default 0) were already spent
    on [origin]. *)

val restore : 'o t -> Snapshot.t -> rax:int -> depth:int -> unit
(** {!enter} with a plain restore, not counted, origin unchanged:
    {!Service.resume}'s steps and {!restart}. *)

val restart :
  Ext.t t -> root:Snapshot.t -> resolve:(Ext.t -> Snapshot.t) -> Snapshot.t
(** In-place crash retry: {!restore} the origin extension, resolved again
    (a store may have rebuilt it as a new record, which later captures must
    name as their parent), or [root] with 1 in [rax] for the scope-opening
    path.  Returns the snapshot restored. *)

val open_scope : 'o t -> Stats.t -> ids:Snapshot.ids -> Snapshot.t
(** [sys_guess_strategy] accepted: harvest, capture the scope root with 0
    in [rax] (what the program sees once the scope is exhausted) and go on
    as the root path with 1.  The root path holds one ref on the root. *)

(** {1 Running and classifying} *)

val run :
  ?a:int -> 'o t -> fuel:int -> span:string -> (Os.Libos.stop, exn) result
(** Run one quantum inside a trace [span] (argument [a], by default the
    base snapshot's id), with the path's fault plan jittering the fuel and
    ticking at the stop.  Any exception — an injected crash, an allocation
    failure — comes back as [Error]. *)

type event =
  | Terminal of terminal_kind  (** counted and recorded with its output *)
  | Branch of int  (** [sys_guess(n)], [n > 0]: capture with {!branch} *)
  | Hinted         (** [sys_guess_hint] recorded, 0 in [rax]: resume *)
  | Preempted      (** the quantum ran out (only under [~preempt]) *)
  | Scope of int   (** [sys_guess_strategy] inside a scope *)

val classify : ?preempt:bool -> 'o t -> Stats.t -> Os.Libos.stop -> event
(** Classify a stop inside a scope.  Without [preempt], fuel exhaustion
    kills the path. *)

val capture : 'o t -> ids:Snapshot.ids -> Snapshot.t
(** Capture at the path's depth, parented to the snapshot the segment
    derives from; without one (a fresh boot map) it owns its image. *)

val branch :
  'o t -> Stats.t -> ids:Snapshot.ids -> n:int -> Snapshot.t * Search.Frontier.meta
(** {!capture} the partial candidate of a [Branch n], retained [n] times
    before any extension can be published, and the extensions' metadata;
    the pending hint is consumed. *)

val outside :
  'o t -> Os.Libos.stop -> [ `Scope of int | `Continue | `Exit of int | `Abort of string ]
(** Classify a stop outside any scope: a hint is recorded and the program
    continues; guesses abort; an exit or a kill harvests and ends the run. *)

val to_scope : 'o t -> [ `Scope of int | `Exit of int | `Abort of string ]
(** Coordinator phase: run unsupervised to [sys_guess_strategy]. *)

val drain : 'o t -> Stats.t -> root:Snapshot.t -> [ `Exit of int | `Abort of string ]
(** Coordinator phase: restore the exhausted scope's [root] and run
    unsupervised to exit.  A second scope aborts. *)

(** {1 Retiring and supervision} *)

val release : 'o t -> Snapshot.t -> unit
(** Give back one extension ref (when refcounting). *)

val evict : 'o t -> Stats.t -> Ext.t Search.Frontier.t -> unit
(** Give back the refs of the extensions a bounded strategy dropped since
    the last call: they will never run. *)

val discard : 'o t -> unit
(** Free the segment's COW tail if no capture froze it; idempotent. *)

val retire : ?give_back:(unit -> unit) -> 'o t -> unit
(** End the path: {!discard}, then give the origin's ref back — {!release}
    on the entered snapshot unless [give_back] says otherwise (the Domains
    backend posts foreign refs to their owner). *)

val supervise :
  'o t -> Stats.t -> budget:int -> retry:(unit -> unit) -> exn ->
  [ `Retried | `Quarantined ]
(** A crash escaped the path; its tail is freed.  An origin restored
    adopting has changed in place and can never be restored again, so it is
    quarantined at once, as is a path that spent [budget] attempts:
    counted and recorded as [Path_killed]; the caller retires it.
    Otherwise a requeue is counted and [retry] re-enters the origin in
    place or requeues it (quarantined if [retry] raises). *)
