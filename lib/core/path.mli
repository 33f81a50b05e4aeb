(** The path lifecycle — the one place every scheduler's paths live and die.

    A {e path} is one execution of the guest from a candidate (a popped
    extension, or the scope-opening root) to its next scheduling stop.
    The one scheduler loop — {!Explorer}'s, over one machine or several,
    and on every domain of {!Parallel} — runs the same lifecycle over a
    machine, §3 and Figures 1–2 of the paper:

    + {!enter}: restore the extension's snapshot ({!switch} when a path
      ends and the next begins on the same machine);
    + {!run}: run a quantum to the next stop;
    + {!classify}: harvest the path's stdout and turn the stop into a
      terminal, a branch, a hint, a preemption or a scope request;
    + {!retire}: free the segment's COW tail and give the origin's
      extension ref back ({!switch} retires and enters in one call);
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
      next extension through a {!Reclaim} store, whose promotions clobber
      the machine.
    - {b One switch.}  {!switch} retires the ended segment, resolves the
      next extension and enters it, in the order the rule above asks for;
      the caller pops the frontier before it and has nothing to do
      between.  It allocates nothing: the base and the origin are stored
      unboxed ({!Os.Snapshot.none} and one static [Snap Os.Snapshot.none] stand
      for "none"), and {!run} and {!classify} return the stop and an
      event that carry no box on the way to a terminal.  Siblings of one guess share their
      base, origin and stdout list, so the switch between them writes
      none of those fields again.
    - {b Evict right after the push.}  The built-in strategies drop
      extensions only when pushed to, so the scheduler calls {!evict}
      right after each push: the refs of dropped extensions are back
      before the next stop, whose frame audit counts the refs held against
      the frontier's length.
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

type outcome =
  | Completed of int       (** guest exited outside any scope with status *)
  | Stopped_first_exit of int  (** [`First_exit] mode hit an in-scope exit *)
  | Aborted of string      (** protocol violation or machine kill *)
(** How a run ends ({!Explorer.outcome}). *)

type terminal_log
(** Terminals in completion order.  Logging a silent failure, most
    terminals of a search, is one int store. *)

val terminal_log : unit -> terminal_log
(** An empty terminal log for {!create}: several paths may share one. *)

val terminals : terminal_log -> terminal list
(** The log's terminals in completion order (silent failures at one
    depth share one record). *)

type t
(** Per-machine path state: the stdout marker, depth, pending hint, the
    snapshot the segment derives from, the origin (what a crashed path
    restarts from, and the [rax] it delivers there), the segment epoch
    and the retry count. *)

val create :
  ?store:Reclaim.t -> ?inj:Inject.t -> ?transcript:Buffer.t ->
  ?terminals:terminal_log -> ?owns_map:bool -> Os.Libos.t -> t
(** Path state over a booted machine.  Segment tails are always freed, and
    one release rule holds in every mode: a path holds one extension ref
    on its origin while it is live, and {!retire}, {!switch} and {!evict}
    give refs back to whichever kind of payload holds them — a [Snap]'s to
    {!Os.Snapshot.release_ext}, a [Ref]'s to [store] ({!Reclaim.release}),
    which {!branch} leaves to count its own holders.  [inj] is the fault
    plan {!run} applies; it changes
    nothing else, so a faulted path restores exactly as a fault-free one.
    Harvested stdout goes to [transcript], finished paths to
    [terminals] (in completion order).  [owns_map] starts a segment on the
    boot map with no base, so a {!discard} before the first capture frees
    the whole map ({!Service}'s first step). *)

val machine : t -> Os.Libos.t
val depth : t -> int

val live : t -> bool
(** Entered (or opened at a scope root) and not yet retired. *)

val origin : t -> Ext.payload
(** What the path was last switched to (the scope root after
    {!open_scope}): while the path is live it holds one ref on it, unless
    it was {!enter}ed outside any scope. *)

val lineage_length : t -> int
(** Snapshots on the lineage of the segment's base (0 when not live), as
    the base recorded it at capture. *)

val harvest : t -> string
(** Move the stdout produced since the last harvest (or entry) into the
    transcript; returns it as this path's attributed output. *)

val record : ?depth:int -> t -> terminal_kind -> string -> unit
(** Record a terminal at the path's depth (or [depth]). *)

(** {1 Entry} *)

val enter : t -> Obs.Metrics.t -> Os.Snapshot.t -> rax:int -> depth:int -> unit
(** Start a path at [snap] outside any scope: restore it; record the
    segment epoch; reset the stdout marker and the pending hint; deliver
    [rax].  Counts the restore.  The path has no origin to retry, and no
    retries spent. *)

val switch :
  t -> Obs.Metrics.t -> resolve:(Ext.payload -> Os.Snapshot.t) -> Ext.payload ->
  index:int -> depth:int -> Os.Snapshot.t
(** End the path, if one runs, and start extension [index] of [origin]:
    {!retire}; resolve the origin's snapshot (after the discard, which a
    store's rebuild needs); then {!enter} it at [depth] with [index] in
    [rax], with [origin] as the path's origin and no retries spent.  The
    popped extension's ref becomes the path's.  Returns the snapshot
    entered.  If [resolve] raises, that ref goes back and the path is
    left retired. *)

val restore : t -> Os.Snapshot.t -> rax:int -> depth:int -> unit
(** {!enter} with a plain restore, not counted, origin unchanged: what
    {!resume} and {!restart} do once they have their snapshot. *)

val resume : t -> Reclaim.t -> Reclaim.handle -> rax:int -> Os.Snapshot.t
(** One {!Service.resume} step, as {!switch} is one scheduler step:
    {!discard} the last step's tail, get the handle's snapshot from the
    store (after the discard, which a rebuild needs), and {!restore} it
    one level below the handle's depth with [rax], so the machine derives
    from the record the store now anchors on.  Returns that snapshot.
    Counts nothing and leaves the origin alone.  If the store raises, the
    tail is already freed and nothing is restored. *)

val restart : t -> resolve:(Ext.payload -> Os.Snapshot.t) -> Os.Snapshot.t
(** In-place crash retry: {!restore} the origin, resolved again (a store
    may have rebuilt it as a new record, which later captures must name as
    their parent), with its extension index in [rax]: the scope-opening
    path's origin is the scope root, with 1.  Returns the snapshot
    restored. *)

val open_scope : t -> Obs.Metrics.t -> ids:Os.Snapshot.ids -> Os.Snapshot.t
(** [sys_guess_strategy] accepted: harvest, capture the scope root with 0
    in [rax] (what the program sees once the scope is exhausted) and go on
    as the root path with 1, the root as its origin.  The root path holds
    one ref on the root. *)

(** {1 Running and classifying} *)

val run : ?armed:bool -> t -> Obs.Metrics.t -> fuel:int -> Os.Libos.stop
(** Run one quantum as an [os.segments] span (payloads: the base
    snapshot's id and the instructions retired), with the path's fault plan
    jittering the fuel and ticking at the stop unless [armed] is [false]
    (the phases outside a scope).  Any exception — an injected crash, an
    allocation failure — ends the span and escapes to the caller, which
    supervises it. *)

type event =
  | Terminal
      (** counted and recorded with its output; the stop says which kind *)
  | Branch of int  (** [sys_guess(n)], [n > 0]: capture with {!branch} *)
  | Hinted         (** [sys_guess_hint] recorded, 0 in [rax]: resume *)
  | Preempted      (** the quantum ran out (only under [~preempt]) *)
  | Scope of int   (** [sys_guess_strategy] inside a scope *)

val classify : ?preempt:int -> t -> Obs.Metrics.t -> Os.Libos.stop -> event
(** Classify a stop inside a scope.  Fuel exhaustion preempts the path
    until its segment (since the last entry or restore) has retired
    [preempt] instructions (default 0), or the guest's {!Os.Libos.timeout}
    if that is smaller, and then kills it: a runaway path dies under
    quanta as it does without them. *)

val capture : t -> ids:Os.Snapshot.ids -> Os.Snapshot.t
(** Capture at the path's depth, parented to the snapshot the segment
    derives from; without one (a fresh boot map) it owns its image. *)

val branch :
  t -> Obs.Metrics.t -> ids:Os.Snapshot.ids -> n:int ->
  Os.Snapshot.t * Search.Frontier.meta
(** {!capture} the partial candidate of a [Branch n] and the extensions'
    metadata; the pending hint is consumed.  Without a store the snapshot
    is retained [n] times before any extension can be published; with one
    the caller publishes it as a [Ref] whose entry counts the [n]
    ({!Reclaim.add}). *)

val outside :
  t -> Obs.Metrics.t -> Os.Libos.stop ->
  [ `Scope of int | `Continue | `Exit of int | `Abort of string ]
(** Classify a stop outside any scope: a hint is recorded and the program
    continues; guesses abort; an exit or a kill harvests and ends the run. *)

(** {1 Retiring and supervision} *)

val evict : t -> Obs.Metrics.t -> Ext.payload Search.Frontier.t -> unit
(** Give back the refs of the extensions a bounded strategy dropped since
    the last call (each evicted entry's {!Search.Frontier.remaining}):
    they will never run. *)

val discard : t -> unit
(** Free the segment's COW tail if no capture froze it; idempotent. *)

val retire : t -> unit
(** End the path: {!discard}, then give its origin's ref back. *)

val abandon : t -> Os.Snapshot.t
(** End the path without freeing or releasing anything, and return its
    base ({!Os.Snapshot.none} when it was not live): how a run that stops
    inside its scope hands its paths' snapshots to {!Os.Snapshot.abandon}.
    Free a tail the caller does not keep with {!discard} first. *)

val supervise :
  t -> Obs.Metrics.t -> budget:int -> retry:(unit -> unit) -> exn ->
  [ `Retried | `Quarantined ]
(** A crash escaped the path; its tail is freed.  A path that spent
    [budget] attempts is quarantined: counted and recorded as
    [Path_killed]; the caller retires it.  Otherwise a requeue is counted
    and [retry] re-enters the origin in place or requeues it (quarantined
    if [retry] raises).  Nothing consumes an origin, so a retry can always
    restore it. *)
