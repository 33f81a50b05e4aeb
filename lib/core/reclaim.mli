(** Tiered snapshot storage: evict by demoting to deltas, not by
    forgetting (§5).

    The paper argues snapshots stay viable at scale because the system can
    shed them under memory pressure and rebuild them later.  This module
    is that layer, as a store of published snapshots whose payloads
    degrade through tiers instead of vanishing:

    - {e tier 0} — the live snapshot; its page map pins physical frames.
    - {e tier 1} — a dirty-page delta against the nearest still-live
      ancestor, raw page copies held in host memory (accounted via
      {!Mem.Phys_mem.note_delta_bytes}).  {!demote} moves 0 → 1; it only
      copies page bytes out, so it is allocation-free with respect to
      frames, and fast enough for the allocator's pressure handler.
    - {e tier 2} — truncated: payload gone, skeleton kept.  Only {!evict}
      produces this state; it is not the pressure policy, just the
      fallback the store can always recover from.

    {!get} on a demoted entry {e promotes}: materialise the delta's base
    (recursively), restore its page map, apply the byte delta, load the
    saved registers and OS state, capture — zero guest instructions.
    Only a truncated entry falls back to deterministic replay of its edge
    from the parent: restore, deliver the recorded choice in [rax] (and
    the recorded stdin, if any), run to the next [sys_guess], capture.
    Guest output produced during reconstruction is discarded (drivers
    reset their harvest marker after the restore that follows a [get]).
    Its cost is kept out of the owner's figures: the re-executed
    instructions count under [reclaim.replayed_instructions], and the
    memory events of a promotion or replay are taken back out of the
    owner's [mem.*] slots where they happen.

    Roots are pinned: they may demote to a tier-1 full image but never
    truncate, so reconstruction always bottoms out.  Released entries
    drop their payload and refuse {!get}, but keep their skeleton — a
    descendant's replay may pass through them. *)

type handle = int

exception Replay_diverged of string
(** A replay reached a terminal where the original run published a choice
    point — impossible for deterministic guests; indicates the machine
    diverged (e.g. external state changed between capture and replay). *)

type t

val create : ?fuel_per_step:int -> metrics:Obs.Metrics.t -> Os.Libos.t -> t
(** The machine is the reconstruction vehicle: promotion and replay both
    restore onto it.  [metrics] is the owner's registry: the store counts
    its [reclaim.*] events into it, and takes reconstruction's memory
    events back out of it (so a registry that never adds its memory's
    events reads them negative).  Callers must treat machine state as clobbered
    across {!get} (every driver restores a snapshot right after, so this
    is free). *)

val add_root : t -> Snapshot.t -> handle
(** Register a pinned root: never truncated, the reconstruction base of
    last resort. *)

val add :
  t -> parent:handle -> choice:int -> ?stdin:string -> depth:int ->
  Snapshot.t -> handle
(** Register a snapshot captured at the first [sys_guess] reached after
    restoring [parent] and delivering [choice] (and [stdin], if given). *)

val get : t -> handle -> Snapshot.t
(** The entry's snapshot, reconstructed if not live: promotion (apply
    the delta) for demoted entries, replay only where the chain was
    truncated.
    @raise Invalid_argument on an unknown or released handle.
    @raise Replay_diverged if a replay does not reach a choice point. *)

val depth : t -> handle -> int

val tier : t -> handle -> int
(** 0 live, 1 in-memory delta, 2 truncated. *)

val is_materialised : t -> handle -> bool
(** [tier t h = 0]. *)

val is_released : t -> handle -> bool

val release : t -> handle -> unit
(** Drop the payload and refuse future {!get}s; the skeleton stays so
    descendants can still replay through this entry. *)

(** {1 Tier transitions} *)

val demote : t -> handle -> bool
(** Tier 0 → 1: replace the live snapshot with its dirty-page delta
    against the nearest still-live ancestor (a full image when none
    exists); the frames the snapshot pinned become unreachable.
    [false] if the payload is not live.  Safe inside a {!Mem.Phys_mem}
    pressure handler: reads frame bytes, allocates no frames, never runs
    guest code. *)

val demote_all : t -> int
(** Demote every live payload, pinned roots included; returns the number
    demoted.  Order: deepest first and, among equal depths, the newest
    handle first.  Handles are issued parent before child, so every delta
    is against a still-live parent, even for a child recorded at its
    parent's depth (a scope root and its first capture both sit at depth
    0). *)

val evict : t -> handle -> bool
(** Truncate: drop the payload entirely (tier 2); [false] if pinned or
    already truncated.  Reconstruction degrades to replay for this
    entry. *)

val evict_all : t -> int
(** Truncate every non-pinned payload (testing / worst-case
    introspection), in handle order; returns the number truncated. *)

val demote_under_pressure : t -> int
(** The pressure policy: demote live non-pinned payloads — deepest first,
    least-recently-resumed first among equals (no two entries share a
    last use, so the order is total) — until the allocator's
    live count drops back below its watermark (at least one victim; every
    victim when the explicit frees never clear the mark).  Returns the
    number demoted.  Safe to call from a {!Mem.Phys_mem} pressure
    handler: it copies bytes out of frames but never allocates frames or
    replays. *)

val pressure_handler : t -> unit -> unit
(** [demote_under_pressure] packaged for
    {!Mem.Phys_mem.set_pressure_handler}. *)

(** {1 Teardown} *)

val release_all : t -> unit
(** Give back every ref the store holds — every payload, pinned roots
    included, and the anchor on the machine's current state — so the
    snapshot refcount cascade returns every record frame to the allocator
    (parentless records too, when captured [owns_image]).  Entries are
    visited in handle order, the anchor last.  Frames the machine
    acquired beyond its anchor are the driver's to discard first.  Every
    handle reads as released afterwards. *)

val snapshot_ids : t -> Snapshot.ids
(** The id allocator reconstruction captures under; drivers that capture
    into the store themselves must use it too, so ids stay unique per
    store. *)

val materialised : t -> Snapshot.t list
(** Live (tier-0) snapshots only. *)

val anchor : t -> Snapshot.t option
(** The record the machine's current state derives from (the store holds
    a ref on it). *)

val live_entries : t -> int
(** Entries not released. *)

val materialised_count : t -> int
