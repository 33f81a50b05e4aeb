(** Tiered snapshot storage: shed payloads under pressure by demoting
    them to deltas, not by forgetting them (§2).

    The paper asks that snapshots have memory-management capabilities.
    This module is that layer, as a store of published snapshots whose
    payloads move between two tiers instead of vanishing:

    - {e tier 0} — the live snapshot; its page map pins physical frames.
    - {e tier 1} — a dirty-page delta against the nearest still-live
      ancestor, raw page copies held in host memory (accounted via
      {!Mem.Phys_mem.note_delta_bytes}).  {!demote} moves 0 → 1; it only
      copies page bytes out, so it is allocation-free with respect to
      frames, and fast enough for the allocator's pressure handler.

    {!get} on a demoted entry {e promotes}, the one reconstruction:
    materialise the delta's base (recursively), restore its page map,
    apply the byte delta, load the saved registers and OS state, capture —
    zero guest instructions.  Its memory events count in the memory's
    registry like any other.

    A delta's base must be reconstructible for as long as the delta
    exists, so a released entry keeps its payload (live or delta) while
    any delta is based on it, and stays a pressure victim meanwhile.  It
    drops the payload once the last such delta has been promoted or
    dropped, and that drop releases its own base in turn.  Roots are
    pinned: the pressure policy never picks them, and a released root
    keeps its payload until {!release_all}. *)

type handle = int

type t

val create : metrics:Obs.Metrics.t -> Os.Libos.t -> t
(** The machine is the reconstruction vehicle: promotion restores onto
    it.  [metrics] is the owner's registry: the store counts its
    [reclaim.*] events into it.  Callers must treat machine state as
    clobbered across {!get} (every driver restores a snapshot right
    after, so this is free). *)

val add_root : t -> Snapshot.t -> handle
(** Register a pinned root. *)

val add : t -> parent:handle -> depth:int -> Snapshot.t -> handle
(** Register a snapshot captured below [parent]'s materialisation. *)

val get : t -> handle -> Snapshot.t
(** The entry's snapshot, promoted from its delta if not live.
    @raise Invalid_argument on an unknown or released handle. *)

val depth : t -> handle -> int

val tier : t -> handle -> int
(** 0 live, 1 in-memory delta.
    @raise Invalid_argument on an unknown handle or a released one whose
    payload has been dropped. *)

val release : t -> handle -> unit
(** Refuse future {!get}s and drop the payload, unless a delta is based
    on it (see above) or the entry is a root. *)

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

val demote_under_pressure : t -> int
(** The pressure policy: demote live non-pinned payloads — deepest first,
    least-recently-resumed first among equals (no two entries share a
    last use, so the order is total) — until the allocator's
    live count drops back below its watermark (at least one victim; every
    victim when the explicit frees never clear the mark).  Returns the
    number demoted.  Safe to call from a {!Mem.Phys_mem} pressure
    handler: it copies bytes out of frames but never allocates frames. *)

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
