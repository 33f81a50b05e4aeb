(** Externally-controlled search (§3.1, §3.2): clients hold opaque
    references to partial candidates and decide which extension of which
    candidate runs next.

    This implements the paper's multi-path incremental solver service: the
    guest is a single-path program; whenever it calls [sys_guess(n)] it
    publishes a choice point.  The service captures the lightweight
    snapshot, hands the client an opaque reference, and the client later
    resumes {e any} published reference with a chosen extension number (and
    optionally fresh stdin for the guest to read its next request from).
    Solving [p] then [p ∧ q] incrementally is: resume the reference
    obtained after solving [p].

    Candidates live in a tiered {!Reclaim} store: under memory pressure
    (a bounded physical memory, or an explicit {!demote_all}) their
    snapshot payloads are demoted to dirty-page deltas held in host memory
    and promoted back by applying them on the next resume — the
    immutability guarantee of {!resume} survives the round trip. *)

type t

type ref_
(** Opaque reference to a published partial candidate. *)

type outcome =
  | Ready of { candidate : ref_; arity : int; output : string }
      (** the guest called [sys_guess(arity)] — a new choice point *)
  | Finished of { status : int; output : string }
  | Failed of { output : string }     (** the guest called [sys_guess_fail] *)
  | Crashed of string
      (** the guest was killed (fault, fuel/deadline, denied syscall) or an
          allocation failed mid-step.  The session's published candidates
          remain resumable either way — see {!last_crash_reason} to
          classify. *)

val boot :
  ?fuel_per_step:int ->
  ?capacity:int ->
  ?files:(string * string) list ->
  ?stdin:string ->
  ?phys:Mem.Phys_mem.t ->
  ?manage_pressure:bool ->
  ?dedup:bool ->
  ?account:int ->
  Isa.Asm.image ->
  t * outcome
(** Boot the guest and run it to its first choice point (or completion).
    [capacity] bounds the physical frame budget; under pressure the store
    demotes candidate payloads to page deltas rather than failing
    allocations.

    The multi-tenant knobs: [phys] boots onto an {e existing} physical
    memory instead of creating a private one ([capacity] is then ignored —
    the pool already chose it); [manage_pressure:false] leaves the
    allocator's pressure handler alone so a pool can install its own
    cross-session policy (see [Core.Tenancy]); [dedup] maps image pages
    through the content-addressed table so same-image sessions share
    read-only frames; [account] charges the session's frames to a
    {!Mem.Phys_mem.fresh_account} for per-tenant budgeting. *)

val resume : t -> ref_ -> choice:int -> ?stdin:string -> unit -> outcome
(** Restore the candidate's snapshot (promoting it if its payload was
    demoted), deliver [choice] as the guess result (and replace
    the guest's stdin if given), and run to the next event.  A reference
    stays valid until released and can be resumed any number of times —
    that is the immutability guarantee.  The previous step's uncaptured
    COW tail (a failed, finished or crashed path) is freed first. *)

val release : t -> ref_ -> unit
(** Drop a published candidate.  The client is its one holder
    ({!Reclaim.add} with one ref), so this is the store's release rule at
    its last holder: the snapshot payload is discarded (frames are
    reclaimed once no other candidate shares them) — once no other
    candidate's delta is based on it, and never for the first candidate,
    which stays until {!teardown}.  Resuming a released reference raises
    [Invalid_argument]; releasing it again does nothing. *)

val depth : t -> ref_ -> int

val pages : t -> ref_ -> int
(** Pages in the candidate's snapshot (promotes it if demoted).  Frees the
    last step's uncaptured tail and leaves the machine restored to the
    candidate, as {!resume} does before it runs. *)

val live_candidates : t -> int
(** Published candidates not yet released. *)

val distinct_frames : t -> int
(** Physical frames backing all {e materialised} candidates together. *)

val demote_all : t -> int
(** Demote every live candidate payload to its page delta; returns
    the number demoted. *)

val materialised_candidates : t -> int

val metrics : t -> Obs.Metrics.t
(** The session's registry: its store's [reclaim.*] counts.  Its [mem.*]
    slots read 0: a session does not own its memory, so it never adds the
    memory's own events. *)

val demotions : t -> int
val promotions : t -> int
(** [reclaim.demotions] and [reclaim.promotions]. *)

val replays : t -> int
(** Always 0: the store reconstructs by promotion alone and never
    re-executes guest code.  Kept for the repo benchmark, which reports
    it. *)

val machine : t -> Os.Libos.t
val phys : t -> Mem.Phys_mem.t

val store : t -> Reclaim.t
(** The session's candidate store, for inspection (a frame audit reads its
    anchor and live payloads); drive the session through this interface,
    not through the store. *)

val last_crash_reason : t -> Os.Libos.reason option
(** After a [Crashed] outcome: [Some reason] when the guest was killed
    (e.g. [Fuel_exhausted] for a deadline trip), [None] when an allocation
    failed ([Out_of_frames] — capacity exhausted or an injected fault).
    Meaningless before the first crash. *)

val shed : t -> int
(** Demote this session's live candidate payloads until the allocator
    drops below its pressure watermark — allocation-free, safe inside a
    {!Mem.Phys_mem} pressure handler.  The hook a multi-tenant pool's
    two-level pressure policy is built on: shed the offender first, then
    siblings.  Returns the number demoted. *)

val teardown : t -> int
(** Retire the session and return every frame it holds: the uncaptured
    tail of its last step, every candidate payload (the pinned root
    included), the store's anchor, and its dedup-table
    references (see {!Mem.Addr_space.drop_dedup_refs}); reports how many
    dedup references were dropped.  Also uninstalls the pressure handler
    this session installed (if it manages one).  Counters stay readable;
    every candidate reads as released and the machine must not run
    again. *)
