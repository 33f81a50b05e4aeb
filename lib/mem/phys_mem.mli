(** Simulated physical memory: a frame allocator with generation ownership.

    A frame is one 4 KiB page of backing store plus the id of the
    address-space *generation* that owns it.  Ownership drives copy-on-write:
    a store through a mapping whose frame belongs to an older generation must
    first copy the frame (see {!Addr_space}).  A frame dies only through
    {!free_frame}, called by the explicit-release discipline of the layers
    above (snapshot refcounts, segment discard, tenant teardown) — the
    simulation's refcounted physical-page free list.  The live count is
    therefore exact: frames allocated minus frames freed. *)

type frame = private {
  id : int;
      (** unique stamp, never reused: space accounting and decode-cache
          keys (a frame of a retired generation never changes again — see
          {!Addr_space}) *)
  bytes : Bytes.t;          (** always {!Page.size} bytes *)
  owner : int;              (** generation allowed to write in place *)
  mutable freed : bool;     (** released via {!free_frame}; any further use
                                through a page map is a lifecycle bug *)
  mutable account : int;    (** session (tenant) the frame's live slot is
                                charged to; 0 = shared/unattributed *)
}

type t

exception Out_of_frames of { capacity : int; live : int }
(** Raised by {!alloc} when the frame capacity is exhausted and the
    pressure protocol could not reclaim anything, or when an injected
    allocation fault fires (see {!set_alloc_fault}).  Schedulers treat it
    as a recoverable per-path failure, not a crash. *)

val create : ?capacity:int -> ?poison:bool -> unit -> t
(** [capacity] (default 0 = unbounded) bounds the number of
    simultaneously-live frames.

    {!free_frame} keeps released page buffers on a LIFO stack for reuse,
    and full-page-overwrite allocations ({!alloc_copy}, {!alloc_data})
    skip the zero fill.  [poison] (default [false], testing only) fills
    released buffers with a recognizable byte immediately, so a frame
    freed while still reachable diverges loudly instead of silently; it
    also switches on [Core.Explorer]'s frame audit. *)

val registry : t -> Obs.Metrics.t
(** The memory's counters: every [mem.*] slot of {!Obs.Names}, counted
    here, by {!Addr_space} and by {!Ept}, and the [sys.*] spans of the
    libOS machines booted on it. *)

val metrics : t -> Mem_metrics.t
(** A view of {!registry}, built on each call. *)

(** {1 Frame budget and memory pressure} *)

val capacity : t -> int
(** The configured frame capacity; 0 means unbounded. *)

val frames_live : t -> int
(** Frames allocated and not yet released through {!free_frame}. *)

val peak_frames_live : t -> int
(** High-water mark of {!frames_live} — with a capacity set, never exceeds
    it: allocation fails rather than overshoot. *)

val pressure_events : t -> int
(** Times the pressure protocol ran (watermark crossings plus hard
    capacity hits): the [mem.pressure_events] slot. *)

val below_watermark : t -> bool
(** [true] when {!frames_live} sits below the pressure watermark (⅞ of
    capacity) — the pressure handler's stopping condition: once its
    explicit frees bring the count back under, shedding more payload
    buys nothing.  Always [false] on an unbounded allocator. *)

val set_pressure_handler : t -> (unit -> unit) option -> unit
(** The reclaimer invoked under memory pressure: at the high watermark
    (⅞ of capacity, once per excursion above it) and again before giving
    up at the hard capacity limit.  The handler should free reclaimable
    frames through {!free_frame} (e.g. demote snapshot payloads); the
    allocator then re-checks the live count.  Called from inside {!alloc},
    so it must not allocate frames itself. *)

val note_delta_bytes : t -> int -> unit
(** Adjust (signed) the count of demoted-snapshot delta bytes held in host
    memory by the tiered payload store.  Accounting only — the budget is
    reported next to the frame numbers, not charged against {!capacity}:
    in the substitution table the paper's reclaimed-snapshot store maps
    to host heap outside guest frame RAM. *)

val delta_bytes_held : t -> int
val peak_delta_bytes : t -> int

val set_alloc_fault : t -> (int -> bool) option -> unit
(** Deterministic fault injection: the callback is consulted with the
    would-be frame ordinal on every allocation attempt; returning [true]
    makes that attempt raise {!Out_of_frames}.  A retried allocation
    consults it again with the same ordinal, so single-shot plans must
    consume their trigger. *)

val zero_frame : t -> frame
(** The shared all-zeroes frame backing demand-zero mappings.  Its owner is a
    reserved generation that never matches a live one, so the first store
    always COWs it. *)

val alloc : ?account:int -> t -> owner:int -> frame
(** A fresh zero-filled frame owned by [owner] — genuine demand-zero
    materialisation, so a recycled buffer is re-zeroed here.  [account]
    (default 0 = unattributed) charges the frame's live slot to a session
    opened with {!fresh_account}. *)

val alloc_copy : t -> ?account:int -> owner:int -> frame -> frame
(** A fresh frame owned by [owner] whose contents copy the given frame; this
    is the COW-fault service path and is counted in the metrics.  The
    backing buffer is pooled or uninitialised (never zeroed): the blit
    overwrites every byte. *)

val alloc_data : t -> ?account:int -> owner:int -> string -> frame
(** A fresh frame holding [data] (at most a page) followed by zeroes.
    Only the tail beyond [data] is cleared. *)

val free_frame : t -> frame -> unit
(** Explicitly release a frame: its live slot is returned immediately and
    its buffer is pushed on the free-buffer stack (up to 4,096 buffers),
    whose top the next allocation takes.  The caller asserts no live page map, snapshot, or TLB can
    reach the frame any more — see {!Addr_space.release_snapshot} for the
    discipline that makes the assertion checkable.  Raises
    [Invalid_argument] on a double free or on the zero frame; shared
    frames must not be passed. *)

val audit :
  t -> reachable:((string -> frame -> unit) -> unit) -> (unit, string) result
(** The exact frame audit.  [reachable visit] calls [visit label f] on
    every frame of the caller's live state (page maps, snapshots); shared
    and dedup-table frames are added here.  Fails naming the first freed
    frame and its [label], else unless the distinct frames reached (the
    zero frame excluded) are exactly {!frames_live}: a leak. *)

val poisoning : t -> bool
val free_buffers : t -> int
(** Buffers currently pooled on the free-buffer stack. *)

val shared_page : t -> vpn:int -> frame option
(** Explicitly-shared frames are registered system-globally so that every
    address space over this physical memory resolves the same frame — how
    §3.1's "explicit sharing mechanisms" stay coherent across parallel
    workers.  While nothing is registered this returns [None] without a
    lookup, so a TLB miss on a memory that never shares costs no hashing;
    the shootdown below keys on {!share_epoch}, not on this probe. *)

val set_shared_page : t -> vpn:int -> frame -> unit
val clear_shared_page : t -> vpn:int -> unit
val shared_page_count : t -> int
val shared_vpns : t -> int list

val share_epoch : t -> int
(** Bumped on every sharing-registry change.  Address spaces invalidate
    stale translations when the epoch moves past the one they last
    observed — the simulated TLB shootdown that keeps sibling machines
    coherent when one of them shares (or tears down) a page the others had
    translated privately. *)

val share_changes_since : t -> seen:int -> f:(int -> unit) -> bool
(** Replay, oldest first, the vpn behind every sharing-registry change in
    epochs [(seen, share_epoch t]] through [f] and return [true] — the
    targeted shootdown: an address space that fell behind invalidates just
    those entries instead of wiping its whole TLB.  Returns [false]
    without calling [f] when [seen] is too far behind the bounded change
    ring, in which case the caller must fall back to a full flush. *)

val fresh_generation : t -> int
(** Monotonically increasing generation ids; generation 0 is reserved for
    the zero frame. *)

(** {1 Per-account (per-tenant) frame accounting}

    Accounts attribute live frames to the session that allocated them —
    the quantity a multi-tenant pool's per-tenant frame budgets are
    enforced against.  Account 0 is the shared pool and is never
    counted.  The counts are an [int] array indexed by account id, grown
    on the first charge past its end: charging or crediting a frame is
    one array store, and a memory whose frames all stay on account 0
    holds an empty array. *)

val fresh_account : t -> int
(** A fresh non-zero account id: 1, 2, 3… in order. *)

val account_frames_live : t -> int -> int
(** Frames charged to the account and not yet freed.  0 for account 0
    and for an id no frame was ever charged to. *)

val assert_quiescent : t -> unit
(** The leak check: raises [Failure] naming the live count and every
    account still charged, in increasing id order, unless no frame is
    live.  Holds once every session
    over the memory has been torn down (see [Core.Tenancy.kill]); frames
    registered with {!set_shared_page} are pool-lifetime and count as
    live. *)

(** {1 Content-addressed frame dedup}

    Hash-consed read-only frames shared across the address spaces (tenants)
    that boot the same guest image.  Deduped frames are owned by a reserved
    pseudo-generation that can never match a live one, so every store
    through a mapping of one raises a COW fault and copies it private — the
    same frame-generation discipline that makes snapshots sound makes this
    sharing invisible.  References are boot-lifetime: {!dedup_frame} takes
    one, {!Addr_space.drop_dedup_refs} gives them back at teardown, and the
    frame is freed when the last reference drains. *)

val dedup_frame : t -> string -> frame
(** The hash-consed frame holding [data] (at most a page, zero-padded),
    minting it on first sight; bumps the entry's refcount either way. *)

val dedup_unref : t -> frame -> unit
(** Drop one reference; frees the frame and its table entry at zero.
    Raises [Invalid_argument] if the frame is not a dedup-table entry. *)

val dedup_entries : t -> int
(** Distinct hash-consed frames currently in the table. *)

val dedup_refs : t -> int
(** Outstanding references over all entries; 0 once every address space
    that booted through the table has been torn down. *)

val next_frame_ordinal : t -> int
(** The ordinal the next allocated frame will carry — the value an
    injected allocation fault ({!set_alloc_fault}) is matched against,
    exposed so tests and benches can arm a fault for exactly the next
    allocation. *)
