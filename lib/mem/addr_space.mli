(** The production address-space backend: a persistent page map with
    generation-based copy-on-write.

    This module is the OCaml analogue of the paper's virtual-memory
    integration.  The page map (virtual page number -> frame) is a persistent
    Patricia trie, so a {e lightweight immutable snapshot} is captured in
    O(1) by grabbing the trie root and bumping the current generation.
    Stores check the owning generation of the target frame: a mismatch is a
    simulated COW page fault, serviced by copying exactly one 4 KiB frame —
    the same event the paper's nested-page-table implementation takes in
    hardware.  The copy goes into a bounded write set of the current
    generation's COWs and into the TLB, not into the trie: a COW costs the
    page copy, and the set is folded into the trie (a path copy per page)
    only at a capture, a seal, a full set, or a cold path that edits or
    walks the map.  A direct-mapped TLB sits in front of the write set and
    the trie and survives both capture and restore — the software analogue
    of a VPID/PCID-tagged TLB: capture is O(1) plus that fold and leaves
    the TLB alone, and restore is O(pages that differ), invalidating only
    the vpns the incoming map binds differently (with a full flush once
    that exceeds the TLB's size).  A segment discarded against the map it
    was restored to ({!discard_segment}) differs from it only by its write
    set: the discard frees those frames and puts the base's translations
    back in the TLB, so restoring the base again walks nothing. *)

type access = Read | Write

exception Page_fault of { addr : int; access : access }
(** Raised on access to an unmapped page; the libOS interposes on it. *)

type t

type snapshot
(** An immutable logical copy of the entire address space.  Its frames
    stay allocated until the owner returns them under the explicit
    lifecycle below — dropping the last reference alone frees nothing. *)

val create : Phys_mem.t -> t
val phys : t -> Phys_mem.t

(** {1 Mapping} *)

val map_zero : t -> vpn:int -> unit
(** Map a page as demand-zero (shared zero frame; first store COWs). *)

val map_shared : t -> vpn:int -> unit
(** Map a page as {e explicitly shared}: it is excluded from snapshots —
    writes hit the same frame on every path and survive restores.  This is
    the paper's "explicit sharing mechanisms between lightweight
    snapshots" (§3.1); the libOS exposes it as [sys_share].  The sharing
    registry lives in {!Phys_mem}, so every address space over the same
    physical memory resolves the same frame.  Remapping or unmapping the
    page removes the sharing {e for this address space only} — sibling
    machines keep theirs.  Like the registry itself, that removal sits
    outside the snapshot discipline and is not rolled back by restores. *)

val is_shared : t -> vpn:int -> bool

val map_data : t -> vpn:int -> string -> unit
(** Map a page initialised with up to {!Page.size} bytes of data. *)

val map_dedup : t -> vpn:int -> string -> unit
(** Map a page through the system-global content-addressed dedup table
    ({!Phys_mem.dedup_frame}): address spaces booting the same image
    resolve the same read-only frame, and the first store COWs it private
    under the ordinary generation discipline.  Takes a boot-lifetime
    reference on the deduped frame; {!drop_dedup_refs} returns them. *)

val drop_dedup_refs : t -> int
(** Return every dedup-table reference this space took via {!map_dedup}
    and report how many were dropped.  Call at teardown (or when undoing
    a partial boot); the map must not be accessed through those vpns
    afterwards unless the pages were COW'd private. *)

val set_account : t -> int -> unit
(** Charge every frame this space allocates from now on (COW copies,
    zero-fills, data maps) to the given {!Phys_mem.fresh_account} session;
    0 (the default) leaves allocations unattributed.  Raises
    [Invalid_argument] on a negative account. *)

val account : t -> int

val unmap : t -> vpn:int -> unit
(** Drop the page from this address space.  A frame the current
    generation owns (written since the last capture or restore) is freed on
    the spot: no snapshot can restore it. *)

val is_mapped : t -> vpn:int -> bool
val mapped_pages : t -> int

val mapped_vpns : t -> int list
(** Every mapped virtual page number (used by eager-copy baselines that
    must duplicate the whole address space). *)

(** {1 Access (byte-addressed, little-endian)} *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int
(** Note: the simulated machine's words are OCaml native ints (63-bit); the
    memory cell is still 8 bytes wide. *)

val write_u64 : t -> int -> int -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> string -> unit

(** {1 Snapshots} *)

val seal : t -> unit
(** Retire the current generation without capturing a snapshot: every
    currently-mapped frame becomes immutable-until-COW.  The libOS seals
    the address space after loading an image, mirroring how exec(2) maps
    text and data copy-on-write from the file — which also makes code
    pages eligible for the decoded-instruction cache from the first
    instruction. *)

val snapshot : t -> snapshot
(** O(1) plus folding the write set (at most 64 pages) into the map: grabs
    the map and retires the generation; the TLB is kept. *)

val restore : t -> snapshot -> unit
(** O(pages that differ): invalidates the TLB entries of the vpns the
    snapshot binds differently from the current map, and of the pages in
    a write set no discard emptied. *)

val empty_snapshot : snapshot
(** A snapshot of no pages, taken of no address space: a placeholder that
    is never restored or released. *)

val snapshot_id : snapshot -> int
val snapshot_pages : snapshot -> int

val distinct_frames : snapshot list -> int
(** Number of physical frames backing the union of the given snapshots —
    the space-accounting measure behind the paper's "space-efficient parent
    relationship" claim (shared pages are counted once). *)

val delta_pages : snapshot -> snapshot -> int
(** Pages whose backing frame differs between two snapshots; proportional to
    COW activity between them, not to address-space size. *)

val generation : t -> int
val snapshot_map_for_debug : snapshot -> Phys_mem.frame Stdx.Ptmap.t

val iter_frames : t -> (Phys_mem.frame -> unit) -> unit
(** Every frame the current map binds (the frame audit's walk). *)

(** {1 Explicit frame lifecycle}

    {!Phys_mem.free_frame} is the only way a frame dies; these entry
    points are how the layers above call it, feeding {!Phys_mem}'s buffer
    free list so the COW fault path stops allocating in steady state.
    Most operate on a {e delta}: the frames a map acquired relative to a
    base it was derived from.  Under the generation discipline those frames are private to the
    one execution path between the two maps, which is what makes eager
    reclamation sound — provided the caller really holds the last
    reference (see the refcount discipline in [Os.Snapshot]). *)

val epoch : t -> int
(** Bumped on every [snapshot], [restore] and [seal].  A caller that
    restored a base and observes the epoch unchanged knows no snapshot has
    grabbed the map since, so everything acquired in between is segment-
    private (the precondition of {!discard_segment}). *)

val release_snapshot : phys:Phys_mem.t -> parent:snapshot -> snapshot -> int
(** [release_snapshot ~phys ~parent s] returns the frames [s] acquired since
    [parent] to the allocator and reports how many were freed.  Sound only
    once [s] is dead: off the frontier, every descendant already released,
    and the current map restored away from its branch.  The zero frame,
    explicitly-shared frames and dedup-table frames are skipped; frames
    [parent] still references (pages unmapped in [s]) are kept. *)

val discard_segment : t -> base:snapshot -> int
(** Free what the current map acquired since [base] was restored — the COW
    tail of a finished path segment that no capture froze.  Requires
    {!epoch} unchanged since that restore, and the caller must restore
    another snapshot immediately after, before any access through the
    now-dangling map.  When the segment only COW'd pages (the map is still
    [base]'s), it frees the write set and walks no trie. *)

val release_image : phys:Phys_mem.t -> snapshot -> int
(** {!release_snapshot} for a snapshot with no parent (a boot image, a
    full-image rebuild): every private frame of its map is returned.  Sound
    only when no other map was derived from it without the caller knowing
    — the owner asserts every descendant is already dead. *)

val discard_map : t -> int
(** {!discard_segment} against the empty map: free every private frame
    the current map holds.  For a map no capture ever froze (a session
    torn down before its first snapshot, a full-image rebuild that failed
    half way); the same no-access-afterwards rule applies. *)

val import_delta : t -> base:snapshot -> target:snapshot -> int
(** Rebuild in this address space the page delta between two snapshots a
    {e sibling} address space captured over the same logical root
    contents: map a private copy of every frame [target] holds beyond
    [base] and unmap every vpn [target] dropped; returns the number of
    pages touched.  The caller must have just restored its own replica of
    [base]'s logical state, and the producing side must guarantee the
    delta frames stay immutable for the duration of the call (queued
    snapshot references pin them — see the Domains backend in
    [Core.Parallel]). *)

(** {1 Byte-level deltas}

    Where the explicit-lifecycle entry points free a delta's
    {e frames}, these read its {e contents}.  The result is pure data —
    no frames — so it stays valid however long it is retained and
    survives the parent being freed, rematerialised or replayed: snapshot
    contents are logically deterministic, so a byte delta recorded
    against one materialisation applies equally to any later rebuild.
    Reading frame bytes allocates no frames, which is what lets the
    tiered payload store ([Core.Reclaim]) demote snapshots from inside
    the allocator's pressure handler. *)

val snapshot_delta :
  parent:snapshot -> snapshot -> (int * string) list * int list
(** [snapshot_delta ~parent s] is [(pages, dead)]: the [(vpn, contents)]
    of every page whose backing differs between [parent] and [s], plus
    the vpns [s] unmapped.  Explicitly-shared pages live outside snapshot
    maps and never appear. *)

val snapshot_contents : snapshot -> (int * string) list
(** The full private image of a snapshot — a delta against the empty
    map.  Used when demoting a snapshot with no materialised ancestor. *)

val restore_pages :
  t -> base:snapshot option -> pages:(int * string) list -> dead:int list -> unit
(** Rebuild a snapshot's logical state from a byte delta: restore [base]
    ([None] wipes the private map — the full-image case), then map each
    page of [pages] and unmap each vpn of [dead].  All-zero pages map
    through the shared zero frame, preserving demand-zero sharing.  The
    caller must capture immediately after to freeze the result. *)

(** {1 Operation tracing}

    A recorder for the state-changing operations applied to this address
    space, rich enough to replay the same trace against another MMU backend
    ({!Ept}) and compare the resulting memory images — the mechanism behind
    the differential-fuzzing oracle and the E8-style equivalence checks.
    Reads are not recorded.  With no sink installed the cost is one branch
    per mutating operation. *)

type trace_op =
  | T_map_zero of int                (** vpn *)
  | T_map_data of int * string       (** vpn, initial contents *)
  | T_map_shared of int              (** vpn *)
  | T_unmap of int                   (** vpn *)
  | T_write_u8 of int * int          (** addr, value *)
  | T_write_u64 of int * int         (** addr, value *)
  | T_write_bytes of int * string    (** addr, data *)
  | T_seal
  | T_snapshot of int                (** the captured snapshot's id *)
  | T_restore of int                 (** id of the snapshot restored *)

val set_trace : t -> (trace_op -> unit) option -> unit
(** Install (or remove) the trace sink.  Each mutating operation is
    reported exactly once, after it succeeds — an operation that raises
    {!Page_fault} records nothing. *)

val reading_frame : t -> int -> Phys_mem.frame
(** TLB-backed resolution of the frame backing a byte address (the fetch
    path of the interpreter).  A frame whose [owner] is not the current
    {!generation} is immutable until COW'd, which callers may exploit for
    caching. @raise Page_fault when unmapped. *)

val last_cows_include : t -> int -> bool
(** [last_cows_include t vpn] holds when one of the last two pages the
    current generation COW'd is [vpn].  A store COWs at most two pages, so
    right after a store that COW'd [vpn] it holds; it may hold otherwise
    too.  The interpreter asks it after a fused store, and translates its
    code page again only when it holds. *)

val immutable_frame : t -> addr:int -> (int * Bytes.t) option
(** [Some (frame_id, bytes)] when the page backing [addr] is owned by a
    retired generation and therefore can never change in place (any write
    COWs it into a fresh frame with a fresh id).  This is what makes
    decoded-instruction caches sound: a cache keyed by frame id needs no
    invalidation.  [None] while the frame is still writable in place. *)

val frame_is_immutable : t -> Phys_mem.frame -> bool
(** Whether a frame already resolved (e.g. via {!reading_frame}) can never
    change in place under this address space: it is owned neither by the
    current generation nor by the explicit-sharing pseudo-generation
    (shared pages are written in place on every path, so they must never
    be decode- or block-cached).  The predicate the interpreter's decode
    and superinstruction caches gate on. *)
