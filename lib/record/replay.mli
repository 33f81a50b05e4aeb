(** The time-travel cursor: deterministic replay of a recorded run with
    bidirectional seeking.

    The cursor boots a fresh machine from the bundle's image and re-drives
    it through the log.  Forward motion executes the guest for real and
    validates every segment against the record (stop identity, retired
    count, the ordinary-syscall stream) — replay isn't trusted, it is
    checked.  Backward motion is the paper's snapshot machinery pointed at
    time: restore the nearest ancestor anchor (a lightweight checkpoint
    dropped every [anchor_every] stops as the cursor first passes) and
    forward-execute, so [rstep]/[rcontinue] cost O(anchor interval) guest
    instructions, never a from-scratch rerun.

    Scheduler restores recorded as [Resume] events are replayed from a
    table of snapshots keyed by the recorded snapshot ids, re-captured
    as the cursor passes each [Capture] event; re-passing a capture
    replaces the entry with an equivalent snapshot, which the
    generation discipline makes sound.

    Anchors and recorded snapshots are {!Os.Snapshot}s under the release
    rule the schedulers follow: every capture is parented to the cursor's
    base (the snapshot it last captured or restored), the cursor and each
    table entry hold one extension ref, a replaced entry gives its ref
    back, and the segment the cursor leaves is discarded before every
    restore.  A re-executed stretch therefore frees the snapshots it
    replaces, and the frames a cursor holds stay bounded however often it
    moves.

    Positions sit on two axes: [time] (global retired-instruction index)
    and [stop_index] (scheduler stops completed).  A position is always
    "inside" a stop segment, after the boundary actions that started it.

    The cursor owns its memory, and counts its seeks and anchor restores
    ([replay.seeks], [replay.anchor_restores]) into that memory's
    registry beside the [mem.*] slots.

    After a {!Diverged} escape the cursor's machine state is
    unspecified; create a fresh cursor. *)

exception Diverged of string
(** Replay departed from the recorded run: a stop fired where the original
    kept executing, or execution stalled without retiring instructions. *)

type t

val create : ?anchor_every:int -> Bundle.t -> t
(** Boot and position the cursor at time 0.  [anchor_every] (default 8)
    is the stop-index spacing of reverse-seek anchors.
    @raise Invalid_argument if [anchor_every <= 0]. *)

(** {1 Position} *)

val time : t -> int
val total_time : t -> int
val stop_index : t -> int
val segments : t -> int
val at_end : t -> bool
val meta : t -> string
val machine : t -> Os.Libos.t
val current_stop : t -> Log.stop option
(** The recorded stop that ends the current segment ([None] on an empty
    log). *)

(** {1 Breakpoints} *)

type bp =
  | Bp_pc of int   (** halt when rip reaches this address *)
  | Bp_sys of int  (** halt after an ordinary syscall with this number *)
  | Bp_stop of int (** halt at the start of this stop segment *)

val add_bp : t -> bp -> int
val remove_bp : t -> int -> bool
val bps : t -> (int * bp) list

type halt =
  | Stopped         (** completed the requested motion *)
  | Break of int * bp  (** hit breakpoint [id] *)
  | End             (** reached the log boundary (end going forward,
                        start going backward) *)

(** {1 Motion}

    All motion validates against the record and raises {!Diverged}
    on any departure. *)

val step : t -> halt
val rstep : t -> halt
val continue : t -> halt
val rcontinue : t -> halt
val seek : t -> int -> halt
(** [seek t n] moves to absolute time [n] (clamped to [0, total_time]). *)

val seek_stop : t -> int -> halt
(** [seek_stop t k] moves to the start of stop segment [k]. *)

val read_mem : t -> addr:int -> len:int -> string option
(** Guest memory at the cursor, [None] if any byte is unmapped. *)

val audit : t -> (unit, string) result
(** {!Mem.Phys_mem.audit} of the cursor's memory: the frames its machine's
    map, its base, its anchors, its recorded snapshots and their unfreed
    ancestors reach must be exactly the live frames, none of them freed. *)
