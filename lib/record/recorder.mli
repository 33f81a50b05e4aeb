(** The recorder: accumulates a {!Log.t} while a live exploration runs.

    Attach it twice — {!probe} goes to [Core.Explorer.run ?probe] for the
    scheduler-boundary events, {!install} puts the ordinary-syscall hook
    on the machine — then run, then take {!log}.  Appends are per-segment
    and per-syscall, never per-instruction; each counts one
    [record.appends], traced as an instant (E13's cost rules). *)

type t

val create : ?fuel_per_step:int -> ?meta:string -> unit -> t
(** [fuel_per_step] (default 50M) must match the explorer's grant; it is
    stored in the log header.  [meta] is free-form provenance. *)

val probe : t -> Probe.t
val install : t -> Os.Libos.t -> unit
(** Install the ordinary-syscall hook on the machine about to be recorded
    (replaces any existing hook). *)

val events : t -> int
val log : t -> Log.t

val stop_code : Os.Libos.stop -> Log.stop
(** Render a live stop as its log representation (kill reasons become
    their pretty-printed strings).  Shared with the replayer's validator:
    a replayed stop matches iff its [stop_code] equals the recorded one. *)
