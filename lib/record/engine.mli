(** Deterministic re-execution: the machine checkpoints and the
    no-overshoot fueled stepping that {!Replay}'s time-travel cursor drives
    with {!run_until_retired} over {!checkpoint}s. *)

exception Diverged of string
(** Replay departed from the recorded run: a stop fired where the original
    kept executing, or execution stalled without retiring instructions. *)

type checkpoint
(** A lightweight whole-machine checkpoint: the register file, an O(1)
    immutable address-space snapshot, and the persistent OS state — the
    same triple {!Core.Snapshot} wraps, minus the tree bookkeeping.  Valid
    for the machine it was taken from, indefinitely (the generation
    discipline in [Addr_space] keeps captured frames immutable). *)

val checkpoint : Os.Libos.t -> checkpoint
val restore : Os.Libos.t -> checkpoint -> unit

val run_until_retired : Os.Libos.t -> target:int -> Os.Libos.stop option
(** Run the guest until its retired-instruction counter reaches [target]
    (an absolute value of [cpu.retired]).  Fuel is granted in
    [target - retired] slices, so execution can never overshoot: an
    instruction costs one fuel and a page-fault service costs one more, so
    fuel always runs dry at or before the target retirement.  Returns
    [Some stop] when a non-fuel stop fires exactly at the target, [None]
    when the target is reached at a fuel boundary.
    @raise Diverged on a stop before the target, or if execution stalls. *)
