(** Candidate extension steps (§3.1): "simply a reference to their parent
    partial candidate and the extension number".  Deferred computation —
    nothing runs until a strategy schedules it.

    A guess's extensions share one frontier entry ({!t}): the parent, the
    range of extension numbers still to run, and their metadata. *)

type payload =
  | Root
      (** the scope root: the origin of the scope-opening path, which a
          crash retry restores with 1 in [rax].  Never on a frontier. *)
  | Snap of Snapshot.t
      (** the parent partial candidate, held directly *)
  | Ref of Reclaim.handle
      (** the parent held through a {!Reclaim} store, so its snapshot can
          be evicted under memory pressure and rebuilt by replay when the
          extension is finally scheduled *)

type t = payload Search.Frontier.entry
