(** Candidate extension steps (§3.1): "simply a reference to their parent
    partial candidate and the extension number".  Deferred computation —
    nothing runs until a strategy schedules it.

    A guess's extensions share one frontier entry ({!t}): the parent, the
    range of extension numbers still to run, and their metadata. *)

type payload =
  | Snap of Os.Snapshot.t
      (** the parent partial candidate, held directly (or the scope root,
          as the origin of the scope-opening path, which is never on a
          frontier) *)
  | Ref of Reclaim.handle
      (** the parent held through a {!Reclaim} store, so its snapshot can
          be demoted to a page delta under memory pressure and promoted
          back when the extension is finally scheduled.  Each extension
          holds one of the entry's refs ({!Reclaim.add}), given back by
          {!Reclaim.release} as a [Snap]'s is by
          {!Os.Snapshot.release_ext}. *)

type t = payload Search.Frontier.entry
