type payload =
  | Root
  | Snap of Snapshot.t
  | Ref of Reclaim.handle

type t = payload Search.Frontier.entry
