type payload =
  | Snap of Os.Snapshot.t
  | Ref of Reclaim.handle

type t = payload Search.Frontier.entry
