module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module As = Mem.Addr_space
module Frontier = Search.Frontier

type terminal_kind =
  | Exit of int
  | Fail
  | Path_killed of string

type terminal = {
  kind : terminal_kind;
  output : string;
  depth : int;
}

(* An array slot per terminal, not a three-word list cell: a search's
   terminals live until it ends, so the result list is built only then. *)
let terminal_log () =
  Stdx.Vec.create ~capacity:64 ~dummy:{ kind = Fail; output = ""; depth = -1 } ()

type 'o t = {
  machine : Libos.t;
  phys : Mem.Phys_mem.t;
  refcount : bool;  (* the snapshot refcount discipline runs *)
  adopts : bool;    (* last restores adopt their snapshot's frames *)
  inj : Inject.t;
  armed : bool;     (* [inj] injects something *)
  transcript : Buffer.t option;
  terminals : terminal Stdx.Vec.t;  (* in completion order *)
  mutable marker : string list;  (* stdout harvest point *)
  mutable depth : int;
  mutable hint : int;            (* pending [sys_guess_hint] *)
  mutable base : Snapshot.t option;
  mutable origin : 'o option;
  mutable epoch : int;
      (* the address-space epoch right after the segment began; while it is
         current no capture has frozen the map, so everything acquired since
         is the segment's private COW tail.  -1 once that tail is freed. *)
  mutable retries : int;
}

let create ?(refcount = true) ?(inj = Inject.none) ?transcript
    ?(terminals = terminal_log ()) ?(owns_map = false) (machine : Libos.t) =
  let armed = not (Inject.is_none inj) in
  { machine;
    phys = As.phys machine.aspace;
    refcount;
    (* An adopting restore consumes the origin a crash retry restores from,
       and an armed plan can crash any path: adopting there would turn
       recoverable faults into quarantined paths. *)
    adopts = refcount && not armed;
    inj;
    armed;
    transcript;
    terminals;
    marker = Libos.stdout_chunks machine;
    depth = 0;
    hint = 0;
    base = None;
    origin = None;
    epoch = (if owns_map then As.epoch machine.aspace else -1);
    retries = 0 }

let machine t = t.machine
let depth t = t.depth
let live t = Option.is_some t.base

(* Counts the parent chain instead of building [Snapshot.lineage]: it runs
   on every branch. *)
let lineage_length t =
  let rec count n (s : Snapshot.t) =
    match s.parent with None -> n | Some p -> count (n + 1) p
  in
  match t.base with None -> 0 | Some s -> count 1 s

let harvest t =
  let cur = Libos.stdout_chunks t.machine in
  (* nothing written since the marker: most paths of a search end silent *)
  if cur == t.marker then ""
  else begin
    let rec collect acc l =
      if l == t.marker then acc
      else match l with [] -> acc | chunk :: rest -> collect (chunk :: acc) rest
    in
    let chunks = collect [] cur in
    t.marker <- cur;
    let text = String.concat "" chunks in
    (match t.transcript with Some b -> Buffer.add_string b text | None -> ());
    text
  end

(* Silent failures ([Fail] with no output) are most of the terminals of a
   typical search and live until it ends: share one immutable record per
   depth instead of allocating one per path.  The table only grows, each
   version fully built before it is published, so domains may share it. *)
let silent_fails : terminal array Atomic.t = Atomic.make [||]

let silent_fail depth =
  let table = Atomic.get silent_fails in
  let have = Array.length table in
  if depth < have then Array.unsafe_get table depth
  else begin
    let table =
      Array.init (max (depth + 1) (2 * have)) (fun d ->
          if d < have then table.(d) else { kind = Fail; output = ""; depth = d })
    in
    Atomic.set silent_fails table;
    table.(depth)
  end

let record ?depth t kind output =
  let depth = Option.value depth ~default:t.depth in
  let terminal =
    match kind with
    | Fail when output = "" && depth >= 0 -> silent_fail depth
    | Fail | Exit _ | Path_killed _ -> { kind; output; depth }
  in
  ignore (Stdx.Vec.push t.terminals terminal)

(* The machine was just restored to [snap]: a segment begins there.  The
   epoch is recorded before [graft] runs, so whatever a graft that fails
   half way mapped is freed as this segment's tail. *)
let begin_segment ?graft t snap ~rax =
  t.base <- Some snap;
  t.epoch <- As.epoch t.machine.aspace;
  Option.iter (fun g -> g ()) graft;
  t.marker <- Libos.stdout_chunks t.machine;
  t.hint <- 0;
  Cpu.set t.machine.cpu Reg.rax rax

let enter ?origin ?(retries = 0) ?graft t (stats : Stats.t) snap ~rax ~depth =
  (* set first: a crash during the restore or the graft is still this
     origin's, at this depth *)
  t.origin <- origin;
  t.retries <- retries;
  t.depth <- depth;
  if t.adopts && Snapshot.sole_extension snap then begin
    (* Last restore of this snapshot: adopt its frames into the new
       generation instead of COWing them all over again — the DFS
       tail-child fast path.  Running paths hold their refs until
       [retire], so this really is the last reference anywhere. *)
    Snapshot.restore_adopting t.machine snap;
    stats.adopting_restores <- stats.adopting_restores + 1
  end
  else Snapshot.restore t.machine snap;
  stats.restores <- stats.restores + 1;
  begin_segment ?graft t snap ~rax

let restore t snap ~rax ~depth =
  Snapshot.restore t.machine snap;
  t.depth <- depth;
  begin_segment t snap ~rax

let restart t ~root ~resolve =
  let snap, rax =
    match t.origin with
    | Some (ext : Ext.t) -> resolve ext, ext.index
    | None -> root, 1 (* the scope-opening path restarts exploring *)
  in
  restore t snap ~rax ~depth:t.depth;
  snap

let open_scope t (stats : Stats.t) ~ids =
  ignore (harvest t);
  Cpu.set t.machine.cpu Reg.rax 0;
  let root = Snapshot.capture ~ids ~depth:0 t.machine in
  stats.snapshots_created <- stats.snapshots_created + 1;
  if t.refcount then Snapshot.retain root;
  t.base <- Some root;
  t.epoch <- As.epoch t.machine.aspace;
  t.origin <- None;
  t.retries <- 0;
  t.depth <- 0;
  Cpu.set t.machine.cpu Reg.rax 1;
  root

let run ?a t ~fuel ~span =
  let m = t.machine in
  let fuel = if t.armed then Inject.jitter t.inj ~base:fuel else fuel in
  let res =
    if Obs.Trace.enabled () then begin
      let a =
        match a, t.base with
        | Some a, _ -> a
        | None, Some s -> s.Snapshot.id
        | None, None -> -1
      in
      let r0 = m.cpu.Cpu.retired in
      Obs.Trace.span_begin ~a span;
      let res = try Ok (Libos.run m ~fuel) with e -> Error e in
      Obs.Trace.span_end ~a ~b:(m.cpu.Cpu.retired - r0) span;
      (match res with
      | Ok stop -> Obs.Trace.instant (Libos.stop_trace_name stop)
      | Error _ -> ());
      res
    end
    else try Ok (Libos.run m ~fuel) with e -> Error e
  in
  match res with
  | Ok _ when t.armed -> ( try Inject.stop_tick t.inj; res with e -> Error e)
  | _ -> res

type event =
  | Terminal of terminal_kind
  | Branch of int
  | Hinted
  | Preempted
  | Scope of int

let reason_to_string r = Format.asprintf "%a" Libos.pp_reason r

let hinted t dist =
  t.hint <- dist;
  Cpu.set t.machine.cpu Reg.rax 0

let terminal t kind output =
  record t kind output;
  Terminal kind

let classify ?(preempt = false) t (stats : Stats.t) (stop : Libos.stop) =
  match stop with
  | Guess { n } when n > 0 ->
    ignore (harvest t);
    Branch n
  | Guess _ ->
    ignore (harvest t);
    stats.fails <- stats.fails + 1;
    terminal t Fail ""
  | Guess_fail ->
    let output = harvest t in
    stats.fails <- stats.fails + 1;
    terminal t Fail output
  | Guess_hint { dist } ->
    hinted t dist;
    Hinted
  | Guess_strategy { strategy } -> Scope strategy
  | Killed Fuel_exhausted when preempt -> Preempted
  | Exited { status } ->
    let output = harvest t in
    stats.exits <- stats.exits + 1;
    terminal t (Exit status) output
  | Killed reason ->
    let output = harvest t in
    stats.kills <- stats.kills + 1;
    terminal t (Path_killed (reason_to_string reason)) output

let capture t ~ids =
  Snapshot.capture ~ids ?parent:t.base ~owns_image:(Option.is_none t.base)
    ~depth:t.depth t.machine

let branch t (stats : Stats.t) ~ids ~n =
  let snap = capture t ~ids in
  stats.guesses <- stats.guesses + 1;
  stats.snapshots_created <- stats.snapshots_created + 1;
  stats.extensions_pushed <- stats.extensions_pushed + n;
  (* refs must exist before another worker can pop the extensions *)
  if t.refcount then Snapshot.retain ~n snap;
  let meta = { Frontier.depth = t.depth + 1; hint = t.hint } in
  t.hint <- 0;
  snap, meta

let outside t (stop : Libos.stop) =
  match stop with
  | Guess_strategy { strategy } -> `Scope strategy
  | Guess_hint { dist } ->
    hinted t dist;
    `Continue
  | Guess _ -> `Abort "sys_guess outside a strategy scope"
  | Guess_fail -> `Abort "sys_guess_fail outside a strategy scope"
  | Exited { status } ->
    ignore (harvest t);
    `Exit status
  | Killed reason ->
    ignore (harvest t);
    `Abort (reason_to_string reason)

let to_scope t =
  let rec go () =
    match outside t (Libos.run t.machine ~fuel:max_int) with
    | `Continue -> go ()
    | (`Scope _ | `Exit _ | `Abort _) as r -> r
  in
  go ()

let drain t stats ~root =
  (* the root was captured with 0 in rax: the scope's exhausted branch *)
  enter t stats root ~rax:0 ~depth:0;
  match to_scope t with
  | `Scope _ -> `Abort "second sys_guess_strategy scope"
  | (`Exit _ | `Abort _) as r -> r

let release t snap = if t.refcount then Snapshot.release_ext ~phys:t.phys snap

let evict t (stats : Stats.t) (frontier : Ext.t Frontier.t) =
  match frontier.evicted () with
  | [] -> ()
  | dropped ->
    stats.evicted <- stats.evicted + List.length dropped;
    (* Safe before restoring away: any snapshot on a running path's lineage
       is pinned by a live child or that path's unreleased ref. *)
    List.iter
      (fun (e : Ext.t) ->
        match e.payload with Snap s -> release t s | Ref _ -> ())
      dropped

let discard t =
  if As.epoch t.machine.aspace = t.epoch then begin
    (match t.base with
    | Some b -> ignore (As.discard_segment t.machine.aspace ~base:b.Snapshot.mem)
    | None -> ignore (As.discard_map t.machine.aspace));
    t.epoch <- -1
  end

let retire ?give_back t =
  discard t;
  (if t.refcount then
     match give_back, t.base with
     | Some f, _ -> f ()
     | None, Some b -> Snapshot.release_ext ~phys:t.phys b
     | None, None -> ());
  t.base <- None

let quarantine t (stats : Stats.t) ~budget e =
  if Obs.Trace.enabled () then Obs.Trace.instant Obs.Names.sched_quarantine;
  stats.quarantined <- stats.quarantined + 1;
  stats.kills <- stats.kills + 1;
  record t
    (Path_killed
       (Printf.sprintf "crash: %s (quarantined after %d attempts)"
          (Printexc.to_string e) budget))
    "";
  `Quarantined

let supervise t (stats : Stats.t) ~budget ~retry e =
  (* the crashed attempt's COW tail dies here, before any re-entry *)
  discard t;
  let adopted =
    match t.base with Some s -> Snapshot.adopted s | None -> false
  in
  if adopted || t.retries >= budget - 1 then quarantine t stats ~budget e
  else begin
    t.retries <- t.retries + 1;
    stats.requeues <- stats.requeues + 1;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:t.retries Obs.Names.sched_requeue;
    match retry () with
    | () -> `Retried
    | exception e' -> quarantine t stats ~budget e'
  end
