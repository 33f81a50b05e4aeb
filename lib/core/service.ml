module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg

type ref_ = Reclaim.handle

type t = {
  machine : Libos.t;
  metrics : Obs.Metrics.t;  (* the session's, which its store counts into *)
  store : Reclaim.t;
  (* the candidate the next publish extends.  No parent (-1) only before
     the first publish, whose snapshot is the pinned root, and after a
     crash. *)
  mutable parent : ref_;
  path : Path.t;
      (* the stdout marker, the segment epoch, and the record the
         machine's state derives from — threaded as the parent of the next
         publish's capture, so the store's explicit frame-free discipline
         sees the lineage; its depth is the next publish's *)
  fuel_per_step : int;
  manages_pressure : bool;
  mutable last_crash : Libos.reason option;
      (* set by the [Killed] arm of [advance]; [None] after a [Crashed]
         produced by allocation failure — how a pool distinguishes a
         deadline kill from a frame-budget trip *)
}

type outcome =
  | Ready of { candidate : ref_; arity : int; output : string }
  | Finished of { status : int; output : string }
  | Failed of { output : string }
  | Crashed of string

(* The first capture is the pinned root, owning its image: every later map
   that shares its frames is captured with a parent.  [advance] publishes
   at most once per step and every step after the first starts with a
   restore, so the path's base is the published record's parent. *)
let publish t =
  let snap = Path.capture t.path ~ids:(Reclaim.snapshot_ids t.store) in
  if t.parent < 0 then Reclaim.add_root t.store snap
  else
    Reclaim.add t.store ~parent:t.parent ~depth:(Path.depth t.path) ~refs:1
      snap

let rec advance_unguarded t =
  match Libos.run t.machine ~fuel:t.fuel_per_step with
  | Libos.Guess { n } ->
    let output = Path.harvest t.path in
    let candidate = publish t in
    Ready { candidate; arity = n; output }
  | Libos.Guess_fail -> Failed { output = Path.harvest t.path }
  | Libos.Exited { status } -> Finished { status; output = Path.harvest t.path }
  | Libos.Guess_hint _ ->
    Cpu.set t.machine.cpu Reg.rax 0;
    advance_unguarded t
  | Libos.Guess_strategy _ ->
    (* A service-driven guest needs no internal strategy; accept and move
       on so the same binaries run under both drivers. *)
    Cpu.set t.machine.cpu Reg.rax 1;
    advance_unguarded t
  | Libos.Killed reason ->
    t.last_crash <- Some reason;
    Crashed (Format.asprintf "%a" Libos.pp_reason reason)

(* Contain allocation failure: a frame-budget trip mid-run (capacity
   exhausted, or an injected fault from [lib/inject]) crashes THIS session
   only.  Published candidates are untouched — their frames belong to
   retired generations and are never written in place, so whatever the
   half-finished step did to the current map cannot reach them; the next
   resume of any reference restores a snapshot and never looks at the
   machine state left behind here. *)
let advance t =
  try advance_unguarded t
  with Mem.Phys_mem.Out_of_frames { capacity; live } ->
    t.last_crash <- None;
    t.parent <- -1;
    Crashed (Printf.sprintf "out of frames (capacity %d, live %d)" capacity live)

let boot ?(fuel_per_step = 50_000_000) ?capacity ?(files = [])
    ?stdin ?phys ?(manage_pressure = true) ?(dedup = false) ?(account = 0)
    image =
  let phys =
    match phys with
    | Some p -> p
    | None -> Mem.Phys_mem.create ?capacity ()
  in
  let machine = Libos.boot ~dedup ~account phys image in
  List.iter (fun (path, content) -> Libos.add_file machine ~path content) files;
  Option.iter (Libos.set_stdin machine) stdin;
  let metrics = Obs.Metrics.create () in
  let store = Reclaim.create ~metrics machine in
  if manage_pressure && Mem.Phys_mem.capacity phys > 0 then
    Mem.Phys_mem.set_pressure_handler phys
      (Some (Reclaim.pressure_handler store));
  let t =
    { machine;
      metrics;
      store;
      parent = -1;
      (* before any capture the whole map is the session's own segment *)
      path = Path.create ~owns_map:true machine;
      fuel_per_step;
      manages_pressure = manage_pressure;
      last_crash = None }
  in
  t, advance t

let resume t r ~choice ?stdin () =
  try
    ignore (Path.resume t.path t.store r ~rax:choice);
    t.parent <- r;
    Option.iter (Libos.set_stdin t.machine) stdin;
    advance t
  with Mem.Phys_mem.Out_of_frames { capacity; live } ->
    (* Promotion of the target candidate itself ran out of frames.  The
       store keeps the entry (its delta is intact), so the same reference
       can be resumed again once pressure relents. *)
    t.last_crash <- None;
    t.parent <- -1;
    Crashed (Printf.sprintf "out of frames (capacity %d, live %d)" capacity live)

let release t r = Reclaim.release t.store r

let depth t r = Reclaim.depth t.store r
let pages t r =
  (* The store re-anchors on the record it returns, so restore it as a
     resume does: the machine then derives from the anchor, and a release
     of the record it derived from before cannot free frames its map still
     names.  The next resume restores its own candidate anyway. *)
  Os.Snapshot.pages (Path.resume t.path t.store r ~rax:0)
let live_candidates t = Reclaim.live_entries t.store

let distinct_frames t = Os.Snapshot.distinct_frames (Reclaim.materialised t.store)

let demote_all t = Reclaim.demote_all t.store

let materialised_candidates t = Reclaim.materialised_count t.store
let metrics t = t.metrics
let demotions t = Obs.Metrics.get t.metrics Obs.Names.reclaim_demotions
let promotions t = Obs.Metrics.get t.metrics Obs.Names.reclaim_promotions
let replays _ = 0

let machine t = t.machine
let store t = t.store
let phys t = Mem.Addr_space.phys t.machine.Libos.aspace
let last_crash_reason t = t.last_crash

(* Allocation-free payload shedding for an external (pool-level) pressure
   handler: demote this session's candidates until the allocator is back
   below its watermark.  See [Reclaim.demote_under_pressure]. *)
let shed t = Reclaim.demote_under_pressure t.store

let teardown t =
  if t.manages_pressure && Mem.Phys_mem.capacity (phys t) > 0 then
    Mem.Phys_mem.set_pressure_handler (phys t) None;
  Path.discard t.path;
  Reclaim.release_all t.store;
  Mem.Addr_space.drop_dedup_refs t.machine.Libos.aspace
