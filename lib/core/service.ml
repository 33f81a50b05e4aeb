module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg

type ref_ = Reclaim.handle

type t = {
  machine : Libos.t;
  store : Reclaim.t;
  (* the resume edge that leads to the next publish: (parent, choice,
     stdin).  [None] only before the first publish, whose snapshot is the
     pinned replay root. *)
  mutable pending : (ref_ * int * string option) option;
  (* the record the machine's state currently derives from; threaded as
     the parent of the next publish's capture so the store's explicit
     frame-free discipline sees the lineage *)
  mutable base_snap : Snapshot.t option;
  mutable segment_epoch : int;
      (* the address-space epoch right after the last restore (or boot);
         while it is still current no capture has frozen the map, and
         everything it acquired since is the segment's private COW tail —
         the precondition of [Addr_space.discard_segment].  -1 once that
         tail has been freed. *)
  mutable depth_next : int;
  fuel_per_step : int;
  mutable marker : string list;
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

let harvest t =
  let cur = Libos.stdout_chunks t.machine in
  let rec collect acc l =
    if l == t.marker then acc
    else match l with [] -> acc | chunk :: rest -> collect (chunk :: acc) rest
  in
  let chunks = collect [] cur in
  t.marker <- cur;
  String.concat "" chunks

let publish t =
  (* The first capture is the pinned root.  Every later map that shares
     its frames is captured with a parent, so the root may own its image. *)
  let snap =
    Snapshot.capture ~ids:(Reclaim.snapshot_ids t.store)
      ?parent:t.base_snap ~owns_image:(t.base_snap = None)
      ~depth:t.depth_next t.machine
  in
  t.base_snap <- Some snap;
  match t.pending with
  | None -> Reclaim.add_root t.store snap
  | Some (parent, choice, stdin) ->
    Reclaim.add t.store ~parent ~choice ?stdin ~depth:t.depth_next snap

let rec advance_unguarded t =
  match Libos.run t.machine ~fuel:t.fuel_per_step with
  | Libos.Guess { n } ->
    let output = harvest t in
    let candidate = publish t in
    Ready { candidate; arity = n; output }
  | Libos.Guess_fail -> Failed { output = harvest t }
  | Libos.Exited { status } -> Finished { status; output = harvest t }
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
    t.pending <- None;
    Crashed (Printf.sprintf "out of frames (capacity %d, live %d)" capacity live)

let boot ?(fuel_per_step = 50_000_000) ?capacity ?spill_threshold ?(files = [])
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
  let store = Reclaim.create ~fuel_per_step ?spill_threshold machine in
  if manage_pressure && Mem.Phys_mem.capacity phys > 0 then
    Mem.Phys_mem.set_pressure_handler phys
      (Some (Reclaim.pressure_handler store));
  let t =
    { machine;
      store;
      pending = None;
      base_snap = None;
      segment_epoch = Mem.Addr_space.epoch machine.Libos.aspace;
      depth_next = 0;
      fuel_per_step;
      marker = Libos.stdout_chunks machine;
      manages_pressure = manage_pressure;
      last_crash = None }
  in
  t, advance t

(* Free the COW tail of the last segment if no capture froze it (a step
   that failed, finished or crashed) — the same rule as the explorer's
   [discard_prev].  Must run before anything restores or rebuilds: a
   reconstruction clobbers the map, and the base's frames must still be
   pinned (the store's anchor is on [base_snap]).  Without a base, nothing
   was ever captured and the whole map is the session's. *)
let discard_tail t =
  let aspace = t.machine.Libos.aspace in
  if Mem.Addr_space.epoch aspace = t.segment_epoch then begin
    (match t.base_snap with
    | Some b -> ignore (Mem.Addr_space.discard_segment aspace ~base:b.Snapshot.mem)
    | None -> ignore (Mem.Addr_space.discard_map aspace));
    t.segment_epoch <- -1
  end

let resume t r ~choice ?stdin () =
  try
    discard_tail t;
    let snap = Reclaim.get t.store r in
    Snapshot.restore t.machine snap;
    t.segment_epoch <- Mem.Addr_space.epoch t.machine.Libos.aspace;
    t.base_snap <- Some snap;
    t.pending <- Some (r, choice, stdin);
    t.depth_next <- Reclaim.depth t.store r + 1;
    t.marker <- Libos.stdout_chunks t.machine;
    Cpu.set t.machine.cpu Reg.rax choice;
    Option.iter (Libos.set_stdin t.machine) stdin;
    advance t
  with Mem.Phys_mem.Out_of_frames { capacity; live } ->
    (* Promotion of the target candidate itself ran out of frames.  The
       store keeps the entry (its delta or skeleton is intact), so the
       same reference can be resumed again once pressure relents. *)
    t.last_crash <- None;
    t.pending <- None;
    Crashed (Printf.sprintf "out of frames (capacity %d, live %d)" capacity live)

let release t r = Reclaim.release t.store r

let depth t r = Reclaim.depth t.store r
let pages t r =
  (* a reconstruction clobbers the machine: retire the tail first *)
  discard_tail t;
  Snapshot.pages (Reclaim.get t.store r)
let live_candidates t = Reclaim.live_entries t.store

let distinct_frames t = Snapshot.distinct_frames (Reclaim.materialised t.store)

let evict_all t = Reclaim.evict_all t.store
let demote_all t = Reclaim.demote_all t.store
let candidate_tier t r = Reclaim.tier t.store r

let materialised_candidates t = Reclaim.materialised_count t.store
let payload_evictions t = Reclaim.evictions t.store
let demotions t = Reclaim.demotions t.store
let promotions t = Reclaim.promotions t.store
let spills t = Reclaim.spills t.store
let spill_loads t = Reclaim.spill_loads t.store
let replays t = Reclaim.replays t.store
let replay_fallbacks t = Reclaim.replay_fallbacks t.store

let machine t = t.machine
let phys t = Mem.Addr_space.phys t.machine.Libos.aspace
let last_crash_reason t = t.last_crash
let flush_spills t = Reclaim.flush_pending t.store

(* Allocation-free payload shedding for an external (pool-level) pressure
   handler: demote this session's candidates until the allocator is back
   below its watermark.  See [Reclaim.demote_under_pressure]. *)
let shed t = Reclaim.demote_under_pressure t.store

let teardown t =
  if t.manages_pressure && Mem.Phys_mem.capacity (phys t) > 0 then
    Mem.Phys_mem.set_pressure_handler (phys t) None;
  discard_tail t;
  Reclaim.release_all t.store;
  Reclaim.close t.store;
  Mem.Addr_space.drop_dedup_refs t.machine.Libos.aspace
