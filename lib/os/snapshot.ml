module As = Mem.Addr_space

type t = {
  id : int;
  regs : Vcpu.Cpu.saved;
  mem : As.snapshot;
  os : Libos.os_state;
  parent : t option;
  depth : int;
  lineage_length : int;  (* this snapshot and its ancestors *)
  (* Explicit-release bookkeeping (see [release_ext]).  [ext_refs] counts
     frontier extensions (plus pins) that may still restore this snapshot;
     [child_refs] counts live child snapshots whose maps share our frames.
     Both are plain ints: a snapshot's refcounts are only ever mutated by
     the domain that owns it — single-threaded schedulers trivially, and
     the domains backend routes a stolen entry's refs back to the owning
     domain, which releases them itself. *)
  mutable ext_refs : int;
  mutable child_refs : int;
  mutable freed : bool;
  owns_image : bool;
      (* parentless, and every map that shares its frames is a descendant
         counted in [child_refs] — so its whole image dies with it *)
}

(* Snapshot ids are allocated per exploration run, not from a process-global
   counter: two runs (possibly concurrent — each domain of the domains
   backend is one) never share an allocator. *)
type ids = int Atomic.t

let ids () = Atomic.make 0

let capture ~ids ?parent ?(owns_image = false) ~depth (machine : Libos.t) =
  if owns_image && parent <> None then
    invalid_arg "Snapshot.capture: only a parentless snapshot owns its image";
  let id = Atomic.fetch_and_add ids 1 in
  (match parent with Some p -> p.child_refs <- p.child_refs + 1 | None -> ());
  { id;
    regs = Vcpu.Cpu.save machine.cpu;
    mem = As.snapshot machine.aspace;
    os = Libos.os_capture machine;
    parent;
    depth;
    lineage_length =
      (match parent with Some p -> p.lineage_length + 1 | None -> 1);
    ext_refs = 0;
    child_refs = 0;
    freed = false;
    owns_image }

(* Freed from the start, so a stray release never reaches a map. *)
let none =
  { id = -1;
    regs = Vcpu.Cpu.save (Vcpu.Cpu.create ~entry:0);
    mem = As.empty_snapshot;
    os = Libos.initial_os;
    parent = None;
    depth = 0;
    lineage_length = 0;
    ext_refs = 0;
    child_refs = 0;
    freed = true;
    owns_image = false }

let restore (machine : Libos.t) t =
  Vcpu.Cpu.load machine.cpu t.regs;
  As.restore machine.aspace t.mem;
  Libos.os_restore machine t.os

(* {1 Explicit release}

   A snapshot is dead — its private frames reusable — exactly when no
   frontier extension can restore it any more ([ext_refs] = 0) and no child
   snapshot shares its frames ([child_refs] = 0).  Death cascades upward: a
   parent whose extensions all drained may only have been kept alive by
   us.  A root (no parent) frees its whole image only if it was captured
   [owns_image]; the schedulers' roots are not, because they restore them
   after exhaustion and capture later roots over the same frames.

   Failing to release leaks the frames (they stay counted live until the
   owner tears the whole session down), and releasing twice would free
   live frames — which is why every transition here is guarded. *)

let retain ?(n = 1) t = t.ext_refs <- t.ext_refs + n

let rec try_free ~phys t =
  if
    (not t.freed) && t.ext_refs <= 0 && t.child_refs = 0
  then
    match t.parent with
    | None ->
      if t.owns_image then begin
        t.freed <- true;
        ignore (As.release_image ~phys t.mem)
      end
    | Some p ->
      t.freed <- true;
      ignore (As.release_snapshot ~phys ~parent:p.mem t.mem);
      p.child_refs <- p.child_refs - 1;
      try_free ~phys p

let release_ext ~phys t =
  t.ext_refs <- t.ext_refs - 1;
  try_free ~phys t

let import ~ids ~root ~base (machine : Libos.t) t =
  restore machine root;
  ignore (As.import_delta machine.aspace ~base:base.mem ~target:t.mem);
  Vcpu.Cpu.load machine.cpu t.regs;
  Libos.os_restore machine t.os;
  capture ~ids ~parent:root ~depth:t.depth machine

let rec abandon ~phys ~keep t =
  if not t.freed then begin
    t.freed <- true;
    ignore (As.release_snapshot ~phys ~parent:keep t.mem);
    Option.iter (abandon ~phys ~keep) t.parent
  end

let pages t = As.snapshot_pages t.mem

let distinct_frames snaps = As.distinct_frames (List.map (fun s -> s.mem) snaps)

let delta_pages a b = As.delta_pages a.mem b.mem

let rec lineage t =
  t :: (match t.parent with None -> [] | Some p -> lineage p)
