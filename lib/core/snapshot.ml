module As = Mem.Addr_space

type t = {
  id : int;
  regs : Vcpu.Cpu.saved;
  mem : As.snapshot;
  os : Os.Libos.os_state;
  parent : t option;
  depth : int;
  (* Explicit-release bookkeeping (see [release_ext]).  [ext_refs] counts
     frontier extensions (plus pins) that may still restore this snapshot;
     [child_refs] counts live child snapshots whose maps share our frames.
     Both are plain ints: a snapshot's refcounts are only ever mutated by
     the domain that owns it — single-threaded schedulers trivially, and
     the domains backend routes cross-domain releases through per-domain
     mailboxes back to the owner ([Parallel.Mailbox]). *)
  mutable ext_refs : int;
  mutable child_refs : int;
  mutable freed : bool;
  mutable adopted : bool;
      (* restored via [restore_adopting]: its frames now change in place,
         so restoring it again would observe the adopter's writes *)
  owns_image : bool;
      (* parentless, and every map that shares its frames is a descendant
         counted in [child_refs] — so its whole image dies with it *)
}

(* Snapshot ids are allocated per exploration run, not from a process-global
   counter: two runs (possibly concurrent — the domains backend captures
   from several domains at once) never share an allocator, and within a run
   the counter is atomic so captures racing across domains still get
   distinct ids. *)
type ids = int Atomic.t

let ids () = Atomic.make 0

let capture ~ids ?parent ?(owns_image = false) ~depth (machine : Os.Libos.t) =
  if owns_image && parent <> None then
    invalid_arg "Snapshot.capture: only a parentless snapshot owns its image";
  let id = Atomic.fetch_and_add ids 1 in
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:id
      ~b:(match parent with Some p -> p.id | None -> -1)
      Obs.Names.snap_capture;
  (match parent with Some p -> p.child_refs <- p.child_refs + 1 | None -> ());
  { id;
    regs = Vcpu.Cpu.save machine.cpu;
    mem = As.snapshot machine.aspace;
    os = Os.Libos.os_capture machine;
    parent;
    depth;
    ext_refs = 0;
    child_refs = 0;
    freed = false;
    adopted = false;
    owns_image }

let restore (machine : Os.Libos.t) t =
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:t.id Obs.Names.snap_restore;
  Vcpu.Cpu.load machine.cpu t.regs;
  As.restore machine.aspace t.mem;
  Os.Libos.os_restore machine t.os

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

let sole_extension t =
  t.ext_refs = 1 && t.child_refs = 0
  && (match t.parent with Some _ -> true | None -> false)
  && not t.freed && not t.adopted

let adopted t = t.adopted

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

let free_delta ~phys ~parent t =
  if t.freed then 0
  else begin
    t.freed <- true;
    As.release_snapshot ~phys ~parent:parent.mem t.mem
  end

let restore_adopting (machine : Os.Libos.t) t =
  match t.parent with
  | None -> invalid_arg "Snapshot.restore_adopting: snapshot has no parent"
  | Some p ->
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:t.id Obs.Names.snap_restore;
    Vcpu.Cpu.load machine.cpu t.regs;
    ignore (As.restore_adopt machine.aspace ~parent:p.mem t.mem);
    Os.Libos.os_restore machine t.os;
    t.adopted <- true

let pages t = As.snapshot_pages t.mem

let distinct_frames snaps = As.distinct_frames (List.map (fun s -> s.mem) snaps)

let delta_pages a b = As.delta_pages a.mem b.mem

let rec lineage t =
  t :: (match t.parent with None -> [] | Some p -> lineage p)
