module Ptmap = Stdx.Ptmap

type access = Read | Write

exception Page_fault of { addr : int; access : access }

(* Direct-mapped TLB.  Entries cache vpn -> frame for the current page map
   (plus the shared registry and the write set); they stay valid across
   stores (COW updates the entry in place) and across capture, which
   changes no translation.  A restore invalidates only the vpns the
   incoming map binds differently — the software analogue of a
   VPID/PCID-tagged TLB. *)
let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

(* Capacity of the write set (see [cow]): a segment that COWs more pages
   than this folds the set into the trie and starts a new one. *)
let ws_cap = 64

(* Frames with this owner are explicitly shared: never COW'd, excluded
   from snapshots (they live in [shared], not in the snapshot map). *)
let shared_owner = -1

type trace_op =
  | T_map_zero of int
  | T_map_data of int * string
  | T_map_shared of int
  | T_unmap of int
  | T_write_u8 of int * int
  | T_write_u64 of int * int
  | T_write_bytes of int * string
  | T_seal
  | T_snapshot of int
  | T_restore of int

type t = {
  phys : Phys_mem.t;
  metrics : Obs.Metrics.t;  (* the memory's registry *)
  mutable map : Phys_mem.frame Ptmap.t;
  mutable gen : int;
  tlb_vpn : int array;                     (* -1 = invalid *)
  mutable tlb_frame : Phys_mem.frame array;
  mutable tlb_budget : int;
      (* invalidations [tlb_switch] may still make before it gives up and
         flushes; lives here so the diff walk allocates nothing *)
  mutable next_snap_id : int;
  mutable seen_share_epoch : int;
      (* the sharing-registry epoch this space last observed; a mismatch in
         [lookup] means a sibling machine changed the registry since our
         TLB entries were filled, so they must be shot down before use *)
  mutable shared_hidden : unit Ptmap.t;
      (* shared vpns this address space has unmapped.  The registry in
         [phys] is system-global, so an unmap must hide the page from this
         space only — clearing the registry entry would destroy the page
         for every other machine booted on the same physical memory.  Like
         the registry itself, the hidden set sits outside the snapshot
         discipline: restores do not roll it back. *)
  mutable trace : (trace_op -> unit) option;
      (* operation recorder for differential replay; [None] in production *)
  mutable account : int;
      (* session (tenant) every frame this space allocates is charged to;
         0 = unattributed.  See {!Phys_mem.fresh_account}. *)
  mutable dedup_held : Phys_mem.frame list;
      (* boot-lifetime references into the phys dedup table taken by
         [map_dedup]; returned wholesale by [drop_dedup_refs] at teardown *)
  ws_vpn : int array;
  ws_frame : Phys_mem.frame array;
  ws_displaced : Phys_mem.frame array;
  mutable ws_len : int;
      (* The write set: entry [k < ws_len] is a page the current generation
         COW'd, its private frame, and the frame the COW displaced.  [map]
         still binds [ws_vpn.(k)] to [ws_displaced.(k)]; the set overrides
         it.  A vpn is in the set at most once (its frame is private after
         the COW), and [map] is never edited while the set is not empty:
         every edit folds the set in first ([fold_writes]). *)
  mutable epoch : int;
      (* bumped on every capture, restore and seal.  A caller that restored
         a snapshot and sees the epoch unchanged knows no other map has
         grabbed frames since: everything the map acquired in between is
         private to the segment and safe to discard (see
         [discard_segment]). *)
}

type snapshot = { snap_id : int; snap_map : Phys_mem.frame Ptmap.t }

let create phys =
  let zero = Phys_mem.zero_frame phys in
  { phys;
    metrics = Phys_mem.registry phys;
    map = Ptmap.empty;
    gen = Phys_mem.fresh_generation phys;
    tlb_vpn = Array.make tlb_size (-1);
    tlb_frame = Array.make tlb_size zero;
    tlb_budget = 0;
    next_snap_id = 0;
    seen_share_epoch = Phys_mem.share_epoch phys;
    shared_hidden = Ptmap.empty;
    trace = None;
    account = 0;
    dedup_held = [];
    ws_vpn = Array.make ws_cap (-1);
    ws_frame = Array.make ws_cap zero;
    ws_displaced = Array.make ws_cap zero;
    ws_len = 0;
    epoch = 0 }

let set_trace t sink = t.trace <- sink

let record t op =
  match t.trace with None -> () | Some sink -> sink op

let phys t = t.phys
let set_account t account =
  if account < 0 then invalid_arg "Addr_space.set_account: negative account";
  t.account <- account
let account t = t.account
let generation t = t.gen
let epoch t = t.epoch

let tlb_flush t =
  Array.fill t.tlb_vpn 0 tlb_size (-1);
  Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_flushes

let tlb_invalidate t vpn =
  let i = vpn land tlb_mask in
  if t.tlb_vpn.(i) = vpn then t.tlb_vpn.(i) <- -1

let frame_eq (x : Phys_mem.frame) (y : Phys_mem.frame) = x == y

exception Tlb_cap

let tlb_switch_invalidate t vpn =
  tlb_invalidate t vpn;
  t.tlb_budget <- t.tlb_budget - 1;
  if t.tlb_budget = 0 then raise_notrace Tlb_cap

(* Switch the TLB from the current map to [map]: invalidate every vpn the
   two bind differently.  Every frame freed since it was cached is absent
   from a live [map], so its vpn is in the diff.  Unrelated maps cost at
   most [tlb_size] invalidations, then a full flush. *)
let tlb_switch t map =
  t.tlb_budget <- tlb_size;
  match Ptmap.iter_diff_keys frame_eq tlb_switch_invalidate t t.map map with
  | () -> ()
  | exception Tlb_cap -> tlb_flush t

(* The shared page backing [vpn] as seen by THIS address space. *)
let shared_frame t vpn =
  match Phys_mem.shared_page t.phys ~vpn with
  | Some _ when Ptmap.mem vpn t.shared_hidden -> None
  | found -> found

(* Catch up with sharing-registry changes made by sibling machines since
   this space last looked.  This is the simulated TLB shootdown: the
   registry is system-global, so a sibling mapping (or tearing down) a
   shared page must invalidate OUR cached translation for that vpn too, or
   a page we had translated privately would keep resolving to the stale
   private frame.  Only the vpns that actually changed ownership need
   shooting down; the whole-TLB wipe is kept as the fallback for a space
   that fell behind the bounded change ring. *)
let share_catch_up t epoch =
  let n = ref 0 in
  let targeted =
    Phys_mem.share_changes_since t.phys ~seen:t.seen_share_epoch
      ~f:(fun vpn -> tlb_invalidate t vpn; incr n)
  in
  if targeted then Obs.Metrics.add t.metrics Obs.Names.mem_tlb_shootdowns !n
  else tlb_flush t;
  Obs.Trace.instant t.metrics Obs.Names.mem_share_flushes epoch
    (if targeted then !n else -1);
  t.seen_share_epoch <- epoch

(* The write-set index of [vpn], searching down from [k]; -1 if absent. *)
let rec ws_find t vpn k =
  if k < 0 || Array.unsafe_get t.ws_vpn k = vpn then k else ws_find t vpn (k - 1)

(* Make [map] exact: bind every write-set page to its private frame, and
   empty the set.  The one place a COW'd page reaches the trie. *)
let fold_writes t =
  let n = t.ws_len in
  if n > 0 then begin
    let m = ref t.map in
    for k = 0 to n - 1 do
      m := Ptmap.add t.ws_vpn.(k) t.ws_frame.(k) !m
    done;
    t.map <- !m;
    t.ws_len <- 0
  end

(* Look up the frame backing [vpn]: the sharing registry, then the write
   set, then the trie.  Raises [Page_fault] when unmapped. *)
let lookup t vpn access addr =
  let epoch = Phys_mem.share_epoch t.phys in
  if t.seen_share_epoch <> epoch then share_catch_up t epoch;
  let i = vpn land tlb_mask in
  if t.tlb_vpn.(i) = vpn then begin
    Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_hits;
    t.tlb_frame.(i)
  end
  else begin
    Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_misses;
    Obs.Metrics.incr t.metrics Obs.Names.mem_pt_walks;
    let f =
      match shared_frame t vpn with
      | Some f -> f
      | None ->
        let k = ws_find t vpn (t.ws_len - 1) in
        if k >= 0 then Array.unsafe_get t.ws_frame k
        else
          match Ptmap.find_opt vpn t.map with
          | Some f -> f
          | None -> raise (Page_fault { addr; access })
    in
    t.tlb_vpn.(i) <- vpn;
    t.tlb_frame.(i) <- f;
    f
  end

(* The COW fault path: the frame belongs to an older generation (a snapshot
   may still reference it), so service the write by copying it.  A write to
   the shared zero frame materialises a fresh zero page instead.  The copy
   goes into the write set and the TLB, not into the trie: a segment that
   is discarded never path-copies [map]. *)
let cow t vpn (f : Phys_mem.frame) =
  let zero = Phys_mem.zero_frame t.phys in
  let f' =
    if f == zero then begin
      Obs.Trace.instant t.metrics Obs.Names.mem_zero_fills vpn 0;
      Phys_mem.alloc ~account:t.account t.phys ~owner:t.gen
    end
    else begin
      Obs.Trace.instant t.metrics Obs.Names.mem_cow_faults vpn 0;
      Phys_mem.alloc_copy t.phys ~account:t.account ~owner:t.gen f
    end
  in
  if t.ws_len = ws_cap then fold_writes t;
  let n = t.ws_len in
  t.ws_vpn.(n) <- vpn;
  t.ws_frame.(n) <- f';
  t.ws_displaced.(n) <- f;
  t.ws_len <- n + 1;
  let i = vpn land tlb_mask in
  if t.tlb_vpn.(i) = vpn then t.tlb_frame.(i) <- f';
  f'

(* Whether the last two COWs of the current generation include [vpn].  A
   store COWs at most two pages, so a store that just COW'd [vpn] makes it
   true; it may also be true when the store did not.  A full set folds
   before the append, so the newest entry is always in the set, and when a
   fold emptied it between the two halves of a page-crossing store the
   older half's vpn is still in the array's last slot. *)
let last_cows_include t vpn =
  let n = t.ws_len in
  n > 0
  && (Array.unsafe_get t.ws_vpn (n - 1) = vpn
     || Array.unsafe_get t.ws_vpn (if n > 1 then n - 2 else ws_cap - 1) = vpn)

let writable_frame t vpn addr =
  let f = lookup t vpn Write addr in
  if f.Phys_mem.owner = t.gen || f.Phys_mem.owner = shared_owner then f
  else cow t vpn f

(* A frame the current generation owns was allocated since the last
   capture/restore, so no snapshot maps it: once the map drops it, nothing
   reaches it any more. *)
let drop_private t vpn =
  match Ptmap.find_opt vpn t.map with
  | Some (f : Phys_mem.frame) when f.owner = t.gen ->
    Phys_mem.free_frame t.phys f
  | Some _ | None -> ()

(* {1 Mapping} *)

let map_zero t ~vpn =
  fold_writes t;
  t.map <- Ptmap.add vpn (Phys_mem.zero_frame t.phys) t.map;
  tlb_invalidate t vpn;
  Obs.Trace.instant t.metrics Obs.Names.mem_maps vpn 0;
  record t (T_map_zero vpn)

let map_data t ~vpn data =
  if String.length data > Page.size then
    invalid_arg "Addr_space.map_data: more than a page";
  fold_writes t;
  let f = Phys_mem.alloc_data t.phys ~account:t.account ~owner:t.gen data in
  t.map <- Ptmap.add vpn f t.map;
  tlb_invalidate t vpn;
  Obs.Trace.instant t.metrics Obs.Names.mem_maps vpn 0;
  record t (T_map_data (vpn, data))

(* Map [data] through the system-global dedup table: tenants booting the
   same image resolve the same read-only frame, and the first store COWs it
   private (its owner is a reserved pseudo-generation no live generation
   ever matches).  The reference taken here is boot-lifetime — returned by
   [drop_dedup_refs] when the space is torn down.  Recorded as a plain
   data map: differential replay cares about contents, not sharing. *)
let map_dedup t ~vpn data =
  if String.length data > Page.size then
    invalid_arg "Addr_space.map_dedup: more than a page";
  fold_writes t;
  let f = Phys_mem.dedup_frame t.phys data in
  t.dedup_held <- f :: t.dedup_held;
  t.map <- Ptmap.add vpn f t.map;
  tlb_invalidate t vpn;
  Obs.Trace.instant t.metrics Obs.Names.mem_maps vpn 0;
  record t (T_map_data (vpn, data))

let drop_dedup_refs t =
  let held = t.dedup_held in
  t.dedup_held <- [];
  List.iter (fun f -> Phys_mem.dedup_unref t.phys f) held;
  List.length held

let map_shared t ~vpn =
  fold_writes t;
  Obs.Trace.instant t.metrics Obs.Names.mem_maps vpn 0;
  record t (T_map_shared vpn);
  t.shared_hidden <- Ptmap.remove vpn t.shared_hidden;
  match Phys_mem.shared_page t.phys ~vpn with
  | Some _ ->
    (* already shared system-wide; just drop any private shadow *)
    t.map <- Ptmap.remove vpn t.map;
    tlb_invalidate t vpn
  | None ->
    let f = Phys_mem.alloc t.phys ~owner:shared_owner in
    (match Ptmap.find_opt vpn t.map with
    | Some (existing : Phys_mem.frame) ->
      Bytes.blit existing.bytes 0 f.Phys_mem.bytes 0 Page.size;
      drop_private t vpn;
      t.map <- Ptmap.remove vpn t.map
    | None -> ());
    Phys_mem.set_shared_page t.phys ~vpn f;
    tlb_invalidate t vpn

let is_shared t ~vpn = shared_frame t vpn <> None

let unmap t ~vpn =
  fold_writes t;
  drop_private t vpn;
  t.map <- Ptmap.remove vpn t.map;
  (* A shared page is unmapped from this address space only: the registry
     entry stays so sibling machines on the same [Phys_mem] keep it. *)
  if Phys_mem.shared_page t.phys ~vpn <> None then
    t.shared_hidden <- Ptmap.add vpn () t.shared_hidden;
  tlb_invalidate t vpn;
  Obs.Trace.instant t.metrics Obs.Names.mem_unmaps vpn 0;
  record t (T_unmap vpn)

let is_mapped t ~vpn = Ptmap.mem vpn t.map || is_shared t ~vpn

let visible_shared_vpns t =
  List.filter (fun vpn -> not (Ptmap.mem vpn t.shared_hidden))
    (Phys_mem.shared_vpns t.phys)

let mapped_pages t = Ptmap.cardinal t.map + List.length (visible_shared_vpns t)

let mapped_vpns t =
  let from_map = Ptmap.fold (fun vpn _ acc -> vpn :: acc) t.map [] in
  List.sort_uniq compare (visible_shared_vpns t @ from_map)

(* {1 Access} *)

let read_u8 t addr =
  let f = lookup t (Page.vpn_of_addr addr) Read addr in
  Char.code (Bytes.unsafe_get f.Phys_mem.bytes (Page.offset_of_addr addr))

let write_u8 t addr v =
  let f = writable_frame t (Page.vpn_of_addr addr) addr in
  Bytes.unsafe_set f.Phys_mem.bytes (Page.offset_of_addr addr) (Char.unsafe_chr (v land 0xff));
  record t (T_write_u8 (addr, v land 0xff))

let read_u64 t addr =
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then begin
    let f = lookup t (Page.vpn_of_addr addr) Read addr in
    Int64.to_int (Bytes.get_int64_le f.Phys_mem.bytes off)
  end
  else begin
    (* Crosses a page boundary: two per-page chunk reads — one translation
       each, not one per byte.  [k] bytes come from the first page.  The
       lookups probe in the order the old byte loop touched the pages
       (high half first), so a fault lands on the same address. *)
    let k = Page.size - off in
    let vpn = Page.vpn_of_addr addr in
    let f2 = lookup t (vpn + 1) Read (addr + 7) in
    let f1 = lookup t vpn Read (addr + k - 1) in
    let v = ref 0 in
    for i = 7 downto k do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get f2.Phys_mem.bytes (i - k))
    done;
    for i = k - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get f1.Phys_mem.bytes (off + i))
    done;
    !v
  end

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Page.offset_of_addr a in
    let chunk = min (len - !pos) (Page.size - off) in
    let f = lookup t (Page.vpn_of_addr a) Read a in
    Bytes.blit f.Phys_mem.bytes off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~addr data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Page.offset_of_addr a in
    let chunk = min (len - !pos) (Page.size - off) in
    let f = writable_frame t (Page.vpn_of_addr a) a in
    Bytes.blit_string data !pos f.Phys_mem.bytes off chunk;
    (match t.trace with
    | None -> ()
    | Some sink -> sink (T_write_bytes (a, String.sub data !pos chunk)));
    pos := !pos + chunk
  done

let write_u64 t addr v =
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then begin
    let f = writable_frame t (Page.vpn_of_addr addr) addr in
    Bytes.set_int64_le f.Phys_mem.bytes off (Int64.of_int v);
    record t (T_write_u64 (addr, v))
  end
  else begin
    (* Crosses a page boundary: delegate to the chunked byte writer — at
       most two translations and two COW checks instead of eight.  Each
       chunk records itself, so a write that faults on the second page
       still leaves a byte-exact trace prefix for the first. *)
    let le = Bytes.create 8 in
    Bytes.set_int64_le le 0 (Int64.of_int v);
    write_bytes t ~addr (Bytes.unsafe_to_string le)
  end

(* {1 Snapshots}

   The generation discipline, which makes snapshots sound.  A store writes
   a frame in place only when the frame's owner is the current generation
   (or the frame is explicitly shared, and then it lives outside every
   snapshot map); any other frame is copied first ([cow]).  Capture,
   restore and seal each retire the current generation for a fresh one; a
   retired generation never becomes current again, and a frame's owner
   never changes.  So, without exception: once a capture or restore
   retires a generation, none of its frames is written again.  Every
   write-set frame belongs to the current generation (a [cow] made it),
   and capture, restore and seal empty the set before they retire that
   generation: capture and seal fold it into the map they keep, restore
   drops it with the map it leaves.  Every frame
   a snapshot maps belongs to a generation its capture retired, or an older
   one, so the snapshot's contents are fixed while its frames live.  Frame
   ids are never reused, so an id never names two contents: the decode
   caches key on ids ([immutable_frame], [frame_is_immutable]) and rely on
   exactly this. *)

let seal t =
  fold_writes t;
  tlb_flush t;
  t.gen <- Phys_mem.fresh_generation t.phys;
  t.epoch <- t.epoch + 1;
  record t T_seal

let empty_snapshot = { snap_id = -1; snap_map = Ptmap.empty }

let snapshot t =
  Obs.Metrics.incr t.metrics Obs.Names.mem_snapshots;
  fold_writes t;
  let s = { snap_id = t.next_snap_id; snap_map = t.map } in
  t.next_snap_id <- t.next_snap_id + 1;
  (* From now on every frame in [s] belongs to a retired generation, so the
     next store to any of them COWs.  Capture itself copies nothing. *)
  t.gen <- Phys_mem.fresh_generation t.phys;
  t.epoch <- t.epoch + 1;
  (* capture and restore are hot: build the op only when a sink listens *)
  (match t.trace with None -> () | Some sink -> sink (T_snapshot s.snap_id));
  s

let restore t s =
  Obs.Metrics.incr t.metrics Obs.Names.mem_restores;
  (* A write set no discard emptied dies with the map it leaves; its
     pages' TLB slots may hold frames the trie never saw. *)
  for k = 0 to t.ws_len - 1 do
    tlb_invalidate t t.ws_vpn.(k)
  done;
  t.ws_len <- 0;
  tlb_switch t s.snap_map;
  (* a segment that wrote nothing left the map it was restored to *)
  if t.map != s.snap_map then t.map <- s.snap_map;
  t.gen <- Phys_mem.fresh_generation t.phys;
  t.epoch <- t.epoch + 1;
  match t.trace with None -> () | Some sink -> sink (T_restore s.snap_id)

(* {1 Explicit frame lifecycle}

   [release_snapshot] and [discard_segment] below free exactly the frames
   of a *delta*: the pages whose backing differs between a base map and a
   later map derived from it.  Under the generation discipline those
   frames were allocated (COW'd or eagerly mapped) after the base's
   capture, on the one execution path that leads from the base to the
   later map — private frames enter a map at one vpn and are never
   re-mapped elsewhere, so no other snapshot or address space can reach
   them.  The zero frame,
   explicitly-shared frames and dedup-table frames never satisfy that
   (shared frames do not even live in snapshot maps; dedup frames are
   reachable from every tenant of the same image) and are skipped — the
   [owner >= 0] guard admits only frames some live-or-retired private
   generation allocated. *)

(* Free one frame if it is private and still live; counts what it freed. *)
let free_private phys n (f : Phys_mem.frame) =
  if f != Phys_mem.zero_frame phys && f.owner >= 0 && not f.freed then begin
    Phys_mem.free_frame phys f;
    n + 1
  end
  else n

(* The delta's now-side frames are the entries added or replaced relative
   to the base; frames only present on the base side (unmapped later) stay
   — the base still references them.  Folded by [Ptmap.fold_diff_now] with
   these top-level callbacks, so a release allocates nothing. *)
let free_now phys _vpn f n = free_private phys n f

(* Free every private frame of a whole map. *)
let free_map phys map = Ptmap.fold (fun _ f n -> free_private phys n f) map 0

(* Release a dead snapshot: return the frames it acquired since [parent] to
   the allocator.  The caller asserts the snapshot left the frontier, every
   descendant is already dead, and the current map was restored away — the
   Snapshot/Explorer refcount discipline (see lib/os/snapshot.ml) is what
   makes each of those checkable.  Takes the physical memory, not the
   address space: releases happen after the machine restored away. *)
let release_snapshot ~phys ~parent s =
  let freed =
    Ptmap.fold_diff_now frame_eq free_now phys parent.snap_map s.snap_map 0
  in
  Obs.Trace.instant (Phys_mem.registry phys) Obs.Names.mem_releases s.snap_id freed;
  freed

(* Free what the current map acquired since [base] was restored — the COW
   tail of a finished path segment that no capture ever froze.  Only sound
   when the epoch is unchanged since that restore (no snapshot grabbed the
   map in between) and when the caller restores another snapshot
   immediately after, before any further access through the map. *)
let discard_segment t ~base =
  if t.map == base.snap_map then begin
    (* Only the write set differs from [base]: free its frames and put
       each displaced frame, [base]'s translation, back in a TLB slot that
       still holds the private one.  No trie is walked, and restoring
       [base] next finds nothing to invalidate. *)
    let freed = ref 0 in
    for k = 0 to t.ws_len - 1 do
      let f = t.ws_frame.(k) in
      freed := free_private t.phys !freed f;
      let i = t.ws_vpn.(k) land tlb_mask in
      if t.tlb_vpn.(i) = t.ws_vpn.(k) && t.tlb_frame.(i) == f then
        t.tlb_frame.(i) <- t.ws_displaced.(k)
    done;
    t.ws_len <- 0;
    !freed
  end
  else begin
    fold_writes t;
    Ptmap.fold_diff_now frame_eq free_now t.phys base.snap_map t.map 0
  end

(* The whole-image counterparts: a parentless snapshot (a boot image, a
   full-image rebuild) owns every private frame of its map, and so does a
   current map that no capture ever froze.  Same soundness conditions as
   the delta versions, with the empty map as the base. *)
let release_image ~phys s =
  let freed = free_map phys s.snap_map in
  Obs.Trace.instant (Phys_mem.registry phys) Obs.Names.mem_releases s.snap_id freed;
  freed

let discard_map t =
  fold_writes t;
  free_map t.phys t.map

(* Rebuild, in THIS address space, the page delta between two snapshots a
   sibling address space captured over the same logical root contents: map
   a private copy of every frame [target] holds beyond [base], and unmap
   every vpn [target] dropped.  This is the work-stealing import path — the
   caller has just restored its own replica of [base]'s logical state, and
   the producing domain guarantees the delta frames are immutable (they
   belong to retired generations and are pinned by the queued item's
   snapshot reference) for the duration of the call. *)
let import_delta t ~base ~target =
  List.fold_left
    (fun n (vpn, _before, now) ->
      (match (now : Phys_mem.frame option) with
      | Some f ->
        (* the blit in [alloc_data] copies the foreign bytes before this
           call returns; avoid the extra copy unless a trace sink would
           retain the string past the frame's lifetime *)
        let data =
          if t.trace = None then Bytes.unsafe_to_string f.Phys_mem.bytes
          else Bytes.to_string f.Phys_mem.bytes
        in
        map_data t ~vpn data
      | None -> unmap t ~vpn);
      n + 1)
    0
    (Ptmap.sym_diff frame_eq base.snap_map target.snap_map)

(* {1 Byte-level deltas}

   The frame-level entry points above free the delta's frames;
   these two read the delta's *contents*.  The result is pure data —
   strings, no frames — so it stays valid however long it is retained and
   wherever the parent's frames go afterwards: snapshot contents are
   logically deterministic, so a byte delta recorded against one
   materialisation of the parent applies equally to any later rebuild of
   it.  This is the demotion path of the tiered payload store
   ([Core.Reclaim]): reading frame bytes allocates no frames, so it is
   safe inside the allocator's pressure handler. *)

(* Pages whose backing differs between [parent] and [s], as
   [(vpn, contents) list] plus the vpns [s] dropped.  Shared pages live
   outside snapshot maps and never appear. *)
let snapshot_delta ~parent s =
  List.fold_left
    (fun (pages, dead) (vpn, _before, now) ->
      match (now : Phys_mem.frame option) with
      | Some f -> ((vpn, Bytes.to_string f.bytes) :: pages, dead)
      | None -> (pages, vpn :: dead))
    ([], [])
    (Ptmap.sym_diff frame_eq parent.snap_map s.snap_map)

(* The full private image of [s]: every (vpn, contents) it maps. *)
let snapshot_contents s =
  Ptmap.fold
    (fun vpn (f : Phys_mem.frame) acc -> (vpn, Bytes.to_string f.bytes) :: acc)
    s.snap_map []

let is_zero_page data =
  let n = String.length data in
  let rec go i = i >= n || (String.unsafe_get data i = '\000' && go (i + 1)) in
  go 0

(* Rebuild a snapshot's logical state from a byte delta: restore [base]
   (or wipe the private map when the delta is a full image), then map each
   delta page and unmap each dead vpn.  All-zero pages go through the
   shared zero frame so a promoted snapshot keeps the same demand-zero
   sharing a replayed one would have.  The caller captures immediately
   after, freezing the result. *)
let restore_pages t ~base ~pages ~dead =
  (match base with
  | Some b -> restore t b
  | None ->
    Obs.Metrics.incr t.metrics Obs.Names.mem_restores;
    tlb_flush t;
    t.ws_len <- 0;
    t.map <- Ptmap.empty;
    t.gen <- Phys_mem.fresh_generation t.phys;
    t.epoch <- t.epoch + 1);
  List.iter
    (fun (vpn, data) ->
      if is_zero_page data then map_zero t ~vpn else map_data t ~vpn data)
    pages;
  List.iter (fun vpn -> unmap t ~vpn) dead

let snapshot_id s = s.snap_id
let snapshot_pages s = Ptmap.cardinal s.snap_map

let distinct_frames snaps =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Ptmap.iter (fun _ (f : Phys_mem.frame) -> Hashtbl.replace seen f.id ()) s.snap_map)
    snaps;
  Hashtbl.length seen

let delta_pages a b =
  List.length (Ptmap.sym_diff frame_eq a.snap_map b.snap_map)

let snapshot_map_for_debug s = s.snap_map

let iter_frames t f =
  Ptmap.iter
    (fun vpn frame ->
      let k = ws_find t vpn (t.ws_len - 1) in
      f (if k >= 0 then t.ws_frame.(k) else frame))
    t.map

(* A write-set frame belongs to the current generation: never immutable. *)
let immutable_frame t ~addr =
  let vpn = Page.vpn_of_addr addr in
  if ws_find t vpn (t.ws_len - 1) >= 0 then None
  else
    match Ptmap.find_opt vpn t.map with
    | Some (f : Phys_mem.frame) when f.owner <> t.gen && f.owner <> shared_owner ->
      Some (f.id, f.bytes)
    | Some _ | None -> None

let frame_is_immutable t (f : Phys_mem.frame) =
  f.owner <> t.gen && f.owner <> shared_owner

let reading_frame t addr = lookup t (Page.vpn_of_addr addr) Read addr
