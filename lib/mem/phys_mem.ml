type frame = {
  id : int;
  bytes : Bytes.t;
  owner : int;
  mutable freed : bool;
  mutable account : int;
}

exception Out_of_frames of { capacity : int; live : int }

(* Keep at most this many released page buffers around; beyond it a free
   is a plain drop (the GC gets the buffer).  Bounds the pool's footprint
   on workloads that release far more than they re-allocate. *)
let max_free_bufs = 4096

let poison_byte = '\xa5'

(* Depth of the share-change ring.  Sized so that a machine which ran a
   whole scheduling quantum while siblings reconfigured sharing still
   catches up entry by entry; falling further behind degrades to the old
   full flush, never to incoherence. *)
let share_log_size = 64

(* A dedup-table entry: the hash-consed frame plus the number of address
   spaces currently holding a boot-time reference to it. *)
type dedup_entry = { d_frame : frame; mutable d_refs : int }

type t = {
  mutable next_frame : int;
  mutable next_gen : int;
  zero : frame;
  metrics : Obs.Metrics.t;  (* every event of this memory, see [Obs.Names] *)
  shared_pages : (int, frame) Hashtbl.t;
      (* explicitly-shared frames by vpn: system-global so that every
         address space over this physical memory sees the same page *)
  mutable share_epoch : int;
      (* bumped on every registry change; address spaces compare it against
         the epoch they last observed and invalidate stale translations on
         mismatch — the simulation's stand-in for a cross-CPU TLB shootdown,
         without which a machine that cached a private translation would
         keep reading its stale frame after a sibling shares the same vpn *)
  share_log : int array;
      (* ring of the vpns behind the last [share_log_size] epoch bumps, so
         an address space that fell at most that far behind can shoot down
         just the affected entries instead of wiping its whole TLB *)
  capacity : int;  (* 0 = unbounded *)
  mutable live : int;
      (* frames allocated minus frames released through [free_frame] —
         exact: [free_frame] is the only way a frame dies.  A plain int:
         every physical memory is private to one domain. *)
  mutable peak_live : int;
  mutable on_pressure : (unit -> unit) option;
  mutable watermark_armed : bool;
  mutable alloc_fault : (int -> bool) option;
  poison : bool;
      (* testing: fill released buffers with [poison_byte] immediately, so
         a frame freed while still reachable diverges loudly *)
  mutable free_bufs : Bytes.t array;
      (* a LIFO stack of released page buffers, [free_len] deep; grows by
         doubling up to [max_free_bufs] *)
  mutable free_len : int;
  mutable delta_bytes : int;
      (* bytes of demoted snapshot deltas currently held in host memory by
         the tiered payload store — the budget the simulated machine spends
         on demoted snapshots instead of frames.  Reported, not charged
         against [capacity]: the substitution table maps the paper's
         reclaimed-snapshot store to host heap outside guest frame RAM *)
  mutable peak_delta_bytes : int;
  mutable next_account : int;
  mutable account_live : int array;
      (* live frames charged to each account, indexed by account id — the
         per-tenant frame accounting the tenancy layer's budgets read.
         Account 0 is the shared/unattributed pool and is never counted;
         the array grows on the first charge past its end. *)
  dedup : (string, dedup_entry) Hashtbl.t;
      (* content digest -> hash-consed read-only frame.  Entries are owned
         by [dedup_owner], a reserved pseudo-generation that never matches
         any address space's current generation, so every store through a
         mapping of a deduped frame COWs — the frame-generation discipline
         is what makes cross-tenant sharing sound. *)
  dedup_rev : (int, string) Hashtbl.t;  (* frame id -> digest, for unref *)
  mutable dedup_refs : int;             (* sum of d_refs over all entries *)
}

(* Generation 0 is reserved: it owns the zero frame and nothing else, so no
   live address space can ever write the zero frame in place. *)
let zero_generation = 0

(* Pseudo-generation owning hash-consed (deduplicated) frames.  Like
   [Addr_space.shared_owner] (-1) it is negative so it can never collide
   with a real generation — but unlike shared frames, deduped frames are
   never written in place: a store through them always COWs. *)
let dedup_owner = -2

let create ?(capacity = 0) ?(poison = false) () =
  if capacity < 0 then invalid_arg "Phys_mem.create: negative capacity";
  let zero =
    { id = 0; bytes = Bytes.make Page.size '\000'; owner = zero_generation;
      freed = false; account = 0 }
  in
  { next_frame = 1; next_gen = 1; zero; metrics = Obs.Metrics.create ();
    shared_pages = Hashtbl.create 8; share_epoch = 0;
    share_log = Array.make share_log_size (-1);
    capacity; live = 0; peak_live = 0;
    on_pressure = None; watermark_armed = true;
    alloc_fault = None;
    poison; free_bufs = [||]; free_len = 0;
    delta_bytes = 0; peak_delta_bytes = 0;
    next_account = 1; account_live = [||];
    dedup = Hashtbl.create 64; dedup_rev = Hashtbl.create 64;
    dedup_refs = 0 }

let registry t = t.metrics
let metrics t = Mem_metrics.of_metrics t.metrics

let zero_frame t = t.zero

let capacity t = t.capacity
let poisoning t = t.poison
let free_buffers t = t.free_len
let frames_live t = t.live
let peak_frames_live t = t.peak_live
let pressure_events t = Obs.Metrics.get t.metrics Obs.Names.mem_pressure_events
let set_pressure_handler t f = t.on_pressure <- f
let set_alloc_fault t f = t.alloc_fault <- f

let note_delta_bytes t n =
  t.delta_bytes <- t.delta_bytes + n;
  if t.delta_bytes > t.peak_delta_bytes then t.peak_delta_bytes <- t.delta_bytes

let delta_bytes_held t = t.delta_bytes
let peak_delta_bytes t = t.peak_delta_bytes

let high_watermark t = t.capacity - (t.capacity / 8)

let below_watermark t = t.capacity > 0 && t.live < high_watermark t

(* Fire the pressure protocol: the registered reclaimer sheds payloads and
   returns their frames through {!free_frame}, which moves [live] on the
   spot; the caller re-checks the count. *)
let pressure t =
  Obs.Trace.instant t.metrics Obs.Names.mem_pressure_events t.live t.capacity;
  match t.on_pressure with Some f -> f () | None -> ()

let ensure_frame_available t =
  (match t.alloc_fault with
  | Some fail when fail t.next_frame ->
    (* Injected transient allocation failure: indistinguishable from a
       momentarily exhausted free list, so callers exercise the same
       recovery path a real out-of-frames condition takes. *)
    raise (Out_of_frames { capacity = t.capacity; live = t.live })
  | _ -> ());
  if t.capacity > 0 then begin
    let live = t.live in
    if live >= t.capacity then begin
      pressure t;
      let live = t.live in
      if live >= t.capacity then begin
        Obs.Trace.instant t.metrics Obs.Names.mem_out_of_frames live t.capacity;
        raise (Out_of_frames { capacity = t.capacity; live })
      end
    end
    else if live >= high_watermark t then begin
      (* High-watermark crossing: reclaim early, and only once per
         excursion above the mark, so steady state near the watermark does
         not degenerate into a reclaim pass per allocation. *)
      if t.watermark_armed then begin
        t.watermark_armed <- false;
        pressure t
      end
    end
    else t.watermark_armed <- true
  end

(* {1 Per-account accounting}

   Accounts attribute live frames to the session (tenant) whose address
   space allocated them, independently of generation ownership.  Account 0
   is the shared/unattributed pool and is never counted, so the array stays
   empty (and the per-allocation cost stays one integer compare) for every
   user that never charges another account; a charged frame costs one
   array store. *)

let fresh_account t =
  let a = t.next_account in
  t.next_account <- a + 1;
  a

let grow_accounts t account =
  let a = Array.make (max (account + 1) (2 * Array.length t.account_live)) 0 in
  Array.blit t.account_live 0 a 0 (Array.length t.account_live);
  t.account_live <- a

let charge_account t account =
  if account <> 0 then begin
    if account >= Array.length t.account_live then grow_accounts t account;
    t.account_live.(account) <- t.account_live.(account) + 1
  end

(* A frame's account was charged when it was minted: its slot exists. *)
let credit_account t account =
  if account <> 0 then
    t.account_live.(account) <- t.account_live.(account) - 1

let account_frames_live t account =
  if account > 0 && account < Array.length t.account_live then
    t.account_live.(account)
  else 0

let assert_quiescent t =
  let charged = ref [] in
  for a = Array.length t.account_live - 1 downto 1 do
    let n = t.account_live.(a) in
    if n <> 0 then
      charged := Printf.sprintf ", account %d holds %d" a n :: !charged
  done;
  if t.live <> 0 || !charged <> [] then
    failwith
      (Printf.sprintf "Phys_mem.assert_quiescent: %d frames live%s" t.live
         (String.concat "" !charged))

let account_live t f =
  t.live <- t.live + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  charge_account t f.account

(* Pop the most recently released page buffer, or [Bytes.empty] when the
   pool has none.  The buffer comes back with arbitrary contents (possibly
   poisoned): callers overwrite it. *)
let take_buf t =
  let n = t.free_len in
  if n = 0 then Bytes.empty
  else begin
    let n = n - 1 in
    let b = Array.unsafe_get t.free_bufs n in
    Array.unsafe_set t.free_bufs n Bytes.empty;
    t.free_len <- n;
    Obs.Trace.instant t.metrics Obs.Names.mem_frames_recycled n 0;
    b
  end

let push_buf t b =
  let n = t.free_len in
  if n = Array.length t.free_bufs then begin
    let a = Array.make (min max_free_bufs (max 16 (2 * n))) Bytes.empty in
    Array.blit t.free_bufs 0 a 0 n;
    t.free_bufs <- a
  end;
  Array.unsafe_set t.free_bufs n b;
  t.free_len <- n + 1

let mint t ~owner ~account bytes =
  let f = { id = t.next_frame; bytes; owner; freed = false; account } in
  t.next_frame <- t.next_frame + 1;
  Obs.Metrics.incr t.metrics Obs.Names.mem_frames_allocated;
  account_live t f;
  f

let alloc ?(account = 0) t ~owner =
  ensure_frame_available t;
  let b = take_buf t in
  let bytes =
    if b == Bytes.empty then Bytes.make Page.size '\000'
    else (Bytes.fill b 0 Page.size '\000'; b)
  in
  mint t ~owner ~account bytes

(* A frame whose every byte is about to be overwritten: recycle a buffer or
   take uninitialised memory, either way skipping the zero fill that
   [Bytes.make] would pay. *)
let alloc_overwritten t ~owner ~account =
  ensure_frame_available t;
  Obs.Metrics.incr t.metrics Obs.Names.mem_zero_fills_elided;
  let b = take_buf t in
  let bytes = if b == Bytes.empty then Bytes.create Page.size else b in
  mint t ~owner ~account bytes

let alloc_copy t ?(account = 0) ~owner src =
  let f = alloc_overwritten t ~owner ~account in
  Bytes.blit src.bytes 0 f.bytes 0 Page.size;
  Obs.Metrics.incr t.metrics Obs.Names.mem_pages_copied;
  Obs.Metrics.add t.metrics Obs.Names.mem_bytes_copied Page.size;
  f

let alloc_data t ?(account = 0) ~owner data =
  let len = String.length data in
  if len > Page.size then invalid_arg "Phys_mem.alloc_data: more than a page";
  let f = alloc_overwritten t ~owner ~account in
  Bytes.blit_string data 0 f.bytes 0 len;
  (* only the tail needs clearing: the recycled buffer carries old bytes *)
  if len < Page.size then Bytes.fill f.bytes len (Page.size - len) '\000';
  f

let free_frame t (f : frame) =
  if f == t.zero then invalid_arg "Phys_mem.free_frame: the zero frame";
  if f.freed then
    invalid_arg (Printf.sprintf "Phys_mem.free_frame: double free of frame %d" f.id);
  f.freed <- true;
  Obs.Metrics.incr t.metrics Obs.Names.mem_frames_freed;
  t.live <- t.live - 1;
  credit_account t f.account;
  if t.free_len < max_free_bufs then begin
    if t.poison then Bytes.fill f.bytes 0 Page.size poison_byte;
    push_buf t f.bytes
  end

(* The frame audit: [reachable] walks the caller's live state, labelling
   each group of frames; the first freed frame names its group. *)
let audit t ~reachable =
  let seen = Hashtbl.create 256 and stale = ref None in
  let visit where (f : frame) =
    if f.freed && !stale = None then
      stale := Some (Printf.sprintf "frame %d, reachable from %s, is freed" f.id where);
    if f != t.zero then Hashtbl.replace seen f.id ()
  in
  reachable visit;
  Hashtbl.iter (fun _ f -> visit "a shared page" f) t.shared_pages;
  Hashtbl.iter (fun _ e -> visit "the dedup table" e.d_frame) t.dedup;
  match !stale with
  | Some detail -> Error detail
  | None when Hashtbl.length seen = t.live -> Ok ()
  | None ->
    Error
      (Printf.sprintf "%d frames reachable from live state, %d live"
         (Hashtbl.length seen) t.live)

let next_frame_ordinal t = t.next_frame

(* {1 Content-addressed frame dedup}

   Hash-consing for read-only image pages shared across tenants of the
   same guest image.  A deduped frame is owned by [dedup_owner], so any
   store through a mapping of it COWs into a private frame (first
   divergence); the shared original is never written in place, which is
   exactly the invariant snapshots and the decode cache already rely on
   for retired-generation frames.  References are boot-lifetime: one per
   address space that mapped the frame, dropped at tenant teardown, and
   the frame itself is freed when the last reference drains. *)

let page_digest data =
  (* digest of the full page image: short data is padded with zeroes, the
     same contents the frame will hold *)
  if String.length data = Page.size then Digest.string data
  else Digest.string (data ^ String.make (Page.size - String.length data) '\000')

let dedup_frame t data =
  if String.length data > Page.size then
    invalid_arg "Phys_mem.dedup_frame: more than a page";
  let key = page_digest data in
  match Hashtbl.find_opt t.dedup key with
  | Some e ->
    e.d_refs <- e.d_refs + 1;
    t.dedup_refs <- t.dedup_refs + 1;
    Obs.Trace.instant t.metrics Obs.Names.mem_dedup_hits e.d_frame.id e.d_refs;
    e.d_frame
  | None ->
    let f = alloc_data t ~owner:dedup_owner data in
    Hashtbl.replace t.dedup key { d_frame = f; d_refs = 1 };
    Hashtbl.replace t.dedup_rev f.id key;
    t.dedup_refs <- t.dedup_refs + 1;
    f

let dedup_unref t (f : frame) =
  match Hashtbl.find_opt t.dedup_rev f.id with
  | None -> invalid_arg "Phys_mem.dedup_unref: frame is not in the dedup table"
  | Some key ->
    let e = Hashtbl.find t.dedup key in
    e.d_refs <- e.d_refs - 1;
    t.dedup_refs <- t.dedup_refs - 1;
    if e.d_refs = 0 then begin
      Hashtbl.remove t.dedup key;
      Hashtbl.remove t.dedup_rev f.id;
      (* every address space that booted over this frame is gone: its
         buffer can rejoin the free list *)
      free_frame t f
    end

let dedup_entries t = Hashtbl.length t.dedup
let dedup_refs t = t.dedup_refs

(* Most memories never share a page: a TLB miss then probes nothing. *)
let shared_page t ~vpn =
  if Hashtbl.length t.shared_pages = 0 then None
  else Hashtbl.find_opt t.shared_pages vpn

let log_share_change t vpn =
  t.share_epoch <- t.share_epoch + 1;
  t.share_log.(t.share_epoch mod share_log_size) <- vpn

let set_shared_page t ~vpn frame =
  Hashtbl.replace t.shared_pages vpn frame;
  log_share_change t vpn

let clear_shared_page t ~vpn =
  Hashtbl.remove t.shared_pages vpn;
  log_share_change t vpn

let share_epoch t = t.share_epoch

(* Replay the vpns behind epochs (seen, share_epoch] through [f].  Returns
   [false] without calling [f] when [seen] is too far behind for the ring
   to still hold every change — the caller must fall back to a full
   flush. *)
let share_changes_since t ~seen ~f =
  let cur = t.share_epoch in
  if cur - seen > share_log_size then false
  else begin
    for e = seen + 1 to cur do
      f t.share_log.(e mod share_log_size)
    done;
    true
  end
let shared_page_count t = Hashtbl.length t.shared_pages
let shared_vpns t = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.shared_pages []

let fresh_generation t =
  let g = t.next_gen in
  t.next_gen <- t.next_gen + 1;
  g
