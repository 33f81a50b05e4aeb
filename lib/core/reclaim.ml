module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module As = Mem.Addr_space
module M = Obs.Metrics
module N = Obs.Names

exception Replay_diverged of string

type handle = int

(* Payload tiers.  Tier 0 holds the live snapshot (its page map pins
   physical frames).  A demotion replaces it with the byte delta against
   the nearest still-live ancestor, as raw page copies in host memory
   (tier 1).  A truncated entry (payload [None], tier 2) keeps only the
   skeleton and falls back to deterministic replay. *)
type delta = {
  d_pages : (int * string) list; (* (vpn, bytes) changed against the base *)
  d_dead : int list;           (* vpns unmapped relative to the base *)
  d_regs : Cpu.saved;
  d_os : Libos.os_state;
  d_base : handle option;      (* ancestor the pages diff against; [None]
                                  = full image (a root, or no live
                                  ancestor existed at demotion time) *)
  d_bytes : int;               (* page bytes held *)
}

type payload =
  | Live of Snapshot.t
  | Demoted of delta

(* The skeleton is permanent and tiny (a few ints per entry); only the
   payload is reclaimable, and it degrades through the tiers above before
   the store ever falls back to re-execution.

   Frame lifetime rides on the {!Snapshot} extension-refcount discipline:
   the store holds one extension ref per Live payload (taken at
   [add]/[add_root] and at every reconstruction) plus one on the record the
   machine's current state derives from ([t.anchor]).  Demoting, releasing
   or truncating a Live payload gives its ref back, and [Snapshot.try_free]
   returns the record's delta-vs-parent frames to the allocator the moment
   no child record and no extension shares them — cascading up abandoned
   chains — so the pressure handler frees frames on the spot.  Parentless
   records free their whole image the same way when captured [owns_image]:
   full-image promotions always are, and so is a root its driver hands over
   (see {!Service}); [release_all] drains every ref at teardown.  The
   contract this puts on drivers: capture with the record [get] returned
   (or the last capture) as the parent, so every map sharing a record's
   frames is counted in its [child_refs]. *)
type entry = {
  e_parent : handle option;
  e_choice : int;              (* rax delivered when re-running the edge *)
  e_stdin : string option;     (* stdin installed alongside (Service) *)
  e_depth : int;
  e_pinned : bool;             (* roots: never truncated *)
  mutable e_payload : payload option;
  mutable e_last_used : int;
  mutable e_released : bool;   (* dropped by the client; skeleton kept for
                                  descendants' replays *)
}

type t = {
  machine : Libos.t;
  fuel : int;
  ids : Snapshot.ids;
  entries : entry Stdx.Vec.t;
      (* indexed by handle: handles are issued in order and never
         removed, a released entry keeps its skeleton *)
  mutable clock : int;
  mutable anchor : Snapshot.t;
      (* the record whose materialisation the machine's current state
         derives from (last capture or [get]); the store keeps an
         extension ref on it so explicit freeing never touches frames the
         live address space still maps; [Snapshot.none] before the
         first *)
  metrics : M.t;  (* the owner's: [reclaim.*] counts, and the memory
                     events reconstruction redid, taken back out *)
}

(* Fills the unused capacity of [entries]; never a real entry. *)
let no_entry =
  { e_parent = None; e_choice = 0; e_stdin = None; e_depth = 0;
    e_pinned = true; e_payload = None; e_last_used = 0; e_released = true }

let create ?(fuel_per_step = 50_000_000) ~metrics (machine : Libos.t) =
  { machine;
    fuel = fuel_per_step;
    ids = Snapshot.ids ();
    entries = Stdx.Vec.create ~capacity:64 ~dummy:no_entry ();
    clock = 0;
    anchor = Snapshot.none;
    metrics }

let phys_of t = As.phys t.machine.Libos.aspace

(* Reconstruction rebuilds state the original run already paid for: take
   the memory events since [mem0], a copy of the memory's registry, back
   out of the owner's counts, so its figures stay fault-free. *)
let uncount_mem t mem0 =
  M.merge ~into:t.metrics (M.sub mem0 (Mem.Phys_mem.registry (phys_of t)))

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let entry t h =
  if h < 0 || h >= Stdx.Vec.length t.entries then
    invalid_arg (Printf.sprintf "Reclaim: unknown reference %d" h);
  Stdx.Vec.get t.entries h

let fresh t e = Stdx.Vec.push t.entries e

(* The machine's state now derives from [snap]'s materialisation: move the
   store's machine ref there.  Retain-before-release so re-anchoring on the
   same record is a no-op rather than a transient zero. *)
let set_anchor t snap =
  Snapshot.retain snap;
  if t.anchor != Snapshot.none then
    Snapshot.release_ext ~phys:(phys_of t) t.anchor;
  t.anchor <- snap

let add_root t snap =
  Snapshot.retain snap;
  set_anchor t snap;
  fresh t
    { e_parent = None; e_choice = 0; e_stdin = None; e_depth = 0;
      e_pinned = true; e_payload = Some (Live snap); e_last_used = tick t;
      e_released = false }

let add t ~parent ~choice ?stdin ~depth snap =
  ignore (entry t parent);
  Snapshot.retain snap;
  set_anchor t snap;
  fresh t
    { e_parent = Some parent; e_choice = choice; e_stdin = stdin;
      e_depth = depth; e_pinned = false; e_payload = Some (Live snap);
      e_last_used = tick t; e_released = false }

let depth t h = (entry t h).e_depth

let tier t h =
  match (entry t h).e_payload with
  | Some (Live _) -> 0
  | Some (Demoted _) -> 1
  | None -> 2

let is_materialised t h = tier t h = 0
let is_released t h = (entry t h).e_released

(* The delta's page bytes leave the host-memory count in
   {!Mem.Phys_mem}. *)
let drop_delta t (d : delta) =
  Mem.Phys_mem.note_delta_bytes (phys_of t) (-d.d_bytes)

(* {1 Demotion (tier 0 -> 1)} *)

(* Replace the live snapshot with its byte delta against the nearest
   still-live ancestor (or the full image when none exists — always the
   case for roots).  Reads frame bytes and allocates only OCaml heap,
   never frames, so it is safe inside the allocator's pressure handler.
   The delta is pure data: snapshot contents are logically deterministic,
   so it stays valid however the base is later rebuilt (promotion or
   replay). *)
let demote t h =
  let e = entry t h in
  match e.e_payload with
  | None | Some (Demoted _) -> false
  | Some (Live snap) ->
    let rec live_ancestor = function
      | None -> None
      | Some h' -> (
        let e' = entry t h' in
        match e'.e_payload with
        | Some (Live s) -> Some (h', s)
        | Some (Demoted _) | None -> live_ancestor e'.e_parent)
    in
    let base = live_ancestor e.e_parent in
    let pages, dead =
      match base with
      | Some (_, bs) ->
        As.snapshot_delta ~parent:bs.Snapshot.mem snap.Snapshot.mem
      | None -> (As.snapshot_contents snap.Snapshot.mem, [])
    in
    let bytes =
      List.fold_left (fun n (_, data) -> n + String.length data) 0 pages
    in
    Mem.Phys_mem.note_delta_bytes (phys_of t) bytes;
    e.e_payload <-
      Some
        (Demoted
           { d_pages = pages; d_dead = dead; d_regs = snap.Snapshot.regs;
             d_os = snap.Snapshot.os; d_base = Option.map fst base;
             d_bytes = bytes });
    (* The delta above copied every byte it needs; give the store's ref on
       the record back.  [Snapshot.try_free] returns its delta-vs-parent
       frames to the allocator right here — and cascades up released
       chains — unless a child record still inherits them or the machine's
       current state derives from this record (the anchor ref), in which
       case the frames come back the moment the last sharer drains. *)
    Snapshot.release_ext ~phys:(phys_of t) snap;
    M.incr t.metrics N.reclaim_demotions;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:h ~b:e.e_depth Obs.Names.reclaim_demote;
    true

(* {1 Reconstruction (promotion, with replay as the fallback)} *)

(* Rebuild the entry's live snapshot.  A demoted entry promotes by
   applying its delta — zero guest instructions: materialise its base (the
   recursion bottoms out at a live ancestor, a full-image delta, or a
   pinned root), restore the base's page map, apply the byte delta, load
   the saved registers and OS state, capture.  A truncated entry replays
   its one edge from its parent's materialisation, exactly as before the
   tiers existed.  Both paths clobber the machine (every driver restores a
   snapshot right after a [get], so this is free) and both re-stamp the
   serial chain: fresh frames mean a fresh materialisation. *)
let rec materialise t h =
  let e = entry t h in
  match e.e_payload with
  | Some (Live s) -> s
  | Some (Demoted d) -> promote t h e d
  | None -> (
    match e.e_parent with
    | Some p ->
      let base = materialise t p in
      replay_edge t e base;
      (match e.e_payload with
      | Some (Live s) -> s
      | _ -> assert false)
    | None ->
      (* unreachable: roots are pinned and never truncated *)
      invalid_arg "Reclaim: evicted entry with no materialised ancestor")

and promote t h e d =
  let base =
    match d.d_base with
    | Some bh -> Some (bh, materialise t bh)
    | None -> None
  in
  let m = t.machine in
  if Obs.Trace.enabled () then
    Obs.Trace.span_begin ~a:h Obs.Names.reclaim_promote;
  (* The machine is about to derive from the base's map: anchor it before
     the page applications below allocate (and possibly fire pressure). *)
  (match base with Some (_, bs) -> set_anchor t bs | None -> ());
  let mem0 = M.copy (Mem.Phys_mem.registry (phys_of t)) in
  Cpu.load m.Libos.cpu d.d_regs;
  let aspace = m.Libos.aspace in
  (try
     As.restore_pages aspace
       ~base:(Option.map (fun (_, s) -> s.Snapshot.mem) base)
       ~pages:d.d_pages ~dead:d.d_dead
   with ex ->
     (* Ran out of frames half way: the pages applied so far are private
        to the unfrozen map.  The delta itself is intact, so the entry
        stays demoted and can be promoted again later. *)
     (match base with
     | Some (_, bs) -> ignore (As.discard_segment aspace ~base:bs.Snapshot.mem)
     | None -> ignore (As.discard_map aspace));
     raise ex);
  Libos.os_restore m d.d_os;
  (* A full-image rebuild shares no frame with anything that came before:
     its image dies with it. *)
  let snap =
    Snapshot.capture ~ids:t.ids
      ?parent:(Option.map snd base)
      ~owns_image:(base = None) ~depth:e.e_depth m
  in
  uncount_mem t mem0;
  drop_delta t d;
  e.e_payload <- Some (Live snap);
  Snapshot.retain snap;
  set_anchor t snap;
  e.e_last_used <- tick t;
  M.incr t.metrics N.reclaim_promotions;
  if Obs.Trace.enabled () then
    Obs.Trace.span_end ~a:h ~b:(List.length d.d_pages)
      Obs.Names.reclaim_promote;
  snap

(* Re-execute one edge: restore the parent's payload, deliver the recorded
   choice (and stdin), run to the next publish, capture.  The re-run's
   output and costs are not new information: stdout is discarded (the
   caller resets its harvest marker after the restore that follows), the
   instructions count as replayed, and the memory events are taken back
   out of the owner's counts. *)
and replay_edge t e base =
  let m = t.machine in
  if Obs.Trace.enabled () then
    Obs.Trace.span_begin ~a:1 Obs.Names.reclaim_replay;
  let retired0 = m.Libos.cpu.Cpu.retired in
  let mem0 = M.copy (Mem.Phys_mem.registry (phys_of t)) in
  Snapshot.restore m base;
  set_anchor t base;
  Cpu.set m.Libos.cpu Reg.rax e.e_choice;
  Option.iter (Libos.set_stdin m) e.e_stdin;
  (* the re-executed segment is captured only on success; otherwise its
     COW tail dies here *)
  let discard () =
    ignore (As.discard_segment m.Libos.aspace ~base:base.Snapshot.mem)
  in
  (* the shared replay engine auto-resumes hint/strategy stops exactly as
     the recorder's replayer does — one deterministic re-execution path *)
  (match Record.Engine.run_to_publish m ~fuel:t.fuel with
  | Libos.Guess _ -> ()
  | stop ->
    discard ();
    raise
      (Replay_diverged
         (Format.asprintf
            "replay reached %a where the original run published a \
             choice point" Libos.pp_stop stop))
  | exception ex ->
    discard ();
    raise ex);
  M.incr t.metrics N.reclaim_replays;
  let snap = Snapshot.capture ~ids:t.ids ~parent:base ~depth:e.e_depth m in
  e.e_payload <- Some (Live snap);
  Snapshot.retain snap;
  set_anchor t snap;
  e.e_last_used <- tick t;
  M.add t.metrics N.reclaim_replayed_instructions
    (m.Libos.cpu.Cpu.retired - retired0);
  if Obs.Trace.enabled () then
    Obs.Trace.span_end ~a:1
      ~b:(m.Libos.cpu.Cpu.retired - retired0)
      Obs.Names.reclaim_replay;
  uncount_mem t mem0

let get t h =
  let e = entry t h in
  if e.e_released then
    invalid_arg (Printf.sprintf "Reclaim: reference %d was released" h);
  e.e_last_used <- tick t;
  let s =
    match e.e_payload with
    | Some (Live s) -> s
    | Some (Demoted _) | None ->
      let replays0 = M.get t.metrics N.reclaim_replays in
      let s = materialise t h in
      (* A reconstruction that had to re-execute even one edge means a
         delta chain was truncated under it: the promotion path alone
         could not serve this [get]. *)
      if M.get t.metrics N.reclaim_replays > replays0 then
        M.incr t.metrics N.reclaim_replay_fallbacks;
      s
  in
  (* Every driver restores the snapshot it just got (reconstruction
     already clobbered the machine with it anyway), so the machine's state
     now derives from this record. *)
  set_anchor t s;
  s

(* {1 Lifecycle} *)

let release t h =
  let e = entry t h in
  if not e.e_released then begin
    e.e_released <- true;
    if not e.e_pinned then begin
      (match e.e_payload with
      | Some (Live snap) ->
        (* The store's ref drains; [try_free] feeds the record's
           branch-private frames to the allocator's free list right now
           unless a child record or the machine still shares them. *)
        Snapshot.release_ext ~phys:(phys_of t) snap
      | Some (Demoted d) -> drop_delta t d
      | None -> ());
      e.e_payload <- None
    end
  end

let evict t h =
  let e = entry t h in
  match e.e_payload with
  | None -> false
  | Some _ when e.e_pinned -> false
  | Some payload ->
    (match payload with
    | Live snap -> Snapshot.release_ext ~phys:(phys_of t) snap
    | Demoted d -> drop_delta t d);
    e.e_payload <- None;
    M.incr t.metrics N.reclaim_evictions;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:h ~b:e.e_depth Obs.Names.reclaim_evict;
    true

(* {1 Pressure policy} *)

(* The handles whose entries [keep] accepts, in handle order. *)
let handles t keep =
  let hs = ref [] in
  for h = Stdx.Vec.length t.entries - 1 downto 0 do
    if keep (Stdx.Vec.get t.entries h) then hs := h :: !hs
  done;
  !hs

let is_live e = match e.e_payload with Some (Live _) -> true | _ -> false

(* Deepest first, then least-recently-resumed: deep payloads carry the
   longest COW tails (the frames worth shedding) and cold payloads are the
   least likely to be resumed soon.  Deepest-first also means every victim
   still finds its parent live when it computes its delta, so demotion
   under pressure always produces one-edge deltas.  Demotion is
   feedback-driven: each victim's [release_ext] returns its delta frames
   straight to the allocator, so stop as soon as the live count drops back
   under the watermark — shedding more would copy pages (and later promote
   them back) for frames nobody needed.  Only when the explicit frees
   never clear the mark (shared frames, an anchor chain) does the sweep
   run through every victim. *)
let demote_under_pressure t =
  let phys = phys_of t in
  let rec go n = function
    | [] -> n
    | _ when n > 0 && Mem.Phys_mem.below_watermark phys -> n
    | h :: rest -> go (if demote t h then n + 1 else n) rest
  in
  let deeper_then_colder h1 h2 =
    let e1 = Stdx.Vec.get t.entries h1 and e2 = Stdx.Vec.get t.entries h2 in
    match Int.compare e2.e_depth e1.e_depth with
    | 0 -> Int.compare e1.e_last_used e2.e_last_used
    | c -> c
  in
  handles t (fun e -> is_live e && not e.e_pinned)
  |> List.sort deeper_then_colder
  |> go 0

(* Demote every live payload, deepest first (so each diffs against a
   still-live parent), pinned roots included.  Equal depths go newest
   handle first: a child is issued after its parent, and a scope root and
   its first capture share depth 0. *)
let demote_all t =
  let depth h = (Stdx.Vec.get t.entries h).e_depth in
  let deeper_then_newer h1 h2 =
    match Int.compare (depth h2) (depth h1) with
    | 0 -> Int.compare h2 h1
    | c -> c
  in
  handles t is_live
  |> List.sort deeper_then_newer
  |> List.fold_left (fun n h -> if demote t h then n + 1 else n) 0

let evict_all t =
  List.fold_left (fun n h -> if evict t h then n + 1 else n) 0
    (handles t (fun _ -> true))

let pressure_handler t = fun () -> ignore (demote_under_pressure t)

(* {1 Teardown} *)

(* Give back every ref the store holds — each payload, pinned roots
   included, and the anchor — so the refcount cascade returns every record
   frame to the allocator.  The store is dead afterwards: every handle
   reads as released. *)
let release_all t =
  let phys = phys_of t in
  Stdx.Vec.iter
    (fun e ->
      (match e.e_payload with
      | Some (Live snap) -> Snapshot.release_ext ~phys snap
      | Some (Demoted d) -> drop_delta t d
      | None -> ());
      e.e_payload <- None;
      e.e_released <- true)
    t.entries;
  if t.anchor != Snapshot.none then Snapshot.release_ext ~phys t.anchor;
  t.anchor <- Snapshot.none

(* {1 Introspection} *)

let snapshot_ids t = t.ids

let materialised t =
  Stdx.Vec.fold
    (fun acc e ->
      match e.e_payload with Some (Live s) -> s :: acc | _ -> acc)
    [] t.entries

let anchor t = if t.anchor == Snapshot.none then None else Some t.anchor

let live_entries t =
  Stdx.Vec.fold (fun n e -> if e.e_released then n else n + 1) 0 t.entries

let materialised_count t =
  Stdx.Vec.fold (fun n e -> if is_live e then n + 1 else n) 0 t.entries
