module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module As = Mem.Addr_space
module M = Obs.Metrics
module N = Obs.Names

type handle = int

(* Payload tiers.  Tier 0 holds the live snapshot (its page map pins
   physical frames).  A demotion replaces it with the byte delta against
   the nearest still-live ancestor, as raw page copies in host memory
   (tier 1). *)
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
   payload is reclaimable.  A delta names its base by handle, so a base's
   payload must outlive every delta based on it: a released entry keeps
   its payload while [e_bases] > 0, and drops it — cascading to its own
   base — when the last such delta is promoted or dropped.

   Frame lifetime rides on the {!Snapshot} extension-refcount discipline:
   the store holds one extension ref per Live payload (taken at
   [add]/[add_root] and at every promotion) plus one on the record the
   machine's current state derives from ([t.anchor]).  Demoting or
   dropping a Live payload gives its ref back, and [Snapshot.try_free]
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
  e_depth : int;
  e_pinned : bool;             (* roots: no pressure victim, and a release
                                  keeps the payload until [release_all] *)
  mutable e_payload : payload option;  (* [None] once dropped *)
  mutable e_last_used : int;
  mutable e_released : bool;   (* dropped by the client *)
  mutable e_bases : int;       (* deltas whose [d_base] is this entry *)
}

type t = {
  machine : Libos.t;
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
  metrics : M.t;  (* the owner's: [reclaim.*] counts *)
}

(* Fills the unused capacity of [entries]; never a real entry. *)
let no_entry =
  { e_parent = None; e_depth = 0; e_pinned = true; e_payload = None;
    e_last_used = 0; e_released = true; e_bases = 0 }

let create ~metrics (machine : Libos.t) =
  { machine;
    ids = Snapshot.ids ();
    entries = Stdx.Vec.create ~capacity:64 ~dummy:no_entry ();
    clock = 0;
    anchor = Snapshot.none;
    metrics }

let phys_of t = As.phys t.machine.Libos.aspace

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
    { e_parent = None; e_depth = 0; e_pinned = true;
      e_payload = Some (Live snap); e_last_used = tick t; e_released = false;
      e_bases = 0 }

let add t ~parent ~depth snap =
  ignore (entry t parent);
  Snapshot.retain snap;
  set_anchor t snap;
  fresh t
    { e_parent = Some parent; e_depth = depth; e_pinned = false;
      e_payload = Some (Live snap); e_last_used = tick t; e_released = false;
      e_bases = 0 }

let depth t h = (entry t h).e_depth

let no_payload h =
  invalid_arg (Printf.sprintf "Reclaim: reference %d has no payload" h)

let tier t h =
  match (entry t h).e_payload with
  | Some (Live _) -> 0
  | Some (Demoted _) -> 1
  | None -> no_payload h

(* Give a payload up: a live one's ref goes back to the snapshot refcount,
   a delta's page bytes leave the host-memory count in {!Mem.Phys_mem},
   and its base loses a dependent — and its own payload with the last one,
   if the client released it. *)
let rec drop t e =
  (match e.e_payload with
  | Some (Live snap) -> Snapshot.release_ext ~phys:(phys_of t) snap
  | Some (Demoted d) -> drop_delta t d
  | None -> ());
  e.e_payload <- None

and drop_delta t (d : delta) =
  Mem.Phys_mem.note_delta_bytes (phys_of t) (-d.d_bytes);
  match d.d_base with
  | None -> ()
  | Some b ->
    let eb = entry t b in
    eb.e_bases <- eb.e_bases - 1;
    if eb.e_bases = 0 && eb.e_released && not eb.e_pinned then drop t eb

(* {1 Demotion (tier 0 -> 1)} *)

(* Replace the live snapshot with its byte delta against the nearest
   still-live ancestor (or the full image when none exists — always the
   case for roots).  Reads frame bytes and allocates only OCaml heap,
   never frames, so it is safe inside the allocator's pressure handler.
   The delta is pure data: it stays valid however often the base is
   demoted and promoted again, and the base keeps a payload while it is
   counted in the base's [e_bases]. *)
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
    (match base with
    | Some (b, _) -> (entry t b).e_bases <- (entry t b).e_bases + 1
    | None -> ());
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

(* {1 Reconstruction (promotion)} *)

(* Rebuild the entry's live snapshot by applying its delta — zero guest
   instructions: materialise its base (the recursion bottoms out at a live
   ancestor or a full-image delta), restore the base's page map, apply the
   byte delta, load the saved registers and OS state, capture.  This
   clobbers the machine (every driver restores a snapshot right after a
   [get], so this is free) and re-stamps the serial chain: fresh frames
   mean a fresh materialisation.  A base always has a payload: it keeps
   one while a delta is based on it. *)
let rec materialise t h =
  let e = entry t h in
  match e.e_payload with
  | Some (Live s) -> s
  | Some (Demoted d) -> promote t h e d
  | None -> no_payload h

and promote t h e d =
  let base =
    match d.d_base with
    | Some bh -> Some (materialise t bh)
    | None -> None
  in
  let m = t.machine in
  if Obs.Trace.enabled () then
    Obs.Trace.span_begin ~a:h Obs.Names.reclaim_promote;
  (* The machine is about to derive from the base's map: anchor it before
     the page applications below allocate (and possibly fire pressure). *)
  Option.iter (set_anchor t) base;
  Cpu.load m.Libos.cpu d.d_regs;
  let aspace = m.Libos.aspace in
  (try
     As.restore_pages aspace
       ~base:(Option.map (fun (s : Snapshot.t) -> s.mem) base)
       ~pages:d.d_pages ~dead:d.d_dead
   with ex ->
     (* Ran out of frames half way: the pages applied so far are private
        to the unfrozen map.  The delta itself is intact, so the entry
        stays demoted and can be promoted again later. *)
     (match base with
     | Some bs -> ignore (As.discard_segment aspace ~base:bs.Snapshot.mem)
     | None -> ignore (As.discard_map aspace));
     raise ex);
  Libos.os_restore m d.d_os;
  (* A full-image rebuild shares no frame with anything that came before:
     its image dies with it. *)
  let snap =
    Snapshot.capture ~ids:t.ids ?parent:base ~owns_image:(base = None)
      ~depth:e.e_depth m
  in
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

let get t h =
  let e = entry t h in
  if e.e_released then
    invalid_arg (Printf.sprintf "Reclaim: reference %d was released" h);
  e.e_last_used <- tick t;
  let s = materialise t h in
  (* Every driver restores the snapshot it just got (a promotion already
     clobbered the machine with it anyway), so the machine's state now
     derives from this record. *)
  set_anchor t s;
  s

(* {1 Lifecycle} *)

(* A pinned root keeps its payload until [release_all]; any other entry
   keeps it while a delta is based on it. *)
let release t h =
  let e = entry t h in
  if not e.e_released then begin
    e.e_released <- true;
    if e.e_bases = 0 && not e.e_pinned then drop t e
  end

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

let pressure_handler t = fun () -> ignore (demote_under_pressure t)

(* {1 Teardown} *)

(* Give back every ref the store holds — each payload, pinned roots
   included, and the anchor — so the refcount cascade returns every record
   frame to the allocator.  The store is dead afterwards: every handle
   reads as released. *)
let release_all t =
  Stdx.Vec.iter
    (fun e ->
      e.e_released <- true;
      drop t e)
    t.entries;
  if t.anchor != Snapshot.none then
    Snapshot.release_ext ~phys:(phys_of t) t.anchor;
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
