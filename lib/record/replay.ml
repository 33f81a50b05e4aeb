module As = Mem.Addr_space
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module Libos = Os.Libos
module Snapshot = Os.Snapshot

exception Diverged of string

type segment = {
  pre : Log.event list;     (* boundary actions entering this segment *)
  sys : (int * int) list;   (* expected ordinary syscalls, in order *)
  retired : int;
  stop : Log.stop;
  start_time : int;         (* cumulative retired before this segment *)
}

type bp =
  | Bp_pc of int
  | Bp_sys of int
  | Bp_stop of int

type halt =
  | Stopped
  | Break of int * bp
  | End

(* Snapshots follow [Core.Path]'s release rule.  Each table entry holds one
   extension ref, and so does the cursor on its base.  Every capture is
   parented to the base and becomes the new base; before every restore the
   segment left behind is discarded, its tail freed if no capture froze it.
   So an entry a re-executed [Capture] replaces, or a base the cursor
   leaves, dies as soon as no other entry descends from it. *)
type t = {
  machine : Libos.t;
  phys : Mem.Phys_mem.t;
  ids : Snapshot.ids;
  meta : string;
  segs : segment array;
  total : int;
  anchor_every : int;
  anchors : (int, Snapshot.t) Hashtbl.t;  (* stop index -> state at its
                                             start *)
  snaps : (int, Snapshot.t) Hashtbl.t;    (* recorded snapshot id *)
  mutable base : Snapshot.t;  (* last captured or restored *)
  mutable epoch : int;
      (* the address-space epoch when [base] was set; while it is current
         the map's frames beyond [base] are the segment's private tail *)
  mutable seg : int;
  mutable off : int;         (* instructions retired into the segment *)
  mutable sys_seen : (int * int) list;  (* this segment so far, reversed *)
  mutable sys_count : int;   (* monotone, never reset *)
  mutable last_sys : (int * int) option;
  mutable bp_next : int;
  mutable bp_list : (int * bp) list;
}

let diverged fmt = Format.kasprintf (fun s -> raise (Diverged s)) fmt

(* Fuel is granted in [target - retired] slices: an instruction costs one
   fuel and a page-fault service one more, so fuel runs dry at or before
   the target retirement and execution never overshoots it.  [Some stop]
   is a non-fuel stop exactly at the target. *)
let run_until_retired (m : Libos.t) ~target =
  let cpu = m.Libos.cpu in
  let rec go stalls =
    let cur = cpu.Cpu.retired in
    if cur >= target then None
    else
      match Libos.run m ~fuel:(target - cur) with
      | Libos.Killed Libos.Fuel_exhausted ->
        let cur' = cpu.Cpu.retired in
        if cur' >= target then None
        else if cur' = cur then begin
          (* A guest-set sys_timeout can clamp the grant and an instruction
             may need a few fault services before retiring, but dozens of
             fuel-only rounds with zero retirement means replay is stuck. *)
          if stalls >= 64 then
            diverged "no forward progress at instruction %d (target %d)" cur'
              target;
          go (stalls + 1)
        end
        else go 0
      | stop ->
        let cur' = cpu.Cpu.retired in
        if cur' >= target then Some stop
        else
          diverged "premature stop %a at instruction %d (target %d)"
            Libos.pp_stop stop cur' target
  in
  go 0

let release_base t =
  if t.base != Snapshot.none then Snapshot.release_ext ~phys:t.phys t.base

let set_base t snap =
  t.base <- snap;
  t.epoch <- As.epoch t.machine.Libos.aspace

(* Capture into [table] at [key]: the snapshot, parented to the base,
   becomes the base, so the cursor's ref moves to it beside the table's.
   A replaced entry gives its ref back. *)
let record_snap t table key =
  let live = t.base != Snapshot.none in
  let snap =
    Snapshot.capture ~ids:t.ids
      ?parent:(if live then Some t.base else None)
      ~owns_image:(not live) ~depth:0 t.machine
  in
  Snapshot.retain ~n:2 snap;
  release_base t;
  Option.iter (Snapshot.release_ext ~phys:t.phys) (Hashtbl.find_opt table key);
  Hashtbl.replace table key snap;
  set_base t snap

let restore t snap =
  if As.epoch t.machine.Libos.aspace = t.epoch then
    ignore (As.discard_segment t.machine.Libos.aspace ~base:t.base.Snapshot.mem);
  Snapshot.retain snap;
  release_base t;
  Snapshot.restore t.machine snap;
  set_base t snap

let segments_of_log (log : Log.t) =
  let segs = ref [] in
  let pre = ref [] in
  let sys = ref [] in
  let time = ref 0 in
  List.iter
    (fun (e : Log.event) ->
      match e with
      | Log.Eval { retired; stop } ->
        segs :=
          { pre = List.rev !pre;
            sys = List.rev !sys;
            retired;
            stop;
            start_time = !time }
          :: !segs;
        time := !time + retired;
        pre := [];
        sys := []
      | Log.Sys { number; ret } -> sys := (number, ret) :: !sys
      | (Log.Capture _ | Log.Resume _ | Log.Set_rax _) as a -> pre := a :: !pre)
    log.Log.events;
  Array.of_list (List.rev !segs)

let nsegs t = Array.length t.segs

let at_end t =
  nsegs t = 0 || (t.seg = nsegs t - 1 && t.off = t.segs.(t.seg).retired)

let time t = if nsegs t = 0 then 0 else t.segs.(t.seg).start_time + t.off
let total_time t = t.total
let stop_index t = t.seg
let segments t = nsegs t
let meta t = t.meta
let machine t = t.machine

let current_stop t = if nsegs t = 0 then None else Some t.segs.(t.seg).stop

let apply_pre t k =
  List.iter
    (fun (e : Log.event) ->
      match e with
      | Log.Capture { snap } -> record_snap t t.snaps snap
      | Log.Resume { snap; rax } -> (
        match Hashtbl.find_opt t.snaps snap with
        | None -> diverged "stop %d: resume of unknown snapshot %d" k snap
        | Some s ->
          restore t s;
          if rax >= 0 then Cpu.set t.machine.Libos.cpu Reg.rax rax)
      | Log.Set_rax v -> Cpu.set t.machine.Libos.cpu Reg.rax v
      | Log.Sys _ | Log.Eval _ -> assert false)
    t.segs.(k).pre

(* Compare the syscalls executed so far in the current segment against the
   record: a strict prefix mid-segment, the full stream at the stop. *)
let check_sys t ~final =
  let s = t.segs.(t.seg) in
  let rec cmp i actual expected =
    match (actual, expected) with
    | [], [] -> ()
    | [], _ when not final -> ()
    | [], _ -> diverged "stop %d: replay performed %d of %d recorded syscalls" t.seg i (List.length s.sys)
    | _ :: _, [] -> diverged "stop %d: replay performed an unrecorded syscall (index %d)" t.seg i
    | (n, r) :: a', (n', r') :: e' ->
      if n <> n' || r <> r' then
        diverged
          "stop %d: syscall %d diverges (replay %d -> %d, recorded %d -> %d)"
          t.seg i n r n' r'
      else cmp (i + 1) a' e'
  in
  cmp 0 (List.rev t.sys_seen) s.sys

(* Execute [delta] more instructions of the current segment.  Reaching the
   segment's end validates the recorded stop and syscall stream and — when
   a successor exists — applies its boundary actions, normalising the
   position to (seg+1, 0) and dropping an anchor on the spacing grid. *)
let advance t delta =
  let s = t.segs.(t.seg) in
  assert (delta >= 0 && t.off + delta <= s.retired);
  let stop =
    if delta = 0 then None
    else
      run_until_retired t.machine
        ~target:(t.machine.Libos.cpu.Cpu.retired + delta)
  in
  t.off <- t.off + delta;
  if t.off < s.retired then begin
    (match stop with
    | Some actual ->
      diverged "stop %d at +%d: premature %a (the recorded run continued)"
        t.seg t.off Libos.pp_stop actual
    | None -> ());
    check_sys t ~final:false
  end
  else begin
    (match (s.stop, stop) with
    | (Log.Guess _ | Log.Guess_fail | Log.Strategy _ | Log.Hint _ | Log.Exit _), Some actual ->
      if Recorder.stop_code actual <> s.stop then
        diverged "stop %d: replay produced %a where the log records %a" t.seg
          Libos.pp_stop actual Log.pp_stop s.stop
    | (Log.Guess _ | Log.Guess_fail | Log.Strategy _ | Log.Hint _ | Log.Exit _), None ->
      diverged "stop %d: replay ran past the recorded %a" t.seg Log.pp_stop
        s.stop
    | Log.Kill msg, None ->
      (* A fuel-exhaustion kill is indistinguishable from the replayer's
         own fuel boundary and is validated by the retired count alone.  A
         fault kill is validated by attempting the next instruction: a
         faithful replay faults without retiring or mutating anything. *)
      if msg <> "fuel exhausted" then begin
        let r0 = t.machine.Libos.cpu.Cpu.retired in
        match Libos.run t.machine ~fuel:1 with
        | Libos.Killed (Libos.Fault _) as actual
          when t.machine.Libos.cpu.Cpu.retired = r0 ->
          if Recorder.stop_code actual <> s.stop then
            diverged "stop %d: replay was killed by %a, the log records %a"
              t.seg Libos.pp_stop actual Log.pp_stop s.stop
        | actual ->
          diverged "stop %d: expected kill (%s), replay produced %a" t.seg msg
            Libos.pp_stop actual
      end
    | Log.Kill msg, Some actual ->
      (* only fault kills can fire exactly at the target retirement *)
      if Recorder.stop_code actual <> s.stop then
        diverged "stop %d: replay was killed by %a, the log records kill (%s)"
          t.seg Libos.pp_stop actual msg
    | Log.Crash _, None ->
      (* A host exception (injected fault, out of frames) cannot reproduce
         on the clean replay machine; the recorded run's next boundary
         action always restores away the crashed tail, so the position is
         still exact. *)
      ()
    | Log.Crash _, Some actual ->
      diverged "stop %d: replay stopped (%a) where the recorded run crashed"
        t.seg Libos.pp_stop actual);
    check_sys t ~final:true;
    if t.seg < nsegs t - 1 then begin
      let k = t.seg + 1 in
      apply_pre t k;
      t.seg <- k;
      t.off <- 0;
      t.sys_seen <- [];
      if k mod t.anchor_every = 0 && not (Hashtbl.mem t.anchors k) then
        record_snap t t.anchors k
    end
  end

type pos = { p_seg : int; p_off : int }

let cur_pos t = { p_seg = t.seg; p_off = t.off }

let pos_compare a b =
  if a.p_seg <> b.p_seg then compare a.p_seg b.p_seg
  else compare a.p_off b.p_off

(* Normalise (k, retired_k) to (k+1, 0) so positions compare on one grid. *)
let normalize t p =
  if p.p_seg < nsegs t - 1 && p.p_off = t.segs.(p.p_seg).retired then
    { p_seg = p.p_seg + 1; p_off = 0 }
  else p

let pos_of_time t target =
  let target = max 0 (min target t.total) in
  if target >= t.total then
    { p_seg = nsegs t - 1; p_off = t.segs.(nsegs t - 1).retired }
  else begin
    let k = ref 0 in
    while
      not
        (t.segs.(!k).retired > 0
        && target < t.segs.(!k).start_time + t.segs.(!k).retired)
    do
      incr k
    done;
    { p_seg = !k; p_off = target - t.segs.(!k).start_time }
  end

let forward t target =
  while t.seg < target.p_seg do
    advance t (t.segs.(t.seg).retired - t.off)
  done;
  advance t (target.p_off - t.off)

(* Move to an arbitrary position.  Going backward restores the nearest
   anchor at or below the target stop and forward-executes from there —
   the O(anchor interval) reverse-seek. *)
let goto t target =
  let target = normalize t target in
  let c = pos_compare target (cur_pos t) in
  if c > 0 then forward t target
  else if c < 0 then begin
    let rec find k =
      if Hashtbl.mem t.anchors k then k else find (max 0 (k - t.anchor_every))
    in
    let a = find (target.p_seg - (target.p_seg mod t.anchor_every)) in
    Obs.Trace.instant (Mem.Phys_mem.registry t.phys) Obs.Names.replay_anchor_restores a 0;
    restore t (Hashtbl.find t.anchors a);
    t.seg <- a;
    t.off <- 0;
    t.sys_seen <- [];
    forward t target
  end

let create ?(anchor_every = 8) (b : Bundle.t) =
  if anchor_every <= 0 then
    invalid_arg "Replay.create: anchor_every must be positive";
  let phys = Mem.Phys_mem.create () in
  let machine = Libos.boot phys (Bundle.image b) in
  List.iter
    (fun (path, content) -> Libos.add_file machine ~path content)
    b.Bundle.files;
  Option.iter (Libos.set_stdin machine) b.Bundle.stdin;
  let segs = segments_of_log b.Bundle.log in
  let total = Array.fold_left (fun acc s -> acc + s.retired) 0 segs in
  let t =
    { machine;
      phys;
      ids = Snapshot.ids ();
      meta = b.Bundle.log.Log.meta;
      segs;
      total;
      anchor_every;
      anchors = Hashtbl.create 64;
      snaps = Hashtbl.create 64;
      base = Snapshot.none;
      epoch = -1;
      seg = 0;
      off = 0;
      sys_seen = [];
      sys_count = 0;
      last_sys = None;
      bp_next = 0;
      bp_list = [] }
  in
  Libos.set_sys_hook machine
    (Some
       (fun number ret ->
         t.sys_seen <- (number, ret) :: t.sys_seen;
         t.sys_count <- t.sys_count + 1;
         t.last_sys <- Some (number, ret)));
  if Array.length segs > 0 then apply_pre t 0;
  record_snap t t.anchors 0;
  t

(* {1 Breakpoints} *)

let add_bp t bp =
  let id = t.bp_next in
  t.bp_next <- id + 1;
  t.bp_list <- t.bp_list @ [ (id, bp) ];
  id

let remove_bp t id =
  let found = List.mem_assoc id t.bp_list in
  t.bp_list <- List.filter (fun (i, _) -> i <> id) t.bp_list;
  found

let bps t = t.bp_list

let find_bp t pred = List.find_opt (fun (_, b) -> pred b) t.bp_list

let has_fine_bps t =
  List.exists
    (fun (_, b) -> match b with Bp_pc _ | Bp_sys _ -> true | Bp_stop _ -> false)
    t.bp_list

(* {1 Motion} *)

(* Skip over zero-length segments (a crash before the first retirement):
   they are validated and their boundary actions applied, but hold no
   instruction to execute. *)
let rec skip_empty t =
  if (not (at_end t)) && t.segs.(t.seg).retired - t.off = 0 then begin
    advance t 0;
    skip_empty t
  end

let step t =
  if at_end t then End
  else begin
    skip_empty t;
    if at_end t then End
    else begin
      advance t 1;
      Stopped
    end
  end

let rstep t =
  let tm = time t in
  if tm = 0 then End
  else begin
    goto t (pos_of_time t (tm - 1));
    Stopped
  end

let seek t n =
  if nsegs t = 0 then End
  else begin
    let target = pos_of_time t n in
    Obs.Trace.instant (Mem.Phys_mem.registry t.phys) Obs.Names.replay_seeks target.p_seg 0;
    goto t target;
    Stopped
  end

let seek_stop t k =
  if nsegs t = 0 then End
  else begin
    let k = max 0 (min k (nsegs t - 1)) in
    Obs.Trace.instant (Mem.Phys_mem.registry t.phys) Obs.Names.replay_seeks k 0;
    goto t { p_seg = k; p_off = 0 };
    Stopped
  end

let continue t =
  let fine = has_fine_bps t in
  let rec go () =
    if at_end t then End
    else if fine then begin
      let count0 = t.sys_count in
      match step t with
      | End -> End
      | _ -> (
        let rip = t.machine.Libos.cpu.Cpu.rip in
        match
          find_bp t (function
            | Bp_pc a -> a = rip
            | Bp_sys n -> (
              t.sys_count > count0
              && match t.last_sys with Some (num, _) -> num = n | None -> false)
            | Bp_stop n -> n = t.seg && t.off = 0)
        with
        | Some (id, b) -> Break (id, b)
        | None -> go ())
    end
    else begin
      advance t (t.segs.(t.seg).retired - t.off);
      if at_end t then End
      else
        match
          find_bp t (function
            | Bp_stop n -> n = t.seg && t.off = 0
            | Bp_pc _ | Bp_sys _ -> false)
        with
        | Some (id, b) -> Break (id, b)
        | None -> go ()
    end
  in
  if at_end t then End else go ()

(* Reverse-continue: scan stop segments backwards; each candidate segment
   is re-entered at its start (an anchored goto) and, when instruction-level
   breakpoints exist, stepped through to find the *last* hit strictly
   before the starting position. *)
let rcontinue t =
  if nsegs t = 0 then End
  else begin
    let start = cur_pos t in
    if pos_compare start { p_seg = 0; p_off = 0 } = 0 then End
    else begin
      let fine = has_fine_bps t in
      let before p = pos_compare (normalize t p) start < 0 in
      let rec scan k =
        if k < 0 then begin
          goto t { p_seg = 0; p_off = 0 };
          End
        end
        else begin
          let stop_hit =
            find_bp t (function
              | Bp_stop n -> n = k && before { p_seg = k; p_off = 0 }
              | Bp_pc _ | Bp_sys _ -> false)
          in
          if not fine then begin
            match stop_hit with
            | Some (id, b) ->
              goto t { p_seg = k; p_off = 0 };
              Break (id, b)
            | None -> scan (k - 1)
          end
          else begin
            let hi =
              if k = start.p_seg then start.p_off else t.segs.(k).retired
            in
            goto t { p_seg = k; p_off = 0 };
            let best = ref (Option.map (fun h -> ({ p_seg = k; p_off = 0 }, h)) stop_hit) in
            for o = 1 to hi do
              let count0 = t.sys_count in
              advance t 1;
              let here = normalize t { p_seg = k; p_off = o } in
              if before { p_seg = k; p_off = o } then begin
                let rip = t.machine.Libos.cpu.Cpu.rip in
                match
                  find_bp t (function
                    | Bp_pc a -> a = rip
                    | Bp_sys n -> (
                      t.sys_count > count0
                      && match t.last_sys with
                         | Some (num, _) -> num = n
                         | None -> false)
                    | Bp_stop _ -> false)
                with
                | Some h -> best := Some (here, h)
                | None -> ()
              end
            done;
            match !best with
            | Some (p, (id, b)) ->
              goto t p;
              Break (id, b)
            | None -> scan (k - 1)
          end
        end
      in
      scan start.p_seg
    end
  end

let read_mem t ~addr ~len =
  if len <= 0 then Some ""
  else
    match As.read_bytes t.machine.Libos.aspace ~addr ~len with
    | b -> Some (Bytes.to_string b)
    | exception As.Page_fault _ -> None

let audit t =
  let live = Hashtbl.create 64 in
  let rec add (s : Snapshot.t) =
    if not (s.freed || Hashtbl.mem live s.id) then begin
      Hashtbl.replace live s.id s;
      Option.iter add s.parent
    end
  in
  add t.base;
  Hashtbl.iter (fun _ s -> add s) t.anchors;
  Hashtbl.iter (fun _ s -> add s) t.snaps;
  Mem.Phys_mem.audit t.phys ~reachable:(fun visit ->
      As.iter_frames t.machine.Libos.aspace (visit "the cursor's map");
      Hashtbl.iter
        (fun id (s : Snapshot.t) ->
          Stdx.Ptmap.iter
            (fun _ -> visit (Printf.sprintf "snapshot %d" id))
            (As.snapshot_map_for_debug s.mem))
        live)
