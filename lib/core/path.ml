module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module As = Mem.Addr_space
module Frontier = Search.Frontier
module M = Obs.Metrics
module N = Obs.Names

type terminal_kind =
  | Exit of int
  | Fail
  | Path_killed of string

type terminal = {
  kind : terminal_kind;
  output : string;
  depth : int;
}

type outcome =
  | Completed of int
  | Stopped_first_exit of int
  | Aborted of string

(* One int per terminal, in completion order, not a list cell or a pointer
   slot: a search's terminals live until it ends, so the result list is
   built only then.  A silent failure at depth [d] ([Fail] with no output),
   most terminals of a typical search, is [d] itself: logging it is a
   store into an int array, which needs no write barrier and holds no
   pointer for the GC to follow.  Any other terminal is [-1 - i], its
   index in [others].  The codes fill fixed-size chunks, so the log never
   copies or re-allocates what it holds, and a log that stays empty (a
   [Service] session's) allocates none. *)
type terminal_log = {
  mutable chunk : int array;  (* being filled *)
  mutable fill : int;         (* codes in [chunk] *)
  mutable full : int array list;  (* earlier chunks, newest first *)
  others : terminal Stdx.Vec.t;
}

let chunk_size = 1024

let terminal_log () =
  { chunk = [||];
    fill = 0;
    full = [];
    others =
      Stdx.Vec.create ~capacity:16 ~dummy:{ kind = Fail; output = ""; depth = -1 } () }

let log_code log code =
  if log.fill = Array.length log.chunk then begin
    if log.fill > 0 then log.full <- log.chunk :: log.full;
    log.chunk <- Array.make chunk_size 0;
    log.fill <- 0
  end;
  Array.unsafe_set log.chunk log.fill code;
  log.fill <- log.fill + 1

type t = {
  machine : Libos.t;
  phys : Mem.Phys_mem.t;
  refcount : bool;  (* the snapshot refcount discipline runs *)
  inj : Inject.t;
  armed : bool;     (* [inj] injects something *)
  transcript : Buffer.t option;
  terminals : terminal_log;
  mutable marker : string list;  (* stdout harvest point *)
  mutable depth : int;
  mutable hint : int;            (* pending [sys_guess_hint] *)
  mutable base : Snapshot.t;  (* [Snapshot.none] while no segment runs *)
  mutable origin : Ext.payload;  (* what a crash retry restores *)
  mutable origin_index : int;    (* and the [rax] it delivers there *)
  mutable epoch : int;
      (* the address-space epoch right after the segment began; while it is
         current no capture has frozen the map, so everything acquired since
         is the segment's private COW tail.  -1 once that tail is freed. *)
  mutable seg_retired : int;  (* instructions retired when the segment began *)
  mutable retries : int;
}

(* The origin of a path entered outside any scope, which never crashes
   into a retry: one static box, so [enter] allocates nothing. *)
let no_origin = Ext.Snap Snapshot.none

let create ?(refcount = true) ?(inj = Inject.none) ?transcript
    ?(terminals = terminal_log ()) ?(owns_map = false) (machine : Libos.t) =
  { machine;
    phys = As.phys machine.aspace;
    refcount;
    inj;
    armed = not (Inject.is_none inj);
    transcript;
    terminals;
    marker = Libos.stdout_chunks machine;
    depth = 0;
    hint = 0;
    base = Snapshot.none;
    origin = no_origin;
    origin_index = 1;
    epoch = (if owns_map then As.epoch machine.aspace else -1);
    seg_retired = machine.cpu.Cpu.retired;
    retries = 0 }

let machine t = t.machine
let depth t = t.depth
let live t = t.base != Snapshot.none

(* 0 when not live: the placeholder's *)
let lineage_length t = t.base.Snapshot.lineage_length

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
  match kind with
  | Fail when String.length output = 0 && depth >= 0 -> log_code t.terminals depth
  | Fail | Exit _ | Path_killed _ ->
    let log = t.terminals in
    log_code log (-1 - Stdx.Vec.push log.others { kind; output; depth })

let terminals log =
  (* one lookup grows the shared table to every depth the log holds *)
  let deepest = ref (-1) in
  let scan chunk fill =
    for i = 0 to fill - 1 do
      let code = Array.unsafe_get chunk i in
      if code > !deepest then deepest := code
    done
  in
  scan log.chunk log.fill;
  List.iter (fun c -> scan c chunk_size) log.full;
  if !deepest >= 0 then ignore (silent_fail !deepest);
  let silent = Atomic.get silent_fails in
  (* built back to front: one list, no reversed copy *)
  let build acc chunk fill =
    let acc = ref acc in
    for i = fill - 1 downto 0 do
      let code = Array.unsafe_get chunk i in
      acc :=
        (if code >= 0 then silent.(code) else Stdx.Vec.get log.others (-1 - code))
        :: !acc
    done;
    !acc
  in
  List.fold_left (fun acc c -> build acc c chunk_size) (build [] log.chunk log.fill)
    log.full

(* The machine was just restored to [snap]: a segment begins there. *)
let begin_segment t snap ~rax =
  (* Siblings share their base, origin and stdout list: storing only what
     changed skips most write barriers of a switch. *)
  if t.base != snap then t.base <- snap;
  t.epoch <- As.epoch t.machine.aspace;
  t.seg_retired <- t.machine.cpu.Cpu.retired;
  let out = Libos.stdout_chunks t.machine in
  if t.marker != out then t.marker <- out;
  t.hint <- 0;
  Cpu.set t.machine.cpu Reg.rax rax

(* The caller set the origin first: a crash during the restore is still this
   origin's, at this depth. *)
let enter_at t metrics snap ~rax ~depth =
  t.depth <- depth;
  Snapshot.restore t.machine snap;
  M.incr metrics N.snapshot_restores;
  begin_segment t snap ~rax

let enter t metrics snap ~rax ~depth =
  t.origin <- no_origin;
  t.origin_index <- 1;
  t.retries <- 0;
  enter_at t metrics snap ~rax ~depth

let restore t snap ~rax ~depth =
  Snapshot.restore t.machine snap;
  t.depth <- depth;
  begin_segment t snap ~rax

let restart t ~resolve =
  let snap = resolve t.origin in
  restore t snap ~rax:t.origin_index ~depth:t.depth;
  snap

let open_scope t metrics ~ids =
  ignore (harvest t);
  Cpu.set t.machine.cpu Reg.rax 0;
  let root = Snapshot.capture ~ids ~depth:0 t.machine in
  M.incr metrics N.snapshot_captures;
  if t.refcount then Snapshot.retain root;
  t.base <- root;
  t.epoch <- As.epoch t.machine.aspace;
  t.seg_retired <- t.machine.cpu.Cpu.retired;
  t.origin <- Ext.Snap root;
  t.origin_index <- 1;
  t.retries <- 0;
  t.depth <- 0;
  Cpu.set t.machine.cpu Reg.rax 1;
  root

let run ?a ?(armed = true) t ~fuel ~span =
  let m = t.machine in
  let armed = armed && t.armed in
  let fuel = if armed then Inject.jitter t.inj ~base:fuel else fuel in
  let stop =
    if Obs.Trace.enabled () then begin
      (* the placeholder's id is -1 *)
      let a = match a with Some a -> a | None -> t.base.Snapshot.id in
      let r0 = m.cpu.Cpu.retired in
      Obs.Trace.span_begin ~a span;
      match Libos.run m ~fuel with
      | stop ->
        Obs.Trace.span_end ~a ~b:(m.cpu.Cpu.retired - r0) span;
        Obs.Trace.instant (Libos.stop_trace_name stop);
        stop
      | exception e ->
        Obs.Trace.span_end ~a ~b:(m.cpu.Cpu.retired - r0) span;
        raise e
    end
    else Libos.run m ~fuel
  in
  if armed then Inject.stop_tick t.inj;
  stop

type event =
  | Terminal
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
  Terminal

(* A runaway dies once its segment has run [preempt] instructions, or the
   guest's own timeout if that is tighter: [Libos.run] applies the timeout
   to each quantum, and only the segment is the guest's "one run". *)
let kill_bound t preempt =
  let timeout = Libos.timeout t.machine in
  if timeout > 0 && timeout < preempt then timeout else preempt

let classify ?(preempt = 0) t metrics (stop : Libos.stop) =
  match stop with
  | Guess { n } when n > 0 ->
    ignore (harvest t);
    Branch n
  | Guess _ ->
    ignore (harvest t);
    M.incr metrics N.search_fails;
    terminal t Fail ""
  | Guess_fail ->
    let output = harvest t in
    M.incr metrics N.search_fails;
    terminal t Fail output
  | Guess_hint { dist } ->
    hinted t dist;
    Hinted
  | Guess_strategy { strategy } -> Scope strategy
  | Killed Fuel_exhausted
    when t.machine.cpu.Cpu.retired - t.seg_retired < kill_bound t preempt ->
    Preempted
  | Exited { status } ->
    let output = harvest t in
    M.incr metrics N.search_exits;
    terminal t (Exit status) output
  | Killed reason ->
    let output = harvest t in
    M.incr metrics N.search_kills;
    terminal t (Path_killed (reason_to_string reason)) output

let capture t ~ids =
  let live = live t in
  Snapshot.capture ~ids
    ?parent:(if live then Some t.base else None)
    ~owns_image:(not live) ~depth:t.depth t.machine

let branch t metrics ~ids ~n =
  let snap = capture t ~ids in
  M.incr metrics N.search_guesses;
  M.incr metrics N.snapshot_captures;
  M.add metrics N.search_extensions_pushed n;
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

let release t snap = if t.refcount then Snapshot.release_ext ~phys:t.phys snap

let evict t metrics (frontier : Ext.payload Frontier.t) =
  match frontier.evicted () with
  | [] -> ()
  | dropped ->
    (* Safe before restoring away: any snapshot on a running path's lineage
       is pinned by a live child or that path's unreleased ref. *)
    List.iter
      (fun (e : Ext.t) ->
        let n = Frontier.remaining e in
        M.add metrics N.search_evicted n;
        match e.parent with
        | Snap s ->
          for _ = 1 to n do
            release t s
          done
        | Ref _ -> ())
      dropped

let discard t =
  if As.epoch t.machine.aspace = t.epoch then begin
    if live t then
      ignore (As.discard_segment t.machine.aspace ~base:t.base.Snapshot.mem)
    else ignore (As.discard_map t.machine.aspace);
    t.epoch <- -1
  end

let resume t store h ~rax =
  discard t;
  (* after the discard: a promotion clobbers the machine *)
  let snap = Reclaim.get store h in
  restore t snap ~rax ~depth:(Reclaim.depth store h + 1)

let retire t =
  discard t;
  if t.refcount && live t then Snapshot.release_ext ~phys:t.phys t.base;
  t.base <- Snapshot.none

let abandon t =
  let base = t.base in
  t.base <- Snapshot.none;
  t.epoch <- -1;
  base

(* [retire], then [enter]; the base is left in place until the next one
   overwrites it, unless [resolve] fails. *)
let switch t metrics ~resolve origin ~index ~depth =
  discard t;
  if t.refcount && live t then Snapshot.release_ext ~phys:t.phys t.base;
  (* after the discard: a store's promotion clobbers the machine *)
  let snap =
    match resolve origin with
    | snap -> snap
    | exception e ->
      t.base <- Snapshot.none;
      raise e
  in
  if t.origin != origin then t.origin <- origin;
  t.origin_index <- index;
  t.retries <- 0;
  enter_at t metrics snap ~rax:index ~depth;
  snap

let quarantine t metrics ~budget e =
  if Obs.Trace.enabled () then Obs.Trace.instant Obs.Names.sched_quarantine;
  M.incr metrics N.sched_quarantined;
  M.incr metrics N.search_kills;
  record t
    (Path_killed
       (Printf.sprintf "crash: %s (quarantined after %d attempts)"
          (Printexc.to_string e) budget))
    "";
  `Quarantined

let supervise t metrics ~budget ~retry e =
  (* the crashed attempt's COW tail dies here, before any re-entry *)
  discard t;
  if t.retries >= budget - 1 then quarantine t metrics ~budget e
  else begin
    t.retries <- t.retries + 1;
    M.incr metrics N.sched_requeues;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:t.retries Obs.Names.sched_requeue;
    match retry () with
    | () -> `Retried
    | exception e' -> quarantine t metrics ~budget e'
  end
