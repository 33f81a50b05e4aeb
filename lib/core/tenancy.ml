(* Multi-tenant snapshot service: N independent Service-style sessions
   multiplexed over ONE shared physical memory.

   The robustness contract, in one sentence: a misbehaving tenant — guest
   crash, deadline overrun, frame-budget blowout, injected allocation
   fault — is contained to its own session, demoted first under pressure,
   and evicted if still over budget, while every other tenant's published
   candidates stay bit-identical resumable.

   Mechanisms, and where each lives:

   - {e sharing}: same-image tenants boot through the content-addressed
     dedup table ([Phys_mem.dedup_frame]); read-only code pages are one
     frame pool-wide, COW'd private on first divergence under the same
     generation discipline that makes snapshots sound.
   - {e attribution}: each tenant allocates under its own
     [Phys_mem.fresh_account], so the pool can ask exactly how many live
     frames any tenant holds ([Phys_mem.account_frames_live]).
   - {e two-level pressure}: the pool owns the allocator's pressure
     handler.  Level 1 sheds the OFFENDER — the tenant whose allocation
     tripped the watermark (it is the one running).  Level 2, only if the
     mark is still exceeded, sheds the remaining tenants least-recently-
     scheduled first.  Both levels demote payloads through the tiered
     [Reclaim] store (allocation-free).
   - {e admission control}: past the high watermark (or the tenant cap)
     a new boot is queued with exponential backoff, or rejected when the
     queue is full — allocations mid-resume never fail on behalf of an
     over-eager admit.
   - {e fair scheduling}: one resume per tenant per round (a run queue a
     tenant re-enters at the back while it has work), with a per-resume
     instruction deadline enforced through the same fuel bound
     [sys_timeout] uses.
   - {e containment}: [Service.advance] already converts an allocation
     failure mid-step into a [Crashed] outcome for that session only;
     the pool classifies the crash (deadline vs fault vs allocation),
     retires the tenant, and returns every frame it held.
   - {e exact accounting}: a frame dies only through [Phys_mem.free_frame],
     so live and per-account counts are exact at every decision point and
     killing every tenant leaves the pool quiescent
     ([Phys_mem.assert_quiescent]). *)

module Libos = Os.Libos
module Phys = Mem.Phys_mem
module M = Obs.Metrics
module N = Obs.Names

type id = int

type state =
  | Running
  | Crashed of string
  | Evicted of string
  | Retired

type tenant = {
  id : id;
  account : int;
  svc : Service.t;
  mutable st : state;
  mutable last_tick : int;
  mutable resumes : int;
  mutable queued_up : bool; (* member of the run queue *)
  requests : (Service.ref_ * int * string option) Queue.t;
}

type pending_boot = {
  p_image : Isa.Asm.image;
  p_files : (string * string) list;
  p_stdin : string option;
  mutable retry_at : int;
  mutable backoff : int;
}

type t = {
  phys : Phys.t;
  fuel_per_step : int;
  frame_budget : int;
  deadline : int;
  max_tenants : int;
  queue_limit : int;
  dedup : bool;
  mutable tenants : tenant array;
      (* indexed by id, the first [count] slots: ids are issued densely
         from 0 and a tenant is never removed, only retired *)
  mutable count : int;
  mutable tick : int;
  run_queue : id Queue.t;
  mutable pending : pending_boot list; (* FIFO; admitted from the head *)
  mutable running : id;                (* the pressure offender; -1 none *)
  metrics : M.t;                       (* the pool's [tenancy.*] counts *)
}

type admission =
  | Admitted of id * Service.outcome
  | Queued of int
  | Rejected

(* {1 Pressure} *)

(* A pattern, not [=]: [state] carries strings, so [=] would be the
   polymorphic compare, on every step. *)
let is_running tn = match tn.st with Running -> true | _ -> false

let known t id = id >= 0 && id < t.count

let tenant t id ~fn =
  if not (known t id) then
    invalid_arg (Printf.sprintf "Tenancy.%s: unknown tenant" fn);
  t.tenants.(id)

let live_tenant_count t =
  let n = ref 0 in
  for id = 0 to t.count - 1 do
    if is_running t.tenants.(id) then incr n
  done;
  !n

(* Level 1: the offender is whoever is allocating — the running tenant, or
   the booting one (admission already gated on the watermark, so a boot
   that trips pressure is squeezed like anyone else).  Level 2: remaining
   tenants, least-recently-scheduled first, ties in id order.  Demotion
   only — reads frame bytes, allocates nothing, so this is legal inside
   [Phys_mem.alloc]. *)
let pressure t () =
  if t.running >= 0 && is_running t.tenants.(t.running) then
    ignore (Service.shed t.tenants.(t.running).svc);
  if not (Phys.below_watermark t.phys) then begin
    M.incr t.metrics N.tenancy_pressure_level2;
    let others = ref [] in
    for id = t.count - 1 downto 0 do
      let tn = t.tenants.(id) in
      if id <> t.running && is_running tn then others := tn :: !others
    done;
    let lru =
      List.stable_sort (fun a b -> Int.compare a.last_tick b.last_tick) !others
    in
    List.iter
      (fun tn ->
        if not (Phys.below_watermark t.phys) then ignore (Service.shed tn.svc))
      lru
  end

let create ?(capacity = 0) ?(fuel_per_step = 50_000_000)
    ?(frame_budget = 0) ?(deadline = 0) ?(max_tenants = 0)
    ?(queue_limit = 64) ?(dedup = true) () =
  let phys = Phys.create ~capacity () in
  let t =
    { phys;
      fuel_per_step;
      frame_budget;
      deadline;
      max_tenants;
      queue_limit;
      dedup;
      tenants = [||];
      count = 0;
      tick = 0;
      run_queue = Queue.create ();
      pending = [];
      running = -1;
      metrics = M.create () }
  in
  if capacity > 0 then Phys.set_pressure_handler phys (Some (pressure t));
  t

(* {1 Teardown} *)

(* Retire a tenant's footprint: every frame it holds goes back to the pool
   and its dedup-table references are returned.  The service record stays
   (clients may still query state and counters). *)
let teardown_tenant tn st =
  if is_running tn then begin
    tn.st <- st;
    Queue.clear tn.requests;
    ignore (Service.teardown tn.svc);
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:tn.id Obs.Names.tenancy_evict
  end

let kill t id = teardown_tenant (tenant t id ~fn:"kill") Retired

(* {1 Admission} *)

let admissible t =
  (t.max_tenants = 0 || live_tenant_count t < t.max_tenants)
  && (Phys.capacity t.phys = 0 || Phys.below_watermark t.phys)

(* The tenant takes the next id once its boot has returned. *)
let add_tenant t tn =
  if t.count = Array.length t.tenants then begin
    let a = Array.make (max 8 (2 * t.count)) tn in
    Array.blit t.tenants 0 a 0 t.count;
    t.tenants <- a
  end;
  t.tenants.(t.count) <- tn;
  t.count <- t.count + 1

let admit t image files stdin =
  let id = t.count in
  let account = Phys.fresh_account t.phys in
  let fuel_per_step =
    if t.deadline > 0 then min t.fuel_per_step t.deadline else t.fuel_per_step
  in
  let svc, first =
    Service.boot ~fuel_per_step ~files ?stdin ~phys:t.phys
      ~manage_pressure:false ~dedup:t.dedup ~account image
  in
  let tn =
    { id;
      account;
      svc;
      st = Running;
      last_tick = t.tick;
      resumes = 0;
      queued_up = false;
      requests = Queue.create () }
  in
  add_tenant t tn;
  M.incr t.metrics N.tenancy_admits;
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:id ~b:(live_tenant_count t) Obs.Names.tenancy_admit;
  (* A boot that crashed on arrival (e.g. allocation failure despite the
     admission gate) is contained exactly like a crashed resume. *)
  (match first with
  | Service.Crashed msg ->
    M.incr t.metrics N.tenancy_crashes;
    teardown_tenant tn (Crashed msg)
  | _ -> ());
  (id, first)

let boot ?(files = []) ?stdin t image =
  if admissible t then begin
    let id, first = admit t image files stdin in
    Admitted (id, first)
  end
  else if List.length t.pending >= t.queue_limit then begin
    M.incr t.metrics N.tenancy_rejects;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:(live_tenant_count t) Obs.Names.tenancy_reject;
    Rejected
  end
  else begin
    t.pending <-
      t.pending
      @ [ { p_image = image;
            p_files = files;
            p_stdin = stdin;
            retry_at = t.tick + 1;
            backoff = 1 } ];
    M.incr t.metrics N.tenancy_queued_boots;
    let pos = List.length t.pending in
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:pos Obs.Names.tenancy_queue;
    Queued pos
  end

(* Retry queued boots, oldest first, stopping at the first that is not yet
   due or still inadmissible (FIFO: nobody jumps the queue).  An attempt
   blocked by pressure doubles its backoff. *)
let pump t =
  t.tick <- t.tick + 1;
  let admitted = ref [] in
  let rec go () =
    match t.pending with
    | [] -> ()
    | head :: rest ->
      if head.retry_at > t.tick then ()
      else if admissible t then begin
        t.pending <- rest;
        let id, first = admit t head.p_image head.p_files head.p_stdin in
        admitted := (id, first) :: !admitted;
        go ()
      end
      else begin
        head.backoff <- head.backoff * 2;
        head.retry_at <- t.tick + head.backoff
      end
  in
  go ();
  List.rev !admitted

(* {1 Scheduling} *)

let enqueue_run t tn =
  if (not tn.queued_up) && is_running tn && not (Queue.is_empty tn.requests)
  then begin
    tn.queued_up <- true;
    Queue.push tn.id t.run_queue
  end

let post t id r ~choice ?stdin () =
  let tn = tenant t id ~fn:"post" in
  if not (is_running tn) then false
  else begin
    Queue.push (r, choice, stdin) tn.requests;
    enqueue_run t tn;
    true
  end

let next_tenant t = Queue.peek_opt t.run_queue

(* Post-step police work, in degradation order: classify a crash; then the
   frame budget — demote everything the tenant holds (each demotion frees
   its frames on the spot, so the account is exact right after) and evict
   only if the tenant is still over. *)
let police t tn outcome =
  (match (outcome : Service.outcome) with
  | Crashed msg ->
    (match Service.last_crash_reason tn.svc with
    | Some Libos.Fuel_exhausted when t.deadline > 0 ->
      M.incr t.metrics N.tenancy_deadline_kills;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:tn.id Obs.Names.tenancy_deadline_kill
    | _ -> ());
    M.incr t.metrics N.tenancy_crashes;
    teardown_tenant tn (Crashed msg)
  | Ready _ | Finished _ | Failed _ -> ());
  if is_running tn && t.frame_budget > 0
     && Phys.account_frames_live t.phys tn.account > t.frame_budget
  then begin
    ignore (Service.demote_all tn.svc);
    if Phys.account_frames_live t.phys tn.account > t.frame_budget then begin
      M.incr t.metrics N.tenancy_budget_evictions;
      teardown_tenant tn (Evicted "frame budget")
    end
  end

let rec step t =
  if Queue.is_empty t.run_queue then None
  else begin
    let id = Queue.take t.run_queue in
    t.tick <- t.tick + 1;
    let tn = t.tenants.(id) in
    tn.queued_up <- false;
    if not (is_running tn) || Queue.is_empty tn.requests then step t
    else begin
      let r, choice, stdin = Queue.pop tn.requests in
      tn.last_tick <- t.tick;
      tn.resumes <- tn.resumes + 1;
      t.running <- id;
      let outcome =
        match Service.resume tn.svc r ~choice ?stdin () with
        | o -> t.running <- -1; o
        | exception e -> t.running <- -1; raise e
      in
      police t tn outcome;
      enqueue_run t tn;
      Some (id, outcome)
    end
  end

(* {1 Introspection} *)

let phys t = t.phys
let service t id = (tenant t id ~fn:"service").svc

let state t id = if known t id then Some t.tenants.(id).st else None

let tenant_count t = t.count
let live_tenants t = live_tenant_count t
let tenant_frames t id =
  if known t id then Phys.account_frames_live t.phys t.tenants.(id).account
  else 0

let resumes_of t id = if known t id then t.tenants.(id).resumes else 0

let pending_boots t = List.length t.pending
let metrics t = t.metrics
let pressure_level2 t = M.get t.metrics N.tenancy_pressure_level2

let dedup_ratio t =
  let entries = Phys.dedup_entries t.phys in
  if entries = 0 then 1.0
  else float_of_int (Phys.dedup_refs t.phys) /. float_of_int entries
