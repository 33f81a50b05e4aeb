(** Multi-tenant snapshot service: N independent {!Service}-style sessions
    multiplexed over one shared physical frame pool.

    This is the pool behind the paper's "externally-controlled search"
    story at scale: many clients hold candidate references into their own
    sessions, all sessions draw frames from a single bounded {!Mem.Phys_mem},
    and same-image sessions share read-only code pages through the
    content-addressed dedup table (COW on first divergence — the frame-
    generation discipline that makes snapshots sound makes the sharing
    invisible).

    Robustness contract: a misbehaving tenant — guest crash, deadline
    overrun, frame-budget blowout, injected allocation fault —
    is contained to its own session.  Pressure demotes the offender's
    candidates first (through the tiered {!Reclaim} store), then the rest
    of the pool least-recently-scheduled first, tenants scheduled at the
    same tick in id order (a stable sort of the tenants by id); admission control queues or
    rejects new boots past the high watermark instead of letting them fail
    allocations mid-resume; scheduling is round-robin, one resume per
    tenant per round, under a per-resume instruction deadline.  Every
    other tenant's candidates remain bit-identical resumable throughout. *)

type t

type id = int
(** Tenant handle; dense from 0 in admission order, and the index of the
    tenant in the pool.  A boot that raises takes no id. *)

type state =
  | Running
  | Crashed of string   (** guest killed or allocation failed mid-step *)
  | Evicted of string   (** pool policy: frame budget exceeded *)
  | Retired             (** explicit {!kill} *)

type admission =
  | Admitted of id * Service.outcome
      (** booted to its first choice point (or terminal) *)
  | Queued of int  (** admission deferred; position in the boot queue *)
  | Rejected       (** boot queue full *)

val create :
  ?capacity:int ->
  ?fuel_per_step:int ->
  ?frame_budget:int ->
  ?deadline:int ->
  ?max_tenants:int ->
  ?queue_limit:int ->
  ?dedup:bool ->
  unit -> t
(** [capacity] bounds the shared frame pool (0 = unbounded; live and
    per-tenant counts are exact either way).  [frame_budget]
    bounds any one tenant's live frames (0 = none): an over-budget tenant
    is demoted to page deltas and evicted only if still over.
    [deadline] bounds a single resume (0 = none) through the
    same fuel mechanism as the guest-visible [sys_timeout]; a trip is a
    deadline kill.  [max_tenants] caps concurrent running sessions
    (0 = none).  [queue_limit] bounds the admission queue (beyond it boots
    are rejected outright).  [dedup] (default true) routes image pages
    through the content-addressed table. *)

val boot :
  ?files:(string * string) list -> ?stdin:string -> t -> Isa.Asm.image ->
  admission
(** Admit, queue, or reject a new session.  Admission is refused while the
    pool is at the tenant cap or above the allocator's pressure watermark —
    queued boots are retried by {!pump} with exponential backoff. *)

val pump : t -> (id * Service.outcome) list
(** Retry queued boots, oldest first, admitting while the pool has room;
    returns the sessions admitted by this call.  FIFO: the head blocks the
    queue until it is due and admissible. *)

val post : t -> id -> Service.ref_ -> choice:int -> ?stdin:string -> unit -> bool
(** Enqueue a resume request for the tenant.  [false] if the tenant is no
    longer running.  Requests are served by {!step}, round-robin across
    tenants. *)

val step : t -> (id * Service.outcome) option
(** Serve one request: pop the next tenant in round-robin order, run one
    of its queued resumes under the pool deadline, police budgets, and
    return the outcome.  [None] when no tenant has work queued.  A tenant
    with more requests re-enters the round at the back — one slot per
    round is the fairness guarantee. *)

val next_tenant : t -> id option
(** The tenant {!step} would serve next — lets tests and benches aim an
    injected fault at a specific victim's next allocation. *)

val kill : t -> id -> unit
(** Explicitly retire a tenant: clear its queued requests and return every
    frame it holds to the pool (see {!Service.teardown}) together with its
    dedup-table references.  Once every tenant is retired the pool passes
    {!Mem.Phys_mem.assert_quiescent}.  Idempotent on non-running
    tenants. *)

(** {1 Introspection} *)

val phys : t -> Mem.Phys_mem.t
val service : t -> id -> Service.t
(** The underlying session, for direct candidate inspection in tests.
    Resumes should go through {!post}/{!step} so pressure attribution and
    budget policing see them. *)

val state : t -> id -> state option
val tenant_count : t -> int
val live_tenants : t -> int

val tenant_frames : t -> id -> int
(** Live frames currently charged to the tenant's account. *)

val resumes_of : t -> id -> int
val pending_boots : t -> int

val dedup_ratio : t -> float
(** Outstanding dedup references per distinct hash-consed frame — the
    sharing multiplier (1.0 when the table is empty). *)

(** {1 Counters} *)

val metrics : t -> Obs.Metrics.t
(** The pool's registry: admissions, rejections, queued boots, deadline
    kills, budget evictions and crashes ([tenancy.*]). *)

val pressure_level2 : t -> int
(** [tenancy.pressure_level2]: pressure events where shedding the offender
    alone did not clear the watermark and the pool fell back to LRU
    shedding across tenants. *)
