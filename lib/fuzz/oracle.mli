(** The differential oracle: one guest program, every execution pipeline.

    All pipelines promise the same semantics — that is the paper's
    transparency claim (§3) — so the oracle runs a program through each
    and demands they agree:

    + {b baseline}: {!Core.Explorer} with the block cache (the default),
      recording the address-space operation trace (see
      {!Mem.Addr_space.set_trace}), on a poisoned allocator: freed
      buffers are filled with a marker byte and the run audits its frames
      at every scheduler stop (see {!Core.Explorer.run});
    + {b icache-off}: the same explorer with the block cache disabled
      (the uncached {!Vcpu.Interp.step} reference) on an unpoisoned
      allocator — must match the baseline {e exactly} (outcome,
      transcript, ordered terminals, retired instruction count, final
      registers, memory digest).  A stale byte the guest could read from
      a reused buffer would read as poison on one side only;
    + {b tight-fuel}: block dispatch vs the uncached reference under a
      fuel quantum far below typical block lengths, compared exactly
      against each other — every step lands [Out_of_fuel] {e inside} a
      fused block, so partial-block fuel accounting, kill points and
      register state are all exercised;
    + {b ckpt-roundtrip}: the explorer again, but an [on_stop] hook
      performs an eager {!Ckpt} full-checkpoint capture/restore (plus an
      incremental-chain round-trip) at every k-th scheduler stop — a
      faithful checkpoint implementation is invisible, so this too must
      match exactly;
    + {b tiered-store}: the explorer under a frame budget below the
      baseline's exact live peak with the tiered {!Core.Reclaim} store
      hammered at every scheduler stop — every live payload demoted to
      its page delta, so every resume promotes — on a poisoned, audited
      allocator (the store runs without snapshot refcounts).  Promotion
      is supposed to be invisible: exact agreement, retired instruction
      count included;
    + {b parallel-coop} / {b parallel-domains}: 4 workers, as
      {!Core.Explorer.run_image}'s cooperative rounds on a poisoned,
      audited allocator and as {!Core.Parallel}'s domains.  Path
      completion order is schedule-dependent, so these are compared as
      multisets: same outcome, same terminal multiset, same transcript
      line multiset;
    + {b ept-replay}: the baseline's operation trace replayed against the
      {!Mem.Ept} radix-page-table backend; the final memory images must
      be page-for-page identical.

    A failed frame audit (an early free, a leak or a ref imbalance) in
    the baseline, tiered-store or parallel-coop run is pipeline [audit],
    naming the run, the stop and the offending frame or counts.

    Generated guests avoid the documented semantic deltas between
    backends (no [sys_share], no stdin, no [sys_timeout]), which is what
    entitles the oracle to demand agreement. *)

type divergence = { pipeline : string; detail : string }

val check_text : ?ckpt_every:int -> string -> divergence option
(** Assemble the [.s] text and cross-check all pipelines; [None] means
    they all agree.  [ckpt_every] (default 1) is the k in
    "checkpoint round-trip every k-th scheduler stop".
    @raise Isa.Asm_parser.Parse_error on unparseable input. *)

val check_prog : ?ckpt_every:int -> Gen_prog.prog -> divergence option

val check_image_faults :
  ?seed:int -> ?plans:int -> Isa.Asm.image -> (Inject.plan * divergence) option
(** Fault-injection mode: generate [plans] (default 4) seeded fault plans
    and run 4 workers under each, cooperatively ([faults-coop], audited as
    parallel-coop is) and on domains ([faults-domains]).  Every plan is
    recoverable by construction (faults fire once and only during
    worker-path evaluation), so each run's outcome, terminal multiset and
    transcript-line multiset must equal the fault-free baseline's — crash
    recovery and allocation-failure retry must be semantically invisible.
    Returns the first diverging plan; a failed audit is pipeline
    [audit]. *)

val check_prog_faults :
  ?seed:int -> ?plans:int -> Gen_prog.prog -> (Inject.plan * divergence) option

val check_image_tenants : ?tenants:int -> Isa.Asm.image -> divergence option
(** Multi-tenant mode: the same guest as [tenants] (default 4) interleaved
    sessions in one shared {!Core.Tenancy} pool, cross-checked against a
    single-tenant baseline pool driven identically.  Every tenant must
    reproduce the baseline's terminal multiset exactly, and the pool's
    dedup accounting must hold: boot-time references scale linearly with
    the surviving tenant count, the hash-consed table matches the
    single-tenant one, live frames never exceed the sum of per-tenant
    charges plus shared frames, and references drain to zero once every
    tenant is killed — as does every frame: both pools must pass
    {!Mem.Phys_mem.assert_quiescent} after the kills. *)

val check_prog_tenants : ?tenants:int -> Gen_prog.prog -> divergence option

type report = {
  programs : int;  (** programs checked *)
  failures : (Gen_prog.prog * divergence) list;
}

val run_budget :
  ?cfg:Gen_prog.cfg -> ?ckpt_every:int -> seed:int -> budget:int -> unit ->
  report
(** Generate and check [budget] programs seeded [seed], [seed+1], ... *)
