module As = Mem.Addr_space
module Libos = Os.Libos
module Explorer = Core.Explorer
module Parallel = Core.Parallel
module Service = Core.Service
module Tenancy = Core.Tenancy

type divergence = { pipeline : string; detail : string }

(* A pipeline's observable behaviour, flattened for comparison. *)
type run = {
  outcome : string;
  transcript : string;
  terminals : (string * string * int) list;  (* kind, output, depth *)
  instructions : int;
  regs : int list;  (* all 16 GPRs, then rip *)
  mem_digest : int;
}

let kind_to_string = function
  | Explorer.Exit n -> Printf.sprintf "exit(%d)" n
  | Explorer.Fail -> "fail"
  | Explorer.Path_killed r -> "killed: " ^ r

let outcome_to_string = function
  | Explorer.Completed n -> Printf.sprintf "completed(%d)" n
  | Explorer.Stopped_first_exit n -> Printf.sprintf "first-exit(%d)" n
  | Explorer.Aborted s -> "aborted: " ^ s

(* FNV-1a folded into OCaml's 63-bit int range. *)
let fnv_string h s =
  String.fold_left
    (fun h c -> (h lxor Char.code c) * 0x100000001b3 land max_int)
    h s

let fnv_int h v = fnv_string h (string_of_int v)

let page_string aspace vpn =
  Bytes.to_string
    (As.read_bytes aspace ~addr:(vpn * Mem.Page.size) ~len:Mem.Page.size)

let aspace_digest aspace =
  List.fold_left
    (fun h vpn -> fnv_string (fnv_int h vpn) (page_string aspace vpn))
    0xbf29ce484222325  (* FNV offset basis, truncated to the int range *)
    (List.sort compare (As.mapped_vpns aspace))

let flat_terminal (t : Explorer.terminal) =
  (kind_to_string t.kind, t.output, t.depth)

let machine_run (machine : Libos.t) (r : Explorer.result) =
  let cpu = machine.Libos.cpu in
  { outcome = outcome_to_string r.Explorer.outcome;
    transcript = r.Explorer.transcript;
    terminals = List.map flat_terminal r.Explorer.terminals;
    instructions = r.Explorer.stats.Core.Stats.instructions;
    regs = Array.to_list cpu.Vcpu.Cpu.regs @ [ cpu.Vcpu.Cpu.rip ];
    mem_digest = aspace_digest machine.Libos.aspace }

(* A multi-worker run: no single final machine state to compare. *)
let workers_run outcome transcript terminals (stats : Core.Stats.t) =
  { outcome = outcome_to_string outcome;
    transcript;
    terminals = List.map flat_terminal terminals;
    instructions = stats.instructions;
    regs = [];
    mem_digest = 0 }

let domains_run (r : Parallel.result) =
  workers_run r.outcome r.transcript r.terminals r.stats

(* {1 Comparison} *)

let terminal_to_string (kind, output, depth) =
  Printf.sprintf "%s depth=%d output=%S" kind depth output

let diff_list name to_string xs ys =
  if List.length xs <> List.length ys then
    Some
      (Printf.sprintf "%s count: %d vs %d" name (List.length xs)
         (List.length ys))
  else
    List.find_map
      (fun (i, (x, y)) ->
        if x = y then None
        else
          Some
            (Printf.sprintf "%s[%d]: %s vs %s" name i (to_string x)
               (to_string y)))
      (List.mapi (fun i p -> (i, p)) (List.combine xs ys))

(* Exact agreement: deterministic pipelines must be indistinguishable. *)
let compare_exact pipeline (a : run) (b : run) =
  let check =
    if a.outcome <> b.outcome then
      Some (Printf.sprintf "outcome: %s vs %s" a.outcome b.outcome)
    else if a.transcript <> b.transcript then
      Some
        (Printf.sprintf "transcript: %S vs %S" a.transcript b.transcript)
    else
      match diff_list "terminal" terminal_to_string a.terminals b.terminals with
      | Some _ as d -> d
      | None ->
        if a.instructions <> b.instructions then
          Some
            (Printf.sprintf "instructions retired: %d vs %d" a.instructions
               b.instructions)
        else
          match diff_list "reg" string_of_int a.regs b.regs with
          | Some _ as d -> d
          | None ->
            if a.mem_digest <> b.mem_digest then
              Some
                (Printf.sprintf "memory digest: %x vs %x" a.mem_digest
                   b.mem_digest)
            else None
  in
  Option.map (fun detail -> { pipeline; detail }) check

(* Multiset agreement: parallel backends complete paths in
   schedule-dependent order, so sort terminals and transcript lines. *)
let compare_multiset pipeline (a : run) (b : run) =
  let lines s = List.sort compare (String.split_on_char '\n' s) in
  let check =
    if a.outcome <> b.outcome then
      Some (Printf.sprintf "outcome: %s vs %s" a.outcome b.outcome)
    else
      match
        diff_list "sorted terminal" terminal_to_string
          (List.sort compare a.terminals)
          (List.sort compare b.terminals)
      with
      | Some _ as d -> d
      | None ->
        diff_list "sorted transcript line"
          (Printf.sprintf "%S")
          (lines a.transcript) (lines b.transcript)
  in
  Option.map (fun detail -> { pipeline; detail }) check

(* {1 Pipelines} *)

let boot ?poison image ~icache =
  Libos.boot ~icache (Mem.Phys_mem.create ?poison ()) image

let explorer_pipeline ?on_stop ?fuel_per_step ~icache image =
  let machine = boot image ~icache in
  let r = Explorer.run ?on_stop ?fuel_per_step machine in
  machine_run machine r

(* A poisoned run audits its frames at every stop ([Explorer.run]);
   [check_image] reports a failed audit as pipeline [audit]. *)
let audited name run =
  try run () with Explorer.Audit_failed d ->
    raise (Explorer.Audit_failed (name ^ ", " ^ d))

(* Checkpoint round-trips at scheduler stops: a full eager
   capture/restore plus an incremental-chain capture and restore of the
   newest state.  If Ckpt is faithful these are invisible. *)
(* The chain is rebased every few checkpoints: [incr_restore ~index]
   replays every delta up to [index], so an unbounded chain would make the
   k-th checkpoint cost O(k) page maps — quadratic over a long exploration
   (the first cut of this hook spent >90% of the whole oracle's runtime
   here).  Short chains keep the round trip honest and the cost linear. *)
let ckpt_chain_limit = 8

let ckpt_on_stop every =
  let stops = ref 0 in
  let chain = ref None in
  fun (m : Libos.t) (_ : Libos.stop) ->
    incr stops;
    if !stops mod every = 0 then begin
      let full = Ckpt.full_capture m.Libos.aspace in
      Ckpt.full_restore m.Libos.aspace full;
      match !chain with
      | Some c when Ckpt.incr_count c < ckpt_chain_limit ->
        Ckpt.incr_capture c m.Libos.aspace;
        Ckpt.incr_restore m.Libos.aspace c ~index:(Ckpt.incr_count c - 1)
      | _ -> chain := Some (Ckpt.incr_start m.Libos.aspace)
    end

(* The cooperative scheduler at [Parallel]'s worker count and quantum, on
   a poisoned memory: it audits its frames at every stop. *)
let coop_run ?faults ?retry_budget name image =
  let { Parallel.workers; quantum; _ } = Parallel.default_config in
  let r =
    audited name (fun () ->
        Explorer.run_image ~poison:true ~workers ~quantum ?faults ?retry_budget
          image)
  in
  workers_run r.outcome r.transcript r.terminals r.stats

(* Replay the baseline's Addr_space operation trace against the Ept radix
   page table and compare final memory images page by page. *)
let ept_replay ~initial_pages ~ops ~(final : Libos.t) =
  let phys = Mem.Phys_mem.create () in
  let ept = Mem.Ept.create phys in
  List.iter (fun (vpn, data) -> Mem.Ept.map_data ept ~vpn data) initial_pages;
  let snaps = Hashtbl.create 64 in
  List.iter
    (fun (op : As.trace_op) ->
      match op with
      | T_map_zero vpn -> Mem.Ept.map_zero ept ~vpn
      | T_map_data (vpn, data) -> Mem.Ept.map_data ept ~vpn data
      | T_map_shared _ ->
        (* generated guests never use sys_share (its semantics are
           deliberately backend-specific); nothing to replay *)
        ()
      | T_unmap vpn -> Mem.Ept.unmap ept ~vpn
      | T_write_u8 (addr, v) -> Mem.Ept.write_u8 ept addr v
      | T_write_u64 (addr, v) -> Mem.Ept.write_u64 ept addr v
      | T_write_bytes (addr, data) -> Mem.Ept.write_bytes ept ~addr data
      | T_seal -> ()  (* generation bookkeeping; no observable content *)
      | T_snapshot id -> Hashtbl.replace snaps id (Mem.Ept.snapshot ept)
      | T_restore id -> Mem.Ept.restore ept (Hashtbl.find snaps id))
    ops;
  let aspace = final.Libos.aspace in
  let vpns = List.sort compare (As.mapped_vpns aspace) in
  let mismatch =
    List.find_map
      (fun vpn ->
        if not (Mem.Ept.is_mapped ept ~vpn) then
          Some (Printf.sprintf "vpn %#x mapped in Addr_space, not in Ept" vpn)
        else
          let a = page_string aspace vpn in
          let b =
            Bytes.to_string
              (Mem.Ept.read_bytes ept ~addr:(vpn * Mem.Page.size)
                 ~len:Mem.Page.size)
          in
          if a <> b then Some (Printf.sprintf "vpn %#x contents differ" vpn)
          else None)
      vpns
  in
  let mismatch =
    match mismatch with
    | Some _ -> mismatch
    | None ->
      if Mem.Ept.mapped_pages ept <> List.length vpns then
        Some
          (Printf.sprintf "page count: %d in Addr_space vs %d in Ept"
             (List.length vpns) (Mem.Ept.mapped_pages ept))
      else None
  in
  Option.map (fun detail -> { pipeline = "ept-replay"; detail }) mismatch

(* {1 Entry points} *)

let first_some checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

let check_pipelines ~ckpt_every image =
  (* Baseline: explorer under block dispatch, tracing every Addr_space op,
     on a poisoned allocator — so it audits its frames at every stop, and
     a freed buffer the guest can still read holds the poison byte here
     but old data in the unpoisoned pipelines below.  Its exact live peak
     sizes the tiered-store budget. *)
  let machine = boot ~poison:true image ~icache:true in
  let initial_pages =
    List.map
      (fun vpn -> (vpn, page_string machine.Libos.aspace vpn))
      (As.mapped_vpns machine.Libos.aspace)
  in
  let ops = ref [] in
  As.set_trace machine.Libos.aspace (Some (fun op -> ops := op :: !ops));
  let base_result = audited "baseline" (fun () -> Explorer.run machine) in
  As.set_trace machine.Libos.aspace None;
  let base = machine_run machine base_result in
  let ops = List.rev !ops in
  let peak = Mem.Phys_mem.peak_frames_live (As.phys machine.Libos.aspace) in
  first_some
    [ (fun () ->
        compare_exact "icache-off" base
          (explorer_pipeline ~icache:false image));
      (fun () ->
        (* Fuel exhaustion mid-block, deterministically: a quantum far
           smaller than typical block lengths lands Out_of_fuel inside
           fused blocks at every step, and tight-fuel explorer runs kill
           paths at the quantum — so block dispatch and the uncached
           reference must agree on every retired count, kill point and
           register. *)
        let tight = 97 in
        compare_exact "tight-fuel"
          (explorer_pipeline ~icache:false ~fuel_per_step:tight image)
          (explorer_pipeline ~icache:true ~fuel_per_step:tight image));
      (fun () ->
        compare_exact "ckpt-roundtrip" base
          (explorer_pipeline ~icache:true
             ~on_stop:(ckpt_on_stop ckpt_every) image));
      (fun () ->
        (* Tiered payload store under maximum stress: a frame budget below
           the baseline's live peak and a hook that demotes every live
           payload to its page delta at every scheduler stop, so every
           resume promotes — on a poisoned, audited allocator, whose
           audit counts the store's entry holders against the frontier.
           Promotion is supposed to be invisible: exact agreement,
           instruction count included. *)
        let phys =
          Mem.Phys_mem.create ~capacity:(max 64 (peak / 3)) ~poison:true ()
        in
        let m = Libos.boot ~icache:true phys image in
        let r =
          audited "tiered-store" (fun () ->
              Explorer.run ~tier_stress:1 m)
        in
        compare_exact "tiered-store" base (machine_run m r));
      (fun () ->
        compare_multiset "parallel-coop" base (coop_run "parallel-coop" image));
      (fun () ->
        compare_multiset "parallel-domains" base
          (domains_run (Parallel.run image)));
      (fun () -> ept_replay ~initial_pages ~ops ~final:machine) ]

let check_image ?(ckpt_every = 1) image =
  try check_pipelines ~ckpt_every image
  with Explorer.Audit_failed detail -> Some { pipeline = "audit"; detail }

(* {1 Fault mode}

   A recoverable fault plan must be invisible at the multiset level: the
   supervised schedulers retry crashed paths and failed allocations,
   so the terminal multiset and transcript-line multiset must equal the
   fault-free baseline's.  The retry budget is sized so that a recoverable
   plan can never quarantine a path: one worker-crash trigger plus one
   per-allocator allocation failure per domain bounds the crashes any
   single path can absorb. *)

let check_plan ~base image plan =
  let retry_budget = Parallel.default_config.workers + 3 in
  first_some
    [ (fun () ->
        compare_multiset "faults-coop" base
          (coop_run ~faults:plan ~retry_budget "faults-coop" image));
      (fun () ->
        let config =
          { Parallel.default_config with faults = Some plan; retry_budget }
        in
        compare_multiset "faults-domains" base
          (domains_run (Parallel.run ~config image))) ]

let check_image_faults ?(seed = 0) ?(plans = 4) image =
  let machine = boot image ~icache:true in
  let base = machine_run machine (Explorer.run machine) in
  let rec go i =
    if i >= plans then None
    else
      let plan = Inject.generate ~seed:(seed + i) in
      match
        try check_plan ~base image plan
        with Explorer.Audit_failed detail -> Some { pipeline = "audit"; detail }
      with
      | Some d -> Some (plan, d)
      | None -> go (i + 1)
  in
  go 0

let check_prog_faults ?seed ?plans prog =
  check_image_faults ?seed ?plans
    (Isa.Asm_parser.assemble_text (Gen_prog.render prog))

let check_text ?ckpt_every text =
  check_image ?ckpt_every (Isa.Asm_parser.assemble_text text)

let check_prog ?ckpt_every prog =
  check_text ?ckpt_every (Gen_prog.render prog)

(* {1 Multi-tenant mode}

   The same generated guest as [tenants] interleaved sessions in one
   shared pool, cross-checked against a single-tenant baseline pool run
   by the same driver.  Exploration is an explicit-frontier DFS expressed
   through [Tenancy.post]/[Tenancy.step], so the pool's round-robin
   scheduler interleaves the tenants edge by edge; every tenant must
   produce the baseline's terminal multiset bit for bit, and the shared
   pool's dedup accounting must obey its invariants: boot references
   scale linearly with the tenant count, distinct hash-consed frames
   match the single-tenant table, every live frame is attributed (charged
   to some tenant's account or shared in the dedup table), and all
   references drain to zero at teardown. *)

(* One tenant's DFS state: a stack of (candidate, choice, depth, output
   prefix) edges still to resume, and the terminals found so far. *)
type walk = {
  w_id : Tenancy.id;
  mutable w_frontier : (Service.ref_ * int * int * string) list;
  mutable w_terminals : (string * string * int) list;
  mutable w_dead : bool;
}

let walk_note w ~depth ~prefix (o : Service.outcome) =
  match o with
  | Service.Ready { candidate; arity; output } ->
    let prefix = prefix ^ output in
    for c = arity - 1 downto 0 do
      w.w_frontier <- (candidate, c, depth + 1, prefix) :: w.w_frontier
    done
  | Service.Finished { status; output } ->
    w.w_terminals <-
      (Printf.sprintf "exit(%d)" status, prefix ^ output, depth)
      :: w.w_terminals
  | Service.Failed { output } ->
    w.w_terminals <- ("fail", prefix ^ output, depth) :: w.w_terminals
  | Service.Crashed msg ->
    (* The pool tears the tenant down on a crash; the rest of the
       frontier is unreachable.  Deterministic guests crash at the same
       point in every session, so the truncation is identical across
       tenants and the multisets still agree. *)
    w.w_terminals <- ("killed: " ^ msg, prefix, depth) :: w.w_terminals

let walk_of_admission = function
  | Tenancy.Admitted (id, first) ->
    let w = { w_id = id; w_frontier = []; w_terminals = []; w_dead = false } in
    walk_note w ~depth:0 ~prefix:"" first;
    w
  | Tenancy.Queued _ | Tenancy.Rejected ->
    invalid_arg "Oracle: unbounded pool refused an admission"

(* Round-robin over the walks, one edge per tenant per round, until every
   frontier drains.  Each post is served by an immediate [step], so the
   pool's own scheduler decides which tenant runs — with one request
   outstanding that is exactly the posting tenant, keeping the DFS order
   deterministic per tenant while the pool interleaves them. *)
let run_walks pool walks =
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun w ->
        if not w.w_dead then
          match w.w_frontier with
          | [] -> ()
          | (r, c, depth, prefix) :: rest ->
            w.w_frontier <- rest;
            if Tenancy.post pool w.w_id r ~choice:c () then begin
              progress := true;
              match Tenancy.step pool with
              | Some (id, o) when id = w.w_id -> walk_note w ~depth ~prefix o
              | Some _ | None ->
                invalid_arg "Oracle: pool served the wrong tenant"
            end
            else begin
              (* torn down by an earlier crash: drop the dead frontier *)
              w.w_dead <- true;
              w.w_frontier <- []
            end)
      walks
  done

let check_image_tenants ?(tenants = 4) image =
  let fail fmt =
    Printf.ksprintf (fun detail -> Some { pipeline = "tenancy"; detail }) fmt
  in
  let base_pool = Tenancy.create () in
  let base = walk_of_admission (Tenancy.boot base_pool image) in
  let refs1 = Mem.Phys_mem.dedup_refs (Tenancy.phys base_pool) in
  let entries1 = Mem.Phys_mem.dedup_entries (Tenancy.phys base_pool) in
  run_walks base_pool [ base ];
  let pool = Tenancy.create () in
  let walks =
    List.init tenants (fun _ -> walk_of_admission (Tenancy.boot pool image))
  in
  let phys = Tenancy.phys pool in
  let refs_boot = Mem.Phys_mem.dedup_refs phys in
  let entries_boot = Mem.Phys_mem.dedup_entries phys in
  (* crash-at-boot teardown already returned that tenant's references, so
     scale by the sessions that actually survived admission *)
  let expected_refs = Tenancy.live_tenants pool * refs1 in
  if refs_boot <> expected_refs then
    fail "dedup refs after %d boots: %d, expected %d (baseline %d per tenant)"
      tenants refs_boot expected_refs refs1
  else if entries_boot <> entries1 then
    fail "dedup entries after %d boots: %d, baseline table has %d" tenants
      entries_boot entries1
  else begin
    run_walks pool walks;
    let sorted w = List.sort compare w.w_terminals in
    let base_terms = sorted base in
    match
      List.find_map
        (fun w ->
          Option.map
            (Printf.sprintf "tenant %d vs baseline: %s" w.w_id)
            (diff_list "sorted terminal" terminal_to_string base_terms
               (sorted w)))
        walks
    with
    | Some detail -> Some { pipeline = "tenancy"; detail }
    | None ->
      let charged =
        List.fold_left
          (fun n w -> n + Tenancy.tenant_frames pool w.w_id)
          0 walks
      in
      let live = Mem.Phys_mem.frames_live phys in
      let entries = Mem.Phys_mem.dedup_entries phys in
      if live > charged + entries then
        fail "unattributed frames: %d live > %d charged + %d shared" live
          charged entries
      else begin
        List.iter (fun w -> Tenancy.kill pool w.w_id) walks;
        Tenancy.kill base_pool base.w_id;
        let refs = Mem.Phys_mem.dedup_refs phys in
        let entries = Mem.Phys_mem.dedup_entries phys in
        let leak pool =
          match Mem.Phys_mem.assert_quiescent (Tenancy.phys pool) with
          | () -> None
          | exception Failure msg -> Some msg
        in
        if refs <> 0 then
          fail "dedup refs did not drain at teardown: %d left" refs
        else if entries <> 0 then
          fail "dedup entries survived their last reference: %d left" entries
        else
          match (leak base_pool, leak pool) with
          | Some msg, _ -> fail "baseline pool leaked at teardown: %s" msg
          | None, Some msg -> fail "shared pool leaked at teardown: %s" msg
          | None, None -> None
      end
  end

let check_prog_tenants ?tenants prog =
  check_image_tenants ?tenants
    (Isa.Asm_parser.assemble_text (Gen_prog.render prog))

type report = {
  programs : int;
  failures : (Gen_prog.prog * divergence) list;
}

let run_budget ?cfg ?ckpt_every ~seed ~budget () =
  let failures = ref [] in
  for i = 0 to budget - 1 do
    let prog = Gen_prog.generate ?cfg (seed + i) in
    match check_prog ?ckpt_every prog with
    | None -> ()
    | Some d -> failures := (prog, d) :: !failures
  done;
  { programs = budget; failures = List.rev !failures }
