module As = Mem.Addr_space
module Ptmap = Stdx.Ptmap
module Frontier = Search.Frontier
module Insn = Isa.Insn
module Reg = Isa.Reg

type fork_mode = Cow | Eager_copy

type strategy = [ `Dfs | `Bfs | `Random of int | `Coverage ]

type config = {
  fork_mode : fork_mode;
  strategy : strategy;
  max_paths : int;
  max_steps_per_path : int;
  solver_budget : int;
  symbolic_stdin : int;
  check_feasibility_at_fork : bool;
}

let default_config =
  { fork_mode = Cow;
    strategy = `Dfs;
    max_paths = 10_000;
    max_steps_per_path = 1_000_000;
    solver_budget = 200_000;
    symbolic_stdin = 8;
    check_feasibility_at_fork = true }

type path_end =
  | Exited of int
  | Faulted of string
  | Unsupported of string
  | Step_limit

type path_report = {
  end_ : path_end;
  input : (int * int) list;
  constraints : Cons.t list;
  steps : int;
  depth : int;
  output : string;
}

type result = {
  paths : path_report list;
  explored : int;
  infeasible : int;
  forks : int;
  solver_calls : int;
  solver_cache_hits : int;
  concretizations : int;
  eager_pages_copied : int;
  instructions : int;
  mem : Obs.Metrics.t;
}

(* Symbolic memory overlay entry: a value of the given width lives at this
   address, shadowing concrete memory. *)
type entry = { width : Insn.width; value : Expr.t }

let width_len = function Insn.B -> 1 | Insn.Q -> 8

(* Flags are always "the result of comparing a with b"; Test and ALU
   results compare against zero. *)
type flags = { fa : Expr.t; fb : Expr.t }

type mem_ref = Shared of As.snapshot | Own of As.t

type pending = {
  p_regs : Expr.t array;
  p_rip : int;
  p_flags : flags;
  p_overlay : entry Ptmap.t;
  p_constraints : Cons.t list;
  p_depth : int;
  p_steps : int;
  p_stdin : int;
  p_out : string list;
  p_mem : mem_ref;
}

exception Path_end of path_end

let make_frontier : strategy -> pending Frontier.t = function
  | `Dfs -> Frontier.dfs ()
  | `Bfs -> Frontier.bfs ()
  | `Random seed -> Frontier.random ~seed ()
  | `Coverage ->
    Frontier.best_first ~name:"coverage" ~score:(fun m -> Float.of_int m.Frontier.hint) ()

let run ?(config = default_config) (image : Isa.Asm.image) =
  let phys = Mem.Phys_mem.create () in
  (* Boot state: map the image and a stack, like the libOS but without OS
     state (the executor interposes on syscalls itself). *)
  let boot_aspace () =
    let aspace = As.create phys in
    let len = String.length image.code in
    let pages = (len + Mem.Page.size - 1) / Mem.Page.size in
    for p = 0 to pages - 1 do
      let off = p * Mem.Page.size in
      let chunk = String.sub image.code off (min Mem.Page.size (len - off)) in
      As.map_data aspace ~vpn:(Mem.Page.vpn_of_addr (image.origin + off)) chunk
    done;
    let stack_top = 0x4000000 in
    for vpn = Mem.Page.vpn_of_addr (stack_top - (64 * Mem.Page.size))
        to Mem.Page.vpn_of_addr stack_top - 1 do
      As.map_zero aspace ~vpn
    done;
    aspace, stack_top
  in
  let shared_aspace, stack_top = boot_aspace () in

  (* Mutable execution context for the path currently running. *)
  let regs = Array.make Reg.count (Expr.const 0) in
  let rip = ref image.entry in
  let flags = ref { fa = Expr.const 0; fb = Expr.const 0 } in
  let overlay = ref Ptmap.empty in
  let constraints = ref [] in
  let depth = ref 0 in
  let steps = ref 0 in
  let stdin_pos = ref 0 in
  let out = ref [] in
  let cur_aspace = ref shared_aspace in
  (* Frame lifetime under [Cow]: the running path derives from [base] (the
     snapshot it last restored or captured, [None] on the boot map), and
     while the epoch is [seg_epoch] its frames beyond [base] are its own
     tail.  Fork snapshots are kept with their parents, newest first, and
     released child-first once the run is over. *)
  let base = ref None in
  let seg_epoch = ref (As.epoch shared_aspace) in
  let fork_snaps = ref [] in

  let frontier = make_frontier config.strategy in
  let covered = ref Stdx.Intset.empty in

  let explored = ref 0 in
  let infeasible = ref 0 in
  let forks = ref 0 in
  let solver_calls = ref 0 in
  let cache_hits = ref 0 in
  let concretizations = ref 0 in
  let eager_pages = ref 0 in
  let instructions = ref 0 in
  let reports = ref [] in

  let clone_eager src =
    let dst = As.create phys in
    List.iter
      (fun vpn ->
        let data = As.read_bytes src ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size in
        As.map_data dst ~vpn (Bytes.to_string data);
        incr eager_pages)
      (As.mapped_vpns src);
    dst
  in

  let save_pending ~at_rip ~constraint_ ~mem =
    { p_regs = Array.copy regs;
      p_rip = at_rip;
      p_flags = !flags;
      p_overlay = !overlay;
      p_constraints = constraint_ :: !constraints;
      p_depth = !depth + 1;
      p_steps = !steps;
      p_stdin = !stdin_pos;
      p_out = !out;
      p_mem = mem }
  in

  let install (p : pending) =
    Array.blit p.p_regs 0 regs 0 Reg.count;
    rip := p.p_rip;
    flags := p.p_flags;
    overlay := p.p_overlay;
    constraints := p.p_constraints;
    depth := p.p_depth;
    steps := p.p_steps;
    stdin_pos := p.p_stdin;
    out := p.p_out;
    match p.p_mem with
    | Shared snap ->
      As.restore shared_aspace snap;
      base := Some snap;
      seg_epoch := As.epoch shared_aspace;
      cur_aspace := shared_aspace
    | Own aspace -> cur_aspace := aspace
  in

  (* Free the ended path's frames: an eager copy's whole map, or the COW
     tail no fork froze.  The map dangles until the next [install]. *)
  let end_path () =
    match config.fork_mode with
    | Eager_copy -> ignore (As.discard_map !cur_aspace)
    | Cow ->
      if As.epoch shared_aspace = !seg_epoch then begin
        (match !base with
        | Some b -> ignore (As.discard_segment shared_aspace ~base:b)
        | None -> ignore (As.discard_map shared_aspace));
        seg_epoch := -1
      end
  in

  (* After the last path: eager copies left on the frontier, then the fork
     snapshots child-first, the first of them owning the boot image. *)
  let release_all () =
    let rec drain () =
      match frontier.Frontier.pop () with
      | exception Frontier.Empty -> ()
      | e ->
        (match e.Frontier.parent.p_mem with
        | Own aspace -> ignore (As.discard_map aspace)
        | Shared _ -> ());
        drain ()
    in
    drain ();
    List.iter
      (fun (snap, parent) ->
        match parent with
        | Some parent -> ignore (As.release_snapshot ~phys ~parent snap)
        | None -> ignore (As.release_image ~phys snap))
      !fork_snaps
  in

  (* Solver results are memoised on the structural constraint list; path
     prefixes repeat constantly (fork feasibility checks, then the path-end
     solve), so the cache carries much of the load, like KLEE's
     counterexample cache. *)
  let solver_cache : (Cons.t list, Cons.solve_result) Hashtbl.t =
    Hashtbl.create 256
  in
  let solve cs =
    match Hashtbl.find_opt solver_cache cs with
    | Some cached ->
      incr cache_hits;
      cached
    | None ->
      incr solver_calls;
      let result = Cons.solve ~budget:config.solver_budget cs in
      Hashtbl.replace solver_cache cs result;
      result
  in

  let feasible cs =
    match solve cs with
    | Cons.Model _ | Cons.Budget_exceeded -> true
    | Cons.Unsat -> false
  in

  (* {1 Memory access} *)

  let unsupported msg = raise (Path_end (Unsupported msg)) in

  let concrete_of expr what =
    match Expr.to_concrete expr with
    | Some v -> v
    | None -> unsupported (what ^ " must be concrete")
  in

  (* KLEE-style concretisation: pick a model value for the expression and
     pin it with an equality constraint.  Sound (the path stays feasible)
     but incomplete (other values of the expression are not explored). *)
  let concretize expr what =
    match Expr.to_concrete expr with
    | Some v -> v
    | None -> (
      match solve !constraints with
      | Cons.Unsat -> unsupported "infeasible path at concretisation"
      | Cons.Budget_exceeded -> unsupported (what ^ ": solver budget")
      | Cons.Model model -> (
        let env v = match List.assoc_opt v model with Some x -> x | None -> 0 in
        match Expr.eval ~env expr with
        | None -> unsupported (what ^ ": unevaluable under model")
        | Some v ->
          incr concretizations;
          constraints :=
            Cons.make ~cond:Isa.Insn.E ~a:expr ~b:(Expr.const v) ~expect:true
            :: !constraints;
          v))
  in

  let effective (m : Insn.mem) =
    let base = match m.base with None -> Expr.const 0 | Some reg -> regs.(Reg.to_int reg) in
    let index =
      match m.index with
      | None -> Expr.const 0
      | Some (reg, scale) -> Expr.bin Insn.Imul regs.(Reg.to_int reg) (Expr.const scale)
    in
    let addr = Expr.bin Insn.Add (Expr.bin Insn.Add base index) (Expr.const m.disp) in
    concretize addr "memory address"
  in

  (* overlapping overlay entries within [addr, addr+len) *)
  let overlay_overlaps addr len =
    let lo = addr - 7 in
    let hits = ref [] in
    for a = lo to addr + len - 1 do
      match Ptmap.find_opt a !overlay with
      | Some e when a + width_len e.width > addr && a < addr + len ->
        hits := (a, e) :: !hits
      | Some _ | None -> ()
    done;
    List.rev !hits
  in

  let overlay_clear addr len =
    List.iter (fun (a, _) -> overlay := Ptmap.remove a !overlay) (overlay_overlaps addr len)
  in

  let concrete_read width addr =
    match width with
    | Insn.B -> As.read_u8 !cur_aspace addr
    | Insn.Q -> As.read_u64 !cur_aspace addr
  in

  let load width addr : Expr.t =
    match overlay_overlaps addr (width_len width) with
    | [] -> Expr.const (concrete_read width addr)
    | [ (a, e) ] when a = addr && e.width = width -> e.value
    | hits -> (
      match width with
      | Insn.B -> unsupported "partial symbolic byte load"
      | Insn.Q ->
        (* compose a quad from byte entries and concrete bytes *)
        if List.exists (fun (_, e) -> e.width = Insn.Q) hits then
          unsupported "misaligned symbolic quad load"
        else begin
          let acc = ref (Expr.const 0) in
          for byte = 7 downto 0 do
            let a = addr + byte in
            let piece =
              match Ptmap.find_opt a !overlay with
              | Some e -> e.value
              | None -> Expr.const (As.read_u8 !cur_aspace a)
            in
            acc := Expr.bin Insn.Or (Expr.bin Insn.Shl !acc (Expr.const 8)) piece
          done;
          !acc
        end)
  in

  let store width addr value =
    match Expr.to_concrete value with
    | Some v ->
      overlay_clear addr (width_len width);
      (match width with
      | Insn.B -> As.write_u8 !cur_aspace addr v
      | Insn.Q -> As.write_u64 !cur_aspace addr v)
    | None ->
      overlay_clear addr (width_len width);
      (* materialise the page so the COW cost is paid like a real write *)
      (match width with
      | Insn.B -> As.write_u8 !cur_aspace addr 0
      | Insn.Q -> As.write_u64 !cur_aspace addr 0);
      overlay := Ptmap.add addr { width; value } !overlay
  in

  (* {1 Forking} *)

  (* Fork on a symbolic condition.  [prep_true]/[prep_false] apply any
     side-specific register effect (Setcc) before the corresponding side is
     captured or continued; the surviving path continues on the true side
     when it is feasible. *)
  let no_prep () = () in
  let fork ?(prep_true = no_prep) ?(prep_false = no_prep) ~constraint_true
      ~constraint_false ~rip_true ~rip_false () =
    incr forks;
    let cs_true = constraint_true :: !constraints in
    let cs_false = constraint_false :: !constraints in
    let ok_true = (not config.check_feasibility_at_fork) || feasible cs_true in
    let ok_false = (not config.check_feasibility_at_fork) || feasible cs_false in
    if not ok_true then incr infeasible;
    if not ok_false then incr infeasible;
    let hint = if Stdx.Intset.mem !rip !covered then 1 else 0 in
    covered := Stdx.Intset.add !rip !covered;
    match ok_true, ok_false with
    | false, false -> raise (Path_end (Unsupported "both branch directions infeasible"))
    | true, false ->
      prep_true ();
      constraints := cs_true;
      rip := rip_true
    | false, true ->
      prep_false ();
      constraints := cs_false;
      rip := rip_false
    | true, true ->
      (* defer the false side; continue on the true side *)
      let mem =
        match config.fork_mode with
        | Cow ->
          let snap = As.snapshot !cur_aspace in
          fork_snaps := (snap, !base) :: !fork_snaps;
          base := Some snap;
          seg_epoch := As.epoch !cur_aspace;
          Shared snap
        | Eager_copy -> Own (clone_eager !cur_aspace)
      in
      prep_false ();
      let sibling = save_pending ~at_rip:rip_false ~constraint_:constraint_false ~mem in
      frontier.Frontier.push_batch
        [ Frontier.single { Frontier.depth = sibling.p_depth; hint } sibling ];
      prep_true ();
      constraints := cs_true;
      incr depth;
      rip := rip_true
  in

  (* {1 Syscalls} *)

  let sys_read buf len =
    let n = ref 0 in
    for i = 0 to len - 1 do
      if !stdin_pos < config.symbolic_stdin then begin
        store Insn.B (buf + i) (Expr.const 0);
        overlay := Ptmap.add (buf + i) { width = Insn.B; value = Expr.sym !stdin_pos } !overlay;
        incr stdin_pos;
        incr n
      end
    done;
    !n
  in

  let sys_write buf len =
    let chunk = Bytes.create len in
    for i = 0 to len - 1 do
      match load Insn.B (buf + i) with
      | e -> (
        match Expr.to_concrete e with
        | Some v -> Bytes.set chunk i (Char.chr (v land 0xff))
        | None -> Bytes.set chunk i '?')
    done;
    out := Bytes.to_string chunk :: !out;
    len
  in

  let do_syscall () =
    let number = concrete_of regs.(Reg.to_int Reg.rax) "syscall number" in
    let arg0 = regs.(Reg.to_int Reg.rdi) in
    let arg1 = regs.(Reg.to_int Reg.rsi) in
    let arg2 = regs.(Reg.to_int Reg.rdx) in
    if number = Os.Sys_abi.sys_exit then begin
      let status =
        match Expr.to_concrete arg0 with
        | Some v -> v
        | None -> (
          (* concretise the exit status under the path model *)
          match solve !constraints with
          | Cons.Model model ->
            let env v = List.assoc v model in
            (match Expr.eval ~env arg0 with Some v -> v | None -> -1)
          | Cons.Unsat | Cons.Budget_exceeded -> -1)
      in
      raise (Path_end (Exited status))
    end
    else if number = Os.Sys_abi.sys_read then begin
      let fd = concrete_of arg0 "read fd" in
      if fd <> 0 then unsupported "read from non-stdin";
      let buf = concrete_of arg1 "read buffer" in
      let len = concrete_of arg2 "read length" in
      regs.(Reg.to_int Reg.rax) <- Expr.const (sys_read buf len)
    end
    else if number = Os.Sys_abi.sys_write then begin
      let fd = concrete_of arg0 "write fd" in
      if fd <> 1 && fd <> 2 then unsupported "write to non-std fd";
      let buf = concrete_of arg1 "write buffer" in
      let len = concrete_of arg2 "write length" in
      regs.(Reg.to_int Reg.rax) <- Expr.const (sys_write buf len)
    end
    else if number = Os.Sys_abi.sys_vtime then
      regs.(Reg.to_int Reg.rax) <- Expr.const !steps
    else unsupported (Printf.sprintf "syscall %s" (Os.Sys_abi.name_of_syscall number))
  in

  (* {1 The step function} *)

  let operand = function
    | Insn.Reg reg -> regs.(Reg.to_int reg)
    | Insn.Imm v -> Expr.const v
  in

  let set_flags_result e = flags := { fa = e; fb = Expr.const 0 } in

  let eval_cond_concrete c a b = Expr.cond_holds c a b in

  let step () =
    let fetch addr = As.read_u8 !cur_aspace addr in
    let insn, size =
      match Isa.Encode.decode ~fetch !rip with
      | v -> v
      | exception As.Page_fault { addr; _ } ->
        raise (Path_end (Faulted (Printf.sprintf "fetch fault at 0x%x" addr)))
      | exception Isa.Encode.Invalid_opcode { opcode; _ } ->
        raise (Path_end (Faulted (Printf.sprintf "invalid opcode 0x%x at 0x%x" opcode !rip)))
    in
    let next = !rip + size in
    incr steps;
    incr instructions;
    let set reg e = regs.(Reg.to_int reg) <- e in
    let get reg = regs.(Reg.to_int reg) in
    let push_value e =
      let sp = concretize (get Reg.rsp) "stack pointer" - 8 in
      store Insn.Q sp e;
      set Reg.rsp (Expr.const sp)
    in
    match insn with
    | Insn.Nop -> rip := next
    | Insn.Hlt ->
      raise (Path_end (Exited (concrete_of (get Reg.rdi) "exit status")))
    | Insn.Syscall ->
      rip := next;
      do_syscall ()
    | Insn.Ret ->
      let sp = concretize (get Reg.rsp) "stack pointer" in
      let target = load Insn.Q sp in
      set Reg.rsp (Expr.const (sp + 8));
      rip := concrete_of target "return address"
    | Insn.Mov (reg, op) ->
      set reg (operand op);
      rip := next
    | Insn.Lea (reg, m) ->
      let base = match m.base with None -> Expr.const 0 | Some b -> get b in
      let index =
        match m.index with
        | None -> Expr.const 0
        | Some (ir, scale) -> Expr.bin Insn.Imul (get ir) (Expr.const scale)
      in
      set reg (Expr.bin Insn.Add (Expr.bin Insn.Add base index) (Expr.const m.disp));
      rip := next
    | Insn.Ld (w, reg, m) ->
      set reg (load w (effective m));
      rip := next
    | Insn.St (w, m, reg) ->
      store w (effective m) (get reg);
      rip := next
    | Insn.Sti (w, m, v) ->
      store w (effective m) (Expr.const v);
      rip := next
    | Insn.Bin (op, reg, operand_) ->
      let a = get reg and b = operand operand_ in
      (match op with
      | Insn.Div | Insn.Rem -> (
        match Expr.to_concrete b with
        | Some 0 -> raise (Path_end (Faulted "division by zero"))
        | Some _ -> ()
        | None -> unsupported "symbolic divisor")
      | Insn.Shl | Insn.Shr | Insn.Sar -> (
        match Expr.to_concrete b with
        | Some s when s >= 0 && s <= 62 -> ()
        | Some _ -> raise (Path_end (Faulted "shift out of range"))
        | None -> unsupported "symbolic shift count")
      | Insn.Add | Insn.Sub | Insn.Imul | Insn.And | Insn.Or | Insn.Xor -> ());
      let e = Expr.bin op a b in
      set reg e;
      set_flags_result e;
      rip := next
    | Insn.Un (op, reg) ->
      let a = get reg in
      let e =
        match op with
        | Insn.Neg -> Expr.bin Insn.Sub (Expr.const 0) a
        | Insn.Not ->
          (match Expr.to_concrete a with
          | Some v -> Expr.const (lnot v)
          | None -> Expr.Not a)
        | Insn.Inc -> Expr.bin Insn.Add a (Expr.const 1)
        | Insn.Dec -> Expr.bin Insn.Sub a (Expr.const 1)
      in
      set reg e;
      set_flags_result e;
      rip := next
    | Insn.Cmp (reg, operand_) ->
      flags := { fa = get reg; fb = operand operand_ };
      rip := next
    | Insn.Test (reg, operand_) ->
      flags := { fa = Expr.bin Insn.And (get reg) (operand operand_); fb = Expr.const 0 };
      rip := next
    | Insn.Jmp target -> rip := target
    | Insn.Jcc (c, target) -> (
      let { fa; fb } = !flags in
      match Expr.to_concrete fa, Expr.to_concrete fb with
      | Some a, Some b -> rip := (if eval_cond_concrete c a b then target else next)
      | _, _ ->
        fork
          ~constraint_true:(Cons.make ~cond:c ~a:fa ~b:fb ~expect:true)
          ~constraint_false:(Cons.make ~cond:c ~a:fa ~b:fb ~expect:false)
          ~rip_true:target ~rip_false:next ())
    | Insn.Call target ->
      push_value (Expr.const next);
      rip := target
    | Insn.Push op ->
      push_value (operand op);
      rip := next
    | Insn.Pop reg ->
      let sp = concretize (get Reg.rsp) "stack pointer" in
      set reg (load Insn.Q sp);
      set Reg.rsp (Expr.const (sp + 8));
      rip := next
    | Insn.Setcc (c, reg) -> (
      let { fa; fb } = !flags in
      match Expr.to_concrete fa, Expr.to_concrete fb with
      | Some a, Some b ->
        set reg (Expr.const (if eval_cond_concrete c a b then 1 else 0));
        rip := next
      | _, _ ->
        (* both sides continue at the next rip, with the register set to
           the side's truth value before capture *)
        fork
          ~prep_true:(fun () -> set reg (Expr.const 1))
          ~prep_false:(fun () -> set reg (Expr.const 0))
          ~constraint_true:(Cons.make ~cond:c ~a:fa ~b:fb ~expect:true)
          ~constraint_false:(Cons.make ~cond:c ~a:fa ~b:fb ~expect:false)
          ~rip_true:next ~rip_false:next ())
  in

  let run_path () =
    match
      while !steps < config.max_steps_per_path do
        (match step () with
        | () -> ()
        | exception As.Page_fault { addr; _ } ->
          raise
            (Path_end (Faulted (Printf.sprintf "page fault at 0x%x (rip=0x%x)" addr !rip))))
      done
    with
    | () -> Step_limit
    | exception Path_end e -> e
  in

  let finish_path end_ =
    incr explored;
    let report input =
      reports :=
        { end_;
          input;
          constraints = !constraints;
          steps = !steps;
          depth = !depth;
          output = String.concat "" (List.rev !out) }
        :: !reports
    in
    match end_ with
    | Unsupported _ | Faulted _ | Step_limit | Exited _ -> (
      match solve !constraints with
      | Cons.Model model -> report model
      | Cons.Budget_exceeded -> report []
      | Cons.Unsat -> incr infeasible)
  in

  (* main loop *)
  let rec drive () =
    (* at [max_paths] the path just installed never runs *)
    if List.length !reports >= config.max_paths then end_path ()
    else begin
      let end_ = run_path () in
      finish_path end_;
      end_path ();
      match frontier.Frontier.pop () with
      | exception Frontier.Empty -> ()
      | e ->
        install e.Frontier.parent;
        drive ()
    end
  in
  (* initial state *)
  Array.fill regs 0 Reg.count (Expr.const 0);
  regs.(Reg.to_int Reg.rsp) <- Expr.const stack_top;
  rip := image.entry;
  drive ();
  release_all ();
  { paths = List.rev !reports;
    explored = !explored;
    infeasible = !infeasible;
    forks = !forks;
    solver_calls = !solver_calls;
    solver_cache_hits = !cache_hits;
    concretizations = !concretizations;
    eager_pages_copied = !eager_pages;
    instructions = !instructions;
    mem = Mem.Phys_mem.registry phys }
