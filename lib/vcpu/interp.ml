module As = Mem.Addr_space

type fault =
  | Page_fault of { rip : int; addr : int; access : As.access }
  | Div_by_zero of { rip : int }
  | Invalid_opcode of { rip : int; opcode : int }
  | Bad_shift of { rip : int; count : int }

type vmexit =
  | Syscall
  | Halt
  | Fault of fault
  | Out_of_fuel

exception Exit_run of vmexit

(* Unsigned comparison of native ints (flip the sign bit). *)
let unsigned_lt a b = a lxor min_int < b lxor min_int

let effective_addr (cpu : Cpu.t) (m : Isa.Insn.mem) =
  let base = match m.base with None -> 0 | Some r -> Cpu.get cpu r in
  let index =
    match m.index with None -> 0 | Some (r, scale) -> Cpu.get cpu r * scale
  in
  base + index + m.disp

let operand_value cpu = function
  | Isa.Insn.Reg r -> Cpu.get cpu r
  | Isa.Insn.Imm v -> v

let set_zs (cpu : Cpu.t) v =
  cpu.flags.zf <- v = 0;
  cpu.flags.sf <- v < 0

(* Execute one decoded instruction whose size is [sz]; returns an exit or
   unit.  [cpu.rip] still points at the instruction on entry.  All helpers
   are top-level so the hot loop allocates nothing per instruction. *)
let[@inline] retire_at (cpu : Cpu.t) addr =
  cpu.rip <- addr;
  cpu.retired <- cpu.retired + 1

let[@inline] push_word (cpu : Cpu.t) aspace v =
  let sp = Cpu.get cpu Isa.Reg.rsp - 8 in
  As.write_u64 aspace sp v;
  Cpu.set cpu Isa.Reg.rsp sp

let[@inline] pop_word (cpu : Cpu.t) aspace =
  let sp = Cpu.get cpu Isa.Reg.rsp in
  let v = As.read_u64 aspace sp in
  Cpu.set cpu Isa.Reg.rsp (sp + 8);
  v

let exec (cpu : Cpu.t) aspace insn sz : vmexit option =
  let open Isa.Insn in
  let next = cpu.rip + sz in
  match insn with
  | Nop ->
    retire_at cpu next;
    None
  | Hlt ->
    cpu.retired <- cpu.retired + 1;
    Some Halt
  | Syscall ->
    (* rip advances first so the libOS can resume the guest after serving
       the call (or restart a guess from a snapshot taken here). *)
    retire_at cpu next;
    Some Syscall
  | Ret ->
    let target = pop_word cpu aspace in
    retire_at cpu target;
    None
  | Mov (r, op) ->
    Cpu.set cpu r (operand_value cpu op);
    retire_at cpu next;
    None
  | Lea (r, m) ->
    Cpu.set cpu r (effective_addr cpu m);
    retire_at cpu next;
    None
  | Ld (Q, r, m) ->
    Cpu.set cpu r (As.read_u64 aspace (effective_addr cpu m));
    retire_at cpu next;
    None
  | Ld (B, r, m) ->
    Cpu.set cpu r (As.read_u8 aspace (effective_addr cpu m));
    retire_at cpu next;
    None
  | St (Q, m, r) ->
    As.write_u64 aspace (effective_addr cpu m) (Cpu.get cpu r);
    retire_at cpu next;
    None
  | St (B, m, r) ->
    As.write_u8 aspace (effective_addr cpu m) (Cpu.get cpu r);
    retire_at cpu next;
    None
  | Sti (Q, m, v) ->
    As.write_u64 aspace (effective_addr cpu m) v;
    retire_at cpu next;
    None
  | Sti (B, m, v) ->
    As.write_u8 aspace (effective_addr cpu m) v;
    retire_at cpu next;
    None
  | Bin (op, r, operand) ->
    let a = Cpu.get cpu r in
    let b = operand_value cpu operand in
    let v =
      match op with
      | Add -> a + b
      | Sub -> a - b
      | Imul -> a * b
      | Div ->
        if b = 0 then raise (Exit_run (Fault (Div_by_zero { rip = cpu.rip })));
        a / b
      | Rem ->
        if b = 0 then raise (Exit_run (Fault (Div_by_zero { rip = cpu.rip })));
        a mod b
      | And -> a land b
      | Or -> a lor b
      | Xor -> a lxor b
      | Shl | Shr | Sar ->
        if b < 0 || b > 62 then
          raise (Exit_run (Fault (Bad_shift { rip = cpu.rip; count = b })));
        (match op with
        | Shl -> a lsl b
        | Shr -> a lsr b
        | Sar -> a asr b
        | Add | Sub | Imul | Div | Rem | And | Or | Xor -> assert false)
    in
    Cpu.set cpu r v;
    set_zs cpu v;
    retire_at cpu next;
    None
  | Un (op, r) ->
    let a = Cpu.get cpu r in
    let v =
      match op with Neg -> -a | Not -> lnot a | Inc -> a + 1 | Dec -> a - 1
    in
    Cpu.set cpu r v;
    set_zs cpu v;
    retire_at cpu next;
    None
  | Cmp (r, operand) ->
    let a = Cpu.get cpu r in
    let b = operand_value cpu operand in
    cpu.flags.zf <- a = b;
    cpu.flags.sf <- a - b < 0;
    cpu.flags.lt_s <- a < b;
    cpu.flags.lt_u <- unsigned_lt a b;
    retire_at cpu next;
    None
  | Test (r, operand) ->
    let v = Cpu.get cpu r land operand_value cpu operand in
    cpu.flags.zf <- v = 0;
    cpu.flags.sf <- v < 0;
    cpu.flags.lt_s <- false;
    cpu.flags.lt_u <- false;
    retire_at cpu next;
    None
  | Jmp target ->
    retire_at cpu target;
    None
  | Jcc (c, target) ->
    retire_at cpu (if Cpu.eval_cond cpu c then target else next);
    None
  | Call target ->
    push_word cpu aspace next;
    retire_at cpu target;
    None
  | Push op ->
    push_word cpu aspace (operand_value cpu op);
    retire_at cpu next;
    None
  | Pop r ->
    Cpu.set cpu r (pop_word cpu aspace);
    retire_at cpu next;
    None
  | Setcc (c, r) ->
    Cpu.set cpu r (if Cpu.eval_cond cpu c then 1 else 0);
    retire_at cpu next;
    None

(* Basic-block superinstruction dispatch, memoised per immutable frame:
   Addr_space guarantees that a frame owned by a retired generation never
   changes in place (writes COW into a fresh frame with a fresh id), so
   per-frame block tables never need invalidation.  The cache keeps the
   last-used frame's table in a hot slot — guest code is typically one or
   two frames.  Instructions close to the page edge (they may cross it)
   and instructions on a frame still written in place take the uncached
   slow path.

   A cache miss decodes forward through straight-line code — stopping at
   control flow, [syscall]/[hlt], the page edge, and a maximum block
   length — and compiles the run into one chain of continuation closures:
   each instruction's closure ends by tail-calling the next one's, so a
   whole block is a single call, with no loop, index or array between
   instructions.  Dispatch resolves the fetch frame once per block
   instead of once per instruction.  The one hazard the per-block grain
   adds is a store COWing the block's own code page mid-block
   (self-modifying straight-line code), which is caught by re-checking
   the fetch mapping after every fused store but the last and stopping
   the chain there.  A block longer than the remaining fuel (only at a
   preemption boundary) is not entered: [step] runs the budget out.

   Every instruction shape compiles ([compile_op]): register numbers,
   immediates, the rip delta and the addressing form of a memory operand
   ([base+disp], [base+index*scale+disp], [index*scale+disp], [disp]) are
   resolved when the block is fused.  [exec] keeps two jobs only: the
   uncached [step] reference, and the slow path for instructions in the
   page-edge band or on a frame that is still written in place.

   Same-page successor links.  A block keeps up to two links (page
   offset -> block), filled the first time control passes from it to a
   successor found by a full lookup.  A link is followed — skipping the
   translation, the immutability check and the block-table lookup — only
   when, within one [run], the block retired every op, its last op does
   not store, fuel remains, and the new rip is on the page the block was
   entered on; links only ever point at blocks fused from the linking
   block's own frame.  That is sound because, at the end of such a block,
   the page still maps that frame: it did at entry (a full lookup or an
   earlier link established it); no mapping changes inside [run] other
   than by a guest store COWing a page; and every store of the block that
   is not its last op re-checked the fetch mapping before the next op ran
   (a mismatch splits the block, and a split block never follows a link).
   The frame also stays immutable, since the generation only moves
   between runs.  The first block of every [run], a transfer to another
   page, and a block that was split, faulted or cut short by fuel all take
   the full lookup.  Nothing allocates per dispatch: the dispatch loop is
   a set of top-level functions that carry their state as arguments.

   A cache serves one address space: its ops close over the address space
   they load and store through, so each is a one-argument closure that
   calls the next directly (a two-argument call of an unknown closure goes
   through [caml_apply2]). *)
let max_insn_bytes = 24
let max_block_insns = 64

type op = Cpu.t -> vmexit option
(* The rest of a fused block from one instruction on, compiled to a chain
   of closures at fuse time.  Contract: behaves exactly like running
   [exec] over those instructions — [None] once the chain retired, [Some]
   for syscall/hlt, or raises [As.Page_fault]/[Exit_run] with [cpu.rip]
   still at the faulting instruction. *)

type block = {
  b_fid : int;
      (* frame the block was fused from; compared against the live fetch
         mapping after fused stores to catch self-modifying code *)
  b_run : op; (* the whole straight-line run, terminator last *)
  b_len : int; (* instructions in the block *)
  b_linkable : bool; (* the last op does not store: links may be followed *)
  mutable b_off1 : int; (* page offset of the first link's target; -1 none *)
  mutable b_next1 : block;
  mutable b_off2 : int;
  mutable b_next2 : block;
}

(* The end of every chain: the block retired whole. *)
let block_end : op = fun _ -> None

(* The empty link target, and the "no predecessor to link from" marker of
   the dispatch loop: its frame id matches no real frame. *)
let rec unlinked =
  { b_fid = -1; b_run = block_end; b_len = 0; b_linkable = false;
    b_off1 = -1; b_next1 = unlinked; b_off2 = -1; b_next2 = unlinked }

type icache = {
  aspace : As.t; (* the one address space the compiled ops access *)
  (* per-block superinstruction tables, keyed by the block's
     first-instruction offset within its frame *)
  mutable hot_bfid : int;
  mutable hot_blocks : block option array;
  bframes : (int, block option array) Hashtbl.t;
  mutable misses : int; (* instructions decoded into fused blocks *)
  mutable slow_decodes : int; (* uncacheable: page edge or mutable frame *)
  mutable block_fuses : int; (* blocks assembled *)
  mutable block_hits : int; (* whole-block dispatches, linked or looked up *)
  mutable block_splits : int; (* dispatches that exited a block early *)
}

let create_icache aspace =
  { aspace; hot_bfid = -1; hot_blocks = [||]; bframes = Hashtbl.create 16;
    misses = 0; slow_decodes = 0;
    block_fuses = 0; block_hits = 0; block_splits = 0 }

let icache_counts cache = (cache.misses, cache.slow_decodes)
let block_counts cache =
  (cache.block_fuses, cache.block_hits, cache.block_splits)

let step (cpu : Cpu.t) aspace =
  let rip = cpu.rip in
  match Isa.Encode.decode ~fetch:(As.read_u8 aspace) rip with
  | exception As.Page_fault { addr; access } ->
    Some (Fault (Page_fault { rip; addr; access }))
  | exception Isa.Encode.Invalid_opcode { addr = _; opcode } ->
    Some (Fault (Invalid_opcode { rip; opcode }))
  | insn, sz -> (
    match exec cpu aspace insn sz with
    | result -> result
    | exception As.Page_fault { addr; access } ->
      cpu.rip <- rip;
      (* faults leave rip at the faulting instruction *)
      Some (Fault (Page_fault { rip; addr; access }))
    | exception Exit_run e ->
      cpu.rip <- rip;
      Some e)

(* {1 Basic-block superinstruction dispatch} *)

let ends_block (insn : Isa.Insn.t) =
  match insn with
  | Hlt | Syscall | Ret | Jmp _ | Jcc _ | Call _ -> true
  | Nop | Mov _ | Lea _ | Ld _ | St _ | Sti _ | Bin _ | Un _ | Cmp _
  | Test _ | Push _ | Pop _ | Setcc _ -> false

let writes_memory (insn : Isa.Insn.t) =
  match insn with
  | St _ | Sti _ | Push _ | Call _ -> true
  | Nop | Hlt | Syscall | Ret | Mov _ | Lea _ | Ld _ | Bin _ | Un _ | Cmp _
  | Test _ | Jmp _ | Jcc _ | Pop _ | Setcc _ -> false

(* {2 Compiled instruction shapes}

   Each arm of [compile_op] re-derives exactly the semantics of the
   corresponding [exec] arm — keep them in lockstep.  The helpers below
   are the shared tails; a retiring op ends with [next cpu sz k], which
   moves [cpu.rip] after every access that can fault, then tail-calls
   [k], the rest of the block.  Terminators ignore [k] and return. *)

let[@inline] reg (cpu : Cpu.t) r = Array.unsafe_get cpu.regs r
let[@inline] set_reg (cpu : Cpu.t) r v = Array.unsafe_set cpu.regs r v

let[@inline] next (cpu : Cpu.t) sz (k : op) =
  cpu.rip <- cpu.rip + sz;
  cpu.retired <- cpu.retired + 1;
  k cpu

let[@inline] alu cpu r v sz k =
  set_reg cpu r v;
  cpu.Cpu.flags.zf <- v = 0;
  cpu.Cpu.flags.sf <- v < 0;
  next cpu sz k

let[@inline] cmp_flags cpu a b sz k =
  let f = cpu.Cpu.flags in
  f.zf <- a = b;
  f.sf <- a - b < 0;
  f.lt_s <- a < b;
  f.lt_u <- unsigned_lt a b;
  next cpu sz k

let[@inline] test_flags cpu v sz k =
  let f = cpu.Cpu.flags in
  f.zf <- v = 0;
  f.sf <- v < 0;
  f.lt_s <- false;
  f.lt_u <- false;
  next cpu sz k

let div_fault (cpu : Cpu.t) =
  raise (Exit_run (Fault (Div_by_zero { rip = cpu.rip })))

let shift_fault (cpu : Cpu.t) count =
  raise (Exit_run (Fault (Bad_shift { rip = cpu.rip; count })))

let[@inline] bad_shift b = b < 0 || b > 62

let rsp = Isa.Reg.to_int Isa.Reg.rsp

(* [push]: the value is read before rsp moves ([push rsp] pushes the old
   rsp), and rsp moves only once the store succeeded. *)
let[@inline] push cpu aspace v =
  let sp = reg cpu rsp - 8 in
  As.write_u64 aspace sp v;
  set_reg cpu rsp sp

(* [pop]: rsp moves before the destination is written, so [pop rsp] loads
   the popped word, as in [exec]. *)
let[@inline] pop cpu aspace =
  let sp = reg cpu rsp in
  let v = As.read_u64 aspace sp in
  set_reg cpu rsp (sp + 8);
  v

(* A memory operand's addressing form, resolved at fuse time. *)
type ea =
  | Ea_base of int * int  (* [base + disp] *)
  | Ea_base_index of int * int * int * int  (* [base + index*scale + disp] *)
  | Ea_index of int * int * int  (* [index*scale + disp] *)
  | Ea_abs of int  (* [disp] *)

let ea_of (m : Isa.Insn.mem) =
  let r = Isa.Reg.to_int in
  match m.base, m.index with
  | Some b, None -> Ea_base (r b, m.disp)
  | Some b, Some (x, s) -> Ea_base_index (r b, r x, s, m.disp)
  | None, Some (x, s) -> Ea_index (r x, s, m.disp)
  | None, None -> Ea_abs m.disp

let[@inline] lea cpu r addr sz k =
  set_reg cpu r addr;
  next cpu sz k

let[@inline] ldq cpu aspace r addr sz k =
  set_reg cpu r (As.read_u64 aspace addr);
  next cpu sz k

let[@inline] ldb cpu aspace r addr sz k =
  set_reg cpu r (As.read_u8 aspace addr);
  next cpu sz k

let[@inline] stq cpu aspace addr v sz k =
  As.write_u64 aspace addr v;
  next cpu sz k

let[@inline] stb cpu aspace addr v sz k =
  As.write_u8 aspace addr v;
  next cpu sz k

(* Two-operand ALU ops.  Faulting shapes check at run time; an immediate
   that always faults compiles to a closure that always raises. *)
let compile_bin (op : Isa.Insn.binop) r (operand : Isa.Insn.operand) sz k
    : op =
  let r = Isa.Reg.to_int r in
  match op, operand with
  | Add, Imm v -> fun cpu -> alu cpu r (reg cpu r + v) sz k
  | Sub, Imm v -> fun cpu -> alu cpu r (reg cpu r - v) sz k
  | Imul, Imm v -> fun cpu -> alu cpu r (reg cpu r * v) sz k
  | And, Imm v -> fun cpu -> alu cpu r (reg cpu r land v) sz k
  | Or, Imm v -> fun cpu -> alu cpu r (reg cpu r lor v) sz k
  | Xor, Imm v -> fun cpu -> alu cpu r (reg cpu r lxor v) sz k
  | (Div | Rem), Imm 0 -> fun cpu -> div_fault cpu
  | Div, Imm v -> fun cpu -> alu cpu r (reg cpu r / v) sz k
  | Rem, Imm v -> fun cpu -> alu cpu r (reg cpu r mod v) sz k
  | (Shl | Shr | Sar), Imm v when bad_shift v -> fun cpu -> shift_fault cpu v
  | Shl, Imm v -> fun cpu -> alu cpu r (reg cpu r lsl v) sz k
  | Shr, Imm v -> fun cpu -> alu cpu r (reg cpu r lsr v) sz k
  | Sar, Imm v -> fun cpu -> alu cpu r (reg cpu r asr v) sz k
  | op, Reg r2 -> (
    let r2 = Isa.Reg.to_int r2 in
    match op with
    | Add -> fun cpu -> alu cpu r (reg cpu r + reg cpu r2) sz k
    | Sub -> fun cpu -> alu cpu r (reg cpu r - reg cpu r2) sz k
    | Imul -> fun cpu -> alu cpu r (reg cpu r * reg cpu r2) sz k
    | And -> fun cpu -> alu cpu r (reg cpu r land reg cpu r2) sz k
    | Or -> fun cpu -> alu cpu r (reg cpu r lor reg cpu r2) sz k
    | Xor -> fun cpu -> alu cpu r (reg cpu r lxor reg cpu r2) sz k
    | Div ->
      fun cpu ->
        let b = reg cpu r2 in
        if b = 0 then div_fault cpu else alu cpu r (reg cpu r / b) sz k
    | Rem ->
      fun cpu ->
        let b = reg cpu r2 in
        if b = 0 then div_fault cpu else alu cpu r (reg cpu r mod b) sz k
    | Shl ->
      fun cpu ->
        let b = reg cpu r2 in
        if bad_shift b then shift_fault cpu b
        else alu cpu r (reg cpu r lsl b) sz k
    | Shr ->
      fun cpu ->
        let b = reg cpu r2 in
        if bad_shift b then shift_fault cpu b
        else alu cpu r (reg cpu r lsr b) sz k
    | Sar ->
      fun cpu ->
        let b = reg cpu r2 in
        if bad_shift b then shift_fault cpu b
        else alu cpu r (reg cpu r asr b) sz k)

let compile_op a (insn : Isa.Insn.t) sz k : op =
  let open Isa.Insn in
  match insn with
  | Nop -> fun cpu -> next cpu sz k
  | Hlt ->
    fun (cpu : Cpu.t) ->
      cpu.retired <- cpu.retired + 1;
      Some Halt
  | Syscall ->
    fun (cpu : Cpu.t) ->
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      Some Syscall
  | Mov (r, Imm v) ->
    let r = Isa.Reg.to_int r in
    fun cpu ->
      set_reg cpu r v;
      next cpu sz k
  | Mov (r, Reg r2) ->
    let r = Isa.Reg.to_int r and r2 = Isa.Reg.to_int r2 in
    fun cpu ->
      set_reg cpu r (reg cpu r2);
      next cpu sz k
  (* memory operands: one closure per width and addressing form *)
  | Lea (r, m) -> (
    let r = Isa.Reg.to_int r in
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> lea cpu r (reg cpu b + d) sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> lea cpu r (reg cpu b + (reg cpu x * s) + d) sz k
    | Ea_index (x, s, d) -> fun cpu -> lea cpu r ((reg cpu x * s) + d) sz k
    | Ea_abs d -> fun cpu -> lea cpu r d sz k)
  | Ld (Q, r, m) -> (
    let r = Isa.Reg.to_int r in
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> ldq cpu a r (reg cpu b + d) sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> ldq cpu a r (reg cpu b + (reg cpu x * s) + d) sz k
    | Ea_index (x, s, d) -> fun cpu -> ldq cpu a r ((reg cpu x * s) + d) sz k
    | Ea_abs d -> fun cpu -> ldq cpu a r d sz k)
  | Ld (B, r, m) -> (
    let r = Isa.Reg.to_int r in
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> ldb cpu a r (reg cpu b + d) sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> ldb cpu a r (reg cpu b + (reg cpu x * s) + d) sz k
    | Ea_index (x, s, d) -> fun cpu -> ldb cpu a r ((reg cpu x * s) + d) sz k
    | Ea_abs d -> fun cpu -> ldb cpu a r d sz k)
  | St (Q, m, r) -> (
    let r = Isa.Reg.to_int r in
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> stq cpu a (reg cpu b + d) (reg cpu r) sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> stq cpu a (reg cpu b + (reg cpu x * s) + d) (reg cpu r) sz k
    | Ea_index (x, s, d) ->
      fun cpu -> stq cpu a ((reg cpu x * s) + d) (reg cpu r) sz k
    | Ea_abs d -> fun cpu -> stq cpu a d (reg cpu r) sz k)
  | St (B, m, r) -> (
    let r = Isa.Reg.to_int r in
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> stb cpu a (reg cpu b + d) (reg cpu r) sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> stb cpu a (reg cpu b + (reg cpu x * s) + d) (reg cpu r) sz k
    | Ea_index (x, s, d) ->
      fun cpu -> stb cpu a ((reg cpu x * s) + d) (reg cpu r) sz k
    | Ea_abs d -> fun cpu -> stb cpu a d (reg cpu r) sz k)
  | Sti (Q, m, v) -> (
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> stq cpu a (reg cpu b + d) v sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> stq cpu a (reg cpu b + (reg cpu x * s) + d) v sz k
    | Ea_index (x, s, d) -> fun cpu -> stq cpu a ((reg cpu x * s) + d) v sz k
    | Ea_abs d -> fun cpu -> stq cpu a d v sz k)
  | Sti (B, m, v) -> (
    match ea_of m with
    | Ea_base (b, d) -> fun cpu -> stb cpu a (reg cpu b + d) v sz k
    | Ea_base_index (b, x, s, d) ->
      fun cpu -> stb cpu a (reg cpu b + (reg cpu x * s) + d) v sz k
    | Ea_index (x, s, d) -> fun cpu -> stb cpu a ((reg cpu x * s) + d) v sz k
    | Ea_abs d -> fun cpu -> stb cpu a d v sz k)
  | Bin (op, r, operand) -> compile_bin op r operand sz k
  | Un (op, r) -> (
    let r = Isa.Reg.to_int r in
    match op with
    | Inc -> fun cpu -> alu cpu r (reg cpu r + 1) sz k
    | Dec -> fun cpu -> alu cpu r (reg cpu r - 1) sz k
    | Neg -> fun cpu -> alu cpu r (-reg cpu r) sz k
    | Not -> fun cpu -> alu cpu r (lnot (reg cpu r)) sz k)
  | Cmp (r, Imm v) ->
    let r = Isa.Reg.to_int r in
    fun cpu -> cmp_flags cpu (reg cpu r) v sz k
  | Cmp (r, Reg r2) ->
    let r = Isa.Reg.to_int r and r2 = Isa.Reg.to_int r2 in
    fun cpu -> cmp_flags cpu (reg cpu r) (reg cpu r2) sz k
  | Test (r, Imm v) ->
    let r = Isa.Reg.to_int r in
    fun cpu -> test_flags cpu (reg cpu r land v) sz k
  | Test (r, Reg r2) ->
    let r = Isa.Reg.to_int r and r2 = Isa.Reg.to_int r2 in
    fun cpu -> test_flags cpu (reg cpu r land reg cpu r2) sz k
  | Jmp target ->
    fun (cpu : Cpu.t) ->
      cpu.rip <- target;
      cpu.retired <- cpu.retired + 1;
      None
  | Jcc (c, target) ->
    fun (cpu : Cpu.t) ->
      cpu.rip <- (if Cpu.eval_cond cpu c then target else cpu.rip + sz);
      cpu.retired <- cpu.retired + 1;
      None
  | Setcc (c, r) ->
    let r = Isa.Reg.to_int r in
    fun cpu ->
      set_reg cpu r (if Cpu.eval_cond cpu c then 1 else 0);
      next cpu sz k
  | Push (Reg r2) ->
    let r2 = Isa.Reg.to_int r2 in
    fun cpu ->
      push cpu a (reg cpu r2);
      next cpu sz k
  | Push (Imm v) ->
    fun cpu ->
      push cpu a v;
      next cpu sz k
  | Pop r ->
    let r = Isa.Reg.to_int r in
    fun cpu ->
      set_reg cpu r (pop cpu a);
      next cpu sz k
  | Call target ->
    fun (cpu : Cpu.t) ->
      push cpu a (cpu.rip + sz);
      cpu.rip <- target;
      cpu.retired <- cpu.retired + 1;
      None
  | Ret ->
    fun (cpu : Cpu.t) ->
      cpu.rip <- pop cpu a;
      cpu.retired <- cpu.retired + 1;
      None

(* Decode forward from [start_offset] through straight-line code, entirely
   within the immutable frame's bytes.  Stops at block terminators, the
   page-edge guard (an instruction that may cross the edge must take the
   slow path, where [step] decodes it), [max_block_insns], and
   undecodable bytes (the block ends before them; reaching them re-raises
   the fault through the slow path).  [None] iff not even the first
   instruction was fusable. *)
let fuse_block cache (frame : Mem.Phys_mem.frame) start_offset start_rip =
  let bytes = frame.Mem.Phys_mem.bytes in
  let insns = ref [] in
  let count = ref 0 in
  let offset = ref start_offset in
  let rip = ref start_rip in
  let fusing = ref true in
  while !fusing do
    if !offset > Mem.Page.size - max_insn_bytes || !count >= max_block_insns
    then fusing := false
    else begin
      let off = !offset and pc = !rip in
      match
        Isa.Encode.decode
          ~fetch:(fun addr -> Bytes.get_uint8 bytes (off + (addr - pc)))
          pc
      with
      | exception Isa.Encode.Invalid_opcode _ -> fusing := false
      | (insn, sz) as decoded ->
        cache.misses <- cache.misses + 1;
        insns := decoded :: !insns;
        incr count;
        offset := off + sz;
        rip := pc + sz;
        if ends_block insn then fusing := false
    end
  done;
  match !insns with
  | [] -> None
  | (last, _) :: _ as l ->
    let fid = frame.Mem.Phys_mem.id in
    (* thread the chain from the last instruction back; a store that is
       not the last re-verifies the fetch mapping before its successor
       runs when it COW'd the page [cpu.rip] is on: a changed frame means
       it replaced the block's own code page (self-modifying straight-line
       code), so the fused tail decodes stale bytes — stop there, and
       dispatch sees fewer ops retired than the block holds and
       re-dispatches at the (now mutable) frame.  The page's frame changes
       only by a COW, and every COW enters the write set. *)
    let chain (k, n) (insn, sz) =
      let a = cache.aspace in
      let k =
        if n > 0 && writes_memory insn then fun (cpu : Cpu.t) ->
          if As.last_cows_include a (Mem.Page.vpn_of_addr cpu.rip)
             && (As.reading_frame a cpu.rip).Mem.Phys_mem.id <> fid
          then None
          else k cpu
        else k
      in
      (compile_op a insn sz k, n + 1)
    in
    let b_run, b_len = List.fold_left chain (block_end, 0) l in
    Some
      { b_fid = fid; b_run; b_len;
        b_linkable = not (writes_memory last);
        b_off1 = -1; b_next1 = unlinked; b_off2 = -1; b_next2 = unlinked }

let[@inline] same_page a b =
  Mem.Page.vpn_of_addr a = Mem.Page.vpn_of_addr b

(* Run a whole block from its head (cpu.rip is the head).  Returns the
   vmexit if one materialised; [None] means no exit — the caller
   recomputes consumed fuel from the retired delta, which keeps block
   dispatch bit-identical to [step]'s fuel accounting, and learns from
   the same delta whether the whole block ran.

   One exception handler covers the whole chain: ops (like [exec], whose
   contract they share) only move [cpu.rip] as the last step of a
   retiring instruction, so when [As.Page_fault] or [Exit_run] escapes,
   [cpu.rip] still addresses the faulting instruction — exactly the rip
   [step] reports. *)
let exec_block cache (cpu : Cpu.t) (b : block) =
  match b.b_run cpu with
  | result -> result
  | exception As.Page_fault { addr; access } ->
    cache.block_splits <- cache.block_splits + 1;
    Some (Fault (Page_fault { rip = cpu.rip; addr; access }))
  | exception Exit_run e ->
    cache.block_splits <- cache.block_splits + 1;
    Some e

(* Give [prev] a link to [b], found at page offset [offset] right after
   [prev] ran whole on the same page, if [b] was fused from [prev]'s frame
   and a slot is free.  [unlinked] never matches a real frame. *)
let link prev offset b =
  if prev.b_fid = b.b_fid then
    if prev.b_off1 < 0 then begin
      prev.b_off1 <- offset;
      prev.b_next1 <- b
    end
    else if prev.b_off2 < 0 then begin
      prev.b_off2 <- offset;
      prev.b_next2 <- b
    end

let rec run_uncached cpu aspace remaining =
  if remaining <= 0 then Out_of_fuel
  else
    match step cpu aspace with
    | None -> run_uncached cpu aspace (remaining - 1)
    | Some e -> e

(* The dispatch loop.  [lookup] resolves cpu.rip through the TLB, the
   immutability check and the block table; [prev] is the block that just
   ran to completion on this same page (or [unlinked]) and gains a link to
   whatever [lookup] finds there, when that was fused from its frame. *)
let rec lookup cache (cpu : Cpu.t) aspace remaining prev =
  if remaining <= 0 then Out_of_fuel
  else begin
    let rip = cpu.rip in
    let offset = Mem.Page.offset_of_addr rip in
    if offset > Mem.Page.size - max_insn_bytes then
      slow_step cache cpu aspace remaining
    else
      match As.reading_frame aspace rip with
      | exception As.Page_fault { addr; access } ->
        Fault (Page_fault { rip; addr; access })
      | frame ->
        if not (As.frame_is_immutable aspace frame) then
          slow_step cache cpu aspace remaining
        else begin
          let fid = frame.Mem.Phys_mem.id in
          if cache.hot_bfid <> fid then begin
            let arr =
              match Hashtbl.find_opt cache.bframes fid with
              | Some arr -> arr
              | None ->
                let arr = Array.make Mem.Page.size None in
                Hashtbl.replace cache.bframes fid arr;
                arr
            in
            cache.hot_bfid <- fid;
            cache.hot_blocks <- arr
          end;
          match Array.unsafe_get cache.hot_blocks offset with
          | Some b ->
            cache.block_hits <- cache.block_hits + 1;
            link prev offset b;
            dispatch cache cpu aspace b remaining
          | None -> (
            match fuse_block cache frame offset rip with
            | None -> slow_step cache cpu aspace remaining
            | Some b ->
              cache.block_fuses <- cache.block_fuses + 1;
              cache.hot_blocks.(offset) <- Some b;
              link prev offset b;
              dispatch cache cpu aspace b remaining)
        end
  end

and dispatch cache cpu aspace b remaining =
  if remaining < b.b_len then begin
    (* the fuel runs out inside the block: split it, and let the
       reference [step] retire exactly what is left *)
    cache.block_splits <- cache.block_splits + 1;
    run_uncached cpu aspace remaining
  end
  else begin
    let entry = cpu.rip and before = cpu.retired in
    match exec_block cache cpu b with
    | Some e -> e
    | None ->
      let ran = cpu.retired - before in
      let remaining = remaining - ran in
      let rip = cpu.rip in
      if ran < b.b_len then begin
        (* split by a self-modifying store *)
        cache.block_splits <- cache.block_splits + 1;
        lookup cache cpu aspace remaining unlinked
      end
      else if b.b_linkable && remaining > 0 && same_page rip entry then begin
        let offset = Mem.Page.offset_of_addr rip in
        if offset = b.b_off1 then begin
          cache.block_hits <- cache.block_hits + 1;
          dispatch cache cpu aspace b.b_next1 remaining
        end
        else if offset = b.b_off2 then begin
          cache.block_hits <- cache.block_hits + 1;
          dispatch cache cpu aspace b.b_next2 remaining
        end
        else lookup cache cpu aspace remaining b
      end
      else lookup cache cpu aspace remaining unlinked
  end

and slow_step cache cpu aspace remaining =
  cache.slow_decodes <- cache.slow_decodes + 1;
  match step cpu aspace with
  | None -> lookup cache cpu aspace (remaining - 1) unlinked
  | Some e -> e

let run ?icache cpu aspace ~fuel =
  match icache with
  | Some cache ->
    if cache.aspace != aspace then
      invalid_arg "Interp.run: the icache serves another address space";
    lookup cache cpu aspace fuel unlinked
  | None -> run_uncached cpu aspace fuel

let pp_fault fmt = function
  | Page_fault { rip; addr; access } ->
    Format.fprintf fmt "page fault at rip=0x%x addr=0x%x (%s)" rip addr
      (match access with As.Read -> "read" | As.Write -> "write")
  | Div_by_zero { rip } -> Format.fprintf fmt "division by zero at rip=0x%x" rip
  | Invalid_opcode { rip; opcode } ->
    Format.fprintf fmt "invalid opcode 0x%x at rip=0x%x" opcode rip
  | Bad_shift { rip; count } ->
    Format.fprintf fmt "shift count %d out of range at rip=0x%x" count rip

let pp_vmexit fmt = function
  | Syscall -> Format.pp_print_string fmt "syscall"
  | Halt -> Format.pp_print_string fmt "halt"
  | Fault f -> Format.fprintf fmt "fault: %a" pp_fault f
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"
