open Insn

exception Invalid_opcode of { addr : int; opcode : int }

(* Opcode map; immediates are 8-byte little-endian, registers one byte,
   memory operands 11 bytes (base, index, scale, disp64). *)
let op_nop = 0x01
let op_hlt = 0x02
let op_syscall = 0x03
let op_ret = 0x04
let op_mov_ri = 0x05
let op_mov_rr = 0x06
let op_lea = 0x07
let op_ldq = 0x08
let op_ldb = 0x09
let op_stq = 0x0A
let op_stb = 0x0B
let op_stiq = 0x0C
let op_stib = 0x0D
let op_bin_ri = 0x0E
let op_bin_rr = 0x0F
let op_un = 0x10
let op_cmp_ri = 0x11
let op_cmp_rr = 0x12
let op_test_ri = 0x13
let op_test_rr = 0x14
let op_jmp = 0x15
let op_jcc = 0x16
let op_call = 0x17
let op_push_r = 0x18
let op_push_i = 0x19
let op_pop = 0x1A
let op_setcc = 0x1B

let binop_code = function
  | Add -> 0 | Sub -> 1 | Imul -> 2 | Div -> 3 | Rem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Sar -> 10

let binop_of_code addr = function
  | 0 -> Add | 1 -> Sub | 2 -> Imul | 3 -> Div | 4 -> Rem
  | 5 -> And | 6 -> Or | 7 -> Xor | 8 -> Shl | 9 -> Shr | 10 -> Sar
  | c -> raise (Invalid_opcode { addr; opcode = c })

let unop_code = function Neg -> 0 | Not -> 1 | Inc -> 2 | Dec -> 3

let unop_of_code addr = function
  | 0 -> Neg | 1 -> Not | 2 -> Inc | 3 -> Dec
  | c -> raise (Invalid_opcode { addr; opcode = c })

let cond_code = function
  | E -> 0 | NE -> 1 | L -> 2 | LE -> 3 | G -> 4 | GE -> 5
  | B -> 6 | BE -> 7 | A -> 8 | AE -> 9 | S -> 10 | NS -> 11

let cond_of_code addr = function
  | 0 -> E | 1 -> NE | 2 -> L | 3 -> LE | 4 -> G | 5 -> GE
  | 6 -> B | 7 -> BE | 8 -> A | 9 -> AE | 10 -> S | 11 -> NS
  | c -> raise (Invalid_opcode { addr; opcode = c })

let mem_bytes = 11
let imm_bytes = 8

let size = function
  | Nop | Hlt | Syscall | Ret -> 1
  | Mov (_, Imm _) -> 2 + imm_bytes
  | Mov (_, Reg _) -> 3
  | Lea _ | Ld _ | St _ -> 2 + mem_bytes
  | Sti _ -> 1 + mem_bytes + imm_bytes
  | Bin (_, _, Imm _) -> 3 + imm_bytes
  | Bin (_, _, Reg _) -> 4
  | Un _ -> 3
  | Cmp (_, Imm _) | Test (_, Imm _) -> 2 + imm_bytes
  | Cmp (_, Reg _) | Test (_, Reg _) -> 3
  | Jmp _ | Call _ -> 1 + imm_bytes
  | Jcc _ -> 2 + imm_bytes
  | Push (Reg _) -> 2
  | Push (Imm _) -> 1 + imm_bytes
  | Pop _ -> 2
  | Setcc _ -> 3

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_imm buf v = Buffer.add_int64_le buf (Int64.of_int v)

let put_reg buf r = put_u8 buf (Reg.to_int r)

let put_mem buf { base; index; disp } =
  (match base with None -> put_u8 buf 0xFF | Some r -> put_reg buf r);
  (match index with
  | None ->
    put_u8 buf 0xFF;
    put_u8 buf 0
  | Some (r, scale) ->
    put_reg buf r;
    put_u8 buf scale);
  put_imm buf disp

let encode buf insn =
  match insn with
  | Nop -> put_u8 buf op_nop
  | Hlt -> put_u8 buf op_hlt
  | Syscall -> put_u8 buf op_syscall
  | Ret -> put_u8 buf op_ret
  | Mov (r, Imm i) -> put_u8 buf op_mov_ri; put_reg buf r; put_imm buf i
  | Mov (r, Reg s) -> put_u8 buf op_mov_rr; put_reg buf r; put_reg buf s
  | Lea (r, m) -> put_u8 buf op_lea; put_reg buf r; put_mem buf m
  | Ld (Q, r, m) -> put_u8 buf op_ldq; put_reg buf r; put_mem buf m
  | Ld (B, r, m) -> put_u8 buf op_ldb; put_reg buf r; put_mem buf m
  | St (Q, m, r) -> put_u8 buf op_stq; put_reg buf r; put_mem buf m
  | St (B, m, r) -> put_u8 buf op_stb; put_reg buf r; put_mem buf m
  | Sti (Q, m, i) -> put_u8 buf op_stiq; put_mem buf m; put_imm buf i
  | Sti (B, m, i) -> put_u8 buf op_stib; put_mem buf m; put_imm buf i
  | Bin (op, r, Imm i) ->
    put_u8 buf op_bin_ri; put_u8 buf (binop_code op); put_reg buf r; put_imm buf i
  | Bin (op, r, Reg s) ->
    put_u8 buf op_bin_rr; put_u8 buf (binop_code op); put_reg buf r; put_reg buf s
  | Un (op, r) -> put_u8 buf op_un; put_u8 buf (unop_code op); put_reg buf r
  | Cmp (r, Imm i) -> put_u8 buf op_cmp_ri; put_reg buf r; put_imm buf i
  | Cmp (r, Reg s) -> put_u8 buf op_cmp_rr; put_reg buf r; put_reg buf s
  | Test (r, Imm i) -> put_u8 buf op_test_ri; put_reg buf r; put_imm buf i
  | Test (r, Reg s) -> put_u8 buf op_test_rr; put_reg buf r; put_reg buf s
  | Jmp a -> put_u8 buf op_jmp; put_imm buf a
  | Jcc (c, a) -> put_u8 buf op_jcc; put_u8 buf (cond_code c); put_imm buf a
  | Call a -> put_u8 buf op_call; put_imm buf a
  | Push (Reg r) -> put_u8 buf op_push_r; put_reg buf r
  | Push (Imm i) -> put_u8 buf op_push_i; put_imm buf i
  | Pop r -> put_u8 buf op_pop; put_reg buf r
  | Setcc (c, r) -> put_u8 buf op_setcc; put_u8 buf (cond_code c); put_reg buf r

let encode_to_string insns =
  let buf = Buffer.create 256 in
  List.iter (encode buf) insns;
  Buffer.contents buf

let decode ~fetch addr =
  let u8 off = fetch (addr + off) in
  let imm off =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 (off + i)))
    done;
    Int64.to_int !v
  in
  (* a register byte outside the file is junk like any other bad code *)
  let reg_of b =
    if b >= Reg.count then raise (Invalid_opcode { addr; opcode = b });
    Reg.of_int b
  in
  let reg off = reg_of (u8 off) in
  let mem_at off =
    let base = match u8 off with 0xFF -> None | b -> Some (reg_of b) in
    let index =
      match u8 (off + 1) with
      | 0xFF -> None
      | r -> Some (reg_of r, u8 (off + 2))
    in
    { base; index; disp = imm (off + 3) }
  in
  let opcode = u8 0 in
  let insn =
    if opcode = op_nop then Nop
    else if opcode = op_hlt then Hlt
    else if opcode = op_syscall then Syscall
    else if opcode = op_ret then Ret
    else if opcode = op_mov_ri then Mov (reg 1, Imm (imm 2))
    else if opcode = op_mov_rr then Mov (reg 1, Reg (reg 2))
    else if opcode = op_lea then Lea (reg 1, mem_at 2)
    else if opcode = op_ldq then Ld (Q, reg 1, mem_at 2)
    else if opcode = op_ldb then Ld (B, reg 1, mem_at 2)
    else if opcode = op_stq then St (Q, mem_at 2, reg 1)
    else if opcode = op_stb then St (B, mem_at 2, reg 1)
    else if opcode = op_stiq then Sti (Q, mem_at 1, imm (1 + mem_bytes))
    else if opcode = op_stib then Sti (B, mem_at 1, imm (1 + mem_bytes))
    else if opcode = op_bin_ri then Bin (binop_of_code addr (u8 1), reg 2, Imm (imm 3))
    else if opcode = op_bin_rr then Bin (binop_of_code addr (u8 1), reg 2, Reg (reg 3))
    else if opcode = op_un then Un (unop_of_code addr (u8 1), reg 2)
    else if opcode = op_cmp_ri then Cmp (reg 1, Imm (imm 2))
    else if opcode = op_cmp_rr then Cmp (reg 1, Reg (reg 2))
    else if opcode = op_test_ri then Test (reg 1, Imm (imm 2))
    else if opcode = op_test_rr then Test (reg 1, Reg (reg 2))
    else if opcode = op_jmp then Jmp (imm 1)
    else if opcode = op_jcc then Jcc (cond_of_code addr (u8 1), imm 2)
    else if opcode = op_call then Call (imm 1)
    else if opcode = op_push_r then Push (Reg (reg 1))
    else if opcode = op_push_i then Push (Imm (imm 1))
    else if opcode = op_pop then Pop (reg 1)
    else if opcode = op_setcc then Setcc (cond_of_code addr (u8 1), reg 2)
    else raise (Invalid_opcode { addr; opcode })
  in
  insn, size insn
