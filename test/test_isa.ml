(* ISA: encode/decode roundtrips, the assembler, the disassembler. *)

module Insn = Isa.Insn
module Reg = Isa.Reg
module Encode = Isa.Encode
module Asm = Isa.Asm

let check = Alcotest.check
let qtest ?(count = 1000) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let insn_testable = Alcotest.testable Insn.pp ( = )

let decode_string s addr =
  Encode.decode ~fetch:(fun a -> Char.code s.[a - addr]) addr

let roundtrip insn =
  let buf = Buffer.create 32 in
  Encode.encode buf insn;
  let encoded = Buffer.contents buf in
  let decoded, size = decode_string encoded 0 in
  check insn_testable "roundtrip" insn decoded;
  check Alcotest.int "size agrees" (String.length encoded) size;
  check Alcotest.int "size function" (Encode.size insn) size

let simple_roundtrips () =
  List.iter roundtrip
    [ Insn.Nop;
      Insn.Hlt;
      Insn.Syscall;
      Insn.Ret;
      Insn.Mov (Reg.rax, Insn.Imm 123456789);
      Insn.Mov (Reg.r15, Insn.Imm (-7));
      Insn.Mov (Reg.rbx, Insn.Reg Reg.rsp);
      Insn.Lea (Reg.rdi, Insn.mem ~base:Reg.rax ~index:(Reg.rcx, 8) ~disp:(-16) ());
      Insn.Ld (Insn.Q, Reg.rax, Insn.mem ~base:Reg.rbp ~disp:8 ());
      Insn.Ld (Insn.B, Reg.rax, Insn.mem ~disp:0x2000 ());
      Insn.St (Insn.Q, Insn.mem ~base:Reg.rsp (), Reg.rdx);
      Insn.St (Insn.B, Insn.mem ~index:(Reg.r9, 2) (), Reg.r10);
      Insn.Sti (Insn.Q, Insn.mem ~base:Reg.rax (), max_int);
      Insn.Sti (Insn.B, Insn.mem ~base:Reg.rax (), 255);
      Insn.Bin (Insn.Add, Reg.rax, Insn.Imm 5);
      Insn.Bin (Insn.Sar, Reg.r14, Insn.Reg Reg.rcx);
      Insn.Un (Insn.Neg, Reg.rax);
      Insn.Un (Insn.Dec, Reg.r8);
      Insn.Cmp (Reg.rax, Insn.Imm (-1));
      Insn.Test (Reg.rax, Insn.Reg Reg.rax);
      Insn.Jmp 0xdead0;
      Insn.Jcc (Insn.LE, 0x1234);
      Insn.Call 0x4000;
      Insn.Push (Insn.Reg Reg.rbp);
      Insn.Push (Insn.Imm 99);
      Insn.Pop Reg.rbp;
      Insn.Setcc (Insn.A, Reg.rax) ]

let reg_gen = QCheck2.Gen.map Reg.of_int (QCheck2.Gen.int_range 0 15)

let mem_gen =
  QCheck2.Gen.(
    map3
      (fun base index disp -> { Insn.base; index; disp })
      (opt reg_gen)
      (opt (pair reg_gen (oneofl [ 1; 2; 4; 8 ])))
      (int_range (-100000) 100000))

let operand_gen =
  QCheck2.Gen.(
    oneof [ map (fun r -> Insn.Reg r) reg_gen; map (fun v -> Insn.Imm v) int ])

let insn_gen =
  QCheck2.Gen.(
    oneof
      [ oneofl [ Insn.Nop; Insn.Hlt; Insn.Syscall; Insn.Ret ];
        map2 (fun r o -> Insn.Mov (r, o)) reg_gen operand_gen;
        map2 (fun r m -> Insn.Lea (r, m)) reg_gen mem_gen;
        map3 (fun w r m -> Insn.Ld (w, r, m)) (oneofl [ Insn.B; Insn.Q ]) reg_gen mem_gen;
        map3 (fun w m r -> Insn.St (w, m, r)) (oneofl [ Insn.B; Insn.Q ]) mem_gen reg_gen;
        map3 (fun w m v -> Insn.Sti (w, m, v)) (oneofl [ Insn.B; Insn.Q ]) mem_gen int;
        map3
          (fun op r o -> Insn.Bin (op, r, o))
          (oneofl
             [ Insn.Add; Insn.Sub; Insn.Imul; Insn.Div; Insn.Rem; Insn.And;
               Insn.Or; Insn.Xor; Insn.Shl; Insn.Shr; Insn.Sar ])
          reg_gen operand_gen;
        map2 (fun op r -> Insn.Un (op, r))
          (oneofl [ Insn.Neg; Insn.Not; Insn.Inc; Insn.Dec ]) reg_gen;
        map2 (fun r o -> Insn.Cmp (r, o)) reg_gen operand_gen;
        map2 (fun r o -> Insn.Test (r, o)) reg_gen operand_gen;
        map (fun a -> Insn.Jmp (a land 0xFFFFFF)) int;
        map2
          (fun c a -> Insn.Jcc (c, a land 0xFFFFFF))
          (oneofl
             [ Insn.E; Insn.NE; Insn.L; Insn.LE; Insn.G; Insn.GE; Insn.B;
               Insn.BE; Insn.A; Insn.AE; Insn.S; Insn.NS ])
          int;
        map (fun a -> Insn.Call (a land 0xFFFFFF)) int;
        map (fun o -> Insn.Push o) operand_gen;
        map (fun r -> Insn.Pop r) reg_gen;
        map2 (fun c r -> Insn.Setcc (c, r)) (oneofl [ Insn.E; Insn.NS ]) reg_gen ])

let encode_roundtrip_prop =
  qtest "encode/decode roundtrip for random instructions" insn_gen (fun insn ->
      let buf = Buffer.create 32 in
      Encode.encode buf insn;
      let decoded, size = decode_string (Buffer.contents buf) 0 in
      decoded = insn && size = Encode.size insn)

let stream_roundtrip =
  qtest ~count:200 "instruction streams decode back"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 30) insn_gen)
    (fun insns ->
      let code = Encode.encode_to_string insns in
      let listing = Isa.Disasm.disassemble ~code ~origin:0 () in
      List.map snd listing = insns)

let invalid_opcode () =
  match decode_string "\xEE" 0 with
  | _ -> Alcotest.fail "expected invalid opcode"
  | exception Encode.Invalid_opcode { opcode = 0xEE; _ } -> ()
  | exception Encode.Invalid_opcode _ -> Alcotest.fail "wrong opcode reported"

(* A register, base or index byte outside the register file is junk too:
   the decoder reports it as an invalid opcode naming the bad byte, never
   as an OCaml exception escaping the interpreter. *)
let bad_register_byte () =
  let disp = String.make 8 '\000' in
  List.iter
    (fun (name, code, bad) ->
      match decode_string code 0 with
      | _ -> Alcotest.failf "%s: expected invalid opcode" name
      | exception Encode.Invalid_opcode { opcode; addr } ->
        check Alcotest.int (name ^ ": bad byte reported") bad opcode;
        check Alcotest.int (name ^ ": at the instruction") 0 addr)
    [ "register", "\x06\x10\x00", 0x10;
      "second register", "\x06\x00\xff", 0xff;
      "base", "\x08\x00\x20\xff\x00" ^ disp, 0x20;
      "index", "\x08\x00\xff\x30\x01" ^ disp, 0x30 ]

(* {1 Assembler} *)

let asm_labels () =
  let open Asm in
  let image =
    assemble
      [ label "start";
        jmp "end_";
        label "mid";
        nop;
        label "end_";
        hlt ]
  in
  check Alcotest.int "origin default" 0x1000 image.origin;
  check Alcotest.int "entry" 0x1000 image.entry;
  let listing = Isa.Disasm.disassemble ~code:image.code ~origin:image.origin () in
  match listing with
  | [ (_, Insn.Jmp target); (_, Insn.Nop); (addr, Insn.Hlt) ] ->
    check Alcotest.int "jmp resolves to hlt" addr target
  | _ -> Alcotest.fail "unexpected listing"

let asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Error "duplicate label \"x\"") (fun () ->
      ignore (Asm.assemble [ Asm.label "x"; Asm.label "x" ]))

let asm_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Error "undefined label \"nowhere\"")
    (fun () -> ignore (Asm.assemble [ Asm.jmp "nowhere" ]))

let asm_align_and_data () =
  let open Asm in
  let image =
    assemble [ nop; align 16; label "data"; qword 0x1122; bytes "xyz"; zeros 5 ]
  in
  let data_addr = List.assoc "data" image.symbols in
  check Alcotest.int "aligned" 0 (data_addr mod 16);
  let off = data_addr - image.origin in
  check Alcotest.int "qword lo byte" 0x22 (Char.code image.code.[off]);
  check Alcotest.string "bytes" "xyz" (String.sub image.code (off + 8) 3);
  check Alcotest.int "zeros" 0 (Char.code image.code.[off + 11])

let asm_entry_label () =
  let open Asm in
  let image = assemble ~entry:"main" [ nop; label "main"; hlt ] in
  check Alcotest.int "entry after nop" (image.origin + 1) image.entry

let tests =
  [ Alcotest.test_case "simple roundtrips" `Quick simple_roundtrips;
    encode_roundtrip_prop;
    stream_roundtrip;
    Alcotest.test_case "invalid opcode" `Quick invalid_opcode;
    Alcotest.test_case "bad register byte" `Quick bad_register_byte;
    Alcotest.test_case "asm labels" `Quick asm_labels;
    Alcotest.test_case "asm duplicate label" `Quick asm_duplicate_label;
    Alcotest.test_case "asm undefined label" `Quick asm_undefined_label;
    Alcotest.test_case "asm align and data" `Quick asm_align_and_data;
    Alcotest.test_case "asm entry label" `Quick asm_entry_label ]
