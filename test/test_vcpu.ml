(* The interpreter: programs, flags, stack discipline, faults, fuel. *)

module As = Mem.Addr_space
module Cpu = Vcpu.Cpu
module Interp = Vcpu.Interp
module R = Isa.Reg
open Isa.Asm

let check = Alcotest.check

(* Assemble, load at the default origin, return (cpu, aspace). *)
let load items =
  let image = assemble ~entry:"main" items in
  let aspace = As.create (Mem.Phys_mem.create ()) in
  let len = String.length image.code in
  let pages = (len + 4095) / 4096 in
  for p = 0 to pages - 1 do
    let off = p * 4096 in
    As.map_data aspace ~vpn:(Mem.Page.vpn_of_addr (image.origin + off))
      (String.sub image.code off (min 4096 (len - off)))
  done;
  (* a stack page *)
  for vpn = 100 to 103 do
    As.map_zero aspace ~vpn
  done;
  let cpu = Cpu.create ~entry:image.entry in
  Cpu.set cpu R.rsp (104 * 4096);
  cpu, aspace

let run_to_halt items =
  let cpu, aspace = load items in
  match Interp.run cpu aspace ~fuel:1_000_000 with
  | Interp.Halt -> cpu, aspace
  | other -> Alcotest.failf "expected halt, got %a" Interp.pp_vmexit other

let exit_testable = Alcotest.testable Interp.pp_vmexit ( = )

let arithmetic () =
  let cpu, _ =
    run_to_halt
      [ label "main";
        mov R.rax (i 10);
        add R.rax (i 32);        (* 42 *)
        mov R.rbx (r R.rax);
        imul R.rbx (i 10);       (* 420 *)
        mov R.rcx (r R.rbx);
        div R.rcx (i 42);        (* 10 *)
        mov R.rdx (r R.rbx);
        rem R.rdx (i 100);       (* 20 *)
        mov R.rsi (i 0b1100);
        and_ R.rsi (i 0b1010);   (* 0b1000 *)
        mov R.rdi (i 1);
        shl R.rdi (i 10);        (* 1024 *)
        neg R.rdi;               (* -1024 *)
        hlt ]
  in
  check Alcotest.int "add" 42 (Cpu.get cpu R.rax);
  check Alcotest.int "imul" 420 (Cpu.get cpu R.rbx);
  check Alcotest.int "div" 10 (Cpu.get cpu R.rcx);
  check Alcotest.int "rem" 20 (Cpu.get cpu R.rdx);
  check Alcotest.int "and" 0b1000 (Cpu.get cpu R.rsi);
  check Alcotest.int "neg shl" (-1024) (Cpu.get cpu R.rdi)

let fibonacci () =
  (* iterative fib(20) = 6765 *)
  let cpu, _ =
    run_to_halt
      [ label "main";
        mov R.rax (i 0);
        mov R.rbx (i 1);
        mov R.rcx (i 20);
        label "loop_";
        test R.rcx (r R.rcx);
        je "done_";
        mov R.rdx (r R.rbx);
        add R.rbx (r R.rax);
        mov R.rax (r R.rdx);
        dec R.rcx;
        jmp "loop_";
        label "done_";
        hlt ]
  in
  check Alcotest.int "fib 20" 6765 (Cpu.get cpu R.rax)

let recursion_factorial () =
  (* recursive factorial via the stack: fact(10) = 3628800 *)
  let cpu, _ =
    run_to_halt
      [ label "main";
        mov R.rdi (i 10);
        call "fact";
        hlt;
        label "fact";
        cmp R.rdi (i 1);
        jg "recurse";
        mov R.rax (i 1);
        ret;
        label "recurse";
        push (r R.rdi);
        dec R.rdi;
        call "fact";
        pop R.rdi;
        imul R.rax (r R.rdi);
        ret ]
  in
  check Alcotest.int "fact 10" 3628800 (Cpu.get cpu R.rax)

let memory_and_lea () =
  let cpu, _ =
    run_to_halt
      [ label "main";
        movl R.r8 "table";
        (* table[3] = 7 (byte); then read back with scaled index *)
        mov R.rcx (i 3);
        mov R.rdx (i 7);
        stb (idx R.r8 (R.rcx, 1)) R.rdx;
        ldb R.rax (Isa.Insn.mem ~base:R.r8 ~disp:3 ());
        (* lea: rbx = r8 + rcx*8 + 16 *)
        lea R.rbx (idxd R.r8 (R.rcx, 8) 16);
        sub R.rbx (r R.r8);
        (* qword store/load *)
        sti (R.r8 @+ 8) 123456;
        ld R.rdx (R.r8 @+ 8);
        hlt;
        label "table";
        zeros 64 ]
  in
  check Alcotest.int "byte store/load" 7 (Cpu.get cpu R.rax);
  check Alcotest.int "lea arithmetic" 40 (Cpu.get cpu R.rbx);
  check Alcotest.int "qword" 123456 (Cpu.get cpu R.rdx)

let conditions () =
  (* setcc across the cond space, signed and unsigned *)
  let cpu, _ =
    run_to_halt
      [ label "main";
        mov R.rax (i (-5));
        cmp R.rax (i 3);
        setcc Isa.Insn.L R.rbx;   (* -5 < 3 signed: 1 *)
        setcc Isa.Insn.B R.rcx;   (* -5 < 3 unsigned: 0 (huge vs 3) *)
        setcc Isa.Insn.NE R.rdx;  (* 1 *)
        mov R.rsi (i 7);
        cmp R.rsi (i 7);
        setcc Isa.Insn.E R.rdi;   (* 1 *)
        setcc Isa.Insn.GE R.r8;   (* 1 *)
        setcc Isa.Insn.A R.r9;    (* 0 *)
        hlt ]
  in
  check Alcotest.int "signed less" 1 (Cpu.get cpu R.rbx);
  check Alcotest.int "unsigned not-less" 0 (Cpu.get cpu R.rcx);
  check Alcotest.int "ne" 1 (Cpu.get cpu R.rdx);
  check Alcotest.int "eq" 1 (Cpu.get cpu R.rdi);
  check Alcotest.int "ge" 1 (Cpu.get cpu R.r8);
  check Alcotest.int "above(eq) = 0" 0 (Cpu.get cpu R.r9)

let alu_flags () =
  (* dec to zero sets zf; sub below zero sets sf *)
  let cpu, _ =
    run_to_halt
      [ label "main";
        mov R.rax (i 1);
        dec R.rax;
        setcc Isa.Insn.E R.rbx;  (* zf from dec *)
        sub R.rax (i 5);
        setcc Isa.Insn.S R.rcx;  (* sf from sub *)
        hlt ]
  in
  check Alcotest.int "zf after dec" 1 (Cpu.get cpu R.rbx);
  check Alcotest.int "sf after sub" 1 (Cpu.get cpu R.rcx)

let div_by_zero_faults () =
  let cpu, aspace =
    load [ label "main"; mov R.rax (i 1); mov R.rbx (i 0); div R.rax (r R.rbx); hlt ]
  in
  match Interp.run cpu aspace ~fuel:100 with
  | Interp.Fault (Interp.Div_by_zero _) -> ()
  | other -> Alcotest.failf "expected div fault, got %a" Interp.pp_vmexit other

let bad_shift_faults () =
  let cpu, aspace =
    load [ label "main"; mov R.rax (i 1); shl R.rax (i 63); hlt ]
  in
  match Interp.run cpu aspace ~fuel:100 with
  | Interp.Fault (Interp.Bad_shift { count = 63; _ }) -> ()
  | other -> Alcotest.failf "expected shift fault, got %a" Interp.pp_vmexit other

let page_fault_reports_rip () =
  let cpu, aspace =
    load [ label "main"; mov R.rax (i 0x900000); ld R.rbx (R.rax @+ 0); hlt ]
  in
  match Interp.run cpu aspace ~fuel:100 with
  | Interp.Fault (Interp.Page_fault { rip; addr; access = As.Read }) ->
    check Alcotest.int "fault addr" 0x900000 addr;
    check Alcotest.int "rip at faulting insn" rip cpu.Cpu.rip
  | other -> Alcotest.failf "expected page fault, got %a" Interp.pp_vmexit other

let fuel_is_resumable () =
  let cpu, aspace =
    load
      [ label "main";
        mov R.rax (i 0);
        label "spin";
        inc R.rax;
        cmp R.rax (i 1000);
        jl "spin";
        hlt ]
  in
  (* run in tiny fuel slices; must still converge to the same answer *)
  let rec drive () =
    match Interp.run cpu aspace ~fuel:17 with
    | Interp.Out_of_fuel -> drive ()
    | Interp.Halt -> ()
    | other -> Alcotest.failf "unexpected %a" Interp.pp_vmexit other
  in
  drive ();
  check Alcotest.int "converged" 1000 (Cpu.get cpu R.rax)

let syscall_advances_rip () =
  let cpu, aspace = load [ label "main"; syscall; hlt ] in
  check exit_testable "syscall exit" Interp.Syscall (Interp.run cpu aspace ~fuel:10);
  (* resuming must execute the hlt, not the syscall again *)
  check exit_testable "resume hits hlt" Interp.Halt (Interp.run cpu aspace ~fuel:10)

let save_load_roundtrip () =
  let cpu, _ = run_to_halt [ label "main"; mov R.rax (i 11); hlt ] in
  let saved = Cpu.save cpu in
  Cpu.set cpu R.rax 99;
  cpu.Cpu.rip <- 0;
  Cpu.load cpu saved;
  check Alcotest.int "rax restored" 11 (Cpu.get cpu R.rax);
  check Alcotest.int "rip restored" (Cpu.saved_rip saved) cpu.Cpu.rip

let retired_counts () =
  let cpu, _ = run_to_halt [ label "main"; nop; nop; nop; hlt ] in
  check Alcotest.int "retired" 4 cpu.Cpu.retired

(* Block-cache soundness: the same guest with no cache (the uncached
   [step] reference) and under basic-block superinstructions must retire
   the same instruction count into the same terminal state.  The address
   space is sealed after load (as the libOS does) so cached runs actually
   cache from the first fetch. *)
let icache_of_mode aspace = function
  | `Off -> None
  | `Block -> Some (Interp.create_icache aspace)

let mode_name = function `Off -> "off" | `Block -> "block"

let run_mode ?(fuel = 1_000_000) items mode =
  let cpu, aspace = load items in
  As.seal aspace;
  let icache = icache_of_mode aspace mode in
  let e = Interp.run ?icache cpu aspace ~fuel in
  e, cpu, aspace

let compare_cpus name (cpu_ref : Cpu.t) (cpu : Cpu.t) =
  check Alcotest.int (name ^ ": same retired count") cpu_ref.Cpu.retired
    cpu.Cpu.retired;
  check Alcotest.int (name ^ ": same rip") cpu_ref.Cpu.rip cpu.Cpu.rip;
  List.iter
    (fun reg ->
      check Alcotest.int
        (Printf.sprintf "%s: same %s" name (R.name reg))
        (Cpu.get cpu_ref reg) (Cpu.get cpu reg))
    R.all

let run_both ?fuel items =
  let (e_off, cpu_off, _) = run_mode ?fuel items `Off in
  List.iter
    (fun mode ->
      let e, cpu, _ = run_mode ?fuel items mode in
      let name = mode_name mode in
      check exit_testable (name ^ ": same vmexit") e_off e;
      compare_cpus name cpu_off cpu)
    [ `Block ]

let icache_sound_adjacent_data () =
  (* writable data on the page right after the code page: the E9 layout
     discipline.  The loop hammers the data page; code frames stay in
     retired generations, so cached decode must stay byte-for-byte true. *)
  run_both
    [ label "main";
      movl R.r8 "counter";
      mov R.rax (i 0);
      mov R.rcx (i 200);
      label "loop_";
      sti (R.r8 @+ 0) 0;
      st (R.r8 @+ 0) R.rcx;
      ld R.rbx (R.r8 @+ 0);
      add R.rax (r R.rbx);
      dec R.rcx;
      jg "loop_";
      hlt;
      align 4096;
      label "counter";
      zeros 8 ]

let icache_sound_same_page_data () =
  (* data deliberately on the SAME page as the code: every store COWs the
     sealed code frame, so cached entries for the old frame must not be
     replayed for the fresh one.  Slower (the E9 cliff), never unsound. *)
  run_both
    [ label "main";
      movl R.r8 "cell";
      mov R.rax (i 0);
      mov R.rcx (i 50);
      label "loop_";
      st (R.r8 @+ 0) R.rcx;
      ld R.rbx (R.r8 @+ 0);
      add R.rax (r R.rbx);
      dec R.rcx;
      jg "loop_";
      hlt;
      label "cell";
      zeros 8 ]

(* {2 Basic-block superinstruction dispatch} *)

let block_branch_into_middle () =
  (* The fall-through pass fuses one block from "head" through the
     backward branch; the branch then re-enters at "mid", the middle of
     that cached block, which must dispatch as its own block — not replay
     the head's fused prefix. *)
  run_both
    [ label "main";
      mov R.rax (i 0);
      mov R.rcx (i 3);
      label "head";
      add R.rax (i 1);
      add R.rax (i 10);
      label "mid";
      add R.rax (i 100);
      dec R.rcx;
      jg "mid";
      hlt ]

let block_across_page_edge () =
  (* A straight-line run long enough to cross the page-edge guard band
     and continue onto the next code page: fusion must stop at the band,
     the band itself single-steps, and a fresh block starts on the next
     page — retiring exactly the same state as per-instruction mode. *)
  run_both
    ([ label "main"; mov R.rax (i 0) ]
    @ List.concat (List.init 700 (fun k -> [ add R.rax (i (k land 7)) ]))
    @ [ hlt ])

let block_fault_mid_block () =
  (* Instruction k of a fused straight-line block faults: rip must
     address the faulting store, the prefix must have retired, and after
     mapping the page every mode resumes to the same halt state. *)
  let items =
    [ label "main";
      mov R.r8 (i 0);
      mov R.rax (i 1);
      add R.rax (i 2);
      st (R.r8 @+ 0) R.rax;  (* store to unmapped vpn 0: faults *)
      add R.rax (i 100);
      hlt ]
  in
  List.iter
    (fun mode ->
      let (e_off, cpu_off, as_off) = run_mode items `Off in
      (match e_off with
      | Interp.Fault (Interp.Page_fault { addr = 0; _ }) -> ()
      | other ->
        Alcotest.failf "expected page fault, got %a" Interp.pp_vmexit other);
      let e, cpu, aspace = run_mode items mode in
      let name = mode_name mode in
      check exit_testable (name ^ ": same fault") e_off e;
      compare_cpus (name ^ " at fault") cpu_off cpu;
      (* resumable: map the page and both executions converge on halt *)
      As.map_zero aspace ~vpn:0;
      As.map_zero as_off ~vpn:0;
      let resume c a = Interp.run c a ~fuel:1_000 in
      check exit_testable "off: resumes to halt" Interp.Halt
        (resume cpu_off as_off);
      check exit_testable (name ^ ": resumes to halt") Interp.Halt
        (resume cpu aspace);
      compare_cpus (name ^ " after resume") cpu_off cpu)
    [ `Block ]

let block_fuel_exhaustion_mid_block () =
  (* Out-of-fuel inside a fused block: exactly [fuel] instructions retire
     (never the whole block), and the run is resumable to the same end
     state — the no-overshoot property replay depends on. *)
  let items =
    [ label "main"; mov R.rax (i 0) ]
    @ List.concat (List.init 40 (fun _ -> [ add R.rax (i 1) ]))
    @ [ hlt ]
  in
  List.iter
    (fun fuel ->
      let (e_off, cpu_off, _) = run_mode ~fuel items `Off in
      check exit_testable "off runs out of fuel" Interp.Out_of_fuel e_off;
      check Alcotest.int "off retires exactly fuel" fuel cpu_off.Cpu.retired;
      let e, cpu, aspace = run_mode ~fuel items `Block in
      check exit_testable "block runs out of fuel" Interp.Out_of_fuel e;
      compare_cpus (Printf.sprintf "block at fuel %d" fuel) cpu_off cpu;
      check exit_testable "block resumes to halt" Interp.Halt
        (Interp.run cpu aspace ~fuel:1_000))
    [ 3; 7; 17 ]

let block_self_modifying_code () =
  (* A fused store overwrites a later instruction of its own block: the
     store COWs the sealed code frame, so block dispatch must split at
     the store and re-fetch from the fresh frame instead of replaying the
     stale fused tail.  All modes must agree on whatever the patched
     bytes decode to. *)
  run_both
    [ label "main";
      movl R.r8 "target";
      mov R.rax (i 5);
      sti (R.r8 @+ 0) 0;
      label "target";
      add R.rax (i 1);  (* overwritten before it executes *)
      hlt ]

let block_invalidation_on_generation_retire () =
  (* Rewrite the whole code page between runs (COW into a fresh frame,
     then seal so the new frame retires and becomes cacheable): the same
     icache must serve the new code, because block tables are keyed by
     frame id and a retired frame is never written in place. *)
  let prog n = assemble ~entry:"main" [ label "main"; mov R.rax (i n); hlt ] in
  let image1 = prog 1 in
  let aspace = As.create (Mem.Phys_mem.create ()) in
  let vpn = Mem.Page.vpn_of_addr image1.origin in
  As.map_data aspace ~vpn image1.code;
  As.seal aspace;
  let cache = Interp.create_icache aspace in
  let run () =
    let cpu = Cpu.create ~entry:image1.entry in
    check exit_testable "halts" Interp.Halt
      (Interp.run ~icache:cache cpu aspace ~fuel:100);
    Cpu.get cpu R.rax
  in
  check Alcotest.int "first program" 1 (run ());
  check Alcotest.int "cached rerun" 1 (run ());
  As.write_bytes aspace ~addr:image1.origin (prog 2).code;
  As.seal aspace;
  check Alcotest.int "rewritten program" 2 (run ());
  let fuses, hits, _ = Interp.block_counts cache in
  check Alcotest.bool "fused both frames" true (fuses >= 2);
  check Alcotest.bool "served the stable frame from cache" true (hits >= 1)

let shared_page_never_cached () =
  (* Explicitly-shared pages are written in place on every path — same
     frame, same id — so the block cache may not key on them.  Rewriting
     the shared code page in place must take effect immediately, with or
     without a warm cache. *)
  let prog n = assemble ~entry:"main" [ label "main"; mov R.rax (i n); hlt ] in
  let image1 = prog 1 in
  List.iter
    (fun mode ->
      let aspace = As.create (Mem.Phys_mem.create ()) in
      let vpn = Mem.Page.vpn_of_addr image1.origin in
      As.map_shared aspace ~vpn;
      As.write_bytes aspace ~addr:image1.origin image1.code;
      As.seal aspace;
      let icache = icache_of_mode aspace mode in
      let run () =
        let cpu = Cpu.create ~entry:image1.entry in
        check exit_testable (mode_name mode ^ ": halts") Interp.Halt
          (Interp.run ?icache cpu aspace ~fuel:100);
        Cpu.get cpu R.rax
      in
      check Alcotest.int (mode_name mode ^ ": first program") 1 (run ());
      As.write_bytes aspace ~addr:image1.origin (prog 2).code;
      check Alcotest.int
        (mode_name mode ^ ": in-place rewrite visible")
        2 (run ()))
    [ `Off; `Block ]

(* {2 Every compiled shape against the uncached reference}

   Each instruction shape runs once under block dispatch and once under
   [Interp.step] with no cache; registers, flags, rip, retired count, the
   vmexit and the data pages must all agree.  The shape sits behind a
   few register set-up moves in the same fused block, so faults are
   raised from instruction k of a block, not from its head. *)

let data_base = 100 * 4096 (* vpns 100-103, mapped by [load] *)
let data_len = 4 * 4096
let unmapped = 0x900000

let fill_data aspace =
  As.write_bytes aspace ~addr:data_base
    (String.init data_len (fun k -> Char.chr (((k * 7) + 3) land 0xff)))

let data_pages aspace =
  Bytes.to_string (As.read_bytes aspace ~addr:data_base ~len:data_len)

let rec step_n cpu aspace fuel =
  if fuel <= 0 then Interp.Out_of_fuel
  else
    match Interp.step cpu aspace with
    | None -> step_n cpu aspace (fuel - 1)
    | Some e -> e

let compare_flags name (a : Cpu.t) (b : Cpu.t) =
  let f (c : Cpu.t) = c.flags.zf, c.flags.sf, c.flags.lt_s, c.flags.lt_u in
  check
    Alcotest.(pair (pair bool bool) (pair bool bool))
    (name ^ ": same flags")
    (let zf, sf, lt_s, lt_u = f a in ((zf, sf), (lt_s, lt_u)))
    (let zf, sf, lt_s, lt_u = f b in ((zf, sf), (lt_s, lt_u)))

let check_shape ?(slow = 0) (name, setup, body) =
  let items =
    [ label "main" ]
    @ List.map (fun (reg, v) -> mov reg (i v)) setup
    @ body
    @ [ hlt; label "target"; mov R.r15 (i 4242); hlt ]
  in
  let boot () =
    let cpu, aspace = load items in
    fill_data aspace;
    As.seal aspace;
    cpu, aspace
  in
  let cpu_ref, as_ref = boot () in
  let e_ref = step_n cpu_ref as_ref 100 in
  let cpu, aspace = boot () in
  let cache = Interp.create_icache aspace in
  let e = Interp.run ~icache:cache cpu aspace ~fuel:100 in
  check exit_testable (name ^ ": same vmexit") e_ref e;
  compare_cpus name cpu_ref cpu;
  compare_flags name cpu_ref cpu;
  check Alcotest.bool (name ^ ": same data pages") true
    (String.equal (data_pages as_ref) (data_pages aspace));
  (* the shape really ran compiled, inside a fused block (undecodable
     bytes end the block and fault through the slow path) *)
  check Alcotest.int (name ^ ": slow-path decodes") slow
    (snd (Interp.icache_counts cache))

let every_shape () =
  let open Isa.Insn in
  let base = data_base + 100 in
  let addr_setup = [ R.rbx, base; R.rcx, 5; R.rsi, 0x1122334455667788 ] in
  let forms =
    [ "[base+disp]", R.rbx @+ 16;
      "[disp]", abs (data_base + 40);
      "[index*4+disp]", Isa.Insn.mem ~index:(R.rcx, 4) ~disp:(data_base + 8) () ]
    @ List.map
        (fun s -> Printf.sprintf "[base+index*%d+disp]" s, idxd R.rbx (R.rcx, s) 24)
        [ 1; 2; 4; 8 ]
  in
  let mem_shapes =
    List.concat_map
      (fun (form, m) ->
        List.map
          (fun x -> Isa.Insn.to_string x ^ " " ^ form, addr_setup, [ insn x ])
          [ Lea (R.rdx, m); Ld (Q, R.rdx, m); Ld (B, R.rdx, m);
            St (Q, m, R.rsi); St (B, m, R.rsi);
            Sti (Q, m, 0x0102030405060708); Sti (B, m, 0x1ff) ])
      forms
  in
  let mem_faults =
    let at addr = [ R.rbx, addr; R.rcx, 3; R.rsi, 0x77 ] in
    let indexed = idx R.rbx (R.rcx, 1) and flat = R.rbx @+ 0 in
    let edge = data_base + 4096 - 4 (* a u64 across two mapped pages *)
    and last = data_base + data_len - 4 (* a u64 into the unmapped page *) in
    [ "ldb indexed, unmapped", at unmapped, [ insn (Ld (B, R.rdx, indexed)) ];
      "stb indexed, unmapped", at unmapped, [ insn (St (B, indexed, R.rsi)) ];
      "stib indexed, unmapped", at unmapped, [ insn (Sti (B, indexed, 9)) ];
      "ldq across pages", at edge, [ insn (Ld (Q, R.rdx, flat)) ];
      "stq across pages", at edge, [ insn (St (Q, flat, R.rsi)) ];
      "stiq across pages", at edge, [ insn (Sti (Q, flat, -2)) ];
      "ldq across into unmapped", at last, [ insn (Ld (Q, R.rdx, flat)) ];
      "stq across into unmapped", at last, [ insn (St (Q, flat, R.rsi)) ] ]
  in
  let bin_shapes =
    let values = function
      | Shl | Shr | Sar -> List.map (fun b -> -12345, b) [ 0; 3; 62; 63; -1 ]
      | Add | Sub | Imul | Div | Rem | And | Or | Xor ->
        [ 1234567, 37; -99, 7; 5, 0; max_int, 2 ]
    in
    List.concat_map
      (fun op ->
        List.concat_map
          (fun (a, b) ->
            let setup = [ R.rax, a; R.rbx, b ] in
            List.map
              (fun x ->
                Printf.sprintf "%s (rax=%d rbx=%d)" (Isa.Insn.to_string x) a b,
                setup, [ insn x ])
              [ Bin (op, R.rax, Imm b); Bin (op, R.rax, Reg R.rbx) ])
          (values op))
      [ Add; Sub; Imul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]
  in
  let un_shapes =
    List.concat_map
      (fun op ->
        List.map
          (fun a ->
            Printf.sprintf "%s (rax=%d)" (Isa.Insn.to_string (Un (op, R.rax))) a,
            [ R.rax, a ], [ insn (Un (op, R.rax)) ])
          [ 0; 1; -1; 77 ])
      [ Neg; Not; Inc; Dec ]
  in
  let conds = [ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ] in
  let pairs = [ 3, 3; -5, 3; 3, -5; 0, 0; 1 lsl 61, -(1 lsl 61) ] in
  let flag_shapes =
    List.concat_map
      (fun (a, b) ->
        let setup = [ R.rax, a; R.rbx, b ] in
        let tag = Printf.sprintf "rax=%d rbx=%d" a b in
        [ "cmp imm " ^ tag, setup, [ insn (Cmp (R.rax, Imm b)) ];
          "cmp reg " ^ tag, setup, [ insn (Cmp (R.rax, Reg R.rbx)) ];
          "test imm " ^ tag, setup, [ insn (Test (R.rax, Imm b)) ];
          "test reg " ^ tag, setup, [ insn (Test (R.rax, Reg R.rbx)) ] ]
        @ List.concat_map
            (fun c ->
              [ Format.asprintf "set%a %s" Isa.Insn.pp_cond c tag, setup,
                [ cmp R.rax (r R.rbx); setcc c R.rdx ];
                Format.asprintf "j%a %s" Isa.Insn.pp_cond c tag, setup,
                [ cmp R.rax (r R.rbx); jcc c "target" ] ])
            conds)
      pairs
  in
  let stack = data_base + 200 and no_stack = unmapped in
  let control_shapes =
    [ "nop", [], [ nop ];
      "hlt", [], [];
      "syscall", [], [ syscall ];
      "mov imm", [], [ mov R.rdx (i (-7)) ];
      "mov reg", [ R.rax, 99 ], [ mov R.rdx (r R.rax) ];
      "jmp", [], [ jmp "target" ];
      "call", [ R.rsp, stack ], [ call "target" ];
      "call, unmapped stack", [ R.rsp, no_stack ], [ call "target" ];
      "ret", [ R.rsp, stack ], [ movl R.r12 "target"; push (r R.r12); ret ];
      "ret, unmapped stack", [ R.rsp, no_stack ], [ ret ];
      "push reg", [ R.rsp, stack; R.rax, 5 ], [ push (r R.rax) ];
      "push imm", [ R.rsp, stack ], [ push (i (-3)) ];
      "push rsp", [ R.rsp, stack ], [ push (r R.rsp) ];
      "push, unmapped stack", [ R.rsp, no_stack ], [ push (i 1) ];
      "pop", [ R.rsp, stack ], [ pop R.rdx ];
      "pop rsp", [ R.rsp, stack ], [ pop R.rsp ];
      "pop, unmapped stack", [ R.rsp, no_stack ], [ pop R.rdx ] ]
  in
  List.iter check_shape
    (mem_shapes @ mem_faults @ bin_shapes @ un_shapes @ flag_shapes
   @ control_shapes);
  (* A register, base or index byte outside the register file, behind the
     set-up moves: both paths fault [Invalid_opcode] at the instruction. *)
  let disp = String.make 8 '\000' in
  List.iter
    (fun (name, code) ->
      let shape = name, [ R.rax, 1 ], [ mov R.rdx (i 2); bytes code ] in
      check_shape ~slow:1 shape;
      let cpu, aspace = load [ label "main"; mov R.rdx (i 2); bytes code ] in
      As.seal aspace;
      match Interp.run ~icache:(Interp.create_icache aspace) cpu aspace ~fuel:10 with
      | Interp.Fault (Interp.Invalid_opcode { rip; _ }) ->
        check Alcotest.int (name ^ ": rip at the instruction")
          (0x1000 + Isa.Encode.size (Isa.Insn.Mov (R.rdx, Imm 2))) rip;
        check Alcotest.int (name ^ ": cpu rip") rip cpu.Cpu.rip
      | e -> Alcotest.failf "%s: %a" name Interp.pp_vmexit e)
    [ "register byte 16", "\x06\x10\x00";
      "base byte 0x20", "\x08\x00\x20\xff\x00" ^ disp;
      "index byte 0x30", "\x08\x00\xff\x30\x01" ^ disp ]

let block_fuel_cut_everywhere () =
  (* Three fused blocks: [a] loads and stores short of its end, [c] holds
     a store that patches the immediate of a later instruction of its own
     block (its chain splits there and the rest of the page runs slow),
     and [d], on the next page, a store that faults mid-block.  At every
     fuel value a block dispatch the fuel runs out in is cut: it counts
     one split and steps the rest, and must stop where stepping stops. *)
  let items =
    [ label "main";
      mov R.r8 (i (data_base + 64));
      mov R.rax (i 7);
      st (R.r8 @+ 0) R.rax;
      ld R.rbx (R.r8 @+ 0);
      st (R.r8 @+ 8) R.rbx;
      add R.rax (r R.rbx);
      movl R.r9 "patch";
      jmp "c";
      label "c";
      add R.rax (i 1);
      (* [add rax, imm]: opcode, operation and register bytes, then the
         immediate *)
      sti (R.r9 @+ 3) 1000;
      label "patch";
      add R.rax (i 10);
      add R.rax (r R.rbx);
      jmp "d";
      align 4096;
      label "d";
      ld R.rcx (R.r8 @+ 8);
      mov R.r10 (i 0);
      st (R.r10 @+ 0) R.rcx;  (* vpn 0 is unmapped until the fault *)
      add R.rax (r R.rcx);
      hlt ]
  in
  let a = 0, 8 and c = 8, 5 and d = 13, 5 in
  let boot () =
    let cpu, aspace = load items in
    As.seal aspace;
    cpu, aspace
  in
  (* run to halt, mapping vpn 0 at the fault *)
  let rec finish run cpu aspace =
    match run cpu aspace with
    | Interp.Fault (Interp.Page_fault { addr = 0; _ }) ->
      As.map_zero aspace ~vpn:0;
      finish run cpu aspace
    | e -> e
  in
  let off cpu aspace = Interp.run cpu aspace ~fuel:1_000 in
  let total =
    let cpu, aspace = boot () in
    check exit_testable "off halts" Interp.Halt (finish off cpu aspace);
    cpu.Cpu.retired
  in
  check Alcotest.int "one pass retires the three blocks" (snd a + snd c + snd d)
    total;
  for fuel = 1 to total do
    let name = Printf.sprintf "fuel %d" fuel in
    let cpu_off, as_off = boot () in
    let e_off = Interp.run cpu_off as_off ~fuel in
    let cpu, aspace = boot () in
    let cache = Interp.create_icache aspace in
    let e = Interp.run ~icache:cache cpu aspace ~fuel in
    check exit_testable (name ^ ": same vmexit") e_off e;
    compare_cpus name cpu_off cpu;
    compare_flags name cpu_off cpu;
    let inside (s, l) = s < fuel && fuel < s + l in
    let whole (s, l) = fuel >= s + l in
    (* a cut dispatch splits once; so do [c]'s patching store and [d]'s
       fault, when their chains run *)
    let splits =
      Bool.to_int (List.exists inside [ a; c; d ])
      + Bool.to_int (whole c) + Bool.to_int (whole d)
    in
    let _, _, got = Interp.block_counts cache in
    check Alcotest.int (name ^ ": block splits") splits got;
    let block cpu aspace = Interp.run ~icache:cache cpu aspace ~fuel:1_000 in
    check exit_testable (name ^ ": off resumes to halt") Interp.Halt
      (finish off cpu_off as_off);
    check exit_testable (name ^ ": block resumes to halt") Interp.Halt
      (finish block cpu aspace);
    compare_cpus (name ^ " at halt") cpu_off cpu;
    compare_flags (name ^ " at halt") cpu_off cpu
  done

(* {2 Successor links}

   Links are only followed inside one [run], after a block that retired
   every op, whose last op does not store, with fuel left and on the page
   it was entered on.  The fuzz generator never writes to code pages, so
   these cases are covered here only. *)

(* One sealed code page plus the [load] stack pages, booted once. *)
let boot_sealed items =
  let image = assemble ~entry:"main" items in
  let cpu, aspace = load items in
  As.seal aspace;
  image, cpu, aspace

let fresh_cpu (image : image) = Cpu.create ~entry:image.entry

let link_alternating_snapshots () =
  (* Two snapshots hold different code bytes at the same vpn.  Restoring
     them alternately under one warm cache, each run must execute its own
     bytes: the first block of a run always takes the full lookup. *)
  let prog n =
    [ label "main"; mov R.rax (i 0); mov R.rcx (i 10);
      label "loop_"; add R.rax (i n); dec R.rcx; jg "loop_"; hlt ]
  in
  let image, _, aspace = boot_sealed (prog 1) in
  let s1 = As.snapshot aspace in
  As.write_bytes aspace ~addr:image.origin (assemble ~entry:"main" (prog 2)).code;
  let s2 = As.snapshot aspace in
  let cache = Interp.create_icache aspace in
  let run snap =
    As.restore aspace snap;
    let cpu = fresh_cpu image in
    check exit_testable "halts" Interp.Halt
      (Interp.run ~icache:cache cpu aspace ~fuel:1_000);
    Cpu.get cpu R.rax
  in
  for round = 1 to 3 do
    check Alcotest.int (Printf.sprintf "round %d: first snapshot" round) 10 (run s1);
    check Alcotest.int (Printf.sprintf "round %d: second snapshot" round) 20 (run s2)
  done

let link_call_cows_code_page () =
  (* [call] is the one terminator that stores.  Run once with the stack
     elsewhere (the call block reaches [f] on the same frame), then again
     with rsp aimed into [f] itself: the return-address push COWs the code
     page and lands on the immediate of [f]'s [mov], so the next block
     must be re-translated, not reached through a link to the stale
     frame. *)
  let items =
    [ label "main"; call "f"; label "back"; hlt;
      label "f"; mov R.rax (i 5); hlt ]
  in
  let image, _, aspace = boot_sealed items in
  let snap = As.snapshot aspace in
  let f = List.assoc "f" image.symbols in
  let back = List.assoc "back" image.symbols in
  let cache = Interp.create_icache aspace in
  List.iter
    (fun (name, sp, expected) ->
      let run go =
        As.restore aspace snap;
        let cpu = fresh_cpu image in
        Cpu.set cpu R.rsp sp;
        let e = go cpu in
        e, cpu
      in
      let e_ref, cpu_ref = run (fun cpu -> step_n cpu aspace 100) in
      let e, cpu = run (fun cpu -> Interp.run ~icache:cache cpu aspace ~fuel:100) in
      check exit_testable (name ^ ": same vmexit") e_ref e;
      compare_cpus name cpu_ref cpu;
      check Alcotest.int (name ^ ": rax") expected (Cpu.get cpu R.rax))
    [ "stack elsewhere", 104 * 4096, 5;
      (* [mov rax, imm]: opcode and register byte, then the immediate *)
      "stack on f", f + 2 + 8, back;
      "stack elsewhere again", 104 * 4096, 5 ]

let link_fuel_at_linked_transfer () =
  (* Blocks: [main..jg] (5 ops), the loop body [add; dec; jg] (3 ops),
     and [hlt].  With links warm, every fuel budget must stop exactly
     where stepping stops — in particular budgets that run out right at a
     linked transfer (5 + 3k), which must not enter the next block. *)
  let items =
    [ label "main"; mov R.rax (i 0); mov R.rcx (i 8);
      label "loop_"; add R.rax (i 1); dec R.rcx; jg "loop_"; hlt ]
  in
  let image, _, aspace = boot_sealed items in
  let cache = Interp.create_icache aspace in
  check exit_testable "warm-up halts" Interp.Halt
    (Interp.run ~icache:cache (fresh_cpu image) aspace ~fuel:1_000);
  for fuel = 1 to 30 do
    let name = Printf.sprintf "fuel %d" fuel in
    let cpu_ref = fresh_cpu image in
    let e_ref = step_n cpu_ref aspace fuel in
    let cpu = fresh_cpu image in
    let _, _, splits = Interp.block_counts cache in
    let e = Interp.run ~icache:cache cpu aspace ~fuel in
    check exit_testable (name ^ ": same vmexit") e_ref e;
    compare_cpus name cpu_ref cpu;
    let _, _, splits' = Interp.block_counts cache in
    if fuel >= 5 && (fuel - 5) mod 3 = 0 && e = Interp.Out_of_fuel then
      check Alcotest.int (name ^ ": stops on the block boundary") splits splits'
  done

let link_after_self_modifying_split () =
  (* The store patches the immediate of the [add] right after it.  Run
     once with the store aimed at a data page: the first block links to
     the loop block at [body].  Then aim it at the code: the store COWs
     the page and splits the first block exactly at [body] — the linked
     offset — and the same-page jump back to [body] must keep running
     the patched bytes, never a linked block of the stale frame. *)
  let items =
    [ label "main"; mov R.rax (i 0); mov R.rcx (i 3);
      sti (R.r9 @+ 0) 1000;
      label "body"; add R.rax (i 10); dec R.rcx; jg "body"; hlt ]
  in
  let image, _, aspace = boot_sealed items in
  let snap = As.snapshot aspace in
  (* [add rax, imm]: opcode, operation and register bytes, then the
     immediate *)
  let imm = List.assoc "body" image.symbols + 3 in
  let cache = Interp.create_icache aspace in
  List.iter
    (fun (name, target, expected) ->
      let run go =
        As.restore aspace snap;
        let cpu = fresh_cpu image in
        Cpu.set cpu R.r9 target;
        let e = go cpu in
        e, cpu
      in
      let e_ref, cpu_ref = run (fun cpu -> step_n cpu aspace 1_000) in
      let e, cpu = run (fun cpu -> Interp.run ~icache:cache cpu aspace ~fuel:1_000) in
      check exit_testable (name ^ ": halts") Interp.Halt e_ref;
      check exit_testable (name ^ ": same vmexit") e_ref e;
      compare_cpus name cpu_ref cpu;
      check Alcotest.int (name ^ ": rax") expected (Cpu.get cpu R.rax))
    [ "store to data", data_base, 30; "store to code", imm, 3000;
      "store to data again", data_base, 30 ]

(* The store that COWs the block's own code page after the host has
   COW'd [k] other pages in the same segment, for every [k] up to twice
   the write set's capacity and more: somewhere the code page's entry
   fills the set, and somewhere the next COW folds a full set.  [regs]
   sets the registers and [observe] reads the guest's result; block
   dispatch must agree with the uncached reference at every [k]. *)
let write_set_fill_cases name items ~regs ~observe =
  let image, _, aspace = boot_sealed items in
  let scratch = List.init 140 (fun j -> 200 + j) in
  List.iter (fun vpn -> As.map_zero aspace ~vpn) scratch;
  let snap = As.snapshot aspace in
  let cache = Interp.create_icache aspace in
  for k = 0 to List.length scratch do
    let run go =
      As.restore aspace snap;
      List.iteri
        (fun j vpn -> if j < k then As.write_u8 aspace (Mem.Page.addr_of_vpn vpn) 1)
        scratch;
      let cpu = fresh_cpu image in
      regs image cpu;
      let e = go cpu in
      e, cpu, observe aspace
    in
    let e_ref, cpu_ref, seen_ref = run (fun cpu -> step_n cpu aspace 1_000) in
    let e, cpu, seen =
      run (fun cpu -> Interp.run ~icache:cache cpu aspace ~fuel:1_000)
    in
    let name = Printf.sprintf "%s, %d pages first" name k in
    check exit_testable (name ^ ": halts") Interp.Halt e_ref;
    check exit_testable (name ^ ": same vmexit") e_ref e;
    compare_cpus name cpu_ref cpu;
    check Alcotest.int (name ^ ": same result") seen_ref seen
  done

let block_store_fills_write_set () =
  (* the store patches the immediate of the [add] right after it *)
  write_set_fill_cases "one-page store"
    [ label "main"; mov R.rax (i 0); sti (R.r9 @+ 0) 1000;
      label "body"; add R.rax (i 10); hlt ]
    ~regs:(fun image cpu -> Cpu.set cpu R.r9 (List.assoc "body" image.symbols + 3))
    ~observe:(fun _ -> 0);
  (* A page-crossing store whose low half patches the high bytes of the
     [sti]'s immediate, the last fused instruction of the code page, and
     whose high half lands on the next page: when the code page's entry
     fills the set, the next page's COW folds it before it appends. *)
  let tail = Mem.Page.size - 24 - 13 in
  let imm = 0x0102030405060708 in
  let items =
    [ label "main"; jmp "tail"; zeros (tail - 9);
      label "tail"; st (R.r8 @+ 0) R.r9; sti (R.r10 @+ 0) imm; hlt; zeros 8 ]
  in
  let patch = Mem.Page.size - 7 in
  let image = assemble ~entry:"main" items in
  check Alcotest.int "the store opens the block" tail (List.assoc "tail" image.symbols - image.origin);
  let old = Int64.to_int (String.get_int64_le image.code patch) in
  write_set_fill_cases "store crossing out of the code page" items
    ~regs:(fun image cpu ->
      Cpu.set cpu R.r8 (image.origin + patch);
      Cpu.set cpu R.r9 (old lxor 0xff);
      Cpu.set cpu R.r10 data_base)
    ~observe:(fun aspace -> As.read_u64 aspace data_base)

let link_frame_at_two_vpns () =
  (* One deduplicated code frame mapped at two vpns; its loop branch is
     absolute, so the copy at the second vpn jumps into the first page.
     After a run at the first vpn has filled the links, that page is
     rewritten (COWed away from the shared frame): the second copy's jump
     crosses to another page and must take the full lookup, not the link
     its block holds for the same offset. *)
  let prog n =
    assemble ~entry:"main"
      [ label "main"; mov R.rax (i 0); mov R.rcx (i 3);
        label "loop_"; add R.rax (i n); dec R.rcx; jg "loop_"; hlt ]
  in
  let image = prog 1 in
  let aspace = As.create (Mem.Phys_mem.create ()) in
  let home = Mem.Page.vpn_of_addr image.origin and alias = 5 in
  As.map_dedup aspace ~vpn:home image.code;
  As.map_dedup aspace ~vpn:alias image.code;
  As.seal aspace;
  let moved = (alias - home) * Mem.Page.size in
  let cache = Interp.create_icache aspace in
  let run entry =
    let go f =
      let cpu = Cpu.create ~entry in
      let e = f cpu in
      e, cpu
    in
    let e_ref, cpu_ref = go (fun cpu -> step_n cpu aspace 1_000) in
    let e, cpu = go (fun cpu -> Interp.run ~icache:cache cpu aspace ~fuel:1_000) in
    check exit_testable "halts" Interp.Halt e_ref;
    check exit_testable "same vmexit" e_ref e;
    compare_cpus "two vpns" cpu_ref cpu;
    Cpu.get cpu R.rax
  in
  check Alcotest.int "home copy" 3 (run image.entry);
  As.write_bytes aspace ~addr:image.origin (prog 7).code;
  As.seal aspace;
  (* the first iteration runs in the alias copy, the other two in the
     rewritten home page *)
  check Alcotest.int "alias copy enters the rewritten home page" (1 + 7 + 7)
    (run (image.entry + moved))

(* Compiled ops close over the address space their cache was created
   for: running a cache against another one, even over the same frames,
   is refused rather than loading and storing through the wrong map. *)
let icache_serves_one_address_space () =
  let items = [ label "main"; mov R.rax (i 1); hlt ] in
  let image, _, aspace = boot_sealed items in
  let cache = Interp.create_icache aspace in
  check exit_testable "its own address space" Interp.Halt
    (Interp.run ~icache:cache (fresh_cpu image) aspace ~fuel:100);
  let _, _, other = boot_sealed items in
  Alcotest.check_raises "another address space"
    (Invalid_argument "Interp.run: the icache serves another address space")
    (fun () -> ignore (Interp.run ~icache:cache (fresh_cpu image) other ~fuel:100))

let tests =
  [ Alcotest.test_case "arithmetic" `Quick arithmetic;
    Alcotest.test_case "fibonacci loop" `Quick fibonacci;
    Alcotest.test_case "recursive factorial" `Quick recursion_factorial;
    Alcotest.test_case "memory and lea" `Quick memory_and_lea;
    Alcotest.test_case "conditions" `Quick conditions;
    Alcotest.test_case "ALU flags" `Quick alu_flags;
    Alcotest.test_case "div by zero faults" `Quick div_by_zero_faults;
    Alcotest.test_case "bad shift faults" `Quick bad_shift_faults;
    Alcotest.test_case "page fault reports rip" `Quick page_fault_reports_rip;
    Alcotest.test_case "fuel is resumable" `Quick fuel_is_resumable;
    Alcotest.test_case "syscall advances rip" `Quick syscall_advances_rip;
    Alcotest.test_case "save/load roundtrip" `Quick save_load_roundtrip;
    Alcotest.test_case "retired counts" `Quick retired_counts;
    Alcotest.test_case "icache sound: adjacent data page" `Quick
      icache_sound_adjacent_data;
    Alcotest.test_case "icache sound: data on the code page" `Quick
      icache_sound_same_page_data;
    Alcotest.test_case "block: branch into the middle of a cached block"
      `Quick block_branch_into_middle;
    Alcotest.test_case "block: straight line across the page edge" `Quick
      block_across_page_edge;
    Alcotest.test_case "block: fault at instruction k of a fused block"
      `Quick block_fault_mid_block;
    Alcotest.test_case "block: fuel exhaustion mid-block" `Quick
      block_fuel_exhaustion_mid_block;
    Alcotest.test_case "block: self-modifying store splits the block" `Quick
      block_self_modifying_code;
    Alcotest.test_case "block: generation retire invalidates by frame id"
      `Quick block_invalidation_on_generation_retire;
    Alcotest.test_case "shared page is never decode- or block-cached" `Quick
      shared_page_never_cached;
    Alcotest.test_case "block: every shape matches step" `Quick every_shape;
    Alcotest.test_case "block: fuel cut at every instruction" `Quick
      block_fuel_cut_everywhere;
    Alcotest.test_case "link: alternating snapshots at one vpn" `Quick
      link_alternating_snapshots;
    Alcotest.test_case "link: call COWs its own code page" `Quick
      link_call_cows_code_page;
    Alcotest.test_case "link: fuel ends at a linked transfer" `Quick
      link_fuel_at_linked_transfer;
    Alcotest.test_case "link: same-page jump after a self-modifying split"
      `Quick link_after_self_modifying_split;
    Alcotest.test_case "block: self-modifying store fills the write set"
      `Quick block_store_fills_write_set;
    Alcotest.test_case "link: one frame mapped at two vpns" `Quick
      link_frame_at_two_vpns;
    Alcotest.test_case "icache serves one address space" `Quick
      icache_serves_one_address_space ]
