module As = Mem.Addr_space
module Cpu = Vcpu.Cpu
module Interp = Vcpu.Interp
module Reg = Isa.Reg

type layout = {
  heap_base : int;
  stack_top : int;
  max_stack_pages : int;
}

type reason =
  | Fault of Interp.fault
  | Fuel_exhausted
  | Denied_syscall of { rip : int; number : int }

type stop =
  | Guess of { n : int }
  | Guess_fail
  | Guess_strategy of { strategy : int }
  | Guess_hint of { dist : int }
  | Exited of { status : int }
  | Killed of reason

type counters = {
  syscall_count : int array;
  mutable demand_pages : int;
  mutable denied : int;
}

type os_state = {
  vfs : Vfs.t;
  fds : Fd_table.t;
  brk : int;
  out : string list;       (* stdout chunks, most recent first *)
  err : string list;
  stdin_data : string;
  stdin_pos : int;
  timeout : int;           (* per-evaluation instruction bound; 0 = none *)
}

type t = {
  aspace : As.t;
  cpu : Cpu.t;
  layout : layout;
  counters : counters;
  icache : Interp.icache option;
  mutable os : os_state;
  mutable sys_hook : (int -> int -> unit) option;
}

let default_layout =
  { heap_base = 0x100000;          (* 1 MiB *)
    stack_top = 0x40000000;        (* 1 GiB *)
    max_stack_pages = 1024 }

let initial_os =
  { vfs = Vfs.empty;
    fds = Fd_table.initial;
    brk = 0;
    out = [];
    err = [];
    stdin_data = "";
    stdin_pos = 0;
    timeout = 0 }

let boot ?(layout = default_layout) ?(icache = true)
    ?(dedup = false) ?(account = 0) phys
    (image : Isa.Asm.image) =
  if not (Mem.Page.is_aligned image.origin) then
    invalid_arg "Libos.boot: image origin not page-aligned";
  if image.origin + String.length image.code > layout.heap_base then
    invalid_arg "Libos.boot: image overlaps heap";
  let aspace = As.create phys in
  As.set_account aspace account;
  (* Map code/data one page at a time — through the content-addressed dedup
     table when requested, so same-image tenants share read-only frames.  A
     mid-boot allocation failure must return the dedup references already
     taken, or the pool leaks an entry per rejected boot. *)
  let len = String.length image.code in
  let pages = (len + Mem.Page.size - 1) / Mem.Page.size in
  (try
     for p = 0 to pages - 1 do
       let off = p * Mem.Page.size in
       let chunk = String.sub image.code off (min Mem.Page.size (len - off)) in
       let vpn = Mem.Page.vpn_of_addr (image.origin + off) in
       if dedup then As.map_dedup aspace ~vpn chunk
       else As.map_data aspace ~vpn chunk
     done
   with e ->
     ignore (As.drop_dedup_refs aspace);
     raise e);
  (* Seal the freshly-mapped image: code and initialised data become
     immutable-until-COW, like text/data mapped from an executable. *)
  As.seal aspace;
  let cpu = Cpu.create ~entry:image.entry in
  Cpu.set cpu Reg.rsp layout.stack_top;
  { aspace;
    cpu;
    layout;
    counters = { syscall_count = Array.make 32 0; demand_pages = 0; denied = 0 };
    icache = (if icache then Some (Interp.create_icache aspace) else None);
    os = { initial_os with brk = layout.heap_base };
    sys_hook = None }

let set_sys_hook t hook = t.sys_hook <- hook

(* {1 OS state} *)

let os_capture t = t.os
(* a path that made no syscall left the state it was restored to *)
let os_restore t os = if t.os != os then t.os <- os

let add_file t ~path content = t.os <- { t.os with vfs = Vfs.add t.os.vfs ~path content }
let read_file t ~path = Vfs.find t.os.vfs ~path
let set_stdin t data = t.os <- { t.os with stdin_data = data; stdin_pos = 0 }
let stdout_text t = String.concat "" (List.rev t.os.out)
let stdout_chunks t = t.os.out
let stderr_text t = String.concat "" (List.rev t.os.err)
let brk_value t = t.os.brk

(* {1 Demand paging} *)

let in_heap t addr = addr >= t.layout.heap_base && addr < t.os.brk

let in_stack t addr =
  let lo = t.layout.stack_top - (t.layout.max_stack_pages * Mem.Page.size) in
  addr >= lo && addr < t.layout.stack_top

let service_page_fault t addr =
  if in_heap t addr || in_stack t addr then begin
    As.map_zero t.aspace ~vpn:(Mem.Page.vpn_of_addr addr);
    t.counters.demand_pages <- t.counters.demand_pages + 1;
    true
  end
  else false

(* {1 Guest memory helpers} *)

exception Guest_efault

let read_guest_string t addr =
  (* NUL-terminated, capped at 4096 bytes. *)
  let buf = Buffer.create 64 in
  let rec go i =
    if i >= 4096 then Buffer.contents buf
    else
      let c = As.read_u8 t.aspace (addr + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  (try go 0 with As.Page_fault _ -> raise Guest_efault)

let read_guest_bytes t addr len =
  try Bytes.to_string (As.read_bytes t.aspace ~addr ~len)
  with As.Page_fault _ -> raise Guest_efault

let write_guest_bytes t addr data =
  try As.write_bytes t.aspace ~addr data with As.Page_fault _ -> raise Guest_efault

(* {1 Syscall implementations}

   Each returns the value to place in rax (negative errno on failure). *)

let do_brk t requested =
  let os = t.os in
  if requested = 0 then os.brk
  else if requested < t.layout.heap_base then os.brk
  else begin
    let old_top = Mem.Page.round_up os.brk in
    let new_top = Mem.Page.round_up requested in
    (* Growing just moves the bound: [service_page_fault] demand-zeroes
       anything below [brk] on first touch, so no page-table entries are
       created until the guest writes.  Mapping the range here looks
       equivalent but costs one trie insert per page — a guest asking for a
       gigabyte of heap would stall the host on ~250k inserts and bloat
       every later snapshot walk (found by the differential fuzzer, whose
       generated guests pass garbage to brk). *)
    if new_top < old_top then begin
      (* Shrinking must still drop frames eagerly — memory above the new
         break is gone, and re-extending reads back zeroes.  Only touch
         pages that were actually materialised; for a huge retreat, walking
         the mapped set beats walking the address range. *)
      let lo = Mem.Page.vpn_of_addr new_top in
      let hi = Mem.Page.vpn_of_addr (old_top - 1) in
      if hi - lo > 256 then
        List.iter
          (fun vpn -> if vpn >= lo && vpn <= hi then As.unmap t.aspace ~vpn)
          (As.mapped_vpns t.aspace)
      else
        for vpn = lo to hi do
          if As.is_mapped t.aspace ~vpn then As.unmap t.aspace ~vpn
        done
    end;
    t.os <- { os with brk = requested };
    requested
  end

let path_is_refused path =
  (* The §5 soundness rule: regular files only. *)
  let prefixed prefix = String.length path >= String.length prefix
                        && String.sub path 0 (String.length prefix) = prefix in
  prefixed "/dev/" || prefixed "/proc/" || prefixed "/sys/"

let do_open t path_addr flags =
  match read_guest_string t path_addr with
  | exception Guest_efault -> -Sys_abi.efault
  | path ->
    if path_is_refused path then begin
      t.counters.denied <- t.counters.denied + 1;
      -Sys_abi.enotsup
    end
    else begin
      let os = t.os in
      let exists = Vfs.exists os.vfs ~path in
      let accmode = flags land Sys_abi.o_accmode in
      let creat = flags land Sys_abi.o_creat <> 0 in
      let trunc = flags land Sys_abi.o_trunc <> 0 in
      if (not exists) && not creat then -Sys_abi.enoent
      else begin
        let vfs =
          if (not exists) || (trunc && accmode <> Sys_abi.o_rdonly) then
            Vfs.add os.vfs ~path ""
          else os.vfs
        in
        let fds, fd = Fd_table.alloc os.fds { path; offset = 0; flags } in
        t.os <- { os with vfs; fds };
        fd
      end
    end

let do_close t fd =
  match Fd_table.close t.os.fds fd with
  | None -> -Sys_abi.ebadf
  | Some fds ->
    t.os <- { t.os with fds };
    0

let do_write t fd buf_addr len =
  if len < 0 then -Sys_abi.einval
  else
    match read_guest_bytes t buf_addr len with
    | exception Guest_efault -> -Sys_abi.efault
    | data ->
      if fd = 1 then begin
        t.os <- { t.os with out = data :: t.os.out };
        len
      end
      else if fd = 2 then begin
        t.os <- { t.os with err = data :: t.os.err };
        len
      end
      else begin
        match Fd_table.find t.os.fds fd with
        | None -> -Sys_abi.ebadf
        | Some desc ->
          if desc.flags land Sys_abi.o_accmode = Sys_abi.o_rdonly then -Sys_abi.ebadf
          else begin
            let offset =
              if desc.flags land Sys_abi.o_append <> 0 then
                Option.value (Vfs.size t.os.vfs ~path:desc.path) ~default:0
              else desc.offset
            in
            let vfs = Vfs.write_at t.os.vfs ~path:desc.path ~offset data in
            let fds = Fd_table.set t.os.fds fd { desc with offset = offset + len } in
            t.os <- { t.os with vfs; fds };
            len
          end
      end

let do_read t fd buf_addr len =
  if len < 0 then -Sys_abi.einval
  else if fd = 0 then begin
    let os = t.os in
    let available = String.length os.stdin_data - os.stdin_pos in
    let n = min len (max available 0) in
    let chunk = String.sub os.stdin_data os.stdin_pos n in
    match write_guest_bytes t buf_addr chunk with
    | exception Guest_efault -> -Sys_abi.efault
    | () ->
      t.os <- { os with stdin_pos = os.stdin_pos + n };
      n
  end
  else
    match Fd_table.find t.os.fds fd with
    | None -> -Sys_abi.ebadf
    | Some desc -> (
      if desc.flags land Sys_abi.o_accmode = Sys_abi.o_wronly then -Sys_abi.ebadf
      else
        match Vfs.read_at t.os.vfs ~path:desc.path ~offset:desc.offset ~len with
        | None -> -Sys_abi.enoent
        | Some chunk -> (
          match write_guest_bytes t buf_addr chunk with
          | exception Guest_efault -> -Sys_abi.efault
          | () ->
            let n = String.length chunk in
            t.os <- { t.os with fds = Fd_table.set t.os.fds fd { desc with offset = desc.offset + n } };
            n))

let do_lseek t fd pos whence =
  match Fd_table.find t.os.fds fd with
  | None -> -Sys_abi.ebadf
  | Some desc ->
    let file_size = Option.value (Vfs.size t.os.vfs ~path:desc.path) ~default:0 in
    let target =
      if whence = Sys_abi.seek_set then pos
      else if whence = Sys_abi.seek_cur then desc.offset + pos
      else if whence = Sys_abi.seek_end then file_size + pos
      else -1
    in
    if target < 0 then -Sys_abi.einval
    else begin
      t.os <- { t.os with fds = Fd_table.set t.os.fds fd { desc with offset = target } };
      target
    end

let do_share t addr len =
  if len <= 0 then -Sys_abi.einval
  else begin
    let first = Mem.Page.vpn_of_addr addr in
    let last = Mem.Page.vpn_of_addr (addr + len - 1) in
    if last - first >= 4096 then -Sys_abi.enomem
    else begin
      for vpn = first to last do
        As.map_shared t.aspace ~vpn
      done;
      0
    end
  end

let do_unlink t path_addr =
  match read_guest_string t path_addr with
  | exception Guest_efault -> -Sys_abi.efault
  | path ->
    if Vfs.exists t.os.vfs ~path then begin
      t.os <- { t.os with vfs = Vfs.remove t.os.vfs ~path };
      0
    end
    else -Sys_abi.enoent

(* {1 The vmexit loop} *)

let count_syscall t n =
  if n >= 0 && n < Array.length t.counters.syscall_count then
    t.counters.syscall_count.(n) <- t.counters.syscall_count.(n) + 1

(* The span slot of each ordinary syscall number. *)
let sys_slots =
  let slots = Array.make 32 Obs.Names.sys_other in
  List.iter
    (fun (number, slot) -> slots.(number) <- slot)
    Obs.Names.
      [ (Sys_abi.sys_write, sys_write); (Sys_abi.sys_read, sys_read);
        (Sys_abi.sys_open, sys_open); (Sys_abi.sys_close, sys_close);
        (Sys_abi.sys_brk, sys_brk); (Sys_abi.sys_lseek, sys_lseek);
        (Sys_abi.sys_unlink, sys_unlink); (Sys_abi.sys_vtime, sys_vtime);
        (Sys_abi.sys_timeout, sys_timeout); (Sys_abi.sys_share, sys_share);
        (Sys_abi.sys_socket, sys_socket); (Sys_abi.sys_ioctl, sys_ioctl) ];
  slots

let sys_slot number =
  if number >= 0 && number < Array.length sys_slots then sys_slots.(number)
  else Obs.Names.sys_other

let icache_counts t = Option.map Interp.icache_counts t.icache
let block_counts t = Option.map Interp.block_counts t.icache

(* Top level, not a closure inside [run]: one segment allocates no loop. *)
let rec run_loop t cpu remaining =
  if remaining <= 0 then Killed Fuel_exhausted
  else begin
    let retired_before = cpu.Cpu.retired in
    let exit = Interp.run ?icache:t.icache cpu t.aspace ~fuel:remaining in
    let used = cpu.Cpu.retired - retired_before in
    (* an integer [max 1 used]: the polymorphic one calls [compare] *)
    let used = if used > 1 then used else 1 in
    let remaining = remaining - used in
    match exit with
    | Interp.Out_of_fuel -> Killed Fuel_exhausted
    | Interp.Halt -> Exited { status = Cpu.get cpu Reg.rdi }
    | Interp.Fault (Interp.Page_fault { addr; _ } as f) ->
      if service_page_fault t addr then run_loop t cpu remaining
      else Killed (Fault f)
    | Interp.Fault f -> Killed (Fault f)
    | Interp.Syscall ->
      let number = Cpu.get cpu Reg.rax in
      let arg0 = Cpu.get cpu Reg.rdi in
      let arg1 = Cpu.get cpu Reg.rsi in
      let arg2 = Cpu.get cpu Reg.rdx in
      count_syscall t number;
      (* The guess family and exit suspend the guest rather than return
         into it: the scheduler counts and traces the stop. *)
      if number = Sys_abi.sys_exit then Exited { status = arg0 }
      else if number = Sys_abi.sys_guess then Guess { n = arg0 }
      else if number = Sys_abi.sys_guess_fail then Guess_fail
      else if number = Sys_abi.sys_guess_strategy then Guess_strategy { strategy = arg0 }
      else if number = Sys_abi.sys_guess_hint then Guess_hint { dist = arg0 }
      else begin
        let slot = sys_slot number in
        Obs.Trace.span_begin slot arg0;
        let result =
          if number = Sys_abi.sys_write then do_write t arg0 arg1 arg2
          else if number = Sys_abi.sys_read then do_read t arg0 arg1 arg2
          else if number = Sys_abi.sys_open then do_open t arg0 arg1
          else if number = Sys_abi.sys_close then do_close t arg0
          else if number = Sys_abi.sys_brk then do_brk t arg0
          else if number = Sys_abi.sys_lseek then do_lseek t arg0 arg1 arg2
          else if number = Sys_abi.sys_unlink then do_unlink t arg0
          else if number = Sys_abi.sys_vtime then cpu.Cpu.retired
          else if number = Sys_abi.sys_timeout then begin
            if arg0 < 0 then -Sys_abi.einval
            else begin
              t.os <- { t.os with timeout = arg0 };
              0
            end
          end
          else if number = Sys_abi.sys_share then do_share t arg0 arg1
          else if number = Sys_abi.sys_socket || number = Sys_abi.sys_ioctl then begin
            t.counters.denied <- t.counters.denied + 1;
            -Sys_abi.enotsup
          end
          else begin
            t.counters.denied <- t.counters.denied + 1;
            -Sys_abi.enosys
          end
        in
        Obs.Trace.span_end (Mem.Phys_mem.registry (As.phys t.aspace)) slot 0 result;
        (match t.sys_hook with None -> () | Some f -> f number result);
        Cpu.set cpu Reg.rax result;
        run_loop t cpu remaining
      end
  end

let timeout t = t.os.timeout

let run t ~fuel =
  let timeout = t.os.timeout in
  let fuel = if timeout > 0 && timeout < fuel then timeout else fuel in
  run_loop t t.cpu fuel

let pp_reason fmt = function
  | Fault f -> Interp.pp_fault fmt f
  | Fuel_exhausted -> Format.pp_print_string fmt "fuel exhausted"
  | Denied_syscall { rip; number } ->
    Format.fprintf fmt "denied syscall %s at rip=0x%x" (Sys_abi.name_of_syscall number) rip

let pp_stop fmt = function
  | Guess { n } -> Format.fprintf fmt "guess(%d)" n
  | Guess_fail -> Format.pp_print_string fmt "guess_fail"
  | Guess_strategy { strategy } -> Format.fprintf fmt "guess_strategy(%d)" strategy
  | Guess_hint { dist } -> Format.fprintf fmt "guess_hint(%d)" dist
  | Exited { status } -> Format.fprintf fmt "exited(%d)" status
  | Killed r -> Format.fprintf fmt "killed: %a" pp_reason r
