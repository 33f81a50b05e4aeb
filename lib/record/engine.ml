module As = Mem.Addr_space
module Cpu = Vcpu.Cpu
module Libos = Os.Libos

exception Diverged of string

type checkpoint = {
  ck_regs : Cpu.saved;
  ck_mem : As.snapshot;
  ck_os : Libos.os_state;
}

let checkpoint (m : Libos.t) =
  { ck_regs = Cpu.save m.Libos.cpu;
    ck_mem = As.snapshot m.Libos.aspace;
    ck_os = Libos.os_capture m }

let restore (m : Libos.t) ck =
  Cpu.load m.Libos.cpu ck.ck_regs;
  As.restore m.Libos.aspace ck.ck_mem;
  Libos.os_restore m ck.ck_os

let run_until_retired (m : Libos.t) ~target =
  let cpu = m.Libos.cpu in
  let rec go stalls =
    let cur = cpu.Cpu.retired in
    if cur >= target then None
    else
      match Libos.run m ~fuel:(target - cur) with
      | Libos.Killed Libos.Fuel_exhausted ->
        let cur' = cpu.Cpu.retired in
        if cur' >= target then None
        else if cur' = cur then begin
          (* A guest-set sys_timeout can clamp the grant and an instruction
             may need a few fault services before retiring, but dozens of
             fuel-only rounds with zero retirement means replay is stuck. *)
          if stalls >= 64 then
            raise
              (Diverged
                 (Printf.sprintf
                    "no forward progress at instruction %d (target %d)" cur'
                    target));
          go (stalls + 1)
        end
        else go 0
      | stop ->
        let cur' = cpu.Cpu.retired in
        if cur' >= target then Some stop
        else
          raise
            (Diverged
               (Format.asprintf
                  "premature stop %a at instruction %d (target %d)"
                  Libos.pp_stop stop cur' target))
  in
  go 0
