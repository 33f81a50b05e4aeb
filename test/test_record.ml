(* Record/replay: the log codec (round-trip, truncation detection), the
   bundle container, replay determinism against the live run — including
   under injected allocation faults — and the time-travel cursor
   (forward/backward agreement, breakpoints). *)

module Log = Record.Log
module Bundle = Record.Bundle
module Replay = Record.Replay
module Recorder = Record.Recorder
module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module As = Mem.Addr_space

let check = Alcotest.check

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* {1 Log codec} *)

let gen_stop =
  QCheck2.Gen.(
    oneof
      [ map (fun n -> Log.Guess n) (int_range 0 1_000_000);
        return Log.Guess_fail;
        map (fun n -> Log.Strategy n) (int_range 0 16);
        map (fun n -> Log.Hint n) (int_range (-1000) 1000);
        map (fun n -> Log.Exit n) (int_range (-1) 300);
        map (fun s -> Log.Kill s) string;
        map (fun s -> Log.Crash s) string ])

let gen_event =
  QCheck2.Gen.(
    oneof
      [ map (fun snap -> Log.Capture { snap }) nat;
        map2 (fun snap rax -> Log.Resume { snap; rax }) nat (int_range (-1) 64);
        map (fun v -> Log.Set_rax v) (int_range (-2) 2);
        map2
          (fun number ret -> Log.Sys { number; ret })
          (int_range 0 31)
          (int_range (-4096) 1_000_000);
        map2 (fun retired stop -> Log.Eval { retired; stop }) nat gen_stop ])

let gen_log =
  QCheck2.Gen.(
    map2
      (fun meta events -> { Log.fuel_per_step = 50_000_000; meta; events })
      string
      (list_size (int_range 0 40) gen_event))

let log_roundtrip =
  qcheck "encode/decode round-trips (odd strings included)" gen_log
    (fun log ->
      match Log.decode (Log.encode log) with
      | Ok log' -> log' = log
      | Error e -> QCheck2.Test.fail_reportf "decode: %s" (Log.error_to_string e))

(* A prefix cut never crashes the decoder: it yields either a clean prefix
   of the events (cut landed on an event boundary) or a Truncated/Corrupt
   error that still reports how many events survived. *)
let log_truncation_safe =
  qcheck "truncated logs are detected, never crash"
    QCheck2.Gen.(pair gen_log (float_bound_inclusive 1.))
    (fun (log, frac) ->
      let s = Log.encode log in
      let cut = int_of_float (frac *. float_of_int (String.length s - 1)) in
      let n = List.length log.Log.events in
      let prefix k =
        List.filteri (fun i _ -> i < k) log.Log.events
      in
      match Log.decode (String.sub s 0 cut) with
      | Ok log' ->
        let k = List.length log'.Log.events in
        k <= n && log'.Log.events = prefix k
      | Error (Log.Truncated { events }) -> events <= n
      | Error (Log.Corrupt _) -> true
      | Error (Log.Bad_magic | Log.Bad_version _) -> cut < 5)

let log_truncation_last_byte () =
  let log =
    { Log.fuel_per_step = 1000;
      meta = "m";
      events =
        [ Log.Capture { snap = 3 };
          Log.Sys { number = 1; ret = 2 };
          Log.Eval { retired = 7; stop = Log.Kill "page fault" } ] }
  in
  let s = Log.encode log in
  match Log.decode (String.sub s 0 (String.length s - 1)) with
  | Error (Log.Truncated { events }) ->
    check Alcotest.int "events decoded before the cut" 2 events;
    let msg = Log.error_to_string (Log.Truncated { events }) in
    check Alcotest.bool "error message mentions truncation" true
      (contains ~sub:"truncated" msg)
  | Ok _ -> Alcotest.fail "one missing byte went undetected"
  | Error e -> Alcotest.failf "wrong error: %s" (Log.error_to_string e)

let log_bad_header () =
  (match Log.decode "XXXX\001rest" with
  | Error Log.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (match Log.decode ("LWRR" ^ String.make 1 (Char.chr 99)) with
  | Error (Log.Bad_version 99) -> ()
  | _ -> Alcotest.fail "future version accepted");
  match Log.decode "LW" with
  | Error Log.Bad_magic -> ()
  | _ -> Alcotest.fail "short header accepted"

(* {1 Bundle container} *)

let tiny_source = "main:\n    mov rax, 0\n    mov rdi, 5\n    syscall\n"

let bundle_roundtrip () =
  let image = Isa.Asm_parser.assemble_text tiny_source in
  let log =
    { Log.fuel_per_step = 77;
      meta = "bundle test";
      events = [ Log.Eval { retired = 3; stop = Log.Exit 5 } ] }
  in
  let b =
    Bundle.of_image ~source:tiny_source ~stdin:"in\000put"
      ~files:[ ("a.txt", "alpha"); ("b.bin", "\000\255") ]
      image log
  in
  (match Bundle.decode (Bundle.encode b) with
  | Ok b' -> check Alcotest.bool "in-memory round-trip" true (b = b')
  | Error e -> Alcotest.failf "decode: %s" e);
  let path = Filename.temp_file "lwsnap-test" ".replay" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bundle.write ~path b;
      match Bundle.read ~path with
      | Ok b' -> check Alcotest.bool "file round-trip" true (b = b')
      | Error e -> Alcotest.failf "read: %s" e);
  match Bundle.decode "not a bundle at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted as a bundle"

(* {1 Replay determinism} *)

(* The state a guest can observe, bit for bit: registers, flags, rip, the
   whole mapped address space, the OS view (stdout, brk).  [retired] is
   deliberately excluded — it is a monotone host counter, not state. *)
let machine_digest (m : Libos.t) =
  let fnv_string h s =
    String.fold_left
      (fun h c -> (h lxor Char.code c) * 0x100000001b3 land max_int)
      h s
  in
  let mem =
    List.fold_left
      (fun h vpn ->
        fnv_string h
          (Bytes.to_string
             (As.read_bytes m.Libos.aspace ~addr:(vpn * Mem.Page.size)
                ~len:Mem.Page.size)))
      0xbf29ce484222325
      (List.sort compare (As.mapped_vpns m.Libos.aspace))
  in
  let cpu = m.Libos.cpu in
  ( Array.to_list cpu.Cpu.regs,
    cpu.Cpu.rip,
    (cpu.Cpu.flags.Cpu.zf, cpu.Cpu.flags.Cpu.sf, cpu.Cpu.flags.Cpu.lt_s,
     cpu.Cpu.flags.Cpu.lt_u),
    mem,
    Libos.stdout_text m,
    Libos.brk_value m )

let small_cfg = { Fuzz.Gen_prog.max_depth = 2; max_fanout = 2; max_stmts = 4 }

(* Record a generated guest's full exploration; optionally with injected
   allocation faults so crash segments and supervision retries land in the
   log too. *)
let record_gen_prog ?faults seed =
  let prog = Fuzz.Gen_prog.generate ~cfg:small_cfg seed in
  let source = Fuzz.Gen_prog.render prog in
  let image = Isa.Asm_parser.assemble_text source in
  let phys = Mem.Phys_mem.create () in
  (match faults with
  | Some ordinals ->
    let plan =
      { Inject.seed;
        faults = List.map (fun k -> Inject.Alloc_fail k) ordinals }
    in
    Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook (Inject.arm plan))
  | None -> ());
  let machine = Libos.boot phys image in
  let recorder = Recorder.create ~meta:(Printf.sprintf "seed %d" seed) () in
  Recorder.install recorder machine;
  let result =
    Core.Explorer.run ~probe:(Recorder.probe recorder) machine
  in
  Libos.set_sys_hook machine None;
  (machine, result, Bundle.of_image ~source image (Recorder.log recorder))

let seek_to_end cur =
  (match Replay.seek cur (Replay.total_time cur) with
  | Replay.Stopped -> ()
  | Replay.End | Replay.Break _ -> Alcotest.fail "seek to end interrupted");
  check Alcotest.bool "cursor at end" true (Replay.at_end cur)

let replay_matches_live ?faults seed () =
  let live, result, bundle = record_gen_prog ?faults seed in
  (* a faulted recording must really contain crash segments, or the test
     silently degrades to the clean case *)
  if faults <> None then
    check Alcotest.bool "log contains a crash segment" true
      (List.exists
         (function
           | Log.Eval { stop = Log.Crash _; _ } -> true
           | _ -> false)
         bundle.Bundle.log.Log.events);
  let live_digest = machine_digest live in
  (* serialisation must not perturb replay: go through encode/decode *)
  let bundle =
    match Bundle.decode (Bundle.encode bundle) with
    | Ok b -> b
    | Error e -> Alcotest.failf "bundle round-trip: %s" e
  in
  let replay_once () =
    let cur = Replay.create ~anchor_every:4 bundle in
    seek_to_end cur;
    (machine_digest (Replay.machine cur), Replay.total_time cur)
  in
  let d1, t1 = replay_once () in
  let d2, t2 = replay_once () in
  check Alcotest.bool "replay terminal state = live terminal state" true
    (d1 = live_digest);
  check Alcotest.bool "second replay bit-identical to the first" true
    (d1 = d2 && t1 = t2);
  check Alcotest.int "logged instructions = live instructions"
    result.Core.Explorer.stats.Core.Stats.instructions t1

(* {1 The time-travel cursor} *)

let guess_three_source =
  {|
main:
    mov   rdi, 0
    mov   rax, 8
    syscall
    cmp   rax, 0
    je    done
    mov   rdi, 3
    mov   rax, 6
    syscall
    add   rax, 'A'
    mov   rcx, buf
    stb   [rcx], rax
    stib  [rcx+1], 10
    mov   rdi, 1
    mov   rsi, buf
    mov   rdx, 2
    mov   rax, 1
    syscall
    mov   rax, 7
    syscall
done:
    mov   rdi, 0
    mov   rax, 0
    syscall
.align 4096
buf:
.zeros 8
|}

let record_source source =
  let image = Isa.Asm_parser.assemble_text source in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  let recorder = Recorder.create () in
  Recorder.install recorder machine;
  let (_ : Core.Explorer.result) =
    Core.Explorer.run ~probe:(Recorder.probe recorder) machine
  in
  Libos.set_sys_hook machine None;
  Bundle.of_image ~source image (Recorder.log recorder)

(* Walk forward single-stepping and remember rip at every time index; then
   revisit positions backwards (exercising the anchor-restore path with a
   tight anchor interval) and demand the very same observations. *)
let cursor_forward_backward_agree () =
  let bundle = record_source guess_three_source in
  let cur = Replay.create ~anchor_every:2 bundle in
  let total = Replay.total_time cur in
  check Alcotest.bool "non-trivial run" true (total > 20);
  let trail = Array.make (total + 1) (-1) in
  let digest_at = Hashtbl.create 8 in
  let record_here () =
    trail.(Replay.time cur) <- (Replay.machine cur).Libos.cpu.Cpu.rip;
    if Replay.time cur mod 7 = 0 then
      Hashtbl.replace digest_at (Replay.time cur)
        (machine_digest (Replay.machine cur))
  in
  record_here ();
  let steps = ref 0 in
  let rec walk () =
    match Replay.step cur with
    | Replay.Stopped ->
      incr steps;
      record_here ();
      walk ()
    | Replay.End -> ()
    | Replay.Break _ -> Alcotest.fail "spurious breakpoint"
  in
  walk ();
  check Alcotest.int "steps = total instructions" total !steps;
  check Alcotest.bool "at end after stepping" true (Replay.at_end cur);
  (* backward sweep: rstep all the way home *)
  for t = total - 1 downto 0 do
    (match Replay.rstep cur with
    | Replay.Stopped -> ()
    | _ -> Alcotest.failf "rstep stopped early at time %d" t);
    check Alcotest.int (Printf.sprintf "time after rstep to %d" t) t
      (Replay.time cur);
    check Alcotest.int
      (Printf.sprintf "rip at time %d matches the forward pass" t)
      trail.(t)
      (Replay.machine cur).Libos.cpu.Cpu.rip
  done;
  (match Replay.rstep cur with
  | Replay.End -> ()
  | _ -> Alcotest.fail "rstep at time 0 should report the boundary");
  (* random-access seeks: full state agreement at the sampled points *)
  Hashtbl.iter
    (fun t digest ->
      (match Replay.seek cur t with
      | Replay.Stopped -> ()
      | _ -> Alcotest.failf "seek %d interrupted" t);
      check Alcotest.bool
        (Printf.sprintf "state at time %d identical on revisit" t)
        true
        (machine_digest (Replay.machine cur) = digest))
    digest_at

let cursor_breakpoints () =
  let bundle = record_source guess_three_source in
  let cur = Replay.create ~anchor_every:2 bundle in
  check Alcotest.bool "several stop segments" true (Replay.segments cur >= 5);
  (* stop-index breakpoint: forward, then the same one in reverse *)
  let b_stop = Replay.add_bp cur (Replay.Bp_stop 2) in
  (match Replay.continue cur with
  | Replay.Break (id, Replay.Bp_stop 2) ->
    check Alcotest.int "stop bp id" b_stop id;
    check Alcotest.int "parked at stop 2" 2 (Replay.stop_index cur)
  | _ -> Alcotest.fail "continue missed the stop breakpoint");
  seek_to_end cur;
  (match Replay.rcontinue cur with
  | Replay.Break (_, Replay.Bp_stop 2) ->
    check Alcotest.int "reverse-continue parked at stop 2" 2
      (Replay.stop_index cur)
  | _ -> Alcotest.fail "rcontinue missed the stop breakpoint");
  check Alcotest.bool "bp removed" true (Replay.remove_bp cur b_stop);
  (* syscall breakpoint: sys_write fires once per explored path *)
  let b_sys = Replay.add_bp cur (Replay.Bp_sys 1) in
  (match Replay.seek cur 0 with
  | Replay.Stopped -> ()
  | _ -> Alcotest.fail "seek 0 interrupted");
  let hits = ref 0 in
  let rec count () =
    match Replay.continue cur with
    | Replay.Break (_, Replay.Bp_sys 1) ->
      incr hits;
      count ()
    | Replay.End -> ()
    | _ -> Alcotest.fail "unexpected halt"
  in
  count ();
  check Alcotest.int "one write per explored path" 3 !hits;
  check Alcotest.bool "bp removed" true (Replay.remove_bp cur b_sys);
  (* pc breakpoint at the instruction after sys_guess returns: reachable
     on every path, including in reverse *)
  let guess_rip =
    (* find it by stepping a fresh cursor to the first write and reading
       the recorded trail is overkill: the breakpoint test below only
       needs *a* pc that occurs mid-run, so take the pc after one step
       from stop 1 *)
    (match Replay.seek_stop cur 1 with
    | Replay.Stopped -> ()
    | _ -> Alcotest.fail "seek-stop 1 interrupted");
    ignore (Replay.step cur);
    (Replay.machine cur).Libos.cpu.Cpu.rip
  in
  let expect_time = Replay.time cur in
  let b_pc = Replay.add_bp cur (Replay.Bp_pc guess_rip) in
  (match Replay.seek cur 0 with
  | Replay.Stopped -> ()
  | _ -> Alcotest.fail "seek 0 interrupted");
  (match Replay.continue cur with
  | Replay.Break (_, Replay.Bp_pc _) ->
    check Alcotest.int "pc bp hit at the recorded time" expect_time
      (Replay.time cur)
  | _ -> Alcotest.fail "continue missed the pc breakpoint");
  ignore (Replay.remove_bp cur b_pc);
  (* no breakpoints: continue runs to the end, rcontinue to the start *)
  (match Replay.continue cur with
  | Replay.End -> check Alcotest.bool "at end" true (Replay.at_end cur)
  | _ -> Alcotest.fail "continue with no bps should reach the end");
  match Replay.rcontinue cur with
  | Replay.End -> check Alcotest.int "back at time 0" 0 (Replay.time cur)
  | _ -> Alcotest.fail "rcontinue with no bps should reach the start"

let cursor_seek_stop_and_clamp () =
  let bundle = record_source guess_three_source in
  let cur = Replay.create bundle in
  let last = Replay.segments cur - 1 in
  (match Replay.seek_stop cur last with
  | Replay.Stopped -> check Alcotest.int "at last stop" last (Replay.stop_index cur)
  | _ -> Alcotest.fail "seek-stop interrupted");
  (match Replay.seek cur max_int with
  | Replay.Stopped ->
    check Alcotest.int "seek clamps high" (Replay.total_time cur)
      (Replay.time cur)
  | _ -> Alcotest.fail "clamped seek interrupted");
  (match Replay.seek cur (-5) with
  | Replay.Stopped -> check Alcotest.int "seek clamps low" 0 (Replay.time cur)
  | _ -> Alcotest.fail "clamped seek interrupted");
  check Alcotest.bool "anchor_every must be positive" true
    (match Replay.create ~anchor_every:0 bundle with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The cursor's snapshots obey the release rule: rounds of seeks and
   reverse steps re-capture what they pass, and each replaced snapshot is
   freed.  After every motion the frames its machine's map and its
   snapshots reach are exactly the live frames, and once the first round
   has dropped every anchor, later rounds hold no more frames. *)
let cursor_frames_stay_bounded () =
  let image = Workloads.Nqueens.program ~n:6 in
  let machine = Libos.boot (Mem.Phys_mem.create ()) image in
  let recorder = Recorder.create () in
  Recorder.install recorder machine;
  let (_ : Core.Explorer.result) =
    Core.Explorer.run ~probe:(Recorder.probe recorder) machine
  in
  Libos.set_sys_hook machine None;
  let bundle = Bundle.of_image image (Recorder.log recorder) in
  List.iter
    (fun anchor_every ->
      let cur = Replay.create ~anchor_every bundle in
      let phys = As.phys (Replay.machine cur).Libos.aspace in
      let audit what =
        match Replay.audit cur with
        | Ok () -> ()
        | Error e -> Alcotest.failf "anchor_every %d, %s: %s" anchor_every what e
      in
      let motion what halt =
        (match halt with
        | Replay.Stopped | Replay.End -> ()
        | Replay.Break _ -> Alcotest.failf "%s: unexpected breakpoint" what);
        audit what
      in
      audit "create";
      let total = Replay.total_time cur in
      let round () =
        motion "seek end" (Replay.seek cur total);
        motion "seek 0" (Replay.seek cur 0);
        motion "seek middle" (Replay.seek cur (total / 2));
        for _ = 1 to 50 do
          motion "rstep" (Replay.rstep cur)
        done;
        Mem.Phys_mem.frames_live phys
      in
      let live = List.init 5 (fun _ -> round ()) in
      let second = List.nth live 1 in
      List.iteri
        (fun i n ->
          if i >= 1 then
            check Alcotest.int
              (Printf.sprintf "anchor_every %d: round %d frames = round 2's"
                 anchor_every (i + 1))
              second n)
        live)
    [ 1; 4; 8; 64 ]

(* Recording composes only with the plain in-memory scheduler. *)
let recording_rejects_reclaim () =
  let image = Isa.Asm_parser.assemble_text guess_three_source in
  let machine = Libos.boot (Mem.Phys_mem.create ~capacity:4096 ()) image in
  let recorder = Recorder.create () in
  match Core.Explorer.run ~probe:(Recorder.probe recorder) machine with
  | exception Invalid_argument _ -> ()
  | (_ : Core.Explorer.result) ->
    Alcotest.fail "recording over a reclaim store should be rejected"

let tests =
  [ log_roundtrip;
    log_truncation_safe;
    Alcotest.test_case "one missing byte is reported as truncation" `Quick
      log_truncation_last_byte;
    Alcotest.test_case "bad magic and version are rejected" `Quick
      log_bad_header;
    Alcotest.test_case "bundle round-trips in memory and on disk" `Quick
      bundle_roundtrip;
    Alcotest.test_case "replay reproduces the live run (seed 11)" `Quick
      (replay_matches_live 11);
    Alcotest.test_case "replay reproduces the live run (seed 23)" `Quick
      (replay_matches_live 23);
    Alcotest.test_case "replay reproduces a faulted run (alloc faults)"
      `Quick
      (replay_matches_live ~faults:[ 6 ] 11);
    Alcotest.test_case "forward and backward passes observe the same states"
      `Quick cursor_forward_backward_agree;
    Alcotest.test_case "breakpoints: stop, syscall, pc, forward and reverse"
      `Quick cursor_breakpoints;
    Alcotest.test_case "seek clamping and seek-stop" `Quick
      cursor_seek_stop_and_clamp;
    Alcotest.test_case "cursor frames stay bounded across seeks" `Quick
      cursor_frames_stay_bounded;
    Alcotest.test_case "recording rejects the reclaim scheduler" `Quick
      recording_rejects_reclaim ]
