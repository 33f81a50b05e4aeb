(* Checkpoint baselines: full, incremental, fork-style clone. *)

module As = Mem.Addr_space
module Phys = Mem.Phys_mem
module M = Obs.Metrics
module N = Obs.Names

let check = Alcotest.check

let setup pages =
  let phys = Phys.create () in
  let t = As.create phys in
  for vpn = 0 to pages - 1 do
    As.map_data t ~vpn (String.make 1 (Char.chr (vpn land 0xff)))
  done;
  phys, t

let full_restore_roundtrip () =
  let _, t = setup 8 in
  As.write_u64 t 0 111;
  let ck = Ckpt.full_capture t in
  check Alcotest.int "bytes accounted" (8 * 4096) (Ckpt.full_bytes ck);
  As.write_u64 t 0 222;
  As.map_zero t ~vpn:50;
  Ckpt.full_restore t ck;
  check Alcotest.int "value restored" 111 (As.read_u64 t 0);
  check Alcotest.bool "later mapping gone" false (As.is_mapped t ~vpn:50);
  check Alcotest.int "page population restored" 8 (As.mapped_pages t)

let full_is_isolated_from_source () =
  let _, t = setup 2 in
  let ck = Ckpt.full_capture t in
  As.write_u8 t 0 99;
  Ckpt.full_restore t ck;
  check Alcotest.int "checkpoint unaffected by later writes"
    0 (As.read_u8 t 1)

let incr_chain_restores_each_version () =
  let _, t = setup 4 in
  let chain = Ckpt.incr_start t in
  As.write_u64 t 0 1;
  Ckpt.incr_capture chain t;
  As.write_u64 t 0 2;
  As.write_u64 t 4096 22;
  Ckpt.incr_capture chain t;
  check Alcotest.int "three checkpoints" 3 (Ckpt.incr_count chain);
  Ckpt.incr_restore t chain ~index:0;
  check Alcotest.int "base" 0 (As.read_u64 t 0);
  Ckpt.incr_restore t chain ~index:1;
  check Alcotest.int "first delta" 1 (As.read_u64 t 0);
  Ckpt.incr_restore t chain ~index:2;
  check Alcotest.int "second delta" 2 (As.read_u64 t 0);
  check Alcotest.int "second page in delta" 22 (As.read_u64 t 4096)

let incr_copies_only_dirty () =
  let _, t = setup 64 in
  let chain = Ckpt.incr_start t in
  let base_bytes = Ckpt.incr_bytes chain in
  check Alcotest.int "base is full" (64 * 4096) base_bytes;
  As.write_u8 t 0 1;
  As.write_u8 t 4096 1;
  Ckpt.incr_capture chain t;
  check Alcotest.int "delta is two pages" ((64 + 2) * 4096) (Ckpt.incr_bytes chain)

let incr_bad_index () =
  let _, t = setup 1 in
  let chain = Ckpt.incr_start t in
  Alcotest.check_raises "bad index" (Invalid_argument "Ckpt.incr_restore: bad index")
    (fun () -> Ckpt.incr_restore t chain ~index:5)

let clone_is_deep () =
  let phys, t = setup 4 in
  As.write_u64 t 0 7;
  let dup = Ckpt.clone phys t in
  check Alcotest.int "clone sees value" 7 (As.read_u64 dup 0);
  As.write_u64 t 0 8;
  check Alcotest.int "clone unaffected" 7 (As.read_u64 dup 0);
  As.write_u64 dup 4096 9;
  (* setup wrote byte 1 at the start of vpn 1; the clone's write must not
     leak back *)
  check Alcotest.int "original unaffected" 1 (As.read_u64 t 4096)

let clone_costs_linear () =
  let phys, t = setup 32 in
  let m0 = M.copy (Phys.registry phys) in
  let _ = Ckpt.clone phys t in
  let diff = M.sub (Phys.registry phys) m0 in
  check Alcotest.int "one frame per mapped page" 32 (M.get diff N.mem_frames_allocated)

let tests =
  [ Alcotest.test_case "full restore roundtrip" `Quick full_restore_roundtrip;
    Alcotest.test_case "full isolated" `Quick full_is_isolated_from_source;
    Alcotest.test_case "incremental chain" `Quick incr_chain_restores_each_version;
    Alcotest.test_case "incremental copies only dirty" `Quick incr_copies_only_dirty;
    Alcotest.test_case "incremental bad index" `Quick incr_bad_index;
    Alcotest.test_case "clone is deep" `Quick clone_is_deep;
    Alcotest.test_case "clone costs linear" `Quick clone_costs_linear ]
