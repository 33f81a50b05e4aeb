(* The memory substrate: COW address spaces, snapshots, the radix (EPT)
   backend, and their equivalence. *)

module As = Mem.Addr_space
module Ept = Mem.Ept
module Page = Mem.Page
module Phys = Mem.Phys_mem

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fresh () = As.create (Phys.create ())

let page_geometry () =
  check Alcotest.int "size" 4096 Page.size;
  check Alcotest.int "vpn" 2 (Page.vpn_of_addr 8192);
  check Alcotest.int "offset" 17 (Page.offset_of_addr (8192 + 17));
  check Alcotest.int "round_up" 4096 (Page.round_up 1);
  check Alcotest.int "round_up aligned" 4096 (Page.round_up 4096);
  check Alcotest.int "round_down" 4096 (Page.round_down 5000);
  check Alcotest.bool "aligned" true (Page.is_aligned 8192)

let rw_roundtrip () =
  let t = fresh () in
  As.map_zero t ~vpn:1;
  As.write_u8 t 4096 0xAB;
  check Alcotest.int "u8" 0xAB (As.read_u8 t 4096);
  As.write_u64 t 4104 0x1234_5678_9ABC;
  check Alcotest.int "u64" 0x1234_5678_9ABC (As.read_u64 t 4104);
  As.write_u64 t 4104 (-42);
  check Alcotest.int "negative u64" (-42) (As.read_u64 t 4104)

let cross_page_access () =
  let t = fresh () in
  As.map_zero t ~vpn:1;
  As.map_zero t ~vpn:2;
  let addr = 8192 - 3 in
  As.write_u64 t addr 0x1122_3344_5566;
  check Alcotest.int "crossing u64" 0x1122_3344_5566 (As.read_u64 t addr);
  As.write_bytes t ~addr:(8192 - 2) "hello";
  check Alcotest.string "crossing bytes" "hello"
    (Bytes.to_string (As.read_bytes t ~addr:(8192 - 2) ~len:5))

let unmapped_faults () =
  let t = fresh () in
  (match As.read_u8 t 4096 with
  | _ -> Alcotest.fail "expected fault"
  | exception As.Page_fault { addr; access = As.Read } ->
    check Alcotest.int "fault addr" 4096 addr
  | exception As.Page_fault _ -> Alcotest.fail "wrong access kind");
  match As.write_u8 t 4096 1 with
  | () -> Alcotest.fail "expected write fault"
  | exception As.Page_fault { access = As.Write; _ } -> ()
  | exception As.Page_fault _ -> Alcotest.fail "wrong access kind"

let map_data_contents () =
  let t = fresh () in
  As.map_data t ~vpn:3 "content here";
  check Alcotest.string "data" "content here"
    (Bytes.to_string (As.read_bytes t ~addr:(3 * 4096) ~len:12));
  check Alcotest.int "zero filled tail" 0 (As.read_u8 t ((3 * 4096) + 100));
  As.unmap t ~vpn:3;
  check Alcotest.bool "unmapped" false (As.is_mapped t ~vpn:3)

let u64_boundary_paths_agree () =
  (* write_u64/read_u64 take a fast aligned path when the 8 bytes fit the
     page and a byte-assembled path when they straddle the boundary; the
     two must agree for every split. *)
  let t = fresh () in
  As.map_zero t ~vpn:1;
  As.map_zero t ~vpn:2;
  let v = 0x0123_4567_89AB_CDEF in
  for k = 0 to 8 do
    let addr = 8192 - k in
    As.write_u64 t addr v;
    check Alcotest.int (Printf.sprintf "read back, %d bytes before boundary" k)
      v (As.read_u64 t addr);
    let assembled = ref 0 in
    for i = 7 downto 0 do
      assembled := (!assembled lsl 8) lor As.read_u8 t (addr + i)
    done;
    check Alcotest.int (Printf.sprintf "bytes agree, %d before boundary" k)
      v !assembled
  done

let u64_crossing_into_unmapped_faults () =
  let t = fresh () in
  As.map_zero t ~vpn:1;
  (* vpn 2 unmapped: an access straddling into it must fault, not wrap *)
  (match As.read_u64 t (8192 - 4) with
  | _ -> Alcotest.fail "expected read fault"
  | exception As.Page_fault { access = As.Read; _ } -> ());
  match As.write_u64 t (8192 - 4) 0x1234_5678 with
  | () -> Alcotest.fail "expected write fault"
  | exception As.Page_fault { access = As.Write; _ } -> ()

let shared_page_unmap_is_local () =
  (* Two machines over one Phys_mem: A unmapping its shared page must not
     destroy the page for B.  Regression: unmap used to clear the global
     registry entry, killing the mapping for every sibling machine. *)
  let phys = Phys.create () in
  let a = As.create phys and b = As.create phys in
  As.map_shared a ~vpn:5;
  As.write_u64 a (5 * 4096) 42;
  check Alcotest.bool "B sees the shared page" true (As.is_shared b ~vpn:5);
  check Alcotest.int "B reads through" 42 (As.read_u64 b (5 * 4096));
  As.unmap a ~vpn:5;
  check Alcotest.bool "A lost it" false (As.is_mapped a ~vpn:5);
  check Alcotest.bool "B keeps it" true (As.is_mapped b ~vpn:5);
  check Alcotest.int "B still reads 42" 42 (As.read_u64 b (5 * 4096));
  As.write_u64 b (5 * 4096) 43;
  check Alcotest.int "B still writes through" 43 (As.read_u64 b (5 * 4096));
  (match As.read_u8 a (5 * 4096) with
  | _ -> Alcotest.fail "A must fault after its unmap"
  | exception As.Page_fault _ -> ());
  (* remapping brings A back to the same system-wide frame *)
  As.map_shared a ~vpn:5;
  check Alcotest.int "A rejoins the sharing" 43 (As.read_u64 a (5 * 4096))

let share_shoots_down_sibling_tlbs () =
  (* Regression (found by [sharing_matches_model]): B translates vpn 3
     privately, filling its TLB; A then shares the same vpn.  Without the
     share-epoch shootdown B's next access hit the cached private frame
     instead of the now-authoritative shared one. *)
  let phys = Phys.create () in
  let a = As.create phys and b = As.create phys in
  As.map_data b ~vpn:3 "\007";
  check Alcotest.int "B fills its TLB from the private frame" 7
    (As.read_u8 b (3 * 4096));
  As.map_shared a ~vpn:3;
  As.write_u8 a (3 * 4096) 9;
  check Alcotest.int "B's stale translation was shot down" 9
    (As.read_u8 b (3 * 4096));
  (* tearing the sharing down again must also invalidate B's (now shared)
     translation, exposing the private frame underneath *)
  Phys.clear_shared_page phys ~vpn:3;
  check Alcotest.int "B falls back to its private frame" 7
    (As.read_u8 b (3 * 4096))

let snapshot_immutable () =
  let t = fresh () in
  As.map_zero t ~vpn:0;
  As.write_u64 t 0 111;
  let snap = As.snapshot t in
  As.write_u64 t 0 222;
  As.write_u64 t 8 333;
  check Alcotest.int "current sees new" 222 (As.read_u64 t 0);
  As.restore t snap;
  check Alcotest.int "snapshot preserved" 111 (As.read_u64 t 0);
  check Alcotest.int "snapshot preserved 2" 0 (As.read_u64 t 8)

let snapshot_tree () =
  let t = fresh () in
  As.map_zero t ~vpn:0;
  As.write_u8 t 0 1;
  let root = As.snapshot t in
  As.write_u8 t 0 2;
  let left = As.snapshot t in
  As.restore t root;
  As.write_u8 t 0 3;
  let right = As.snapshot t in
  As.restore t left;
  check Alcotest.int "left" 2 (As.read_u8 t 0);
  As.restore t right;
  check Alcotest.int "right" 3 (As.read_u8 t 0);
  As.restore t root;
  check Alcotest.int "root" 1 (As.read_u8 t 0)

let snapshot_zero_cost () =
  let phys = Phys.create () in
  let t = As.create phys in
  for vpn = 0 to 63 do
    As.map_zero t ~vpn
  done;
  As.write_u64 t 0 7;
  let before = (Phys.metrics phys).Mem.Mem_metrics.pages_copied in
  let _snapshots = List.init 100 (fun _ -> As.snapshot t) in
  let after = (Phys.metrics phys).Mem.Mem_metrics.pages_copied in
  check Alcotest.int "capture copies nothing" before after

let cow_accounting () =
  let phys = Phys.create () in
  let t = As.create phys in
  As.map_data t ~vpn:0 "a";
  As.map_data t ~vpn:1 "b";
  let _snap = As.snapshot t in
  let m0 = Mem.Mem_metrics.copy (Phys.metrics phys) in
  As.write_u8 t 0 1;
  As.write_u8 t 1 2;      (* same page: no second fault *)
  As.write_u8 t 4096 3;   (* second page *)
  let diff = Mem.Mem_metrics.diff (Phys.metrics phys) m0 in
  check Alcotest.int "two COW faults" 2 diff.Mem.Mem_metrics.cow_faults;
  check Alcotest.int "two pages copied" 2 diff.Mem.Mem_metrics.pages_copied

let zero_page_sharing () =
  let phys = Phys.create () in
  let t = As.create phys in
  for vpn = 0 to 999 do
    As.map_zero t ~vpn
  done;
  check Alcotest.int "no frames for zero pages" 0 (Phys.frames_allocated phys);
  As.write_u8 t 0 1;
  check Alcotest.int "one frame after write" 1 (Phys.frames_allocated phys);
  let m = Phys.metrics phys in
  check Alcotest.int "counted as zero fill" 1 m.Mem.Mem_metrics.zero_fills

let distinct_frames_sharing () =
  let t = fresh () in
  for vpn = 0 to 9 do
    As.map_data t ~vpn "x"
  done;
  let a = As.snapshot t in
  As.write_u8 t 0 1;
  let b = As.snapshot t in
  check Alcotest.int "a alone" 10 (As.distinct_frames [ a ]);
  check Alcotest.int "shared pages counted once" 11 (As.distinct_frames [ a; b ]);
  check Alcotest.int "delta" 1 (As.delta_pages a b)

let restore_then_diverge () =
  let t = fresh () in
  As.map_zero t ~vpn:0;
  let snap = As.snapshot t in
  As.restore t snap;
  As.write_u8 t 0 9;
  As.restore t snap;
  check Alcotest.int "snapshot still intact" 0 (As.read_u8 t 0)

let shared_pages_survive_restores () =
  let t = fresh () in
  As.map_zero t ~vpn:0;
  As.map_shared t ~vpn:5;
  let shared_addr = 5 * 4096 in
  As.write_u64 t shared_addr 1;
  let snap = As.snapshot t in
  As.write_u64 t shared_addr 2;
  As.write_u64 t 0 99;
  As.restore t snap;
  check Alcotest.int "private rolled back" 0 (As.read_u64 t 0);
  check Alcotest.int "shared survives" 2 (As.read_u64 t shared_addr);
  check Alcotest.bool "reported shared" true (As.is_shared t ~vpn:5);
  check Alcotest.bool "not shared" false (As.is_shared t ~vpn:0)

let shared_pages_never_cow () =
  let phys = Phys.create () in
  let t = As.create phys in
  As.map_shared t ~vpn:0;
  let m0 = Mem.Mem_metrics.copy (Phys.metrics phys) in
  for round = 1 to 10 do
    let _ = As.snapshot t in
    As.write_u64 t 0 round
  done;
  let diff = Mem.Mem_metrics.diff (Phys.metrics phys) m0 in
  check Alcotest.int "no COW on shared writes" 0 diff.Mem.Mem_metrics.cow_faults;
  check Alcotest.int "accumulated" 10 (As.read_u64 t 0)

let shared_preserves_content () =
  let t = fresh () in
  As.map_data t ~vpn:3 "precious";
  As.map_shared t ~vpn:3;
  check Alcotest.string "content carried over" "precious"
    (Bytes.to_string (As.read_bytes t ~addr:(3 * 4096) ~len:8));
  As.unmap t ~vpn:3;
  check Alcotest.bool "unmap clears sharing" false (As.is_shared t ~vpn:3)

(* {1 EPT backend} *)

let ept_fresh () = Ept.create (Phys.create ())

let ept_basic () =
  let t = ept_fresh () in
  Ept.map_zero t ~vpn:5;
  Ept.write_u64 t (5 * 4096) 77;
  check Alcotest.int "u64" 77 (Ept.read_u64 t (5 * 4096));
  check Alcotest.int "mapped" 1 (Ept.mapped_pages t);
  Ept.unmap t ~vpn:5;
  check Alcotest.bool "unmapped" false (Ept.is_mapped t ~vpn:5)

let ept_snapshot_pt_cow () =
  let phys = Phys.create () in
  let t = Ept.create phys in
  Ept.map_data t ~vpn:0 "x";
  let snap = Ept.snapshot t in
  let m0 = Mem.Mem_metrics.copy (Phys.metrics phys) in
  Ept.write_u8 t 0 9;
  let diff = Mem.Mem_metrics.diff (Phys.metrics phys) m0 in
  (* first post-snapshot write path-copies the table: root + 3 levels *)
  check Alcotest.int "page-table nodes copied" Ept.levels diff.Mem.Mem_metrics.pt_node_copies;
  check Alcotest.int "one data COW" 1 diff.Mem.Mem_metrics.cow_faults;
  Ept.restore t snap;
  check Alcotest.int "snapshot intact" (Char.code 'x') (Ept.read_u8 t 0)

let ept_deep_vpn () =
  let t = ept_fresh () in
  (* exercise all four radix levels: a vpn needing high-level indices *)
  let vpn = (3 lsl 27) lor (5 lsl 18) lor (7 lsl 9) lor 11 in
  Ept.map_zero t ~vpn;
  Ept.write_u8 t (Page.addr_of_vpn vpn) 123;
  check Alcotest.int "deep page" 123 (Ept.read_u8 t (Page.addr_of_vpn vpn));
  check Alcotest.bool "not a neighbour" false (Ept.is_mapped t ~vpn:(vpn + 1))

(* random operation script applied to both backends must agree *)
type op =
  | Map of int
  | MapData of int * int
  | Unmap of int
  | Write of int * int
  | WriteBytes of int * int  (* page-crossing multi-byte write *)
  | Seal
  | Snapshot
  | Restore of int
  | Read of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [ map (fun v -> Map (v land 15)) small_int;
        map2 (fun v x -> MapData (v land 15, x land 0xff)) small_int small_int;
        map (fun v -> Unmap (v land 15)) small_int;
        map2 (fun v x -> Write (v land 15, x land 0xff)) small_int small_int;
        map2 (fun v x -> WriteBytes (v land 15, x land 0xff)) small_int small_int;
        return Seal;
        return Snapshot;
        map (fun k -> Restore k) small_int;
        map (fun v -> Read (v land 15)) small_int ])

let backends_agree =
  qtest ~count:100 "Addr_space and Ept agree on random scripts"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 60) op_gen)
    (fun script ->
      let a = fresh () in
      let e = ept_fresh () in
      let a_snaps = ref [] and e_snaps = ref [] in
      let agree = ref true in
      List.iter
        (fun op ->
          match op with
          | Map vpn ->
            As.map_zero a ~vpn;
            Ept.map_zero e ~vpn
          | MapData (vpn, v) ->
            let data = String.make 5 (Char.chr v) in
            As.map_data a ~vpn data;
            Ept.map_data e ~vpn data
          | Unmap vpn ->
            As.unmap a ~vpn;
            Ept.unmap e ~vpn
          | Write (vpn, v) ->
            let addr = Page.addr_of_vpn vpn + (v mod 64) in
            let ra = try As.write_u8 a addr v; `Ok with As.Page_fault _ -> `Fault in
            let re = try Ept.write_u8 e addr v; `Ok with As.Page_fault _ -> `Fault in
            if ra <> re then agree := false
          | WriteBytes (vpn, v) ->
            (* straddles the page boundary; faults (possibly mid-write,
               leaving a partial prefix) must match byte for byte *)
            let addr = Page.addr_of_vpn vpn + Page.size - 5 in
            let data = String.init 11 (fun i -> Char.chr ((v + i) land 0xff)) in
            let ra =
              try As.write_bytes a ~addr data; `Ok with As.Page_fault _ -> `Fault
            in
            let re =
              try Ept.write_bytes e ~addr data; `Ok with As.Page_fault _ -> `Fault
            in
            if ra <> re then agree := false
          | Seal ->
            (* Addr_space-only generation retirement: observationally inert,
               so equivalence with Ept must survive it *)
            As.seal a
          | Snapshot ->
            a_snaps := As.snapshot a :: !a_snaps;
            e_snaps := Ept.snapshot e :: !e_snaps
          | Restore k -> (
            match !a_snaps, !e_snaps with
            | [], [] -> ()
            | sa, se ->
              let k = k mod List.length sa in
              As.restore a (List.nth sa k);
              Ept.restore e (List.nth se k))
          | Read vpn ->
            (* mid-script, so a stale TLB entry left by a capture or
               restore is read through before anything refills it *)
            let addr = Page.addr_of_vpn vpn in
            let ra = try `V (As.read_u8 a addr) with As.Page_fault _ -> `F in
            let re = try `V (Ept.read_u8 e addr) with As.Page_fault _ -> `F in
            if ra <> re then agree := false)
        script;
      (* compare first and last bytes of every reachable page (crossing
         writes from vpn 15 can touch vpn 16) *)
      !agree
      && List.for_all
           (fun vpn ->
             List.for_all
               (fun addr ->
                 let ra = try `V (As.read_u8 a addr) with As.Page_fault _ -> `F in
                 let re = try `V (Ept.read_u8 e addr) with As.Page_fault _ -> `F in
                 ra = re)
               [ Page.addr_of_vpn vpn; Page.addr_of_vpn vpn + Page.size - 1 ])
           (List.init 17 Fun.id))

(* Two address spaces on one Phys_mem, exercising explicit sharing,
   unmap-of-shared locality (the PR 1 fix) and snapshot/restore
   interleavings, against a first-byte reference model implementing the
   documented semantics: shared pages resolve before private ones, an
   unmap hides a shared page for that space only, and neither the
   sharing registry nor the hidden set rolls back on restore. *)
module Imap = Map.Make (Int)

type shop =
  | S_map_zero of int * int
  | S_map_data of int * int * int
  | S_map_shared of int * int
  | S_unmap of int * int
  | S_write of int * int * int
  | S_snapshot of int
  | S_restore of int * int

let shop_gen =
  QCheck2.Gen.(
    let sp = int_range 0 1 and vp = int_range 0 7 in
    oneof
      [ map2 (fun s v -> S_map_zero (s, v)) sp vp;
        map3 (fun s v b -> S_map_data (s, v, b land 0xff)) sp vp small_int;
        map2 (fun s v -> S_map_shared (s, v)) sp vp;
        map2 (fun s v -> S_unmap (s, v)) sp vp;
        map3 (fun s v b -> S_write (s, v, b land 0xff)) sp vp small_int;
        map (fun s -> S_snapshot s) sp;
        map2 (fun s k -> S_restore (s, k land 7)) sp small_int ])

let sharing_matches_model =
  qtest ~count:150 "two machines + sharing agree with a reference model"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 80) shop_gen)
    (fun script ->
      let phys = Phys.create () in
      let spaces = [| As.create phys; As.create phys |] in
      let snaps = [| ref []; ref [] |] in
      (* the model: per-space private first-byte maps and hidden sets, one
         global shared-content table *)
      let m_shared : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
      let m_priv = [| ref Imap.empty; ref Imap.empty |] in
      let m_hidden = [| Hashtbl.create 8; Hashtbl.create 8 |] in
      let m_snaps = [| ref []; ref [] |] in
      let visible s vpn =
        Hashtbl.mem m_shared vpn && not (Hashtbl.mem m_hidden.(s) vpn)
      in
      let agree = ref true in
      List.iter
        (fun op ->
          match op with
          | S_map_zero (s, vpn) ->
            As.map_zero spaces.(s) ~vpn;
            m_priv.(s) := Imap.add vpn 0 !(m_priv.(s))
          | S_map_data (s, vpn, b) ->
            As.map_data spaces.(s) ~vpn (String.make 3 (Char.chr b));
            m_priv.(s) := Imap.add vpn b !(m_priv.(s))
          | S_map_shared (s, vpn) ->
            As.map_shared spaces.(s) ~vpn;
            Hashtbl.remove m_hidden.(s) vpn;
            if not (Hashtbl.mem m_shared vpn) then begin
              let init =
                match Imap.find_opt vpn !(m_priv.(s)) with
                | Some v -> v
                | None -> 0
              in
              Hashtbl.add m_shared vpn (ref init)
            end;
            m_priv.(s) := Imap.remove vpn !(m_priv.(s))
          | S_unmap (s, vpn) ->
            As.unmap spaces.(s) ~vpn;
            m_priv.(s) := Imap.remove vpn !(m_priv.(s));
            if Hashtbl.mem m_shared vpn then
              Hashtbl.replace m_hidden.(s) vpn ()
          | S_write (s, vpn, v) ->
            let ra =
              try
                As.write_u8 spaces.(s) (Page.addr_of_vpn vpn) v;
                `Ok
              with As.Page_fault _ -> `Fault
            in
            let rm =
              if visible s vpn then begin
                Hashtbl.find m_shared vpn := v;
                `Ok
              end
              else if Imap.mem vpn !(m_priv.(s)) then begin
                m_priv.(s) := Imap.add vpn v !(m_priv.(s));
                `Ok
              end
              else `Fault
            in
            if ra <> rm then agree := false
          | S_snapshot s ->
            snaps.(s) := As.snapshot spaces.(s) :: !(snaps.(s));
            m_snaps.(s) := !(m_priv.(s)) :: !(m_snaps.(s))
          | S_restore (s, k) -> (
            match !(snaps.(s)) with
            | [] -> ()
            | real ->
              let k = k mod List.length real in
              As.restore spaces.(s) (List.nth real k);
              m_priv.(s) := List.nth !(m_snaps.(s)) k))
        script;
      !agree
      && List.for_all
           (fun s ->
             List.for_all
               (fun vpn ->
                 let real_read =
                   try `V (As.read_u8 spaces.(s) (Page.addr_of_vpn vpn))
                   with As.Page_fault _ -> `F
                 in
                 let model_read =
                   if visible s vpn then `V !(Hashtbl.find m_shared vpn)
                   else
                     match Imap.find_opt vpn !(m_priv.(s)) with
                     | Some v -> `V v
                     | None -> `F
                 in
                 real_read = model_read
                 && As.is_mapped spaces.(s) ~vpn
                    = (visible s vpn || Imap.mem vpn !(m_priv.(s)))
                 && As.is_shared spaces.(s) ~vpn = visible s vpn)
               (List.init 8 Fun.id))
           [ 0; 1 ])

let write_read_model =
  qtest ~count:100 "reads return last write (byte model)"
    QCheck2.Gen.(list_size (int_range 1 100) (pair (int_range 0 8191) (int_range 0 255)))
    (fun writes ->
      let t = fresh () in
      As.map_zero t ~vpn:0;
      As.map_zero t ~vpn:1;
      let model = Hashtbl.create 64 in
      List.iter
        (fun (addr, v) ->
          Hashtbl.replace model addr v;
          As.write_u8 t addr v)
        writes;
      Hashtbl.fold (fun addr v acc -> acc && As.read_u8 t addr = v) model true)

(* --- Frame budget, memory pressure, allocation faults ---------------- *)

let capacity_enforced () =
  let phys = Phys.create ~capacity:8 () in
  let held = ref [] in
  for _ = 1 to 8 do held := Phys.alloc phys ~owner:1 :: !held done;
  check Alcotest.int "live at capacity" 8 (Phys.frames_live phys);
  (match Phys.alloc phys ~owner:1 with
  | _ -> Alcotest.fail "alloc beyond capacity must fail"
  | exception Phys.Out_of_frames { capacity; live } ->
      check Alcotest.int "reported capacity" 8 capacity;
      check Alcotest.int "reported live" 8 live);
  check Alcotest.bool "pressure protocol ran" true (Phys.pressure_events phys >= 1);
  check Alcotest.int "peak never overshoots" 8 (Phys.peak_frames_live phys);
  ignore (Sys.opaque_identity !held)

let pressure_handler_reclaims () =
  let phys = Phys.create ~capacity:8 () in
  let held = ref [] in
  for _ = 1 to 8 do held := Phys.alloc phys ~owner:1 :: !held done;
  (* The handler frees every held frame; the allocator re-checks the live
     count and lets the allocation through — no collection involved. *)
  Phys.set_pressure_handler phys
    (Some (fun () -> List.iter (Phys.free_frame phys) !held; held := []));
  let f = Phys.alloc phys ~owner:1 in
  check Alcotest.bool "alloc succeeds after reclaim" true (f.Phys.id > 0);
  check Alcotest.int "live is exactly the new frame" 1 (Phys.frames_live phys);
  check Alcotest.int "peak is the pre-reclaim high-water mark" 8
    (Phys.peak_frames_live phys)

let injected_alloc_fault_single_shot () =
  let phys = Phys.create () in
  let inj = Inject.arm { Inject.seed = 0; faults = [ Inject.Alloc_fail 3 ] } in
  Phys.set_alloc_fault phys (Inject.alloc_hook inj);
  let f1 = Phys.alloc phys ~owner:1 in
  let f2 = Phys.alloc phys ~owner:1 in
  check Alcotest.bool "ordinals below the trigger pass" true
    (f1.Phys.id = 1 && f2.Phys.id = 2);
  (match Phys.alloc phys ~owner:1 with
  | _ -> Alcotest.fail "third allocation must hit the injected fault"
  | exception Phys.Out_of_frames _ -> ());
  (* The hook is single-shot: retrying the same ordinal succeeds, which is
     exactly the recovery contract the supervised schedulers rely on. *)
  let f3 = Phys.alloc phys ~owner:1 in
  check Alcotest.int "retry re-presents the same ordinal" 3 f3.Phys.id;
  let f4 = Phys.alloc phys ~owner:1 in
  check Alcotest.int "subsequent allocations unaffected" 4 f4.Phys.id

(* --- Frame recycling: free list, poison, explicit lifecycle ----------- *)

let crossing_u64_is_chunked () =
  (* Regression: a page-crossing write_u64/read_u64 used to fall back to a
     per-byte loop with a full translation each byte; it must now cost at
     most one walk per page touched (2 for a crossing access). *)
  let check_one access label =
    let phys = Phys.create () in
    let t = As.create phys in
    As.map_data t ~vpn:1 "x";
    As.map_data t ~vpn:2 "y";
    let addr = (2 * Page.size) - 3 in
    let m0 = Mem.Mem_metrics.copy (Phys.metrics phys) in
    access t addr;
    let d = Mem.Mem_metrics.diff (Phys.metrics phys) m0 in
    check Alcotest.bool (label ^ ": at most 2 walks") true
      (d.Mem.Mem_metrics.pt_walks <= 2);
    check Alcotest.bool (label ^ ": at most 2 tlb misses") true
      (d.Mem.Mem_metrics.tlb_misses <= 2)
  in
  check_one (fun t addr -> As.write_u64 t addr 0x1122_3344_5566_7788) "write";
  check_one (fun t addr -> ignore (As.read_u64 t addr)) "read"

(* The two backends' TLB-facing surface, so one test body checks both. *)
type ('t, 's) mmu = {
  label : string;
  create : unit -> 't;
  map_zero : 't -> vpn:int -> unit;
  read : 't -> int -> int;
  write : 't -> int -> int -> unit;
  snapshot : 't -> 's;
  restore : 't -> 's -> unit;
  metrics : 't -> Mem.Mem_metrics.t;
}

let trie_mmu =
  { label = "trie"; create = fresh; map_zero = (fun t ~vpn -> As.map_zero t ~vpn);
    read = As.read_u8; write = As.write_u8; snapshot = As.snapshot;
    restore = As.restore; metrics = As.metrics }

let radix_mmu =
  { label = "radix"; create = ept_fresh;
    map_zero = (fun t ~vpn -> Ept.map_zero t ~vpn); read = Ept.read_u8;
    write = Ept.write_u8; snapshot = Ept.snapshot; restore = Ept.restore;
    metrics = Ept.metrics }

(* Map [n] zero pages and touch them all; returns the space and a
   re-touch that counts the page-table walks it took. *)
let touched_space m n =
  let t = m.create () in
  let pages = List.init n Fun.id in
  List.iter (fun vpn -> m.map_zero t ~vpn) pages;
  let touch () =
    let w0 = (m.metrics t).pt_walks in
    List.iter (fun vpn -> ignore (m.read t (Page.addr_of_vpn vpn))) pages;
    (m.metrics t).pt_walks - w0
  in
  ignore (touch ());
  t, touch

(* The TLB survives capture and restore: re-touching the working set costs
   no walk after a capture, none after restoring the snapshot a read-only
   segment left, and at most one per page that differs after restoring a
   snapshot the segment diverged from. *)
let walks_after_switch m =
  let t, touch = touched_space m 8 in
  let s = m.snapshot t in
  check Alcotest.int (m.label ^ ": capture keeps the TLB") 0 (touch ());
  m.restore t s;
  check Alcotest.int (m.label ^ ": restoring an unchanged map keeps it") 0
    (touch ());
  let k = 3 in
  List.iter (fun vpn -> m.write t (Page.addr_of_vpn vpn) 7) (List.init k Fun.id);
  ignore (touch ());
  m.restore t s;
  let w = touch () in
  check Alcotest.bool
    (Printf.sprintf "%s: %d walks after a %d-page switch" m.label w k)
    true (w <= k);
  check Alcotest.int (m.label ^ ": the restored bytes are the snapshot's") 0
    (m.read t 0)

(* A switch across more differing pages than the TLB holds (256) gives up
   on targeted invalidation and flushes: every page then reads the
   snapshot's byte, including those past the point where it gave up. *)
let switch_past_tlb_size m =
  let n = 300 in
  let t, touch = touched_space m n in
  let s = m.snapshot t in
  List.iter (fun vpn -> m.write t (Page.addr_of_vpn vpn) 7) (List.init n Fun.id);
  ignore (touch ());
  let flushes = (m.metrics t).tlb_flushes in
  m.restore t s;
  check Alcotest.int (m.label ^ ": one flush") (flushes + 1)
    (m.metrics t).tlb_flushes;
  List.iter
    (fun vpn ->
      check Alcotest.int
        (Printf.sprintf "%s: vpn %d reads the snapshot" m.label vpn)
        0 (m.read t (Page.addr_of_vpn vpn)))
    (List.init n Fun.id)

let tlb_survives_switches () =
  walks_after_switch trie_mmu;
  walks_after_switch radix_mmu;
  switch_past_tlb_size trie_mmu;
  switch_past_tlb_size radix_mmu

let free_list_recycles_buffers () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~owner:1 in
  Bytes.set f.Phys.bytes 0 'z';
  Phys.free_frame phys f;
  check Alcotest.int "buffer pooled" 1 (Phys.free_buffers phys);
  check Alcotest.bool "marked freed" true f.Phys.freed;
  (match Phys.free_frame phys f with
  | () -> Alcotest.fail "double free must raise"
  | exception Invalid_argument _ -> ());
  (match Phys.free_frame phys (Phys.zero_frame phys) with
  | () -> Alcotest.fail "freeing the zero frame must raise"
  | exception Invalid_argument _ -> ());
  let g = Phys.alloc phys ~owner:2 in
  check Alcotest.int "pool drained" 0 (Phys.free_buffers phys);
  check Alcotest.bool "same buffer reused" true (g.Phys.bytes == f.Phys.bytes);
  check Alcotest.bool "fresh id (decode caches key on ids)" true
    (g.Phys.id <> f.Phys.id);
  check Alcotest.int "demand-zero alloc re-zeroes the dirty buffer" 0
    (Char.code (Bytes.get g.Phys.bytes 0));
  let m = Phys.metrics phys in
  check Alcotest.int "free counted" 1 m.Mem.Mem_metrics.frames_freed;
  check Alcotest.int "recycle counted" 1 m.Mem.Mem_metrics.frames_recycled

let poison_marks_freed_buffers () =
  let phys = Phys.create ~poison:true () in
  let f = Phys.alloc phys ~owner:1 in
  Bytes.set f.Phys.bytes 17 'q';
  Phys.free_frame phys f;
  check Alcotest.int "poison byte visible through stale aliases" 0xa5
    (Char.code (Bytes.get f.Phys.bytes 17))

let recycled_data_frame_clears_tail () =
  (* alloc_data elides the zero fill but must still clear the tail beyond
     the payload when handed a dirty recycled buffer. *)
  let phys = Phys.create () in
  let f = Phys.alloc phys ~owner:1 in
  Bytes.fill f.Phys.bytes 0 Page.size '\xff';
  Phys.free_frame phys f;
  let g = Phys.alloc_data phys ~owner:2 "hi" in
  check Alcotest.bool "recycled" true (g.Phys.bytes == f.Phys.bytes);
  check Alcotest.string "payload installed" "hi"
    (Bytes.sub_string g.Phys.bytes 0 2);
  check Alcotest.int "tail head cleared" 0 (Char.code (Bytes.get g.Phys.bytes 2));
  check Alcotest.int "tail end cleared" 0
    (Char.code (Bytes.get g.Phys.bytes (Page.size - 1)));
  check Alcotest.bool "elision counted" true
    ((Phys.metrics phys).Mem.Mem_metrics.zero_fills_elided >= 1)

let release_snapshot_frees_delta () =
  let phys = Phys.create () in
  let t = As.create phys in
  As.map_data t ~vpn:0 "a";
  As.map_data t ~vpn:1 "b";
  let parent = As.snapshot t in
  As.write_u8 t 0 1;
  As.write_u8 t Page.size 2;
  let child = As.snapshot t in
  As.restore t parent;
  let freed = As.release_snapshot ~phys ~parent child in
  check Alcotest.int "delta-vs-parent freed" 2 freed;
  check Alcotest.int "buffers pooled" 2 (Phys.free_buffers phys);
  check Alcotest.int "parent branch intact" (Char.code 'a') (As.read_u8 t 0);
  check Alcotest.int "parent branch intact 2" (Char.code 'b')
    (As.read_u8 t Page.size)

let discard_segment_frees_cow_tail () =
  let phys = Phys.create () in
  let t = As.create phys in
  As.map_data t ~vpn:0 "a";
  let s = As.snapshot t in
  let epoch = As.epoch t in
  As.write_u8 t 0 9;
  check Alcotest.int "no snapshot grabbed the segment" epoch (As.epoch t);
  let n = As.discard_segment t ~base:s in
  check Alcotest.int "one COW frame discarded" 1 n;
  As.restore t s;
  check Alcotest.int "base intact after the mandated restore" (Char.code 'a')
    (As.read_u8 t 0);
  check Alcotest.int "buffer pooled" 1 (Phys.free_buffers phys)

(* A segment that maps one page and unmaps another changes the trie's
   shape, so the delta walk must pair keys across diverging regions.  The
   discard counts the now-side private frames the list-based delta
   ([sym_diff]) names: the COW'd page and the newly mapped one — never the
   zero frame, and never the unmapped page the base still holds. *)
let divergent_delta_counts () =
  let setup () =
    let phys = Phys.create () in
    let t = As.create phys in
    List.iter (fun vpn -> As.map_data t ~vpn "x") [ 0; 1; 2 ];
    let base = As.snapshot t in
    As.write_u8 t 0 7;
    As.map_data t ~vpn:9 "new";
    As.map_zero t ~vpn:12;
    As.unmap t ~vpn:1;
    phys, t, base
  in
  let private_now_side phys a b =
    List.length
      (List.filter
         (function
           | _, _, Some (f : Phys.frame) -> f != Phys.zero_frame phys && f.owner >= 0
           | _, _, None -> false)
         (Stdx.Ptmap.sym_diff ( == ) (As.snapshot_map_for_debug a)
            (As.snapshot_map_for_debug b)))
  in
  (* what the list walk names, read off a capture of the segment *)
  let phys, t, base = setup () in
  let tail = As.snapshot t in
  check Alcotest.int "four pages differ" 4 (As.delta_pages base tail);
  let expected = private_now_side phys base tail in
  check Alcotest.int "list walk: two private frames" 2 expected;
  (* discard the same segment's tail, uncaptured *)
  let _, t, base = setup () in
  check Alcotest.int "discard_segment frees them" expected
    (As.discard_segment t ~base);
  As.restore t base;
  check Alcotest.int "unmapped page intact" (Char.code 'x') (As.read_u8 t Page.size)

(* Random map/write/snapshot/restore/release interleavings on a poisoned
   allocator, against a first-byte model.  A release is only issued when
   the snapshot is provably dead (no live children, current map elsewhere,
   has a parent) — exactly the discipline [Core.Snapshot]'s refcounts
   enforce — and then no byte readable through any live snapshot or the
   current map may come from a freed (poisoned, recyclable) buffer.  Reads
   happen mid-script too, so a TLB entry that outlived its translation (the
   TLB survives captures and restores) is caught where it is used:
   [R_discard] replays the explorer's free-before-restore order. *)
type rop =
  | R_map of int
  | R_map_data of int * int
  | R_write of int * int
  | R_read of int
  | R_capture
  | R_restore of int
  | R_release of int
  | R_discard of int
      (* discard the segment, release a dead snapshot (the base itself
         included), restore a live one *)

let rop_gen =
  QCheck2.Gen.(
    let vp = int_range 0 7 in
    (* values stay below 0x80 so the 0xa5 poison can never be legit data *)
    let bv = map (fun b -> b land 0x7f) small_int in
    oneof
      [ map (fun v -> R_map v) vp;
        map2 (fun v b -> R_map_data (v, b)) vp bv;
        map2 (fun v b -> R_write (v, b)) vp bv;
        map (fun v -> R_read v) vp;
        return R_capture;
        map (fun k -> R_restore k) small_int;
        map (fun k -> R_release k) small_int;
        map (fun k -> R_discard k) small_int ])

type rnode = {
  n_snap : As.snapshot;
  n_model : int option array;       (* first byte per vpn; None = unmapped *)
  n_parent : int option;            (* index into nodes; None = root *)
  mutable n_children : int;
  mutable n_released : bool;
}

let released_frames_never_alias_live_state =
  qtest ~count:300 "released delta frames never alias live-readable bytes"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 60) rop_gen)
    (fun script ->
      let phys = Phys.create ~poison:true () in
      let t = As.create phys in
      let model = Array.make 8 None in
      As.map_data t ~vpn:0 "s";
      model.(0) <- Some (Char.code 's');
      let nodes = ref [] in          (* newest first *)
      let nnodes = ref 0 in
      let node i = List.nth !nodes (!nnodes - 1 - i) in
      let add_node parent =
        (match parent with
        | Some p -> (node p).n_children <- (node p).n_children + 1
        | None -> ());
        nodes :=
          { n_snap = As.snapshot t; n_model = Array.copy model;
            n_parent = parent; n_children = 0; n_released = false }
          :: !nodes;
        incr nnodes;
        !nnodes - 1
      in
      let current = ref (add_node None) in    (* root: never released *)
      let reads_match model vpn =
        match model.(vpn) with
        | Some b -> (
          try As.read_u8 t (Page.addr_of_vpn vpn) = b
          with As.Page_fault _ -> false)
        | None -> (
          try
            ignore (As.read_u8 t (Page.addr_of_vpn vpn));
            false
          with As.Page_fault _ -> true)
      in
      let coherent = ref true in
      let restore k =
        let live = List.filter (fun n -> not n.n_released) !nodes in
        if live <> [] then begin
          let n = List.nth live (k mod List.length live) in
          As.restore t n.n_snap;
          Array.blit n.n_model 0 model 0 8;
          (* find its index back *)
          let idx = ref (-1) in
          List.iteri (fun j m -> if m == n then idx := !nnodes - 1 - j) !nodes;
          current := !idx
        end
      in
      (* Release one provably dead snapshot; [~base] admits the current
         node, whose map the caller is about to restore away. *)
      let release ~base k =
        let dead_candidates = ref [] in
        List.iteri
          (fun j n ->
            let i = !nnodes - 1 - j in
            if
              (not n.n_released) && n.n_children = 0
              && (base || i <> !current)
              && n.n_parent <> None
            then dead_candidates := i :: !dead_candidates)
          !nodes;
        match !dead_candidates with
        | [] -> ()
        | cs ->
          let i = List.nth cs (k mod List.length cs) in
          let n = node i in
          let p = node (Option.get n.n_parent) in
          ignore (As.release_snapshot ~phys ~parent:p.n_snap n.n_snap);
          n.n_released <- true;
          p.n_children <- p.n_children - 1
      in
      (* Every epoch bump here (capture, restore) also moves [current], so
         the map is always the current node's plus an uncaptured segment:
         [discard_segment] is sound at any point. *)
      List.iter
        (fun op ->
          match op with
          | R_map vpn ->
            As.map_zero t ~vpn;
            model.(vpn) <- Some 0
          | R_map_data (vpn, b) ->
            As.map_data t ~vpn (String.make 2 (Char.chr b));
            model.(vpn) <- Some b
          | R_write (vpn, b) -> (
            match model.(vpn) with
            | Some _ ->
              As.write_u8 t (Page.addr_of_vpn vpn) b;
              model.(vpn) <- Some b
            | None -> ())
          | R_read vpn -> if not (reads_match model vpn) then coherent := false
          | R_capture -> current := add_node (Some !current)
          | R_restore k -> restore k
          | R_release k -> release ~base:false k
          | R_discard k ->
            ignore (As.discard_segment t ~base:(node !current).n_snap);
            release ~base:true k;
            restore k)
        script;
      (* Every live snapshot (and the map restored from it) must still read
         exactly its model: a freed frame reachable from live state would
         show the 0xa5 poison instead. *)
      !coherent
      && List.for_all
           (fun n ->
             n.n_released
             ||
             (As.restore t n.n_snap;
              List.for_all (reads_match n.n_model) (List.init 8 Fun.id)))
           !nodes)

(* {1 Byte-level deltas (the tiered payload store's substrate)} *)

(* Random map/write/unmap scripts around two captures; the byte delta
   between the captures, applied over a restore of the parent, must rebuild
   the child's full image bit for bit — even from an unrelated machine
   state, and even after more mutation clobbered the map.  The same scripts
   check the full-image path ([base:None]). *)
type dop =
  | D_map_zero of int
  | D_map_data of int * int
  | D_write of int * int * int       (* vpn, offset, byte *)
  | D_unmap of int

let dop_gen =
  QCheck2.Gen.(
    let vp = int_range 0 7 in
    oneof
      [ map (fun v -> D_map_zero v) vp;
        map2 (fun v b -> D_map_data (v, b land 0xff)) vp small_int;
        map (fun (v, (o, b)) -> D_write (v, o, b land 0xff))
          (pair vp (pair (int_range 0 (Page.size - 1)) small_int));
        map (fun v -> D_unmap v) vp ])

let d_apply t op =
  match op with
  | D_map_zero vpn -> As.map_zero t ~vpn
  | D_map_data (vpn, b) -> As.map_data t ~vpn (String.make 3 (Char.chr b))
  | D_write (vpn, off, b) ->
    if As.is_mapped t ~vpn then As.write_u8 t (Page.addr_of_vpn vpn + off) b
  | D_unmap vpn -> As.unmap t ~vpn

let sorted_contents s =
  List.sort compare (As.snapshot_contents s)

let delta_roundtrip =
  qtest ~count:300 "snapshot byte delta applies back bit-identically"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 30) dop_gen)
        (list_size (int_range 0 30) dop_gen)
        (list_size (int_range 0 15) dop_gen))
    (fun (s1, s2, s3) ->
      let t = As.create (Phys.create ~poison:true ()) in
      As.map_data t ~vpn:0 "root";
      List.iter (d_apply t) s1;
      let parent = As.snapshot t in
      List.iter (d_apply t) s2;
      let child = As.snapshot t in
      let pages, dead = As.snapshot_delta ~parent child in
      (* wander off: the rebuild must not depend on the current map *)
      List.iter (d_apply t) s3;
      As.restore_pages t ~base:(Some parent) ~pages ~dead;
      let rebuilt = As.snapshot t in
      let ok_delta = sorted_contents rebuilt = sorted_contents child in
      (* full-image path: contents over an emptied map *)
      List.iter (d_apply t) s3;
      As.restore_pages t ~base:None ~pages:(As.snapshot_contents child) ~dead:[];
      let rebuilt_full = As.snapshot t in
      ok_delta && sorted_contents rebuilt_full = sorted_contents child)

let delta_restore_keeps_zero_sharing () =
  let phys = Phys.create () in
  let t = As.create phys in
  As.map_zero t ~vpn:1;
  As.map_data t ~vpn:2 "x";
  let parent = As.snapshot t in
  As.write_u8 t (Page.addr_of_vpn 2) (Char.code 'y');
  As.map_zero t ~vpn:3;
  let child = As.snapshot t in
  let pages, dead = As.snapshot_delta ~parent child in
  check Alcotest.int "no dead vpns" 0 (List.length dead);
  As.restore_pages t ~base:(Some parent) ~pages ~dead;
  (* vpn 3 was demand-zero in the child; the rebuild must route it through
     the shared zero frame, not burn a private frame on 4096 zeroes *)
  let rebuilt = As.snapshot t in
  check Alcotest.bool "all-zero page stays on the zero frame" true
    (match Stdx.Ptmap.find_opt 3 (As.snapshot_map_for_debug rebuilt) with
    | Some f -> f == Phys.zero_frame phys
    | None -> false);
  check Alcotest.int "contents match" (Char.code 'y')
    (As.read_u8 t (Page.addr_of_vpn 2))

let delta_bytes_accounting () =
  let phys = Phys.create () in
  Phys.note_delta_bytes phys 1000;
  Phys.note_delta_bytes phys 500;
  check Alcotest.int "held" 1500 (Phys.delta_bytes_held phys);
  Phys.note_delta_bytes phys (-1200);
  check Alcotest.int "released" 300 (Phys.delta_bytes_held phys);
  check Alcotest.int "peak sticks" 1500 (Phys.peak_delta_bytes phys)

let live_always_counted () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~owner:1 in
  let g = Phys.alloc_data phys ~owner:1 "x" in
  check Alcotest.int "an unbounded memory counts live frames" 2
    (Phys.frames_live phys);
  check Alcotest.int "and their peak" 2 (Phys.peak_frames_live phys);
  (match Phys.assert_quiescent phys with
  | () -> Alcotest.fail "live frames must fail the leak check"
  | exception Failure _ -> ());
  Phys.free_frame phys f;
  Phys.free_frame phys g;
  check Alcotest.int "free_frame is how a frame dies" 0 (Phys.frames_live phys);
  Phys.assert_quiescent phys;
  (* accounts are checked too, and exactly *)
  let account = Phys.fresh_account phys in
  let h = Phys.alloc ~account phys ~owner:1 in
  check Alcotest.int "charged to its account" 1
    (Phys.account_frames_live phys account);
  Phys.free_frame phys h;
  check Alcotest.int "credited back on free" 0
    (Phys.account_frames_live phys account);
  Phys.assert_quiescent phys

let tests =
  [ Alcotest.test_case "page geometry" `Quick page_geometry;
    Alcotest.test_case "read/write roundtrip" `Quick rw_roundtrip;
    Alcotest.test_case "cross-page access" `Quick cross_page_access;
    Alcotest.test_case "unmapped faults" `Quick unmapped_faults;
    Alcotest.test_case "map_data contents" `Quick map_data_contents;
    Alcotest.test_case "u64 boundary paths agree" `Quick u64_boundary_paths_agree;
    Alcotest.test_case "u64 crossing into unmapped faults" `Quick
      u64_crossing_into_unmapped_faults;
    Alcotest.test_case "shared-page unmap is per-machine" `Quick
      shared_page_unmap_is_local;
    Alcotest.test_case "sharing shoots down sibling TLBs" `Quick
      share_shoots_down_sibling_tlbs;
    Alcotest.test_case "snapshot immutability" `Quick snapshot_immutable;
    Alcotest.test_case "snapshot tree" `Quick snapshot_tree;
    Alcotest.test_case "snapshot capture is O(1) copies" `Quick snapshot_zero_cost;
    Alcotest.test_case "COW accounting" `Quick cow_accounting;
    Alcotest.test_case "zero-page sharing" `Quick zero_page_sharing;
    Alcotest.test_case "distinct frames sharing" `Quick distinct_frames_sharing;
    Alcotest.test_case "restore then diverge" `Quick restore_then_diverge;
    Alcotest.test_case "shared pages survive restores" `Quick shared_pages_survive_restores;
    Alcotest.test_case "shared pages never COW" `Quick shared_pages_never_cow;
    Alcotest.test_case "shared preserves content" `Quick shared_preserves_content;
    Alcotest.test_case "ept basic" `Quick ept_basic;
    Alcotest.test_case "ept page-table COW" `Quick ept_snapshot_pt_cow;
    Alcotest.test_case "ept deep vpn" `Quick ept_deep_vpn;
    Alcotest.test_case "frame capacity enforced" `Quick capacity_enforced;
    Alcotest.test_case "pressure handler reclaims" `Quick pressure_handler_reclaims;
    Alcotest.test_case "injected alloc fault is single-shot" `Quick
      injected_alloc_fault_single_shot;
    Alcotest.test_case "live is always counted" `Quick live_always_counted;
    Alcotest.test_case "crossing u64 is chunked, not per-byte" `Quick
      crossing_u64_is_chunked;
    Alcotest.test_case "TLB survives capture and restore" `Quick
      tlb_survives_switches;
    Alcotest.test_case "free list recycles buffers" `Quick
      free_list_recycles_buffers;
    Alcotest.test_case "poison marks freed buffers" `Quick
      poison_marks_freed_buffers;
    Alcotest.test_case "recycled data frame clears tail" `Quick
      recycled_data_frame_clears_tail;
    Alcotest.test_case "release_snapshot frees the delta" `Quick
      release_snapshot_frees_delta;
    Alcotest.test_case "discard_segment frees the COW tail" `Quick
      discard_segment_frees_cow_tail;
    Alcotest.test_case "divergent delta: discard counts" `Quick
      divergent_delta_counts;
    released_frames_never_alias_live_state;
    Alcotest.test_case "delta restore keeps zero sharing" `Quick
      delta_restore_keeps_zero_sharing;
    Alcotest.test_case "delta/spill byte accounting" `Quick
      delta_bytes_accounting;
    delta_roundtrip;
    backends_agree;
    sharing_matches_model;
    write_read_model ]
