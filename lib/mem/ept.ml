(* 4-level radix page table, 9 bits per level => 36-bit virtual page numbers
   (48-bit virtual addresses), matching x86-64 long mode.  Table nodes carry
   the same generation-ownership discipline as data frames: mutating a node
   that an older generation may still reference copies it first (a path
   copy), which is exactly the work a hardware NPT snapshot implementation
   spreads across its first post-snapshot faults. *)

let levels = 4
let bits_per_level = 9
let fanout = 1 lsl bits_per_level
let level_mask = fanout - 1

type entry =
  | Empty
  | Table of node
  | Frame of Phys_mem.frame

and node = { mutable owner : int; slots : entry array }

type t = {
  phys : Phys_mem.t;
  metrics : Obs.Metrics.t;  (* the memory's registry *)
  mutable root : node;
  mutable gen : int;
  mutable pages : int;
  tlb_vpn : int array;
  mutable tlb_frame : Phys_mem.frame array;
}

type snapshot = { snap_root : node; snap_pages : int }

let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

exception Unmapped

let fresh_node t =
  { owner = t.gen; slots = Array.make fanout Empty }

let create phys =
  let zero = Phys_mem.zero_frame phys in
  let gen = Phys_mem.fresh_generation phys in
  let t =
    { phys;
      metrics = Phys_mem.registry phys;
      root = { owner = gen; slots = Array.make fanout Empty };
      gen;
      pages = 0;
      tlb_vpn = Array.make tlb_size (-1);
      tlb_frame = Array.make tlb_size zero }
  in
  t


let tlb_flush t =
  Array.fill t.tlb_vpn 0 tlb_size (-1);
  Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_flushes

let tlb_invalidate t vpn =
  let i = vpn land tlb_mask in
  if t.tlb_vpn.(i) = vpn then t.tlb_vpn.(i) <- -1

let index vpn level = (vpn lsr (bits_per_level * level)) land level_mask

(* Read-only walk; raises [Unmapped]. *)
let walk t vpn =
  let rec go node level =
    let e = node.slots.(index vpn level) in
    match e with
    | Empty -> raise Unmapped
    | Table child -> go child (level - 1)
    | Frame f -> if level = 0 then f else raise Unmapped
  in
  go t.root (levels - 1)

(* Mutable walk: path-copies every node not owned by the current generation
   and materialises missing interior nodes. *)
let copy_node t node =
  Obs.Metrics.incr t.metrics Obs.Names.mem_pt_node_copies;
  { owner = t.gen; slots = Array.copy node.slots }

let writable_root t =
  if t.root.owner <> t.gen then t.root <- copy_node t t.root;
  t.root

let walk_mut t vpn =
  let rec go node level =
    (* [node] is already owned by the current generation. *)
    if level = 0 then node
    else begin
      let i = index vpn level in
      let child =
        match node.slots.(i) with
        | Empty ->
          let c = fresh_node t in
          node.slots.(i) <- Table c;
          c
        | Table c ->
          if c.owner = t.gen then c
          else begin
            let c' = copy_node t c in
            node.slots.(i) <- Table c';
            c'
          end
        | Frame _ -> invalid_arg "Ept: frame entry at interior level"
      in
      go child (level - 1)
    end
  in
  go (writable_root t) (levels - 1)

let set_leaf t vpn entry =
  let leaf = walk_mut t vpn in
  let i = index vpn 0 in
  let was = leaf.slots.(i) in
  leaf.slots.(i) <- entry;
  (match was, entry with
  | Empty, (Frame _ | Table _) -> t.pages <- t.pages + 1
  | (Frame _ | Table _), Empty -> t.pages <- t.pages - 1
  | Empty, Empty | (Frame _ | Table _), (Frame _ | Table _) -> ());
  tlb_invalidate t vpn

let map_zero t ~vpn = set_leaf t vpn (Frame (Phys_mem.zero_frame t.phys))

let map_data t ~vpn data =
  if String.length data > Page.size then
    invalid_arg "Ept.map_data: more than a page";
  set_leaf t vpn (Frame (Phys_mem.alloc_data t.phys ~owner:t.gen data))

let unmap t ~vpn = set_leaf t vpn Empty

let is_mapped t ~vpn =
  match walk t vpn with _ -> true | exception Unmapped -> false

let mapped_pages t = t.pages

let lookup t vpn access addr =
  let i = vpn land tlb_mask in
  if t.tlb_vpn.(i) = vpn then begin
    Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_hits;
    t.tlb_frame.(i)
  end
  else begin
    Obs.Metrics.incr t.metrics Obs.Names.mem_tlb_misses;
    Obs.Metrics.incr t.metrics Obs.Names.mem_pt_walks;
    match walk t vpn with
    | f ->
      t.tlb_vpn.(i) <- vpn;
      t.tlb_frame.(i) <- f;
      f
    | exception Unmapped -> raise (Addr_space.Page_fault { addr; access })
  end

let writable_frame t vpn addr =
  let f = lookup t vpn Addr_space.Write addr in
  if f.Phys_mem.owner = t.gen then f
  else begin
    let zero = Phys_mem.zero_frame t.phys in
    let f' =
      if f == zero then begin
        Obs.Trace.instant t.metrics Obs.Names.mem_zero_fills vpn 0;
        Phys_mem.alloc t.phys ~owner:t.gen
      end
      else begin
        Obs.Trace.instant t.metrics Obs.Names.mem_cow_faults vpn 0;
        Phys_mem.alloc_copy t.phys ~owner:t.gen f
      end
    in
    let leaf = walk_mut t vpn in
    leaf.slots.(index vpn 0) <- Frame f';
    let i = vpn land tlb_mask in
    if t.tlb_vpn.(i) = vpn then t.tlb_frame.(i) <- f';
    f'
  end

let read_u8 t addr =
  let f = lookup t (Page.vpn_of_addr addr) Addr_space.Read addr in
  Char.code (Bytes.unsafe_get f.Phys_mem.bytes (Page.offset_of_addr addr))

let write_u8 t addr v =
  let f = writable_frame t (Page.vpn_of_addr addr) addr in
  Bytes.unsafe_set f.Phys_mem.bytes (Page.offset_of_addr addr) (Char.unsafe_chr (v land 0xff))

let read_u64 t addr =
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then begin
    let f = lookup t (Page.vpn_of_addr addr) Addr_space.Read addr in
    Int64.to_int (Bytes.get_int64_le f.Phys_mem.bytes off)
  end
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor read_u8 t (addr + i)
    done;
    !v
  end

let write_u64 t addr v =
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then begin
    let f = writable_frame t (Page.vpn_of_addr addr) addr in
    Bytes.set_int64_le f.Phys_mem.bytes off (Int64.of_int v)
  end
  else
    for i = 0 to 7 do
      write_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Page.offset_of_addr a in
    let chunk = min (len - !pos) (Page.size - off) in
    let f = lookup t (Page.vpn_of_addr a) Addr_space.Read a in
    Bytes.blit f.Phys_mem.bytes off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~addr data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Page.offset_of_addr a in
    let chunk = min (len - !pos) (Page.size - off) in
    let f = writable_frame t (Page.vpn_of_addr a) a in
    Bytes.blit_string data !pos f.Phys_mem.bytes off chunk;
    pos := !pos + chunk
  done

exception Tlb_cap

(* The radix counterpart of [Addr_space]'s TLB switch: invalidate every vpn
   the current root and [root] bind differently.  A table node both roots
   reach is immutable (the current generation is younger than every node a
   snapshot holds), so identical [Table] children are skipped whole.  After
   [tlb_size] invalidations a full flush is cheaper. *)
let tlb_switch t root =
  let budget = ref tlb_size in
  let kill vpn =
    tlb_invalidate t vpn;
    decr budget;
    if !budget = 0 then raise_notrace Tlb_cap
  in
  (* [e] sits in slot [i] of a node at [level]; [base] holds the vpn bits
     above that level. *)
  let slot_vpn base level i = base lor (i lsl (bits_per_level * level)) in
  let rec every e vpn level =
    match e with
    | Empty -> ()
    | Frame _ -> kill vpn
    | Table c ->
      Array.iteri (fun i e -> every e (slot_vpn vpn (level - 1) i) (level - 1)) c.slots
  in
  let rec diff x y base level =
    for i = 0 to fanout - 1 do
      let vpn = slot_vpn base level i in
      match x.slots.(i), y.slots.(i) with
      | Empty, Empty -> ()
      | Frame f, Frame g -> if f != g then kill vpn
      | Table c, Table d -> if c != d then diff c d vpn (level - 1)
      | ex, ey -> every ex vpn level; every ey vpn level
    done
  in
  if t.root != root then
    match diff t.root root 0 (levels - 1) with
    | () -> ()
    | exception Tlb_cap -> tlb_flush t

let snapshot t =
  Obs.Metrics.incr t.metrics Obs.Names.mem_snapshots;
  let s = { snap_root = t.root; snap_pages = t.pages } in
  t.gen <- Phys_mem.fresh_generation t.phys;
  s

let restore t s =
  Obs.Metrics.incr t.metrics Obs.Names.mem_restores;
  tlb_switch t s.snap_root;
  t.root <- s.snap_root;
  t.pages <- s.snap_pages;
  t.gen <- Phys_mem.fresh_generation t.phys

let snapshot_pages s = s.snap_pages

let distinct_frames snaps =
  let seen = Hashtbl.create 256 in
  let rec visit node level =
    Array.iter
      (fun e ->
        match e with
        | Empty -> ()
        | Frame f -> Hashtbl.replace seen f.Phys_mem.id ()
        | Table child -> visit child (level - 1))
      node.slots
  in
  List.iter (fun s -> visit s.snap_root levels) snaps;
  Hashtbl.length seen
