module As = Mem.Addr_space

type full = {
  pages : (int * string) list;
  dead : int list;
      (* vpns unmapped since the previous checkpoint in a chain; a delta
         must record them or a restore resurrects pages from older deltas
         (found by the differential fuzzer).  Always [] for full captures. *)
  bytes : int;
}

let copy_page aspace vpn =
  ( vpn,
    Bytes.to_string
      (As.read_bytes aspace ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size)
  )

let copy_pages aspace vpns = List.map (copy_page aspace) vpns

let full_capture aspace =
  let pages = copy_pages aspace (As.mapped_vpns aspace) in
  { pages; dead = []; bytes = List.length pages * Mem.Page.size }

let full_restore aspace full =
  List.iter (fun vpn -> As.unmap aspace ~vpn) (As.mapped_vpns aspace);
  List.iter (fun (vpn, data) -> As.map_data aspace ~vpn data) full.pages

let full_bytes f = f.bytes

(* Incremental checkpoints identify dirty pages by diffing address-space
   snapshots — the moral equivalent of libckpt's mprotect dirty tracking —
   but the checkpoint data itself is an eager copy, which is the cost being
   measured. *)
type incr_chain = {
  mutable mark : As.snapshot;  (* the latest capture, for diffing *)
  mutable states : full list;  (* page images, most recent first *)
}

let incr_start aspace =
  { mark = As.snapshot aspace; states = [ full_capture aspace ] }

let incr_capture chain aspace =
  let mark = As.snapshot aspace in
  (* Dirty pages come straight out of the snapshot byte delta — the same
     machinery the tiered payload store demotes with.  Two corrections keep
     the checkpoint equal to what the guest actually sees, which an
     explicitly-shared page overrides: a dirty vpn that is (also) shared
     re-reads through the address space, and a vpn dropped from the private
     map stays live while a shared page still backs it. *)
  let pages, dropped = As.snapshot_delta ~parent:chain.mark mark in
  let pages =
    List.map
      (fun ((vpn, _) as page) ->
        if As.is_shared aspace ~vpn then copy_page aspace vpn else page)
      pages
  in
  let live, dead =
    List.partition (fun vpn -> As.is_mapped aspace ~vpn) dropped
  in
  let pages = pages @ copy_pages aspace live in
  chain.mark <- mark;
  chain.states <-
    { pages; dead; bytes = List.length pages * Mem.Page.size } :: chain.states

let incr_count chain = List.length chain.states

let incr_restore aspace chain ~index =
  let n = List.length chain.states in
  if index < 0 || index >= n then invalid_arg "Ckpt.incr_restore: bad index";
  (* states are most-recent-first; replay base then deltas 1..index *)
  let ordered = List.rev chain.states in
  List.iter (fun vpn -> As.unmap aspace ~vpn) (As.mapped_vpns aspace);
  List.iteri
    (fun k state ->
      if k <= index then begin
        List.iter (fun (vpn, data) -> As.map_data aspace ~vpn data) state.pages;
        List.iter (fun vpn -> As.unmap aspace ~vpn) state.dead
      end)
    ordered

let incr_bytes chain = List.fold_left (fun acc s -> acc + s.bytes) 0 chain.states

let clone phys src =
  let dst = As.create phys in
  List.iter
    (fun vpn ->
      let data = As.read_bytes src ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size in
      As.map_data dst ~vpn (Bytes.to_string data))
    (As.mapped_vpns src);
  dst
