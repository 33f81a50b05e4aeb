type flags = {
  mutable zf : bool;
  mutable sf : bool;
  mutable lt_s : bool;
  mutable lt_u : bool;
}

type t = {
  regs : int array;
  mutable rip : int;
  flags : flags;
  mutable retired : int;
}

type saved = { s_regs : int array; s_rip : int; s_flags : int }
(* [s_flags] packs zf, sf, lt_s, lt_u into bits 0-3. *)

let create ~entry =
  { regs = Array.make Isa.Reg.count 0;
    rip = entry;
    flags = { zf = false; sf = false; lt_s = false; lt_u = false };
    retired = 0 }

let get t reg = t.regs.(Isa.Reg.to_int reg)

let set t reg v = t.regs.(Isa.Reg.to_int reg) <- v

let[@inline] bit b = if b then 1 else 0

let save t =
  let f = t.flags in
  { s_regs = Array.copy t.regs;
    s_rip = t.rip;
    s_flags =
      bit f.zf lor (bit f.sf lsl 1) lor (bit f.lt_s lsl 2) lor (bit f.lt_u lsl 3) }

(* Sixteen int moves, not [Array.blit]: [t.regs] lives in the major heap,
   where [caml_array_blit] pays a write barrier ([caml_modify]) per element
   because it cannot tell the array holds only ints.  Here the type says
   so, and each store is a bare move; unrolled, because a restore runs per
   extension and a loop costs a counter and a poll point per register. *)
let () = assert (Isa.Reg.count = 16)

let load t s =
  let d = t.regs and s' = s.s_regs in
  Array.unsafe_set d 0 (Array.unsafe_get s' 0);
  Array.unsafe_set d 1 (Array.unsafe_get s' 1);
  Array.unsafe_set d 2 (Array.unsafe_get s' 2);
  Array.unsafe_set d 3 (Array.unsafe_get s' 3);
  Array.unsafe_set d 4 (Array.unsafe_get s' 4);
  Array.unsafe_set d 5 (Array.unsafe_get s' 5);
  Array.unsafe_set d 6 (Array.unsafe_get s' 6);
  Array.unsafe_set d 7 (Array.unsafe_get s' 7);
  Array.unsafe_set d 8 (Array.unsafe_get s' 8);
  Array.unsafe_set d 9 (Array.unsafe_get s' 9);
  Array.unsafe_set d 10 (Array.unsafe_get s' 10);
  Array.unsafe_set d 11 (Array.unsafe_get s' 11);
  Array.unsafe_set d 12 (Array.unsafe_get s' 12);
  Array.unsafe_set d 13 (Array.unsafe_get s' 13);
  Array.unsafe_set d 14 (Array.unsafe_get s' 14);
  Array.unsafe_set d 15 (Array.unsafe_get s' 15);
  t.rip <- s.s_rip;
  let f = s.s_flags in
  t.flags.zf <- f land 1 <> 0;
  t.flags.sf <- f land 2 <> 0;
  t.flags.lt_s <- f land 4 <> 0;
  t.flags.lt_u <- f land 8 <> 0

let saved_rip s = s.s_rip

let eval_cond t (c : Isa.Insn.cond) =
  let f = t.flags in
  match c with
  | E -> f.zf
  | NE -> not f.zf
  | L -> f.lt_s
  | GE -> not f.lt_s
  | LE -> f.lt_s || f.zf
  | G -> not (f.lt_s || f.zf)
  | B -> f.lt_u
  | AE -> not f.lt_u
  | BE -> f.lt_u || f.zf
  | A -> not (f.lt_u || f.zf)
  | S -> f.sf
  | NS -> not f.sf

let pp fmt t =
  Format.fprintf fmt "@[<v>rip=0x%x retired=%d@ " t.rip t.retired;
  List.iter
    (fun reg ->
      Format.fprintf fmt "%s=%d " (Isa.Reg.name reg) (get t reg))
    Isa.Reg.all;
  Format.fprintf fmt "@ zf=%b sf=%b lt_s=%b lt_u=%b@]" t.flags.zf t.flags.sf
    t.flags.lt_s t.flags.lt_u
