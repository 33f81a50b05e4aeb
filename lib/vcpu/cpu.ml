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

(* A plain int loop, not [Array.blit]: [t.regs] lives in the major heap,
   where [caml_array_blit] pays a write barrier ([caml_modify]) per element
   because it cannot tell the array holds only ints.  Here the type says
   so, and each store is a bare move. *)
let load t s =
  let regs = t.regs and src = s.s_regs in
  for i = 0 to Isa.Reg.count - 1 do
    Array.unsafe_set regs i (Array.unsafe_get src i)
  done;
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
