open Isa.Asm
module R = Isa.Reg

(* Microbenchmarks for the E9 interpreter-dispatch ablation.  Unlike the
   search workloads these have no guess tree: they isolate the dispatch
   loop itself so the two modes (no cache / basic-block
   superinstructions) differ only in fetch-and-decode cost. *)

let default_unroll = 16

(* Straight-line ALU churn: the work loop of [Locality.program] unrolled
   [unroll]-fold, so the hot path is one [3*unroll + 2]-instruction basic
   block instead of a 5-instruction one.  This is the shape E3's
   work-heavy rows spend ~98% of their time in — compilers unroll hot
   ALU loops exactly like this — and it is the row the block-vs-uncached
   gate runs on. *)
let work_heavy ?(unroll = default_unroll) ~iters () =
  if iters <= 0 || unroll <= 0 then invalid_arg "Dispatch_micro.work_heavy";
  let step =
    [ imul R.r9 (i 1103515245); add R.r9 (i 12345); and_ R.r9 (i 0x3FFFFFFF) ]
  in
  let body =
    [ label "main"; mov R.r9 (i 1); mov R.r10 (i iters); label "work" ]
    @ List.concat (List.init unroll (fun _ -> step))
    @ [ dec R.r10; jne "work" ]
    @ Wl_common.sys_exit ~status:0
  in
  assemble ~entry:"main" body

let work_heavy_insns ?(unroll = default_unroll) ~iters () =
  ignore (work_heavy ~unroll ~iters ());
  (* main prologue (2) + iters * (unrolled body + dec/jne) + exit (3) *)
  2 + (iters * ((3 * unroll) + 2)) + 3

(* The data/code-page-separation cliff: a loop that read-modify-writes a
   counter cell, with the cell either on its own page ([separate_data =
   true], the [align 4096] discipline) or on the same page as the code.
   In the mixed layout the first store COWs the code page into the
   current generation, where it is writable in place and therefore
   permanently uncacheable — every later fetch decodes from scratch and
   no block is ever fused.  E9 measures the ratio. *)
let cliff ~separate_data ~iters =
  if iters <= 0 then invalid_arg "Dispatch_micro.cliff";
  let body =
    [ label "main"; movl R.r8 "cell"; mov R.r10 (i iters); label "loop_" ]
    @ [ ld R.r9 (R.r8 @+ 0);
        imul R.r9 (i 1103515245);
        add R.r9 (i 12345);
        and_ R.r9 (i 0x3FFFFFFF);
        st (R.r8 @+ 0) R.r9;
        dec R.r10;
        jne "loop_" ]
    @ Wl_common.sys_exit ~status:0
    @ (if separate_data then [ align 4096 ] else [])
    @ [ label "cell"; qword 0 ]
  in
  assemble ~entry:"main" body

let cliff_insns ~iters = 3 + (iters * 7) + 3
