(** Binary encoding of VX64 instructions.

    Programs live as bytes in guest memory and are fetched and decoded
    through the MMU, so code pages participate in snapshots exactly like
    data pages.  The encoding is fixed-layout (immediates are always 8
    bytes), which makes instruction sizes deterministic for the two-pass
    assembler. *)

exception Invalid_opcode of { addr : int; opcode : int }

val size : Insn.t -> int
(** Encoded size in bytes. *)

val encode : Buffer.t -> Insn.t -> unit

val encode_to_string : Insn.t list -> string

val decode : fetch:(int -> int) -> int -> Insn.t * int
(** [decode ~fetch addr] decodes the instruction at [addr], reading bytes
    through [fetch]; returns the instruction and its size.
    @raise Invalid_opcode on junk: an unknown opcode or operation code, or
    a register byte outside the register file. *)
