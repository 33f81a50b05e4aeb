(** The fidelity address-space backend: an explicit 4-level radix page table
    with copy-on-write applied to the page-table pages themselves.

    This mirrors what the paper's nested-page-table implementation does in
    hardware: a snapshot shares the table {e root}, and the first store after
    a capture path-copies the table nodes from the root down to the leaf
    before copying the data page.  It implements the same operations as
    {!Addr_space} (and is checked equivalent to it by the test-suite); the E8
    bench compares the two mechanisms. *)

type t
type snapshot

val create : Phys_mem.t -> t

val map_zero : t -> vpn:int -> unit
val map_data : t -> vpn:int -> string -> unit
val unmap : t -> vpn:int -> unit
val is_mapped : t -> vpn:int -> bool
val mapped_pages : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int
val write_u64 : t -> int -> int -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> string -> unit

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val snapshot_pages : snapshot -> int
val distinct_frames : snapshot list -> int

val levels : int
(** Radix levels in the table (4, as in x86-64 long mode). *)

val fanout : int
(** Entries per table node (512). *)
