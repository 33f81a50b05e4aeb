(** Event counters for the memory subsystem.

    Every quantitative claim in the paper is ultimately about these events —
    COW faults, pages copied, snapshot captures/restores — so they are
    counted at the point where they happen and surfaced by the benches. *)

type t = {
  mutable cow_faults : int;       (** writes that had to copy a page *)
  mutable zero_fills : int;       (** demand-zero pages materialised *)
  mutable pages_copied : int;     (** page-sized copies, COW or eager *)
  mutable bytes_copied : int;
  mutable frames_allocated : int;
  mutable snapshots : int;        (** snapshot captures *)
  mutable restores : int;
  mutable tlb_hits : int;
      (** translations served by the TLB.  This counts translations, not
          accesses: the interpreter makes none for a block it reaches
          through a same-page successor link (see [Vcpu.Interp]), so under
          block dispatch it undercounts fetches.  E8 drives the MMU
          directly and is unaffected. *)
  mutable tlb_misses : int;
  mutable tlb_flushes : int;
      (** whole-TLB wipes.  Capture and ordinary restores never flush; what
          still does: [Addr_space.seal], a share-ring overflow, a
          full-image rebuild ([restore_pages ~base:None]), and a restore
          whose map diff reached the TLB's size *)
  mutable tlb_shootdowns : int;
      (** single-entry invalidations from a targeted cross-machine
          share-epoch catch-up (vs. [tlb_flushes]) *)
  mutable pt_walks : int;         (** page-table / trie lookups on TLB miss *)
  mutable pt_node_copies : int;   (** EPT backend: page-table pages COW'd *)
  mutable frames_freed : int;     (** frames explicitly released to the free list *)
  mutable frames_recycled : int;  (** allocations served from a recycled buffer *)
  mutable zero_fills_elided : int;
      (** allocations that skipped the zero-fill because the whole page was
          about to be overwritten (COW copies, eager data maps) *)
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val copy : t -> t
val diff : t -> t -> t
(** [diff after before] is the per-field difference. *)

val pp : Format.formatter -> t -> unit
