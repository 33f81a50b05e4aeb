(* Fixed-capacity, allocation-light ring-buffer tracer over the metric
   slots.

   Design constraints (see DESIGN.md "Observability"):

   - One name per event: a record call counts into a registry slot and
     traces under that slot; the ring stores the slot, and [events] looks
     its name up.  Payloads are plain ints, so no call site allocates.
   - Disabled path is the count plus one mutable-bool load and a
     conditional branch.
   - Enabled path writes into a preallocated ring of mutable event
     records: no allocation per event, one [Unix.gettimeofday] call.
   - Domains safety: each domain lazily registers its own buffer via
     [Domain.DLS]; no cross-domain mutation ever happens on the hot
     path.  Buffers are merged (stable-sorted by timestamp) at export.
   - A session generation counter invalidates buffers cached in DLS by
     earlier [start]/[clear] calls, so a long-lived domain that traced
     in a previous session transparently re-registers.

   [start]/[stop]/[clear] must be called from a quiescent point (no
   other domain concurrently recording); recording itself is safe from
   any number of domains. *)

type kind = Span_begin | Span_end | Instant | Counter

type event = {
  mutable e_kind : kind;
  mutable e_slot : Metrics.slot;
  mutable e_ts : int; (* microseconds since session epoch *)
  mutable e_a : int;
  mutable e_b : int;
}

type view = {
  v_kind : kind;
  v_slot : Metrics.slot;
  v_name : string;
  v_ts : int;
  v_tid : int;
  v_a : int;
  v_b : int;
}

type buffer = {
  bu_session : int;
  bu_tid : int;
  bu_slots : event array;
  bu_cap : int;
  mutable bu_len : int; (* total events ever recorded into this buffer *)
  mutable bu_last_ts : int;
}

let default_capacity = 1 lsl 16
let enabled_flag = ref false
let session = Atomic.make 0
let capacity = ref default_capacity
let epoch = ref 0.0
let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let fresh_buffer () =
  let cap = !capacity in
  let slots =
    (* any slot: an entry is written before it is read *)
    Array.init cap (fun _ ->
        { e_kind = Instant; e_slot = Names.vcpu_instructions; e_ts = 0; e_a = 0;
          e_b = 0 })
  in
  let b =
    {
      bu_session = Atomic.get session;
      bu_tid = (Domain.self () :> int);
      bu_slots = slots;
      bu_cap = cap;
      bu_len = 0;
      bu_last_ts = 0;
    }
  in
  Mutex.lock registry_mutex;
  registry := b :: !registry;
  Mutex.unlock registry_mutex;
  b

let dls_key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let buffer () =
  match Domain.DLS.get dls_key with
  | Some b when b.bu_session = Atomic.get session -> b
  | _ ->
      let b = fresh_buffer () in
      Domain.DLS.set dls_key (Some b);
      b

let now_us () = int_of_float ((Unix.gettimeofday () -. !epoch) *. 1e6)

(* Called only while tracing: the record calls below test the flag
   inline, so the disabled path makes no call. *)
let record kind slot a b =
  let buf = buffer () in
  let e = buf.bu_slots.(buf.bu_len mod buf.bu_cap) in
  let ts = now_us () in
  (* Clamp monotone per buffer: gettimeofday can step backwards. *)
  let ts = if ts >= buf.bu_last_ts then ts else buf.bu_last_ts in
  buf.bu_last_ts <- ts;
  e.e_kind <- kind;
  e.e_slot <- slot;
  e.e_ts <- ts;
  e.e_a <- a;
  e.e_b <- b;
  buf.bu_len <- buf.bu_len + 1

let[@inline] instant m slot a b =
  Metrics.incr m slot;
  if !enabled_flag then record Instant slot a b

let[@inline] span_begin slot a = if !enabled_flag then record Span_begin slot a 0

let[@inline] span_end m slot a b =
  Metrics.incr m slot;
  if !enabled_flag then record Span_end slot a b

let[@inline] peak m slot v =
  Metrics.peak m slot v;
  if !enabled_flag then record Counter slot v 0

let[@inline] sample slot v = if !enabled_flag then record Counter slot v 0

let start ?capacity:(cap = default_capacity) () =
  Mutex.lock registry_mutex;
  registry := [];
  Mutex.unlock registry_mutex;
  capacity := max 16 cap;
  Atomic.incr session;
  epoch := Unix.gettimeofday ();
  enabled_flag := true

let stop () = enabled_flag := false

let clear () =
  enabled_flag := false;
  Atomic.incr session;
  Mutex.lock registry_mutex;
  registry := [];
  Mutex.unlock registry_mutex

let buffers () =
  Mutex.lock registry_mutex;
  let bs = !registry in
  Mutex.unlock registry_mutex;
  bs

let recorded () = List.fold_left (fun acc b -> acc + b.bu_len) 0 (buffers ())

let dropped () =
  List.fold_left (fun acc b -> acc + max 0 (b.bu_len - b.bu_cap)) 0 (buffers ())

let events () =
  let of_buffer b =
    let kept = min b.bu_len b.bu_cap in
    let oldest = if b.bu_len <= b.bu_cap then 0 else b.bu_len mod b.bu_cap in
    List.init kept (fun i ->
        let e = b.bu_slots.((oldest + i) mod b.bu_cap) in
        {
          v_kind = e.e_kind;
          v_slot = e.e_slot;
          v_name = Metrics.name e.e_slot;
          v_ts = e.e_ts;
          v_tid = b.bu_tid;
          v_a = e.e_a;
          v_b = e.e_b;
        })
  in
  (* Oldest-registered buffer first so the main domain usually leads;
     stable sort keeps per-buffer order for equal timestamps. *)
  let all = List.concat_map of_buffer (List.rev (buffers ())) in
  List.stable_sort (fun x y -> compare x.v_ts y.v_ts) all
