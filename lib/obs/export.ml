(* Exporters over a merged event stream (Trace.events ()):

   - Chrome trace_event JSON, loadable in Perfetto / chrome://tracing;
   - a flat text summary (span aggregates, instant counts, counters);
   - a snapshot-tree dump (DOT or JSON) annotated with per-node cost,
     rebuilt from snapshot.captures instants and os.segments spans. *)

let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let chrome_json ?(dropped = 0) events =
  let ev (e : Trace.view) =
    let ph =
      match e.v_kind with
      | Trace.Span_begin -> "B"
      | Trace.Span_end -> "E"
      | Trace.Instant -> "i"
      | Trace.Counter -> "C"
    in
    let args =
      match e.v_kind with
      | Trace.Counter -> [ ("value", Json.Int e.v_a) ]
      | _ -> [ ("a", Json.Int e.v_a); ("b", Json.Int e.v_b) ]
    in
    let scope =
      match e.v_kind with Trace.Instant -> [ ("s", Json.Str "t") ] | _ -> []
    in
    Json.Obj
      ([
         ("name", Json.Str e.v_name);
         ("cat", Json.Str (category e.v_name));
         ("ph", Json.Str ph);
         ("ts", Json.Int e.v_ts);
         ("pid", Json.Int 0);
         ("tid", Json.Int e.v_tid);
       ]
      @ scope
      @ [ ("args", Json.Obj args) ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map ev events));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [ ("tool", Json.Str "lwsnap"); ("dropped", Json.Int dropped) ] );
    ]

let chrome_json_string ?dropped events =
  Json.to_string (chrome_json ?dropped events)

(* ---- span aggregation ---- *)

type span_agg = {
  s_count : int; (* completed begin/end pairs *)
  s_total_us : int;
  s_max_us : int;
  s_unmatched : int; (* begins without end + ends without begin *)
}

let span_summary events =
  let aggs : (string, span_agg ref) Hashtbl.t = Hashtbl.create 16 in
  let agg name =
    match Hashtbl.find_opt aggs name with
    | Some r -> r
    | None ->
        let r = ref { s_count = 0; s_total_us = 0; s_max_us = 0; s_unmatched = 0 } in
        Hashtbl.replace aggs name r;
        r
  in
  (* Per (tid, name) stack of open begin timestamps: spans never cross
     domains, and within a domain the stream is chronological. *)
  let open_ : (int * string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.view) ->
      match e.v_kind with
      | Trace.Span_begin ->
          let key = (e.v_tid, e.v_name) in
          let stack =
            match Hashtbl.find_opt open_ key with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.replace open_ key s;
                s
          in
          stack := e.v_ts :: !stack
      | Trace.Span_end -> (
          let key = (e.v_tid, e.v_name) in
          let r = agg e.v_name in
          match Hashtbl.find_opt open_ key with
          | Some ({ contents = t0 :: rest } as stack) ->
              stack := rest;
              let d = e.v_ts - t0 in
              r :=
                {
                  !r with
                  s_count = !r.s_count + 1;
                  s_total_us = !r.s_total_us + d;
                  s_max_us = max !r.s_max_us d;
                }
          | _ -> r := { !r with s_unmatched = !r.s_unmatched + 1 })
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (_, name) stack ->
      let n = List.length !stack in
      if n > 0 then
        let r = agg name in
        r := { !r with s_unmatched = !r.s_unmatched + n })
    open_;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) aggs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let summary events =
  let buf = Buffer.create 1024 in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let counters : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.view) ->
      match e.v_kind with
      | Trace.Instant ->
          Hashtbl.replace instants e.v_name
            (1 + Option.value ~default:0 (Hashtbl.find_opt instants e.v_name))
      | Trace.Counter ->
          let _, mx =
            Option.value ~default:(0, min_int) (Hashtbl.find_opt counters e.v_name)
          in
          Hashtbl.replace counters e.v_name (e.v_a, max mx e.v_a)
      | _ -> ())
    events;
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
                   |> List.sort (fun (a, _) (b, _) -> String.compare a b) in
  Buffer.add_string buf
    (Printf.sprintf "events: %d\n" (List.length events));
  let spans = span_summary events in
  if spans <> [] then begin
    Buffer.add_string buf "\nspans (name, count, total us, max us, unmatched):\n";
    List.iter
      (fun (name, a) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %8d %10d %8d %4d\n" name a.s_count a.s_total_us
             a.s_max_us a.s_unmatched))
      spans
  end;
  (match sorted instants with
  | [] -> ()
  | xs ->
      Buffer.add_string buf "\ninstants (name, count):\n";
      List.iter
        (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "  %-28s %8d\n" name n))
        xs);
  (match sorted counters with
  | [] -> ()
  | xs ->
      Buffer.add_string buf "\ncounters (name, last, max):\n";
      List.iter
        (fun (name, (last, mx)) ->
          Buffer.add_string buf (Printf.sprintf "  %-28s %8d %8d\n" name last mx))
        xs);
  Buffer.contents buf

(* ---- snapshot tree ---- *)

type node = {
  n_id : int;
  n_parent : int; (* -1: root; -2: synthetic (referenced, never captured) *)
  mutable n_visits : int; (* os.segments spans attributed to this node *)
  mutable n_us : int;
  mutable n_instr : int;
  mutable n_restores : int;
}

let snapshot_tree events =
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let ensure ?(parent = -2) id =
    match Hashtbl.find_opt nodes id with
    | Some n -> n
    | None ->
        let n =
          { n_id = id; n_parent = parent; n_visits = 0; n_us = 0; n_instr = 0;
            n_restores = 0 }
        in
        Hashtbl.replace nodes id n;
        n
  in
  (* segment spans never nest per domain, so one open slot per tid. *)
  let open_eval : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.view) ->
      if e.v_slot = Names.snapshot_captures then ignore (ensure ~parent:e.v_b e.v_a)
      else if e.v_slot = Names.snapshot_restores then begin
        let n = ensure e.v_a in
        n.n_restores <- n.n_restores + 1
      end
      else if e.v_slot = Names.os_segments then
        match e.v_kind with
        | Trace.Span_begin -> Hashtbl.replace open_eval e.v_tid (e.v_a, e.v_ts)
        | Trace.Span_end -> (
            match Hashtbl.find_opt open_eval e.v_tid with
            | Some (sid, t0) when sid = e.v_a ->
                Hashtbl.remove open_eval e.v_tid;
                let n = ensure sid in
                n.n_visits <- n.n_visits + 1;
                n.n_us <- n.n_us + (e.v_ts - t0);
                n.n_instr <- n.n_instr + e.v_b
            | _ -> ())
        | _ -> ())
    events;
  Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
  |> List.sort (fun a b -> compare a.n_id b.n_id)

let tree_json events =
  let nodes = snapshot_tree events in
  Json.Obj
    [
      ( "nodes",
        Json.Arr
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("id", Json.Int n.n_id);
                   ("parent", Json.Int n.n_parent);
                   ("visits", Json.Int n.n_visits);
                   ("us", Json.Int n.n_us);
                   ("instructions", Json.Int n.n_instr);
                   ("restores", Json.Int n.n_restores);
                 ])
             nodes) );
    ]

let tree_dot events =
  let nodes = snapshot_tree events in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph snapshots {\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun n ->
      let label =
        if n.n_id < 0 then Printf.sprintf "boot\\n%d us, %d instr" n.n_us n.n_instr
        else
          Printf.sprintf "s%d\\n%d visit(s), %d us\\n%d instr, %d restore(s)"
            n.n_id n.n_visits n.n_us n.n_instr n.n_restores
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" (n.n_id + 2) label))
    nodes;
  List.iter
    (fun n ->
      if n.n_parent >= 0 then
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d;\n" (n.n_parent + 2) (n.n_id + 2)))
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
