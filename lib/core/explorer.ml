include Engine

let run ?mode ?fuel_per_step ?max_extensions ?retry_budget ?strategy_override
    ?tier_stress ?on_stop ?probe (machine : Libos.t) =
  explore ?mode ?fuel_per_step ?max_extensions ?retry_budget ?strategy_override
    ?tier_stress ?on_stop ?probe
    ~mem_before:
      (Obs.Metrics.copy (Mem.Phys_mem.registry (Mem.Addr_space.phys machine.aspace)))
    [| machine |]

let run_image ?mode ?fuel_per_step ?max_extensions ?retry_budget ?capacity
    ?poison ?strategy_override ?tier_stress ?(files = [])
    ?stdin ?(workers = 1) ?quantum ?faults image =
  if workers < 1 then invalid_arg "Explorer.run_image: need at least one worker";
  let phys = Mem.Phys_mem.create ?capacity ?poison () in
  let machine = Libos.boot phys image in
  List.iter (fun (path, content) -> Libos.add_file machine ~path content) files;
  Option.iter (Libos.set_stdin machine) stdin;
  let mem_before = Obs.Metrics.copy (Mem.Phys_mem.registry phys) in
  (* A helper's paths all start from snapshots: it frees its boot image at
     once, within the run's counters, so a run holds one boot image. *)
  let helper _ =
    let m = Libos.boot phys image in
    ignore (Mem.Addr_space.discard_map m.aspace);
    m
  in
  explore ?mode ?fuel_per_step ?max_extensions ?retry_budget ?strategy_override
    ?tier_stress ?quantum
    ?inj:(Option.map Inject.arm faults) ~mem_before
    (Array.append [| machine |] (Array.init (workers - 1) helper))
