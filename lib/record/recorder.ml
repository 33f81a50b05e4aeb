module Libos = Os.Libos

type t = {
  mutable rev_events : Log.event list;
  metrics : Obs.Metrics.t;  (* [record.appends] *)
  fuel_per_step : int;
  meta : string;
}

let create ?(fuel_per_step = 50_000_000) ?(meta = "") () =
  { rev_events = []; metrics = Obs.Metrics.create (); fuel_per_step; meta }

let events t = Obs.Metrics.get t.metrics Obs.Names.record_appends

let append t e =
  t.rev_events <- e :: t.rev_events;
  Obs.Trace.instant t.metrics Obs.Names.record_appends (events t + 1) 0

let stop_code (stop : Libos.stop) : Log.stop =
  match stop with
  | Libos.Guess { n } -> Log.Guess n
  | Libos.Guess_fail -> Log.Guess_fail
  | Libos.Guess_strategy { strategy } -> Log.Strategy strategy
  | Libos.Guess_hint { dist } -> Log.Hint dist
  | Libos.Exited { status } -> Log.Exit status
  | Libos.Killed r -> Log.Kill (Format.asprintf "%a" Libos.pp_reason r)

let probe t : Probe.t =
  { Probe.eval =
      (fun ~retired stop ->
        append t (Log.Eval { retired; stop = stop_code stop }));
    crash =
      (fun ~retired msg -> append t (Log.Eval { retired; stop = Log.Crash msg }));
    capture = (fun ~snap -> append t (Log.Capture { snap }));
    resume = (fun ~snap ~rax -> append t (Log.Resume { snap; rax }));
    set_rax = (fun v -> append t (Log.Set_rax v)) }

let install t m =
  Libos.set_sys_hook m (Some (fun number ret -> append t (Log.Sys { number; ret })))

let log t =
  { Log.fuel_per_step = t.fuel_per_step;
    meta = t.meta;
    events = List.rev t.rev_events }
