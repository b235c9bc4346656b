(* Observability flags shared by tangramc's serve and monitor commands:
   --log-level/--log-json for the structured logger, --trace-out for
   Chrome trace export, --metrics-out for a Prometheus dump,
   --stats-json for the machine-readable report twin, --kernel-counters
   for per-request profiling. Each command composes [term] into its own
   command line. *)

open Cmdliner

type t = {
  log_level : string;
  log_json : bool;
  trace_out : string option;
  metrics_out : string option;
  stats_json : bool;
  kernel_counters : bool;
}

let log_level_arg =
  let doc = "Log level: error, warn, info or debug." in
  Arg.(value & opt string "warn" & info [ "log-level" ] ~doc ~docv:"LEVEL")

let log_json_arg =
  let doc = "Emit log records as JSON lines instead of text." in
  Arg.(value & flag & info [ "log-json" ] ~doc)

let trace_out_arg =
  let doc =
    "Enable tracing and write a Chrome trace_event JSON file on exit \
     (loadable in Perfetto / chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let metrics_out_arg =
  let doc = "Write the service metrics as Prometheus text exposition on exit." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let stats_json_arg =
  let doc = "Print the service metrics as one JSON object instead of text." in
  Arg.(value & flag & info [ "stats-json" ] ~doc)

let kernel_counters_arg =
  let doc =
    "Aggregate simulator kernel counters per (arch, version) and include \
     them in the metrics report."
  in
  Arg.(value & flag & info [ "kernel-counters" ] ~doc)

let term : t Term.t =
  let mk log_level log_json trace_out metrics_out stats_json kernel_counters =
    { log_level; log_json; trace_out; metrics_out; stats_json; kernel_counters }
  in
  Term.(
    const mk $ log_level_arg $ log_json_arg $ trace_out_arg $ metrics_out_arg
    $ stats_json_arg $ kernel_counters_arg)

(** Configure the logger and tracer from the parsed flags. Exits with a
    usage error (2) on an unknown log level, matching cmdliner's own
    convention. *)
let setup ~(exe : string) (t : t) : unit =
  (match Tangram.Obs.Log.level_of_string t.log_level with
  | Some l -> Tangram.Obs.Log.set_level l
  | None ->
      Printf.eprintf "%s: unknown log level %S (error|warn|info|debug)\n" exe
        t.log_level;
      exit 2);
  Tangram.Obs.Log.set_json t.log_json;
  if t.trace_out <> None then Tangram.Obs.Trace.set_enabled true

(** Write the trace file, if one was requested. A ring that overwrote
    events makes the export known-incomplete: warn (TOBS003) so nobody
    mistakes a truncated trace for the whole story. *)
let save_trace (t : t) : unit =
  match t.trace_out with
  | None -> ()
  | Some path ->
      Tangram.Obs.Trace.save path;
      let dropped = Tangram.Obs.Trace.dropped () in
      if dropped > 0 then
        Tangram.Obs.Log.warn
          ~fields:
            [ ("code", "TOBS003"); ("dropped", string_of_int dropped) ]
          "trace ring overflowed: exported trace is missing %d events"
          dropped;
      Printf.printf "wrote trace (%d events%s) to %s\n"
        (List.length (Tangram.Obs.Trace.events ()))
        (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")
        path

(** Write the Prometheus exposition, if one was requested. A monitored
    service's exposition carries its windowed families too. *)
let write_metrics (t : t) (stats : Tangram.Stats.t) : unit =
  match t.metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Tangram.Stats.to_prometheus stats);
      close_out oc;
      Printf.printf "wrote metrics to %s\n" path

(** The metrics report in the selected form (JSON object or the text
    report), newline-terminated. *)
let render_report (t : t) (stats : Tangram.Stats.t) : string =
  if t.stats_json then Tangram.Stats.to_json stats ^ "\n"
  else Tangram.Stats.report stats
