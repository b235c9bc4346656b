(* The service monitor: windows over the stats registry, burn-rate SLOs
   and the flight recorder, driven by a serialized virtual clock that
   advances by each request's observed virtual latency. The service
   notes every answered request here from its one accounting point; a
   service without a monitor behaves (and reports) exactly as before. *)

type t = {
  stats : Stats.t;
  recorder : Recorder.t;
  latency_slo : Obs.Slo.t;
  sdc_slo : Obs.Slo.t;
  goodput_slo : Obs.Slo.t;
  latency_mult : float;
      (* a request is latency-good when its observed virtual time stays
         within this multiple of the static-cost prediction *)
  snapshot_every : int;  (* metric-snapshot cadence, in requests *)
  mutable now_us : float;  (* serialized virtual clock *)
  mutable requests : int;
  mutable pending_eject : string list;
      (* ejections land mid-request, before the recorder notes it;
         deferred so the bundle's trigger request is the right one *)
  (* what the stats lack: outcomes, virtual latency by class, and the
     brownout, queue-depth and fleet-active gauges *)
  req_ok : Obs.Metrics.counter;
  req_err : Obs.Metrics.counter;
  lat_interactive : Obs.Metrics.histogram;
  lat_batch : Obs.Metrics.histogram;
  brownout_g : Obs.Metrics.gauge;
  queue_depth_g : Obs.Metrics.gauge;
  fleet_active : Obs.Metrics.gauge;
}

(* inputs at or below this size feed the latency SLO *)
let interactive_max = 65536

let create ?(latency_mult = 3.0) ?(snapshot_every = 32)
    ?(latency_target = 0.97) (stats : Stats.t) : t =
  let reg = Stats.metrics stats in
  let slo ~description ~target name =
    Obs.Slo.create (Obs.Slo.objective ~description ~target name)
  in
  let m =
    {
      stats;
      recorder = Recorder.create ();
      latency_slo =
        slo ~description:"interactive latency within the static-cost envelope"
          ~target:latency_target "latency";
      sdc_slo =
        slo ~description:"confirmed silent corruptions (zero budget)"
          ~target:1.0 "sdc";
      goodput_slo =
        slo ~description:"requests served exactly, neither degraded nor errored"
          ~target:0.95 "goodput";
      latency_mult;
      snapshot_every = max 1 snapshot_every;
      now_us = 0.0;
      requests = 0;
      pending_eject = [];
      req_ok =
        Obs.Metrics.counter reg ~help:"requests answered"
          ~labels:[ ("outcome", "ok") ]
          "tangram_monitor_requests_total";
      req_err =
        Obs.Metrics.counter reg
          ~labels:[ ("outcome", "error") ]
          "tangram_monitor_requests_total";
      lat_interactive =
        Obs.Metrics.histogram reg ~help:"virtual request latency"
          ~labels:[ ("class", "interactive") ]
          "tangram_monitor_latency_us";
      lat_batch =
        Obs.Metrics.histogram reg
          ~labels:[ ("class", "batch") ]
          "tangram_monitor_latency_us";
      brownout_g =
        Obs.Metrics.gauge reg ~help:"active brownout level"
          "tangram_monitor_brownout_level";
      queue_depth_g =
        Obs.Metrics.gauge reg ~help:"admission queue depth"
          "tangram_monitor_queue_depth";
      fleet_active =
        Obs.Metrics.gauge reg ~help:"devices actively serving"
          "tangram_monitor_fleet_active";
    }
  in
  (* the ring's base snapshot: the first real snapshot diffs against it *)
  Obs.Metrics.snapshot reg ~now_us:0.0;
  m

let recorder (m : t) : Recorder.t = m.recorder

let slos (m : t) : (string * Obs.Slo.t) list =
  [ ("latency", m.latency_slo); ("sdc", m.sdc_slo); ("goodput", m.goodput_slo) ]

let now_us (m : t) : float = m.now_us
let snapshot (m : t) : unit = Obs.Metrics.snapshot (Stats.metrics m.stats) ~now_us:m.now_us

(* the admission queue lives above the service; the monitor owns its
   depth gauge *)
let queue_depth (m : t) (depth : int) : unit =
  Obs.Metrics.set m.queue_depth_g (float_of_int depth)

let eject (m : t) (device : string) : unit =
  m.pending_eject <- device :: m.pending_eject

(* ------------------------------------------------------------------ *)
(* Incident bundles                                                    *)
(* ------------------------------------------------------------------ *)

let fleet_table_json (fl : Fleet.t) : Obs.Json.t =
  Obs.Json.Arr
    (List.map
       (fun d ->
         Obs.Json.Obj
           [
             ("device", Obs.Json.Str (Fleet.label d));
             ("state", Obs.Json.Str (Fleet.state_name (Fleet.dev_state d)));
             ("health", Obs.Json.Num (Fleet.health d));
             ("dispatches", Obs.Json.Num (float_of_int (Fleet.dispatches d)));
           ])
       (Fleet.devices fl))

let window_json (w : Obs.Metrics.window) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("from_us", Obs.Json.Num w.Obs.Metrics.w_from_us);
      ("to_us", Obs.Json.Num w.Obs.Metrics.w_to_us);
      ( "rows",
        Obs.Json.Arr
          (List.map
             (fun (r : Obs.Metrics.window_row) ->
               Obs.Json.Obj
                 ([
                    ("name", Obs.Json.Str r.wr_name);
                    ("kind", Obs.Json.Str (Obs.Metrics.kind_name r.wr_kind));
                    ( "labels",
                      Obs.Json.Obj
                        (List.map
                           (fun (k, v) -> (k, Obs.Json.Str v))
                           r.wr_labels) );
                    ("value", Obs.Json.Num r.wr_value);
                  ]
                 @
                 if r.wr_kind = Obs.Metrics.Histogram then
                   [
                     ("sum", Obs.Json.Num r.wr_sum);
                     ("p50", Obs.Json.Num r.wr_p50);
                     ("p95", Obs.Json.Num r.wr_p95);
                   ]
                 else []))
             w.Obs.Metrics.w_rows) );
    ]

let dump_incident (m : t) ~(brownout : int) ~(fleet : Fleet.t option)
    (trigger : Recorder.trigger) : unit =
  Stats.incident m.stats ~kind:(Recorder.trigger_kind trigger);
  (* freeze a window boundary so the bundle's metrics run up to the
     trigger *)
  let reg = Stats.metrics m.stats in
  Obs.Metrics.snapshot reg ~now_us:m.now_us;
  let metrics =
    match List.rev (Obs.Metrics.windows reg) with
    | w :: _ -> window_json w
    | [] -> Obs.Json.Null
  in
  let fleet =
    match fleet with Some fl -> fleet_table_json fl | None -> Obs.Json.Null
  in
  let slos =
    Obs.Json.Arr
      (List.map (fun (_, s) -> Obs.Slo.state_json s ~now_us:m.now_us) (slos m))
  in
  let inc =
    Recorder.dump m.recorder ~now_us:m.now_us ~trigger ~slos ~fleet ~brownout
      ~metrics ()
  in
  Obs.Log.warn
    ~fields:
      [
        ("code", "TOBS002");
        ("trigger", Recorder.trigger_kind trigger);
        ("seq", string_of_int inc.Recorder.in_seq);
      ]
    "flight recorder dumped an incident bundle (trigger %s)"
    (Recorder.trigger_kind trigger)

(* ------------------------------------------------------------------ *)
(* The per-request step                                                *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Served of { latency_us : float; predicted_us : float; degraded : bool }
  | Failed of string

(* Run inside the request's root span (so the recorder captures the
   right trace id): note the record, settle deferred corruption and
   ejection verdicts, feed the SLOs, step the alert state machines and
   snapshot on cadence. *)
let note (m : t) ~(arch : string) ~(n : int) ~(sdc_confirmed : int)
    ~(brownout : int) ~(fleet : Fleet.t option) (outcome : outcome) : unit =
  let caught_sdc = sdc_confirmed > 0 in
  let latency_us, predicted_us, label =
    match outcome with
    | Served s ->
        ( s.latency_us,
          s.predicted_us,
          if caught_sdc then "sdc-caught"
          else if s.degraded then "degraded"
          else "ok" )
    | Failed kind -> (0.0, 0.0, kind)
  in
  m.requests <- m.requests + 1;
  m.now_us <- m.now_us +. Float.max latency_us 1.0;
  ignore
    (Recorder.note m.recorder ~now_us:m.now_us ~arch ~n ~predicted_us
       ~latency_us ~outcome:label);
  let dump = dump_incident m ~brownout ~fleet in
  (* corruption verdicts were deferred to here so the record above is
     the bundle's trigger request *)
  if caught_sdc then begin
    for _ = 1 to sdc_confirmed do
      Obs.Slo.observe m.sdc_slo ~now_us:m.now_us ~good:false
    done;
    dump Recorder.Sdc
  end
  else Obs.Slo.observe m.sdc_slo ~now_us:m.now_us ~good:true;
  let interactive = n <= interactive_max in
  (match outcome with
  | Served s ->
      Obs.Metrics.inc m.req_ok;
      Obs.Metrics.observe
        (if interactive then m.lat_interactive else m.lat_batch)
        latency_us;
      if interactive then
        Obs.Slo.observe m.latency_slo ~now_us:m.now_us
          ~good:
            (predicted_us <= 0.0 || latency_us <= m.latency_mult *. predicted_us);
      Obs.Slo.observe m.goodput_slo ~now_us:m.now_us ~good:(not s.degraded)
  | Failed _ ->
      Obs.Metrics.inc m.req_err;
      Obs.Slo.observe m.goodput_slo ~now_us:m.now_us ~good:false);
  Obs.Metrics.set m.brownout_g (float_of_int brownout);
  Option.iter
    (fun fl ->
      Obs.Metrics.set m.fleet_active
        (float_of_int
           (List.length
              (List.filter
                 (fun d -> Fleet.dev_state d = Fleet.Active)
                 (Fleet.devices fl)))))
    fleet;
  List.iter
    (fun (name, slo) ->
      match Obs.Slo.evaluate slo ~now_us:m.now_us with
      | Some (Obs.Slo.Fired burn) ->
          Stats.alert m.stats ~slo:name;
          Obs.Trace.mark ~attrs:[ ("slo", name) ] "slo.fired";
          Obs.Log.warn
            ~fields:
              [
                ("code", "TOBS001");
                ("slo", name);
                ("fast_burn", Printf.sprintf "%.2f" burn.Obs.Slo.br_fast);
                ("slow_burn", Printf.sprintf "%.2f" burn.Obs.Slo.br_slow);
              ]
            "SLO burn-rate alert fired: %s" name;
          dump (Recorder.Alert name)
      | Some (Obs.Slo.Resolved _) ->
          Obs.Log.info ~fields:[ ("slo", name) ] "SLO alert resolved: %s" name
      | None -> ())
    (slos m);
  (* ejections recorded mid-request surface as their own bundles once
     the triggering request is in the ring *)
  List.iter (fun dev -> dump (Recorder.Eject dev)) (List.rev m.pending_eject);
  m.pending_eject <- [];
  if m.requests mod m.snapshot_every = 0 then snapshot m
