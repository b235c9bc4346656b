(* Service metrics: cache hit/miss counts per bucket, plan/tune/run
   latency histograms, eviction and batching counters, a
   winning-version histogram, and the fault, SDC, overload, fleet,
   monitoring and kernel-profile series.

   One always-on [Obs.Metrics] registry is the only store: every
   recorder updates an instrument in it, and the text report, its JSON
   twin and the Prometheus exposition all read it back. Labelled series
   (per bucket, version, device, kernel) register on their first event,
   and so do the families of the gated fleet and monitoring sections,
   so a service that never fires them exposes and reports exactly what
   it always did. *)

module M = Obs.Metrics
module J = Obs.Json

type series = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

type t = {
  reg : M.t;
  fleet : unit Lazy.t;
      (* registers the fleet section's families; forced by any fleet
         event *)
  monitoring : unit Lazy.t;  (* the same for the first alert or incident *)
}

let create () : t =
  let reg = M.create () in
  let counters =
    List.iter (fun (name, labels) -> ignore (M.counter reg ~labels name))
  in
  let plain = List.map (fun name -> (name, [])) in
  let per_class name =
    [ (name, [ ("class", "interactive") ]); (name, [ ("class", "batch") ]) ]
  in
  counters
    (plain
       [
         "tangram_cache_hits_total"; "tangram_cache_misses_total";
         "tangram_cache_evictions_total"; "tangram_batches_total";
         "tangram_coalesced_requests_total"; "tangram_retries_total";
         "tangram_faults_total"; "tangram_quarantines_total";
         "tangram_fallback_serves_total"; "tangram_degraded_serves_total";
         "tangram_bad_requests_total"; "tangram_backoff_simulated_us_total";
         "tangram_sdc_checks_total"; "tangram_sdc_catches_total";
         "tangram_sdc_reexecs_total"; "tangram_sdc_false_alarms_total";
         "tangram_deadline_expiries_total";
         "tangram_deadline_witness_serves_total";
         "tangram_brownout_transitions_total";
       ]
    @ per_class "tangram_admitted_total"
    @ per_class "tangram_shed_total");
  ignore (M.gauge reg "tangram_brownout_max_level");
  List.iter
    (fun stage ->
      ignore
        (M.histogram reg ~labels:[ ("stage", stage) ] "tangram_latency_us"))
    [ "plan"; "tune"; "run"; "verify"; "queue_wait" ];
  let section families = lazy (counters families) in
  {
    reg;
    fleet =
      section
        (plain
           [
             "tangram_fleet_dispatches_total";
             "tangram_fleet_reroutes_total";
             "tangram_fleet_ejections_total";
             "tangram_fleet_readmissions_total";
             "tangram_fleet_dead_total";
             "tangram_fleet_drains_total";
             "tangram_fleet_promotions_total";
           ]
        @ [
            ("tangram_fleet_hedges_total", [ ("outcome", "fired") ]);
            ("tangram_fleet_hedges_total", [ ("outcome", "won") ]);
          ]);
    monitoring =
      section (plain [ "tangram_slo_alerts_total"; "tangram_incidents_total" ]);
  }

let metrics (t : t) : M.t = t.reg

let inc ?labels ?by (t : t) (name : string) : unit =
  M.inc ?by (M.counter t.reg ?labels name)

(* readers register nothing: a series that never fired reads 0 *)
let read ?(labels = []) (t : t) (name : string) : float =
  Option.value ~default:0.0 (List.assoc_opt labels (M.family t.reg name))

let value ?labels t name = int_of_float (read ?labels t name)

(* (label value, count) rows of a family's one-label series, sorted by
   the label value *)
let rows (t : t) (name : string) : (string * int) list =
  List.filter_map
    (function [ (_, l) ], v -> Some (l, int_of_float v) | _ -> None)
    (M.family t.reg name)

let most_first rows =
  List.sort (fun (va, a) (vb, b) -> compare (b, va) (a, vb)) rows

let latency (t : t) (stage : string) : M.histogram =
  M.histogram t.reg ~labels:[ ("stage", stage) ] "tangram_latency_us"

let cls interactive =
  [ ("class", if interactive then "interactive" else "batch") ]

let dev device = [ ("device", device) ]

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* a bucket's hit and miss series appear together: they are one report
   row *)
let lookup (t : t) ~(bucket : string) ~(hit : bool) : unit =
  let series result =
    M.counter t.reg
      ~labels:[ ("bucket", bucket); ("result", result) ]
      "tangram_bucket_lookups_total"
  in
  let h = series "hit" and m = series "miss" in
  M.inc (if hit then h else m)

let hit t ~bucket =
  inc t "tangram_cache_hits_total";
  lookup t ~bucket ~hit:true

let miss t ~bucket =
  inc t "tangram_cache_misses_total";
  lookup t ~bucket ~hit:false

let eviction t = inc t "tangram_cache_evictions_total"

let winner t version =
  inc t ~labels:[ ("version", version) ] "tangram_requests_served_total"

let plan_us t x = M.observe (latency t "plan") x
let tune_us t x = M.observe (latency t "tune") x
let run_us t x = M.observe (latency t "run") x

let batch t ~coalesced =
  inc t "tangram_batches_total";
  inc t ~by:(float_of_int coalesced) "tangram_coalesced_requests_total"

let retry t = inc t "tangram_retries_total"

let fault t ~version =
  inc t "tangram_faults_total";
  inc t ~labels:[ ("version", version) ] "tangram_version_faults_total"

let quarantine t = inc t "tangram_quarantines_total"
let fallback t = inc t "tangram_fallback_serves_total"
let degrade t = inc t "tangram_degraded_serves_total"
let bad_request t = inc t "tangram_bad_requests_total"
let backoff_us t x = inc t ~by:x "tangram_backoff_simulated_us_total"
let sdc_check t = inc t "tangram_sdc_checks_total"
let sdc_catch t = inc t "tangram_sdc_catches_total"
let sdc_false_alarm t = inc t "tangram_sdc_false_alarms_total"
let sdc_reexec t = inc t "tangram_sdc_reexecs_total"
let verify_us t x = M.observe (latency t "verify") x

let admit t ~interactive =
  inc t ~labels:(cls interactive) "tangram_admitted_total"

let shed_request t ~interactive =
  inc t ~labels:(cls interactive) "tangram_shed_total"

let deadline_expire t = inc t "tangram_deadline_expiries_total"
let deadline_witness_serve t = inc t "tangram_deadline_witness_serves_total"

let brownout_transition t ~level =
  inc t "tangram_brownout_transitions_total";
  let peak = M.gauge t.reg "tangram_brownout_max_level" in
  if float_of_int level > M.gauge_value peak then
    M.set peak (float_of_int level)

let brownout_shed t ~what =
  inc t ~labels:[ ("work", what) ] "tangram_brownout_shed_total"

let queue_wait_us t x = M.observe (latency t "queue_wait") x

let fleet_inc ?labels t name =
  Lazy.force t.fleet;
  inc ?labels t name

let health_name = "tangram_fleet_device_health"

(* a device's report row is its health gauge plus its dispatch counter *)
let fleet_health t ~device ~state health =
  Lazy.force t.fleet;
  ignore
    (M.counter t.reg ~labels:(dev device)
       "tangram_fleet_device_dispatches_total");
  M.set
    (M.gauge t.reg ~labels:[ ("device", device); ("state", state) ] health_name)
    health

(* the health gauge carries the state as a label: a transition moves
   the device's series to the new label set *)
let fleet_state t ~device ~health state =
  List.iter
    (fun (labels, _) ->
      if List.assoc "device" labels = device then
        M.remove t.reg ~labels health_name)
    (M.family t.reg health_name);
  fleet_health t ~device ~state health

let fleet_dispatch t ~device =
  fleet_inc t "tangram_fleet_dispatches_total";
  fleet_inc t ~labels:(dev device) "tangram_fleet_device_dispatches_total"

let fleet_eject t ~device =
  fleet_inc t "tangram_fleet_ejections_total";
  fleet_inc t ~labels:(dev device) "tangram_fleet_device_ejections_total"

let fleet_readmit t ~device =
  fleet_inc t "tangram_fleet_readmissions_total";
  fleet_inc t ~labels:(dev device) "tangram_fleet_device_readmissions_total"

let fleet_dead t = fleet_inc t "tangram_fleet_dead_total"
let fleet_drain t = fleet_inc t "tangram_fleet_drains_total"
let fleet_promote t = fleet_inc t "tangram_fleet_promotions_total"
let fleet_reroute t = fleet_inc t "tangram_fleet_reroutes_total"

let fleet_hedge_fired t =
  fleet_inc t ~labels:[ ("outcome", "fired") ] "tangram_fleet_hedges_total"

let fleet_hedge_won t ~device =
  fleet_inc t ~labels:[ ("outcome", "won") ] "tangram_fleet_hedges_total";
  fleet_inc t ~labels:(dev device) "tangram_fleet_device_hedge_wins_total"

let monitoring_inc t ~label name =
  Lazy.force t.monitoring;
  inc t name;
  inc t ~labels:[ label ] name

let alert t ~slo =
  monitoring_inc t ~label:("slo", slo) "tangram_slo_alerts_total"

let incident t ~kind =
  monitoring_inc t ~label:("trigger", kind) "tangram_incidents_total"

let kernel t ~arch ~version (totals : Gpusim.Events.totals) =
  inc t
    ~labels:[ ("arch", arch); ("version", version) ]
    "tangram_kernel_requests_total";
  List.iter
    (fun (name, v) ->
      let c =
        M.counter t.reg
          ~labels:[ ("arch", arch); ("counter", name); ("version", version) ]
          "tangram_kernel_counter_total"
      in
      (* max_heat keeps the worst launch, so its counter rises with the
         running max instead of summing *)
      M.inc ~by:(if name = "max_heat" then v -. M.counter_value c else v) c)
    (Gpusim.Events.totals_fields totals)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let hits t = value t "tangram_cache_hits_total"
let misses t = value t "tangram_cache_misses_total"
let evictions t = value t "tangram_cache_evictions_total"
let batches t = value t "tangram_batches_total"
let coalesced t = value t "tangram_coalesced_requests_total"
let retries t = value t "tangram_retries_total"
let faults t = value t "tangram_faults_total"
let quarantines t = value t "tangram_quarantines_total"
let fallbacks t = value t "tangram_fallback_serves_total"
let degraded t = value t "tangram_degraded_serves_total"
let bad_requests t = value t "tangram_bad_requests_total"
let backoff_total_us t = read t "tangram_backoff_simulated_us_total"
let sdc_checks t = value t "tangram_sdc_checks_total"
let sdc_catches t = value t "tangram_sdc_catches_total"
let sdc_false_alarms t = value t "tangram_sdc_false_alarms_total"
let sdc_reexecs t = value t "tangram_sdc_reexecs_total"

let admitted t ~interactive =
  value t ~labels:(cls interactive) "tangram_admitted_total"

let sheds_interactive t = value t ~labels:(cls true) "tangram_shed_total"
let sheds_batch t = value t ~labels:(cls false) "tangram_shed_total"
let deadline_expiries t = value t "tangram_deadline_expiries_total"
let deadline_witness_serves t = value t "tangram_deadline_witness_serves_total"
let brownout_transitions t = value t "tangram_brownout_transitions_total"
let brownout_max_level t = value t "tangram_brownout_max_level"
let brownout_sheds t = rows t "tangram_brownout_shed_total"

(* the gate of the report's overload section: admission alone (requests
   flowing through the queue at zero load) is not an overload event *)
let overload_fired t =
  sheds_interactive t + sheds_batch t + deadline_expiries t
  + deadline_witness_serves t + brownout_transitions t
  > 0

let fleet_dispatches t = value t "tangram_fleet_dispatches_total"
let fleet_reroutes t = value t "tangram_fleet_reroutes_total"

let fleet_hedges_fired t =
  value t ~labels:[ ("outcome", "fired") ] "tangram_fleet_hedges_total"

let fleet_hedges_won t =
  value t ~labels:[ ("outcome", "won") ] "tangram_fleet_hedges_total"

let fleet_ejects t = value t "tangram_fleet_ejections_total"
let fleet_readmits t = value t "tangram_fleet_readmissions_total"
let fleet_deaths t = value t "tangram_fleet_dead_total"
let fleet_promotions t = value t "tangram_fleet_promotions_total"

(* the gate of the report's fleet section: a service with no fleet
   attached never records a fleet event *)
let fleet_fired t = Lazy.is_val t.fleet

(* per-device rows (device, state, health, per-device counter reader),
   sorted by device *)
let fleet_rows t =
  List.map
    (fun (labels, health) ->
      let device = List.assoc "device" labels in
      let per name = value t ~labels:(dev device) name in
      (device, List.assoc "state" labels, health, per))
    (M.family t.reg health_name)

let incidents t = value t "tangram_incidents_total"
let winner_histogram t = most_first (rows t "tangram_requests_served_total")

(* p50/p95 read the log buckets (relative error <= 2^(1/8) - 1); the
   max is exact *)
let series_of t stage : series =
  let h = latency t stage in
  match M.hist_count h with
  | 0 -> { count = 0; mean = 0.0; p50 = 0.0; p95 = 0.0; max = 0.0 }
  | count ->
      {
        count;
        mean = M.hist_sum h /. float_of_int count;
        p50 = M.quantile h 50.0;
        p95 = M.quantile h 95.0;
        max = M.quantile h 100.0;
      }

let verify_series t = series_of t "verify"

let kernel_rows t =
  let counters = M.family t.reg "tangram_kernel_counter_total" in
  List.map
    (fun (labels, requests) ->
      let arch = List.assoc "arch" labels in
      let version = List.assoc "version" labels in
      let field name =
        List.assoc
          [ ("arch", arch); ("counter", name); ("version", version) ]
          counters
      in
      ( (arch, version),
        (int_of_float requests, Gpusim.Events.totals_of_fields field) ))
    (M.family t.reg "tangram_kernel_requests_total")

(* each bucket's hit row sorts right before its miss row *)
let bucket_counts t =
  let rec pairs = function
    | ([ (_, bucket); _ ], h) :: (_, m) :: rest ->
        (bucket, (int_of_float h, int_of_float m)) :: pairs rest
    | _ -> []
  in
  pairs (M.family t.reg "tangram_bucket_lookups_total")

let report (t : t) : string =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "=== service metrics ===\n";
  let hits = hits t and misses = misses t in
  let lookups = hits + misses in
  pr "cache: %d lookups, %d hits, %d misses (%.1f%% hit rate), %d evictions\n"
    lookups hits misses
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int lookups)
    (evictions t);
  if batches t > 0 then
    pr "batching: %d batches dispatched, %d requests coalesced\n" (batches t)
      (coalesced t);
  pr "\nper-bucket lookups (hits/misses):\n";
  List.iter
    (fun (bucket, (h, m)) -> pr "  %-40s %6d / %d\n" bucket h m)
    (bucket_counts t);
  (* a bucket with no samples renders "-", not a misleading 0.0 *)
  let line stage =
    let s = series_of t stage in
    if s.count > 0 then
      pr "  %-6s %6d samples   p50 %10.1f us   p95 %10.1f us   max %10.1f us\n"
        stage s.count s.p50 s.p95 s.max
    else
      pr "  %-6s %6d samples   p50 %10s us   p95 %10s us   max %10s us\n" stage
        0 "-" "-" "-"
  in
  pr "\nlatencies (host wall clock):\n";
  List.iter line [ "plan"; "tune"; "run" ];
  pr "\nwinning versions (requests served):\n";
  List.iter (fun (v, n) -> pr "  %-34s %6d\n" v n) (winner_histogram t);
  (* the fault-tolerance section appears only once something failed, so a
     fault-free service prints exactly the report it always did *)
  if
    faults t + retries t + quarantines t + fallbacks t + degraded t
    + bad_requests t
    > 0
  then begin
    pr "\nfault tolerance:\n";
    pr "  faults %d   retries %d   backoff (simulated) %.1f us\n" (faults t)
      (retries t) (backoff_total_us t);
    pr "  quarantine events %d   fallback serves %d   degraded serves %d   bad requests %d\n"
      (quarantines t) (fallbacks t) (degraded t) (bad_requests t);
    match most_first (rows t "tangram_version_faults_total") with
    | [] -> ()
    | hist ->
        pr "  faults by version:\n";
        List.iter (fun (v, n) -> pr "    %-32s %6d\n" v n) hist
  end;
  (* like the fault section, the guard section appears only once a check
     actually tripped (catch, false alarm or re-execution) — a clean run
     prints exactly the report it always did, even with the guard on *)
  if sdc_catches t + sdc_false_alarms t + sdc_reexecs t > 0 then begin
    pr "\nsilent-data-corruption guard:\n";
    pr "  checks %d   caught %d   re-executions %d   false alarms %d (%.2f%% of checks)\n"
      (sdc_checks t) (sdc_catches t) (sdc_reexecs t) (sdc_false_alarms t)
      (if sdc_checks t = 0 then 0.0
       else
         100.0
         *. float_of_int (sdc_false_alarms t)
         /. float_of_int (sdc_checks t));
    let v = verify_series t in
    if v.count > 0 then
      pr "  verify overhead: p50 %.1f us   p95 %.1f us   max %.1f us\n" v.p50
        v.p95 v.max
  end;
  (* the overload section appears only once the admission layer shed,
     expired or browned-out something: a replay through the admission
     queue at zero load (no overload machinery firing) prints exactly
     the report it always did *)
  if overload_fired t then begin
    let ai = admitted t ~interactive:true in
    let ab = admitted t ~interactive:false in
    pr "\noverload resilience:\n";
    pr "  admitted %d (interactive %d, batch %d)   shed %d (interactive %d, batch %d)\n"
      (ai + ab) ai ab
      (sheds_interactive t + sheds_batch t)
      (sheds_interactive t) (sheds_batch t);
    pr "  deadline expiries %d   degraded witness serves %d\n"
      (deadline_expiries t) (deadline_witness_serves t);
    pr "  brownout transitions %d   max level %d\n" (brownout_transitions t)
      (brownout_max_level t);
    (match brownout_sheds t with
    | [] -> ()
    | sheds ->
        pr "  work shed under brownout:\n";
        List.iter (fun (w, n) -> pr "    %-32s %6d\n" w n) sheds);
    let q = series_of t "queue_wait" in
    if q.count > 0 then
      pr "  queue wait (virtual): p50 %.1f us   p95 %.1f us   max %.1f us\n"
        q.p50 q.p95 q.max
  end;
  (* the fleet section appears only once a fleet routed, hedged or
     transitioned something — a fleet-less service prints exactly the
     report it always did *)
  if fleet_fired t then begin
    pr "\ndevice fleet:\n";
    pr "  dispatches %d   rerouted off dying devices %d   hedges fired %d / won %d\n"
      (fleet_dispatches t) (fleet_reroutes t) (fleet_hedges_fired t)
      (fleet_hedges_won t);
    pr "  ejections %d   readmissions %d   dead %d   drains %d   spare promotions %d\n"
      (fleet_ejects t) (fleet_readmits t) (fleet_deaths t)
      (value t "tangram_fleet_drains_total")
      (fleet_promotions t);
    match fleet_rows t with
    | [] -> ()
    | rows ->
        pr "  per-device:\n";
        List.iter
          (fun (device, state, health, per) ->
            pr "    %-24s %-8s dispatches %6d   hedge wins %4d   health %.2f\n"
              device state
              (per "tangram_fleet_device_dispatches_total")
              (per "tangram_fleet_device_hedge_wins_total")
              health)
          rows
  end;
  (* the monitoring section appears only once an SLO alert fired or the
     flight recorder dumped — an attached-but-healthy monitor prints
     exactly the report it always did *)
  if Lazy.is_val t.monitoring then begin
    pr "\nmonitoring:\n";
    pr "  slo alerts %d   incident bundles %d\n"
      (value t "tangram_slo_alerts_total")
      (incidents t);
    (match rows t "tangram_slo_alerts_total" with
    | [] -> ()
    | rows ->
        pr "  alerts by slo:\n";
        List.iter (fun (s, n) -> pr "    %-32s %6d\n" s n) rows);
    match rows t "tangram_incidents_total" with
    | [] -> ()
    | rows ->
        pr "  incidents by trigger:\n";
        List.iter (fun (k, n) -> pr "    %-32s %6d\n" k n) rows
  end;
  (* the profiler section appears only when the service aggregated kernel
     counters (profiling is off by default), keeping the default report
     byte-identical *)
  (match kernel_rows t with
  | [] -> ()
  | rows ->
      pr "\nkernel counters (per arch, version):\n";
      pr "  %-10s %-26s %8s %12s %10s %12s %12s %10s %14s\n" "arch" "version"
        "requests" "warp insts" "shfl" "shared ser" "glb atomics" "max heat"
        "dram bytes";
      List.iter
        (fun ((arch, version), (requests, tot)) ->
          pr "  %-10s %-26s %8d %12.0f %10.0f %12.0f %12.0f %10.0f %14.0f\n"
            arch version requests tot.Gpusim.Events.t_warp_insts
            tot.Gpusim.Events.t_shfl_insts tot.Gpusim.Events.t_shared_serial
            tot.Gpusim.Events.t_atomic_global_ops tot.Gpusim.Events.t_max_heat
            tot.Gpusim.Events.t_bytes_dram)
        rows);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Machine-readable twins of the report                                *)
(* ------------------------------------------------------------------ *)

let series_json (s : series) : J.t =
  J.Obj
    [
      ("count", J.Num (float_of_int s.count));
      ("mean", J.Num s.mean);
      ("p50", J.Num s.p50);
      ("p95", J.Num s.p95);
      ("max", J.Num s.max);
    ]

(** One JSON object mirroring {!report}, with a stable key order —
    emitting it twice from the same stats yields identical strings. *)
let to_json (t : t) : string =
  let int n = J.Num (float_of_int n) in
  let pairs key label rows =
    J.Arr
      (List.map (fun (l, n) -> J.Obj [ (key, J.Str l); (label, int n) ]) rows)
  in
  J.to_string
    (J.Obj
       [
         ( "cache",
           J.Obj
             [
               ("lookups", int (hits t + misses t));
               ("hits", int (hits t));
               ("misses", int (misses t));
               ("evictions", int (evictions t));
             ] );
         ( "batching",
           J.Obj
             [ ("batches", int (batches t)); ("coalesced", int (coalesced t)) ]
         );
         ( "buckets",
           J.Arr
             (List.map
                (fun (bucket, (h, m)) ->
                  J.Obj
                    [
                      ("bucket", J.Str bucket);
                      ("hits", int h);
                      ("misses", int m);
                    ])
                (bucket_counts t)) );
         ( "latencies_us",
           J.Obj
             (List.map
                (fun stage -> (stage, series_json (series_of t stage)))
                [ "plan"; "tune"; "run"; "verify" ]) );
         ("winners", pairs "version" "served" (winner_histogram t));
         ( "fault_tolerance",
           J.Obj
             [
               ("faults", int (faults t));
               ("retries", int (retries t));
               ("backoff_us", J.Num (backoff_total_us t));
               ("quarantines", int (quarantines t));
               ("fallbacks", int (fallbacks t));
               ("degraded", int (degraded t));
               ("bad_requests", int (bad_requests t));
               ( "by_version",
                 pairs "version" "faults"
                   (most_first (rows t "tangram_version_faults_total")) );
             ] );
         ( "sdc",
           J.Obj
             [
               ("checks", int (sdc_checks t));
               ("catches", int (sdc_catches t));
               ("reexecs", int (sdc_reexecs t));
               ("false_alarms", int (sdc_false_alarms t));
             ] );
         ( "overload",
           J.Obj
             [
               ("admitted_interactive", int (admitted t ~interactive:true));
               ("admitted_batch", int (admitted t ~interactive:false));
               ("shed_interactive", int (sheds_interactive t));
               ("shed_batch", int (sheds_batch t));
               ("deadline_expiries", int (deadline_expiries t));
               ("deadline_witness_serves", int (deadline_witness_serves t));
               ("brownout_transitions", int (brownout_transitions t));
               ("brownout_max_level", int (brownout_max_level t));
               ("brownout_sheds", pairs "work" "shed" (brownout_sheds t));
               ("queue_wait_us", series_json (series_of t "queue_wait"));
             ] );
         ( "fleet",
           J.Obj
             [
               ("dispatches", int (fleet_dispatches t));
               ("reroutes", int (fleet_reroutes t));
               ("hedges_fired", int (fleet_hedges_fired t));
               ("hedges_won", int (fleet_hedges_won t));
               ("ejections", int (fleet_ejects t));
               ("readmissions", int (fleet_readmits t));
               ("dead", int (fleet_deaths t));
               ("drains", int (value t "tangram_fleet_drains_total"));
               ("promotions", int (fleet_promotions t));
               ( "devices",
                 J.Arr
                   (List.map
                      (fun (device, state, health, per) ->
                        let per name =
                          int (per ("tangram_fleet_device_" ^ name ^ "_total"))
                        in
                        J.Obj
                          [
                            ("device", J.Str device);
                            ("state", J.Str state);
                            ("dispatches", per "dispatches");
                            ("hedge_wins", per "hedge_wins");
                            ("ejections", per "ejections");
                            ("readmissions", per "readmissions");
                            ("health", J.Num health);
                          ])
                      (fleet_rows t)) );
             ] );
         ( "monitoring",
           J.Obj
             [
               ("alerts", int (value t "tangram_slo_alerts_total"));
               ("incidents", int (incidents t));
               ( "by_slo",
                 pairs "slo" "alerts" (rows t "tangram_slo_alerts_total") );
               ( "by_trigger",
                 pairs "trigger" "incidents" (rows t "tangram_incidents_total")
               );
             ] );
         ( "kernels",
           J.Arr
             (List.map
                (fun ((arch, version), (requests, tot)) ->
                  J.Obj
                    (("arch", J.Str arch) :: ("version", J.Str version)
                    :: ("requests", int requests)
                    :: List.map
                         (fun (k, v) -> (k, J.Num v))
                         (Gpusim.Events.totals_fields tot)))
                (kernel_rows t)) );
       ])

let to_prometheus (t : t) : string = M.to_prometheus t.reg
