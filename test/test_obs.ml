(* Observability tests: the span tracer (nesting, trace-id propagation,
   ring overflow, Chrome trace_event export + validator, golden file),
   the leveled logger (filtering, fields, JSON lines), the per-request
   kernel profiler (Stats aggregation, profile-table consistency with
   the simulator's counters), and the machine-readable Stats twins
   (JSON and Prometheus exposition).

   The service-level tests replay real requests through Runtime.Service
   with fault / bit-flip injection armed and assert the recorded span
   forest accounts for every retry, fallback descent, witness check and
   redundant re-execution the counters report. *)

module V = Synthesis.Version
module P = Synthesis.Planner
module Service = Runtime.Service
module Monitor = Runtime.Monitor
module Stats = Runtime.Stats
module R = Gpusim.Runner
module Fault = Gpusim.Fault
module Trace = Obs.Trace
module Log = Obs.Log
module J = Obs.Json

let arch = Gpusim.Arch.kepler_k40c

let plan = lazy (P.sum ())

let dense n = R.Dense (Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8)))

let request input = { Service.req_arch = arch; req_input = input }

let parse_json s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON: %s" e

let get name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" name

let str j =
  match J.to_str j with Some s -> s | None -> Alcotest.fail "not a string"

let num j =
  match J.to_float j with Some f -> f | None -> Alcotest.fail "not a number"

let arr j =
  match J.to_list j with Some l -> l | None -> Alcotest.fail "not an array"

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* A deterministic microsecond clock: 0, 1, 2, ... *)
let fake_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

let wall_clock () = Unix.gettimeofday () *. 1e6

(* Run [f] with tracing enabled on a fresh ring and a clean tracer
   afterwards, whatever happens. *)
let with_tracing ?clock f =
  Trace.set_enabled true;
  Trace.clear ();
  (match clock with Some c -> Trace.set_clock c | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_clock wall_clock;
      Trace.clear ())
    f

let count_nodes pred forest =
  Trace.fold_nodes (fun acc n -> if pred n then acc + 1 else acc) 0 forest

let count_marks name forest =
  Trace.fold_nodes
    (fun acc n ->
      acc + List.length (List.filter (fun (m, _) -> m = name) n.Trace.n_marks))
    0 forest

(* -------------------------------------------------------------- *)
(* Tracer core                                                     *)
(* -------------------------------------------------------------- *)

let tracer_tests =
  [
    Alcotest.test_case "span nesting reconstructs as a forest" `Quick (fun () ->
        with_tracing ~clock:(fake_clock ()) (fun () ->
            let r =
              Trace.span ~name:"a" (fun () ->
                  Trace.span ~name:"b" (fun () -> Trace.mark "tick");
                  Trace.span ~attrs:[ ("k", "v") ] ~name:"c" (fun () -> 42))
            in
            Alcotest.(check int) "span returns f's value" 42 r;
            match Trace.forest () with
            | [ a ] ->
                Alcotest.(check string) "root" "a" a.Trace.n_name;
                Alcotest.(check (list string))
                  "children in order" [ "b"; "c" ]
                  (List.map (fun n -> n.Trace.n_name) a.Trace.n_children);
                let b = List.nth a.Trace.n_children 0 in
                let c = List.nth a.Trace.n_children 1 in
                Alcotest.(check (list string))
                  "mark lands under b" [ "tick" ]
                  (List.map fst b.Trace.n_marks);
                Alcotest.(check (list (pair string string)))
                  "attrs survive" [ ("k", "v") ] c.Trace.n_attrs;
                Alcotest.(check bool) "durations nest" true
                  (a.Trace.n_dur_us
                  >= b.Trace.n_dur_us +. c.Trace.n_dur_us)
            | f ->
                Alcotest.failf "expected one root, got %d" (List.length f)));
    Alcotest.test_case "disabled tracer records nothing" `Quick (fun () ->
        Trace.set_enabled false;
        Trace.clear ();
        let r = Trace.span ~name:"x" (fun () -> 7) in
        Trace.mark "y";
        Alcotest.(check int) "value passes through" 7 r;
        Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
        Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ()));
    Alcotest.test_case "span closes on exceptions" `Quick (fun () ->
        with_tracing ~clock:(fake_clock ()) (fun () ->
            (try Trace.span ~name:"boom" (fun () -> failwith "no") with
            | Failure _ -> ());
            match Trace.events () with
            | [ b; e ] ->
                Alcotest.(check bool) "B then E" true
                  (b.Trace.ev_ph = Trace.B && e.Trace.ev_ph = Trace.E)
            | evs -> Alcotest.failf "expected B/E, got %d events"
                       (List.length evs)));
    Alcotest.test_case "with_request allocates fresh trace ids" `Quick
      (fun () ->
        with_tracing ~clock:(fake_clock ()) (fun () ->
            Trace.with_request ~name:"request" (fun () ->
                Trace.span ~name:"inner" (fun () -> ()));
            Trace.with_request ~name:"request" (fun () -> ());
            let forest = Trace.forest () in
            Alcotest.(check int) "two roots" 2 (List.length forest);
            let tids = List.map (fun n -> n.Trace.n_tid) forest in
            Alcotest.(check bool) "distinct tids" true
              (List.nth tids 0 <> List.nth tids 1);
            let root = List.hd forest in
            List.iter
              (fun child ->
                Alcotest.(check int) "children inherit the request tid"
                  root.Trace.n_tid child.Trace.n_tid)
              root.Trace.n_children;
            Alcotest.(check int) "tid restored after requests" 0
              (Trace.current_tid ())));
    Alcotest.test_case "ring overflow still exports a valid trace" `Quick
      (fun () ->
        let old_cap = Trace.capacity () in
        Fun.protect
          ~finally:(fun () -> Trace.set_capacity old_cap)
          (fun () ->
            Trace.set_capacity 64;
            with_tracing ~clock:(fake_clock ()) (fun () ->
                for _ = 1 to 1000 do
                  Trace.span ~name:"s" (fun () -> Trace.mark "m")
                done;
                Alcotest.(check bool) "ring dropped events" true
                  (Trace.dropped () > 0);
                match Trace.validate_chrome (Trace.to_chrome_json ()) with
                | Ok n -> Alcotest.(check bool) "events exported" true (n > 0)
                | Error e -> Alcotest.failf "export invalid: %s" e)));
    Alcotest.test_case "validator rejects unbalanced documents" `Quick
      (fun () ->
        let bad =
          {|{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":3,"ts":0}]}|}
        in
        (match Trace.validate_chrome bad with
        | Ok _ -> Alcotest.fail "unbalanced B accepted"
        | Error _ -> ());
        match Trace.validate_chrome "{\"events\":[]}" with
        | Ok _ -> Alcotest.fail "missing traceEvents accepted"
        | Error _ -> ());
  ]

(* -------------------------------------------------------------- *)
(* Chrome export golden                                            *)
(* -------------------------------------------------------------- *)

let golden_trace () =
  with_tracing ~clock:(fake_clock ()) (fun () ->
      Trace.with_request
        ~attrs:[ ("arch", "kepler"); ("n", "4096") ]
        ~name:"request"
        (fun () ->
          Trace.span ~attrs:[ ("bucket", "4096") ] ~name:"lookup" (fun () -> ());
          Trace.span
            ~attrs:[ ("version", "DT,A/direct:Vs"); ("rung", "0") ]
            ~name:"rung"
            (fun () ->
              Trace.span
                ~attrs:[ ("version", "DT,A/direct:Vs"); ("attempt", "0") ]
                ~name:"attempt"
                (fun () -> Trace.mark ~attrs:[ ("version", "DT,A/direct:Vs") ] "retry")));
      Trace.to_chrome_json ())

let golden_tests =
  [
    Alcotest.test_case "Chrome export matches the golden file" `Quick (fun () ->
        let got = golden_trace () in
        (* cwd is test/ under `dune runtest`, the repo root under
           `dune exec test/test_obs.exe` *)
        let path =
          if Sys.file_exists "golden/obs_trace.json" then
            "golden/obs_trace.json"
          else "test/golden/obs_trace.json"
        in
        let ic = open_in_bin path in
        let want = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Alcotest.(check string) "golden/obs_trace.json" (String.trim want)
          (String.trim got));
    Alcotest.test_case "golden trace passes the validator" `Quick (fun () ->
        match Trace.validate_chrome (golden_trace ()) with
        | Ok n -> Alcotest.(check int) "event count" 9 n
        | Error e -> Alcotest.failf "invalid: %s" e);
  ]

(* -------------------------------------------------------------- *)
(* Logger                                                          *)
(* -------------------------------------------------------------- *)

let with_captured_log ?(level = Log.Debug) ?(json = false) f =
  let lines = ref [] in
  Log.set_writer (fun l -> lines := l :: !lines);
  Log.set_level level;
  Log.set_json json;
  Log.set_clock (fun () -> 1754462400.5);
  Fun.protect
    ~finally:(fun () ->
      Log.use_stderr ();
      Log.set_level Log.Warn;
      Log.set_json false;
      Log.set_clock Unix.gettimeofday)
    (fun () ->
      f ();
      List.rev !lines)

let logger_tests =
  [
    Alcotest.test_case "levels below the threshold are suppressed" `Quick
      (fun () ->
        let lines =
          with_captured_log ~level:Log.Warn (fun () ->
              Log.debug "invisible %d" 1;
              Log.info "invisible too";
              Log.warn "visible";
              Log.error "also visible")
        in
        Alcotest.(check (list string))
          "only warn and error" [ "[warn] visible"; "[error] also visible" ]
          lines);
    Alcotest.test_case "text rendering appends fields" `Quick (fun () ->
        let lines =
          with_captured_log (fun () ->
              Log.warn
                ~fields:[ ("path", "cache.journal"); ("bytes", "132") ]
                "corrupt record %s" "skipped")
        in
        Alcotest.(check (list string))
          "field suffix"
          [ "[warn] corrupt record skipped  (path=cache.journal, bytes=132)" ]
          lines);
    Alcotest.test_case "JSON mode emits one parseable object per line" `Quick
      (fun () ->
        let lines =
          with_captured_log ~json:true (fun () ->
              Log.info ~fields:[ ("arch", "kepler") ] "quarantined %S" "m")
        in
        match lines with
        | [ line ] ->
            let j = parse_json line in
            Alcotest.(check string) "level" "info" (str (get "level" j));
            Alcotest.(check string) "msg" "quarantined \"m\""
              (str (get "msg" j));
            Alcotest.(check string) "field" "kepler" (str (get "arch" j));
            Alcotest.(check (float 1e-9)) "clock" 1754462400.5
              (num (get "ts" j))
        | l -> Alcotest.failf "expected one line, got %d" (List.length l));
    Alcotest.test_case "level_of_string round-trips and rejects junk" `Quick
      (fun () ->
        List.iter
          (fun l ->
            match Log.level_of_string (Log.level_name l) with
            | Some l' -> Alcotest.(check string) "round trip"
                           (Log.level_name l) (Log.level_name l')
            | None -> Alcotest.fail "level name did not parse")
          [ Log.Error; Log.Warn; Log.Info; Log.Debug ];
        Alcotest.(check bool) "junk rejected" true
          (Log.level_of_string "loud" = None));
  ]

(* -------------------------------------------------------------- *)
(* Trace-id propagation through the service under faults           *)
(* -------------------------------------------------------------- *)

let fault_service rate =
  let fault = Fault.create (Fault.plan ~rate ~seed:1 ()) in
  Service.create ~fault
    ~candidates:(List.map V.of_figure6 [ "a"; "m"; "o" ])
    (Lazy.force plan)

let service_tests =
  [
    Alcotest.test_case "every span of a faulty request shares its trace id"
      `Slow (fun () ->
        let svc = fault_service 0.3 in
        let stats = Service.stats svc in
        with_tracing (fun () ->
            for _ = 1 to 40 do
              ignore (Service.submit svc (request (dense 4096)))
            done;
            let forest = Trace.forest () in
            let roots =
              List.filter (fun n -> n.Trace.n_name = "request") forest
            in
            Alcotest.(check int) "one root span per request" 40
              (List.length roots);
            (* the scenario actually fired *)
            Alcotest.(check bool) "faults were injected" true
              (Stats.faults stats > 0);
            Alcotest.(check bool) "retries happened" true
              (Stats.retries stats > 0);
            List.iter
              (fun root ->
                Trace.fold_nodes
                  (fun () n ->
                    Alcotest.(check int) "descendant shares the request tid"
                      root.Trace.n_tid n.Trace.n_tid)
                  () [ root ])
              roots;
            let tids =
              List.sort_uniq compare (List.map (fun n -> n.Trace.n_tid) roots)
            in
            Alcotest.(check int) "distinct trace id per request" 40
              (List.length tids)));
    Alcotest.test_case "span forest accounts for every retry and fallback"
      `Slow (fun () ->
        let svc = fault_service 0.3 in
        let stats = Service.stats svc in
        with_tracing (fun () ->
            let responses = ref [] in
            for _ = 1 to 40 do
              responses :=
                Service.submit svc (request (dense 4096)) :: !responses
            done;
            let responses = List.rev !responses in
            let forest = Trace.forest () in
            Alcotest.(check int) "one retry mark per counted retry"
              (Stats.retries stats)
              (count_marks "retry" forest);
            (* every attempt beyond the first in a rung is a retry *)
            let attempts = count_nodes (fun n -> n.Trace.n_name = "attempt") forest in
            let rungs = count_nodes (fun n -> n.Trace.n_name = "rung") forest in
            Alcotest.(check int) "attempts - rungs = retries"
              (Stats.retries stats) (attempts - rungs);
            (* the ladder walk spans every rung it attempts and marks every
               quarantined rung it skips; the serving rung's ladder index is
               resp_fallback, so per request the two together count
               resp_fallback + 1 *)
            let roots =
              List.filter (fun n -> n.Trace.n_name = "request") forest
            in
            Alcotest.(check int) "a root per response" (List.length responses)
              (List.length roots);
            List.iter2
              (fun resp root ->
                if not resp.Service.resp_degraded then
                  Alcotest.(check int)
                    "rung spans + quarantined marks = resp_fallback + 1"
                    (resp.Service.resp_fallback + 1)
                    (count_nodes
                       (fun n -> n.Trace.n_name = "rung")
                       [ root ]
                    + count_marks "rung.quarantined" [ root ])
                else
                  Alcotest.(check bool) "degraded requests are marked" true
                    (count_marks "degraded" [ root ] > 0))
              responses roots));
    Alcotest.test_case "witness checks and re-executions are spanned" `Slow
      (fun () ->
        let fault =
          Fault.create (Fault.plan ~rate:0.0 ~bitflip_rate:1.0 ~seed:5 ())
        in
        let svc =
          Service.create ~fault
            ~candidates:(List.map V.of_figure6 [ "a"; "m"; "o" ])
            (Lazy.force plan)
        in
        let stats = Service.stats svc in
        with_tracing (fun () ->
            for _ = 1 to 30 do
              ignore (Service.submit svc (request (dense 4096)))
            done;
            let forest = Trace.forest () in
            Alcotest.(check bool) "sdc machinery fired" true
              (Stats.sdc_reexecs stats > 0);
            Alcotest.(check int) "one verify span per witness check"
              (Stats.sdc_checks stats)
              (count_nodes (fun n -> n.Trace.n_name = "verify") forest);
            let reexecs =
              count_nodes (fun n -> n.Trace.n_name = "reexec") forest
            in
            let votes = count_nodes (fun n -> n.Trace.n_name = "vote") forest in
            Alcotest.(check int) "reexec + vote spans = counted re-executions"
              (Stats.sdc_reexecs stats) (reexecs + votes);
            Alcotest.(check int) "witness spans live inside verify spans"
              (Stats.sdc_checks stats)
              (count_nodes (fun n -> n.Trace.n_name = "witness") forest)));
    Alcotest.test_case "service trace exports as valid Chrome JSON" `Slow
      (fun () ->
        let svc = fault_service 0.2 in
        with_tracing (fun () ->
            for _ = 1 to 10 do
              ignore (Service.submit svc (request (dense 4096)))
            done;
            match Trace.validate_chrome (Trace.to_chrome_json ()) with
            | Ok n -> Alcotest.(check bool) "events exported" true (n > 0)
            | Error e -> Alcotest.failf "invalid: %s" e));
  ]

(* -------------------------------------------------------------- *)
(* Kernel profiler                                                 *)
(* -------------------------------------------------------------- *)

let profiler_tests =
  [
    Alcotest.test_case "profiling is off by default and opt-in" `Quick
      (fun () ->
        let svc = Service.create (Lazy.force plan) in
        Alcotest.(check bool) "off by default" false (Service.profiling svc);
        ignore (Service.submit svc (request (dense 1024)));
        Alcotest.(check int) "nothing recorded while off" 0
          (List.length (Stats.kernel_rows (Service.stats svc)));
        Service.set_profiling svc true;
        ignore (Service.submit svc (request (dense 1024)));
        let rows = Stats.kernel_rows (Service.stats svc) in
        Alcotest.(check int) "one (arch, version) row" 1 (List.length rows);
        let (_, _), (requests, totals) = List.hd rows in
        Alcotest.(check int) "one request aggregated" 1 requests;
        Alcotest.(check bool) "launches counted" true
          (totals.Gpusim.Events.t_launches >= 1));
    Alcotest.test_case "aggregation sums requests per (arch, version)" `Quick
      (fun () ->
        let svc = Service.create (Lazy.force plan) in
        Service.set_profiling svc true;
        for _ = 1 to 5 do
          ignore (Service.submit svc (request (dense 1024)))
        done;
        let rows = Stats.kernel_rows (Service.stats svc) in
        let total =
          List.fold_left (fun acc (_, (r, _)) -> acc + r) 0 rows
        in
        Alcotest.(check int) "5 requests attributed" 5 total);
    Alcotest.test_case
      "profile counters separate shuffle from shared-memory versions" `Slow
      (fun () ->
        let p = Lazy.force plan in
        let totals_for name =
          let v =
            List.find
              (fun v -> V.name v = name)
              (V.enumerate_pruned ())
          in
          let o =
            R.run_compiled ~arch ~tunables:[ ("bsize", 128) ]
              ~input:(dense 4096) (P.compiled p v)
          in
          Gpusim.Events.totals_of_list
            (List.map
               (fun lr -> lr.Gpusim.Interp.lr_events)
               o.R.launch_results)
        in
        let shuffle = totals_for "DT,A/direct:Vs" in
        let tree = totals_for "DT,A/direct:V" in
        Alcotest.(check bool) "shuffle version executes shfl" true
          (shuffle.Gpusim.Events.t_shfl_insts > 0.0);
        Alcotest.(check (float 0.0)) "tree version executes no shfl" 0.0
          tree.Gpusim.Events.t_shfl_insts;
        Alcotest.(check bool) "tree version serialises shared memory more"
          true
          (tree.Gpusim.Events.t_shared_serial
          > shuffle.Gpusim.Events.t_shared_serial);
        (* totals_fields is the one name list every exporter shares *)
        let fields = Gpusim.Events.totals_fields shuffle in
        Alcotest.(check (float 0.0)) "totals_fields mirrors the record"
          shuffle.Gpusim.Events.t_shfl_insts
          (List.assoc "shfl_insts" fields);
        Alcotest.(check (float 0.0)) "launches lead the field list"
          (float_of_int shuffle.Gpusim.Events.t_launches)
          (List.assoc "launches" fields));
  ]

(* -------------------------------------------------------------- *)
(* Stats twins: JSON and Prometheus                                *)
(* -------------------------------------------------------------- *)

let exporter_tests =
  [
    Alcotest.test_case "to_json parses and mirrors the accessors" `Quick
      (fun () ->
        let svc = fault_service 0.2 in
        Service.set_profiling svc true;
        for _ = 1 to 20 do
          ignore (Service.submit svc (request (dense 4096)))
        done;
        let stats = Service.stats svc in
        let j = parse_json (Stats.to_json stats) in
        let cache = get "cache" j in
        Alcotest.(check (float 0.0)) "hits"
          (float_of_int (Stats.hits stats))
          (num (get "hits" cache));
        Alcotest.(check (float 0.0)) "misses"
          (float_of_int (Stats.misses stats))
          (num (get "misses" cache));
        let ft = get "fault_tolerance" j in
        Alcotest.(check (float 0.0)) "retries"
          (float_of_int (Stats.retries stats))
          (num (get "retries" ft));
        Alcotest.(check bool) "kernels array populated" true
          (List.length (arr (get "kernels" j)) > 0);
        Alcotest.(check string) "stable output" (Stats.to_json stats)
          (Stats.to_json stats));
    Alcotest.test_case "Prometheus exposition round-trips the counters" `Quick
      (fun () ->
        let svc = fault_service 0.2 in
        for _ = 1 to 20 do
          ignore (Service.submit svc (request (dense 4096)))
        done;
        let stats = Service.stats svc in
        let text = Stats.to_prometheus stats in
        let value_of metric =
          let lines = String.split_on_char '\n' text in
          let prefix = metric ^ " " in
          match
            List.find_opt
              (fun l ->
                String.length l > String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
              lines
          with
          | Some l ->
              float_of_string
                (String.sub l (String.length prefix)
                   (String.length l - String.length prefix))
          | None -> Alcotest.failf "metric %s not exposed" metric
        in
        Alcotest.(check (float 0.0)) "retries_total"
          (float_of_int (Stats.retries stats))
          (value_of "tangram_retries_total");
        Alcotest.(check (float 0.0)) "faults_total"
          (float_of_int (Stats.faults stats))
          (value_of "tangram_faults_total");
        Alcotest.(check (float 0.0)) "cache_hits_total"
          (float_of_int (Stats.hits stats))
          (value_of "tangram_cache_hits_total");
        Alcotest.(check bool) "types declared" true
          (contains ~needle:"# TYPE tangram_retries_total counter" text);
        Alcotest.(check bool) "latency histogram exposed" true
          (contains ~needle:"# TYPE tangram_latency_us histogram" text
          && contains
               ~needle:"tangram_latency_us_bucket{stage=\"run\",le=\"+Inf\"}"
               text));
    Alcotest.test_case "latency recording runs in fixed memory" `Quick
      (fun () ->
        let stats = Stats.create () in
        let record i =
          let x = float_of_int (i mod 9973) *. 1.7 in
          Stats.run_us stats x;
          Stats.verify_us stats x;
          Stats.queue_wait_us stats x
        in
        for i = 1 to 1_000 do
          record i
        done;
        let words = Obj.reachable_words (Obj.repr stats) in
        for i = 1 to 100_000 do
          record i
        done;
        Alcotest.(check int) "reachable words unchanged" words
          (Obj.reachable_words (Obj.repr stats)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"report percentiles stay within the bucket error"
         QCheck.(
           list_of_size
             Gen.(1 -- 300)
             (map (fun e -> Float.pow 10.0 e) (float_range (-2.0) 7.0)))
         (fun samples ->
           let stats = Stats.create () in
           List.iter (Stats.verify_us stats) samples;
           (* the reference: nearest rank over the sorted samples *)
           let sorted = Array.of_list samples in
           Array.sort compare sorted;
           let n = Array.length sorted in
           let exact p =
             let rank = int_of_float (ceil (p *. float_of_int n)) in
             sorted.(max 0 (min (n - 1) (rank - 1)))
           in
           let within est x =
             if x <= 1.0 then Float.abs (est -. x) <= 1.0
             else
               est >= x
               && est -. x <= (Float.pow 2.0 0.125 -. 1.0) *. x *. (1.0 +. 1e-9)
           in
           let s = Stats.verify_series stats in
           within s.Stats.p50 (exact 0.50)
           && within s.Stats.p95 (exact 0.95)
           && s.Stats.max = sorted.(n - 1)));
    Alcotest.test_case "quiet services keep the plain report" `Quick (fun () ->
        let svc = Service.create (Lazy.force plan) in
        for _ = 1 to 5 do
          ignore (Service.submit svc (request (dense 1024)))
        done;
        let report = Stats.report (Service.stats svc) in
        Alcotest.(check bool) "no kernel section without profiling" false
          (contains ~needle:"kernel counters" report);
        Alcotest.(check bool) "no fault section without faults" false
          (contains ~needle:"fault tolerance" report));
  ]

(* -------------------------------------------------------------- *)
(* Windowed metrics registry                                       *)
(* -------------------------------------------------------------- *)

module M = Obs.Metrics

let metrics_tests =
  [
    Alcotest.test_case "re-registration returns the same instrument" `Quick
      (fun () ->
        let reg = M.create () in
        let a = M.counter reg ~labels:[ ("k", "v") ] "demo_total" in
        let b = M.counter reg ~labels:[ ("k", "v") ] "demo_total" in
        M.inc a;
        M.inc b;
        Alcotest.(check (float 0.0)) "shared cell" 2.0 (M.counter_value a);
        (* a different label set is a different series *)
        let c = M.counter reg ~labels:[ ("k", "w") ] "demo_total" in
        Alcotest.(check (float 0.0)) "fresh series" 0.0 (M.counter_value c));
    Alcotest.test_case "illegal names and kind clashes are rejected" `Quick
      (fun () ->
        let reg = M.create () in
        ignore (M.counter reg "ok_name_total");
        (try
           ignore (M.counter reg "9starts_with_digit");
           Alcotest.fail "illegal metric name accepted"
         with Invalid_argument _ -> ());
        (try
           ignore (M.counter reg ~labels:[ ("0bad", "x") ] "demo2_total");
           Alcotest.fail "illegal label name accepted"
         with Invalid_argument _ -> ());
        try
          ignore (M.gauge reg "ok_name_total");
          Alcotest.fail "kind clash accepted"
        with Invalid_argument _ -> ());
    Alcotest.test_case "counters are monotone, gauges are not" `Quick
      (fun () ->
        let reg = M.create () in
        let c = M.counter reg "mono_total" in
        M.inc c ~by:5.0;
        M.inc c ~by:(-3.0);
        Alcotest.(check (float 0.0)) "negative inc ignored" 5.0
          (M.counter_value c);
        let g = M.gauge reg "level" in
        M.set g 7.0;
        M.set g 2.0;
        Alcotest.(check (float 0.0)) "gauge overwrites" 2.0 (M.gauge_value g));
    Alcotest.test_case "histogram quantiles within the bucket error bound"
      `Quick (fun () ->
        let reg = M.create () in
        let h = M.histogram reg "lat_us" in
        for i = 1 to 1000 do
          M.observe h (float_of_int i)
        done;
        Alcotest.(check int) "count" 1000 (M.hist_count h);
        let within p expect =
          let v = M.quantile h p in
          (* log-bucketed, 8 sub-buckets per octave: <= ~9% relative *)
          if Float.abs (v -. expect) /. expect > 0.10 then
            Alcotest.failf "p%.0f = %g, want %g +- 10%%" p v expect
        in
        within 50.0 500.0;
        within 95.0 950.0);
    Alcotest.test_case "snapshots diff into per-window deltas" `Quick
      (fun () ->
        let reg = M.create () in
        let c = M.counter reg "reqs_total" in
        let g = M.gauge reg "depth" in
        let h = M.histogram reg "lat_us" in
        M.snapshot reg ~now_us:0.0;
        M.inc c ~by:3.0;
        M.set g 4.0;
        M.observe h 10.0;
        M.observe h 20.0;
        M.snapshot reg ~now_us:100.0;
        M.inc c ~by:2.0;
        M.set g 1.0;
        M.snapshot reg ~now_us:200.0;
        match M.windows reg with
        | [ w1; w2 ] ->
            Alcotest.(check (float 0.0)) "w1 from" 0.0 w1.M.w_from_us;
            Alcotest.(check (float 0.0)) "w1 to" 100.0 w1.M.w_to_us;
            let row w name =
              match
                List.find_opt (fun r -> r.M.wr_name = name) w.M.w_rows
              with
              | Some r -> r
              | None -> Alcotest.failf "no row %s" name
            in
            Alcotest.(check (float 0.0)) "counter delta w1" 3.0
              (row w1 "reqs_total").M.wr_value;
            Alcotest.(check (float 0.0)) "counter delta w2" 2.0
              (row w2 "reqs_total").M.wr_value;
            Alcotest.(check (float 0.0)) "gauge at w1 end" 4.0
              (row w1 "depth").M.wr_value;
            Alcotest.(check (float 0.0)) "gauge at w2 end" 1.0
              (row w2 "depth").M.wr_value;
            Alcotest.(check (float 0.0)) "hist count delta w1" 2.0
              (row w1 "lat_us").M.wr_value;
            Alcotest.(check (float 0.0)) "hist sum delta w1" 30.0
              (row w1 "lat_us").M.wr_sum;
            Alcotest.(check (float 0.0)) "hist count delta w2" 0.0
              (row w2 "lat_us").M.wr_value
        | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
    Alcotest.test_case "snapshot ring keeps only the newest" `Quick (fun () ->
        let reg = M.create ~snapshots:3 () in
        let c = M.counter reg "n_total" in
        for i = 1 to 6 do
          M.inc c;
          M.snapshot reg ~now_us:(float_of_int i)
        done;
        Alcotest.(check int) "ring clamps" 3 (M.n_snapshots reg);
        match M.windows reg with
        | [ w1; w2 ] ->
            Alcotest.(check (float 0.0)) "oldest kept" 4.0 w1.M.w_from_us;
            Alcotest.(check (float 0.0)) "newest kept" 6.0 w2.M.w_to_us
        | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
    Alcotest.test_case "disabled registry records and snapshots nothing"
      `Quick (fun () ->
        let reg = M.create ~enabled:false () in
        let c = M.counter reg "quiet_total" in
        let h = M.histogram reg "quiet_us" in
        M.inc c;
        M.observe h 5.0;
        M.snapshot reg ~now_us:1.0;
        Alcotest.(check (float 0.0)) "counter still 0" 0.0 (M.counter_value c);
        Alcotest.(check int) "no samples" 0 (M.hist_count h);
        Alcotest.(check int) "no snapshots" 0 (M.n_snapshots reg);
        M.set_enabled reg true;
        M.inc c;
        Alcotest.(check (float 0.0)) "re-enabled records" 1.0
          (M.counter_value c));
    Alcotest.test_case "merge adds counters, gauges and histogram buckets"
      `Quick (fun () ->
        let a = M.create () and b = M.create () in
        let ca = M.counter a "reqs_total" and cb = M.counter b "reqs_total" in
        let ha = M.histogram a "lat_us" and hb = M.histogram b "lat_us" in
        M.inc ca ~by:2.0;
        M.inc cb ~by:5.0;
        M.observe ha 10.0;
        M.observe hb 10.0;
        M.observe hb 40.0;
        M.merge ~into:a b;
        Alcotest.(check (float 0.0)) "counters added" 7.0 (M.counter_value ca);
        Alcotest.(check int) "buckets added" 3 (M.hist_count ha);
        (* src unchanged *)
        Alcotest.(check (float 0.0)) "src untouched" 5.0 (M.counter_value cb));
  ]

(* -------------------------------------------------------------- *)
(* SLO burn rates                                                  *)
(* -------------------------------------------------------------- *)

module Slo = Obs.Slo

let slo_tests =
  [
    Alcotest.test_case "burn rate is bad fraction over error budget" `Quick
      (fun () ->
        (* target 0.9: a 10% error budget; 1 bad in 10 burns at 1.0 *)
        let s = Slo.create (Slo.objective ~target:0.9 "lat") in
        for i = 0 to 8 do
          Slo.observe s ~now_us:(float_of_int i) ~good:true
        done;
        Slo.observe s ~now_us:9.0 ~good:false;
        let b = Slo.burn_rates s ~now_us:10.0 in
        Alcotest.(check (float 1e-9)) "fast burn" 1.0 b.Slo.br_fast;
        Alcotest.(check (float 1e-9)) "slow burn" 1.0 b.Slo.br_slow;
        Alcotest.(check int) "fast bad" 1 b.Slo.br_fast_bad);
    Alcotest.test_case "zero-budget objective burns infinitely on one bad"
      `Quick (fun () ->
        let s = Slo.create (Slo.objective ~target:1.0 "sdc") in
        Slo.observe s ~now_us:1.0 ~good:true;
        Alcotest.(check (float 0.0)) "clean is zero" 0.0
          (Slo.burn_rates s ~now_us:2.0).Slo.br_fast;
        Slo.observe s ~now_us:3.0 ~good:false;
        let b = Slo.burn_rates s ~now_us:4.0 in
        Alcotest.(check bool) "infinite burn" true (b.Slo.br_fast = infinity);
        match Slo.evaluate s ~now_us:4.0 with
        | Some (Slo.Fired _) -> ()
        | _ -> Alcotest.fail "zero-budget breach must fire");
    Alcotest.test_case "firing and resolving are hysteretic" `Quick (fun () ->
        let s = Slo.create (Slo.objective ~target:0.9 "lat") in
        (* 1 bad in 10: burn exactly 1.0 >= fire threshold -> fires *)
        for i = 0 to 8 do
          Slo.observe s ~now_us:(float_of_int i) ~good:true
        done;
        Slo.observe s ~now_us:9.0 ~good:false;
        (match Slo.evaluate s ~now_us:10.0 with
        | Some (Slo.Fired b) ->
            Alcotest.(check (float 1e-9)) "fired at burn 1" 1.0 b.Slo.br_fast
        | _ -> Alcotest.fail "should fire");
        Alcotest.(check bool) "firing" true (Slo.firing s);
        Alcotest.(check int) "fired once" 1 (Slo.fired_count s);
        (* dilute to burn 0.5: at the resolve threshold, not below it *)
        for i = 10 to 19 do
          Slo.observe s ~now_us:(float_of_int i) ~good:true
        done;
        Alcotest.(check bool) "still firing at the threshold"
          true
          (Slo.evaluate s ~now_us:20.0 = None && Slo.firing s);
        (* below the resolve threshold: resolves, count unchanged *)
        for i = 20 to 29 do
          Slo.observe s ~now_us:(float_of_int i) ~good:true
        done;
        (match Slo.evaluate s ~now_us:30.0 with
        | Some (Slo.Resolved _) -> ()
        | _ -> Alcotest.fail "should resolve");
        Alcotest.(check bool) "not firing" false (Slo.firing s);
        Alcotest.(check int) "fired count stable" 1 (Slo.fired_count s));
    Alcotest.test_case "malformed objectives are rejected" `Quick (fun () ->
        let bad f =
          try
            ignore (f ());
            Alcotest.fail "accepted"
          with Invalid_argument _ -> ()
        in
        bad (fun () -> Slo.objective ~target:0.0 "x");
        bad (fun () -> Slo.objective ~target:0.9 "");
        bad (fun () -> Slo.objective ~fast_us:0.0 ~target:0.9 "x");
        bad (fun () -> Slo.objective ~fast_us:10.0 ~slow_us:5.0 ~target:0.9 "x");
        bad (fun () ->
            Slo.objective ~fire_burn:1.0 ~resolve_burn:1.0 ~target:0.9 "x"));
    Alcotest.test_case "state_json carries the dashboard row" `Quick
      (fun () ->
        let s = Slo.create (Slo.objective ~target:0.9 "lat") in
        Slo.observe s ~now_us:1.0 ~good:false;
        let j = parse_json (J.to_string (Slo.state_json s ~now_us:2.0)) in
        Alcotest.(check string) "name" "lat" (str (get "name" j));
        Alcotest.(check (float 0.0)) "target" 0.9 (num (get "target" j)));
  ]

(* -------------------------------------------------------------- *)
(* Flight recorder                                                 *)
(* -------------------------------------------------------------- *)

module Rec = Runtime.Recorder

let note_n (r : Rec.t) (k : int) =
  let last = ref None in
  for i = 1 to k do
    last :=
      Some
        (Rec.note r ~now_us:(float_of_int i) ~arch:"Tesla K40c" ~n:1024
           ~predicted_us:10.0 ~latency_us:12.0 ~outcome:"ok")
  done;
  Option.get !last

let recorder_tests =
  [
    Alcotest.test_case "the ring keeps the last capacity records" `Quick
      (fun () ->
        let r = Rec.create ~capacity:4 () in
        let last = note_n r 6 in
        let recs = Rec.records r in
        Alcotest.(check int) "bounded" 4 (List.length recs);
        Alcotest.(check int) "oldest evicted" 3 (List.hd recs).Rec.rc_seq;
        Alcotest.(check int) "newest kept" last.Rec.rc_seq
          (List.nth recs 3).Rec.rc_seq;
        Alcotest.(check int) "last accessor" last.Rec.rc_seq
          (Option.get (Rec.last r)).Rec.rc_seq);
    Alcotest.test_case "a dumped bundle validates" `Quick (fun () ->
        let r = Rec.create ~capacity:8 () in
        ignore (note_n r 5);
        let inc =
          Rec.dump r ~now_us:6.0 ~trigger:(Rec.Alert "latency") ~brownout:1 ()
        in
        (match Rec.validate_bundle inc.Rec.in_json with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid bundle: %s" e);
        match Rec.validate_bundle_string (Rec.incident_to_string inc) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "string round-trip: %s" e);
    Alcotest.test_case "incident retention evicts the oldest" `Quick
      (fun () ->
        let r = Rec.create ~capacity:4 ~keep_incidents:2 () in
        ignore (note_n r 3);
        ignore (Rec.dump r ~now_us:4.0 ~trigger:Rec.Sdc ());
        ignore (Rec.dump r ~now_us:5.0 ~trigger:(Rec.Eject "d0") ());
        ignore (Rec.dump r ~now_us:6.0 ~trigger:(Rec.Alert "goodput") ());
        Alcotest.(check int) "lifetime count" 3 (Rec.incidents_dumped r);
        match Rec.incidents r with
        | [ newest; older ] ->
            Alcotest.(check string) "newest first" "alert"
              (Rec.trigger_kind newest.Rec.in_trigger);
            Alcotest.(check string) "sdc evicted" "device-eject"
              (Rec.trigger_kind older.Rec.in_trigger)
        | l -> Alcotest.failf "expected 2 retained, got %d" (List.length l));
    Alcotest.test_case "save_all writes one valid file per incident" `Quick
      (fun () ->
        let r = Rec.create ~capacity:4 () in
        ignore (note_n r 2);
        ignore (Rec.dump r ~now_us:3.0 ~trigger:Rec.Sdc ());
        ignore (Rec.dump r ~now_us:4.0 ~trigger:(Rec.Alert "latency") ());
        let dir = Filename.temp_file "tangram_incidents" "" in
        Sys.remove dir;
        let paths = Rec.save_all r dir in
        Alcotest.(check int) "two files" 2 (List.length paths);
        List.iter
          (fun p ->
            let ic = open_in_bin p in
            let body = really_input_string ic (in_channel_length ic) in
            close_in ic;
            (match Rec.validate_bundle_string body with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s invalid: %s" p e);
            Sys.remove p)
          paths;
        Alcotest.(check bool) "kind in the filename" true
          (List.exists (fun p -> contains ~needle:"sdc" p) paths))
  ]

(* -------------------------------------------------------------- *)
(* Prometheus exposition correctness                               *)
(* -------------------------------------------------------------- *)

let golden_metrics () =
  let reg = M.create () in
  let c =
    M.counter reg ~help:"requests answered"
      ~labels:[ ("outcome", "ok") ]
      "demo_requests_total"
  in
  let g = M.gauge reg ~help:"queue depth" "demo_queue_depth" in
  let h =
    M.histogram reg ~help:"request latency"
      ~labels:[ ("class", "interactive") ]
      "demo_latency_us"
  in
  M.snapshot reg ~now_us:0.0;
  M.inc c;
  M.inc c;
  M.set g 3.0;
  M.observe h 10.0;
  M.observe h 100.0;
  M.observe h 1000.0;
  M.snapshot reg ~now_us:50.0;
  M.inc c;
  M.set g 1.0;
  M.observe h 20.0;
  M.snapshot reg ~now_us:100.0;
  M.to_prometheus reg

let prometheus_tests =
  [
    Alcotest.test_case "metric and label name grammars" `Quick (fun () ->
        List.iter
          (fun (name, want) ->
            Alcotest.(check bool) name want (M.valid_metric_name name))
          [
            ("tangram_requests_total", true); ("a:b", true); ("_x9", true);
            ("9bad", false); ("", false); ("has-dash", false);
            ("has space", false);
          ];
        List.iter
          (fun (name, want) ->
            Alcotest.(check bool) name want (M.valid_label_name name))
          [
            ("le", true); ("_quantile", true); ("9x", false); ("a:b", false);
            ("", false);
          ]);
    Alcotest.test_case "label values escape quotes, backslashes, newlines"
      `Quick (fun () ->
        Alcotest.(check string) "escaped" "a\\\"b\\\\c\\nd"
          (M.escape_label_value "a\"b\\c\nd");
        let reg = M.create () in
        let c =
          M.counter reg ~labels:[ ("path", "a\"b\\c\nd") ] "esc_total"
        in
        M.inc c;
        let text = M.to_prometheus ~windows:false reg in
        Alcotest.(check bool) "escaped in the exposition" true
          (contains ~needle:"esc_total{path=\"a\\\"b\\\\c\\nd\"} 1" text));
    Alcotest.test_case "HELP and TYPE lines precede every family" `Quick
      (fun () ->
        let text = golden_metrics () in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains ~needle text))
          [
            "# HELP demo_requests_total requests answered";
            "# TYPE demo_requests_total counter";
            "# TYPE demo_queue_depth gauge";
            "# TYPE demo_latency_us histogram";
            "demo_latency_us_bucket{class=\"interactive\",le=\"+Inf\"} 4";
            "demo_latency_us_count{class=\"interactive\"} 4";
          ]);
    Alcotest.test_case "windowed families match the golden exposition" `Quick
      (fun () ->
        let got = golden_metrics () in
        let path =
          if Sys.file_exists "golden/obs_metrics.prom" then
            "golden/obs_metrics.prom"
          else "test/golden/obs_metrics.prom"
        in
        if Sys.getenv_opt "TANGRAM_REGOLDEN" = Some "1" then begin
          let oc = open_out_bin path in
          output_string oc got;
          close_out oc
        end;
        let ic = open_in_bin path in
        let want = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Alcotest.(check string) "golden/obs_metrics.prom" (String.trim want)
          (String.trim got));
    Alcotest.test_case "stats exposition appends the monitor's families"
      `Quick (fun () ->
        let svc = Service.create (Lazy.force plan) in
        let mon = Monitor.create (Service.stats svc) in
        Service.set_monitor svc (Some mon);
        for _ = 1 to 8 do
          ignore (Service.submit svc (request (dense 1024)))
        done;
        Monitor.snapshot mon;
        let text = Stats.to_prometheus (Service.stats svc) in
        Alcotest.(check bool) "monitor families present" true
          (contains ~needle:"tangram_monitor_requests_total" text);
        Alcotest.(check bool) "windowed series present" true
          (contains ~needle:"tangram_monitor_requests_total_window" text);
        (* one registry: the monitor windows every service series and
           keeps no twin of its own *)
        Alcotest.(check bool) "service series windowed" true
          (contains ~needle:"tangram_sdc_checks_total_window" text);
        Alcotest.(check int) "sdc checks declared once" 1
          (List.length
             (List.filter
                (( = ) "# TYPE tangram_sdc_checks_total counter")
                (String.split_on_char '\n' text)));
        Alcotest.(check bool) "no monitor twin" false
          (contains ~needle:"tangram_monitor_sdc_checks_total" text));
  ]

(* -------------------------------------------------------------- *)
(* Service monitor end-to-end                                      *)
(* -------------------------------------------------------------- *)

module Fleet = Runtime.Fleet

let monitor_tests =
  [
    Alcotest.test_case "attach, observe, detach" `Quick (fun () ->
        let svc = Service.create (Lazy.force plan) in
        Alcotest.(check bool) "off by default" false
          (Option.is_some (Service.monitor svc));
        let mon = Monitor.create (Service.stats svc) in
        Service.set_monitor svc (Some mon);
        Alcotest.(check bool) "attached" true
          (Option.is_some (Service.monitor svc));
        Alcotest.(check int) "three objectives" 3
          (List.length (Monitor.slos mon));
        for _ = 1 to 5 do
          ignore (Service.submit svc (request (dense 1024)))
        done;
        Alcotest.(check bool) "virtual clock advanced" true
          (Monitor.now_us mon > 0.0);
        (match Option.map Monitor.recorder (Service.monitor svc) with
        | Some r -> Alcotest.(check int) "all requests noted" 5
            (List.length (Rec.records r))
        | None -> Alcotest.fail "no recorder");
        Service.set_monitor svc None;
        Alcotest.(check bool) "detached" false
          (Option.is_some (Service.monitor svc)));
    Alcotest.test_case "a confirmed SDC dumps an incident bundle" `Slow
      (fun () ->
        let fault =
          Fault.create (Fault.plan ~rate:0.0 ~bitflip_rate:0.2 ~seed:3 ())
        in
        let svc = Service.create ~fault (Lazy.force plan) in
        let mon = Monitor.create (Service.stats svc) in
        Service.set_monitor svc (Some mon);
        let stats = Service.stats svc in
        let i = ref 0 in
        while Stats.sdc_catches stats = 0 && !i < 200 do
          incr i;
          ignore (Service.submit svc (request (dense 1024)))
        done;
        Alcotest.(check bool) "guard caught a corruption" true
          (Stats.sdc_catches stats > 0);
        let r = Monitor.recorder mon in
        let kinds =
          List.map
            (fun (inc : Rec.incident) -> Rec.trigger_kind inc.Rec.in_trigger)
            (Rec.incidents r)
        in
        Alcotest.(check bool) "sdc bundle dumped" true (List.mem "sdc" kinds);
        Alcotest.(check bool) "stats counted it" true (Stats.incidents stats > 0);
        let sdc_slo = List.assoc "sdc" (Monitor.slos mon) in
        Alcotest.(check bool) "zero-budget objective fired" true
          (Slo.fired_count sdc_slo >= 1));
    Alcotest.test_case
      "fail-slow fleet: the burn-rate alert fires before ejection" `Slow
      (fun () ->
        with_tracing (fun () ->
            let pascal = Gpusim.Arch.pascal_p100 in
            let svc = Service.create (Lazy.force plan) in
            let fl =
              Fleet.create ~seed:42
                [
                  Fleet.spec
                    ~profile:
                      (Fault.Fail_slow
                         { sl_onset = 5; sl_ramp = 40; sl_factor = 8.0 })
                    pascal;
                  Fleet.spec pascal;
                  Fleet.spec pascal;
                ]
            in
            Fleet.set_hedging fl false;
            Service.attach_fleet svc fl;
            let mon =
              Monitor.create ~latency_mult:1.5 ~latency_target:0.99
                (Service.stats svc)
            in
            Service.set_monitor svc (Some mon);
            let spec =
              Runtime.Trace.default ~requests:600 ~seed:42 ~archs:[ pascal ] ()
            in
            let trace = Runtime.Trace.generate spec in
            ignore (Runtime.Trace.replay ~batch_size:1 ~dense_upto:4096 svc trace);
            let stats = Service.stats svc in
            (* the detector pulled the slow device out... *)
            Alcotest.(check bool) "fail-slow device ejected" true
              (Stats.fleet_ejects stats >= 1);
            (* ...but the burn-rate alert beat it to the punch *)
            let lat = List.assoc "latency" (Monitor.slos mon) in
            Alcotest.(check bool) "latency alert fired" true
              (Slo.fired_count lat >= 1);
            let r = Monitor.recorder mon in
            let incs = Rec.incidents r in
            let first kind =
              List.fold_left
                (fun acc (inc : Rec.incident) ->
                  if Rec.trigger_kind inc.Rec.in_trigger = kind then
                    match acc with
                    | Some s when s <= inc.Rec.in_seq -> acc
                    | _ -> Some inc.Rec.in_seq
                  else acc)
                None incs
            in
            let alert_seq =
              match first "alert" with
              | Some s -> s
              | None -> Alcotest.fail "no alert incident dumped"
            in
            let eject_seq =
              match first "device-eject" with
              | Some s -> s
              | None -> Alcotest.fail "no ejection incident dumped"
            in
            Alcotest.(check bool)
              (Printf.sprintf "alert (request %d) precedes ejection (%d)"
                 alert_seq eject_seq)
              true (alert_seq < eject_seq);
            (* the alert bundle is a valid, self-contained document with
               the triggering request's span tree riding along *)
            let alert_inc =
              List.find
                (fun (inc : Rec.incident) ->
                  Rec.trigger_kind inc.Rec.in_trigger = "alert")
                (List.rev incs)
            in
            (match Rec.validate_bundle alert_inc.Rec.in_json with
            | Ok () -> ()
            | Error e -> Alcotest.failf "invalid alert bundle: %s" e);
            let req = get "request" alert_inc.Rec.in_json in
            (match J.member "spans" req with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.fail "alert bundle lost the span tree");
            (* deterministic replay: same seeds, same firing moment *)
            Alcotest.(check int) "seeded alert request" 19 alert_seq));
    Alcotest.test_case "a fleet request is priced on the arch it ran on"
      `Quick (fun () ->
        let kepler = Gpusim.Arch.kepler_k40c in
        let svc = Service.create (Lazy.force plan) in
        Service.attach_fleet svc
          (Fleet.create ~seed:1 [ Fleet.spec kepler; Fleet.spec kepler ]);
        let mon = Monitor.create ~latency_mult:1.5 (Service.stats svc) in
        Service.set_monitor svc (Some mon);
        (* P100 requests served by a healthy K40c fleet *)
        for _ = 1 to 40 do
          ignore
            (Service.submit svc
               { Service.req_arch = Gpusim.Arch.pascal_p100;
                 req_input = dense 1024 })
        done;
        let lat = List.assoc "latency" (Monitor.slos mon) in
        Alcotest.(check int) "no latency alert" 0 (Slo.fired_count lat);
        List.iter
          (fun (r : Rec.record) ->
            Alcotest.(check string) "recorded on the device's arch"
              kepler.Gpusim.Arch.name r.Rec.rc_arch;
            Alcotest.(check bool) "inside the latency envelope" true
              (r.Rec.rc_latency_us <= 1.5 *. r.Rec.rc_predicted_us))
          (Rec.records (Monitor.recorder mon)));
  ]

let () =
  Alcotest.run "obs"
    [
      ("tracer", tracer_tests);
      ("golden", golden_tests);
      ("logger", logger_tests);
      ("service", service_tests);
      ("profiler", profiler_tests);
      ("exporters", exporter_tests);
      ("metrics", metrics_tests);
      ("slo", slo_tests);
      ("recorder", recorder_tests);
      ("prometheus", prometheus_tests);
      ("monitor", monitor_tests);
    ]
