(* Golden-file regression tests for the code generators.

   Each file under [test/golden/] is the committed output of one
   [tangramc emit] invocation; any codegen change shows up as a readable
   diff here. To regenerate after an intentional change:

   {v
     dune exec bin/tangramc.exe -- emit -v l > test/golden/listing3_version_l.cu
     dune exec bin/tangramc.exe -- emit -v m > test/golden/listing4_version_m.cu
     dune exec bin/tangramc.exe -- emit -v o > test/golden/listing3b_version_o.cu
     dune exec bin/tangramc.exe -- emit -v m -t ptx > test/golden/version_m.ptx
     dune exec bin/tangramc.exe -- emit -v n -t ptx > test/golden/version_n.ptx
     dune exec bin/tangramc.exe -- emit -v a --vectorize > test/golden/version_a_vectorized.cu
   v}

   The two lint goldens pin every sanitizer and perf-lint warning, with
   its code, kernel and location, over the whole search space (the int
   and min spectra print byte-identical copies of them):

   {v
     dune exec bin/tangramc.exe -- lint --all-variants --spectrum sum > test/golden/lint_sum.txt
     dune exec bin/tangramc.exe -- lint --all-variants --spectrum max > test/golden/lint_max.txt
   v}

   The service golden pins everything deterministic the request path
   produces under each of its paths (quiet, chaos, degraded mode off,
   deadlines and brownout, a chaotic hedged fleet, the same fleet under
   the monitor): every response field but the wall-clock
   [resp_service_us], every error, the Prometheus exposition without
   the wall-clock [tangram_latency_us] families, and the monitor's SLO
   and incident verdicts. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-service > test/golden/service_scenarios.txt
   v}

   The tuner golden pins the sampled-mode simulated time of every
   configuration the tuner runs, and each version's pick, for the 30
   pruned [sum] versions at three keys. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-tuner > test/golden/tuner_sweeps.txt
   v} *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let plan = lazy (Synthesis.Planner.sum ())

let cuda label = Synthesis.Planner.cuda_source (Lazy.force plan)
    (Synthesis.Version.of_figure6 label)

let ptx label =
  Device_ir.Ptx.emit_program
    (Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 label))

let vectorized_cuda label =
  let p = Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 label) in
  Device_ir.Cuda.emit_program (fst (Device_ir.Vectorize.program p))

(* [tangramc lint --all-variants]'s text output for one spectrum *)
let lint_all planner =
  let versions = Synthesis.Version.enumerate () in
  let diags =
    List.concat_map
      (fun v ->
        List.map
          (fun (d : Device_ir.Diag.t) ->
            { d with Device_ir.Diag.kernel =
                Synthesis.Version.name v ^ "/" ^ d.Device_ir.Diag.kernel })
          (Synthesis.Planner.lint planner v))
      versions
  in
  (if diags = [] then "" else Device_ir.Diag.render diags ^ "\n")
  ^ Printf.sprintf "%d version(s) linted: %s\n" (List.length versions)
      (Device_ir.Diag.summary diags)

(* show the first diverging line, not a wall of text *)
let check_golden name path generated =
  Alcotest.test_case name `Quick (fun () ->
      let expected = read_file path in
      if String.equal expected generated then ()
      else begin
        let el = String.split_on_char '\n' expected in
        let gl = String.split_on_char '\n' generated in
        let rec first_diff i = function
          | e :: es, g :: gs ->
              if String.equal e g then first_diff (i + 1) (es, gs) else (i, e, g)
          | e :: _, [] -> (i, e, "<end of generated output>")
          | [], g :: _ -> (i, "<end of golden file>", g)
          | [], [] -> (i, "", "")
        in
        let line, e, g = first_diff 1 (el, gl) in
        Alcotest.failf
          "%s: output changed at line %d\n  golden   : %s\n  generated: %s\n\
           (see test/test_golden.ml header for the regeneration commands)"
          path line e g
      end)

(* ------------------------------------------------------------------ *)
(* The service's deterministic output                                  *)
(* ------------------------------------------------------------------ *)

module Service = Runtime.Service
module Stats = Runtime.Stats
module Fleet = Runtime.Fleet
module R = Gpusim.Runner
module Fault = Gpusim.Fault

let kepler = Gpusim.Arch.kepler_k40c
let maxwell = Gpusim.Arch.maxwell_gtx980
let service_candidates =
  lazy (List.map Synthesis.Version.of_figure6 [ "a"; "m"; "o" ])

let new_service ?resilience ?fault () =
  Service.create
    ~candidates:(Lazy.force service_candidates)
    ?resilience ?fault ~jitter_seed:7 (Lazy.force plan)

let dense n = R.Dense (Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8)))

let synthetic n =
  R.Synthetic { n; pattern = Array.init 64 (fun i -> float_of_int (i land 7)) }

let request ?(arch = kepler) input = { Service.req_arch = arch; req_input = input }

let chaos_fault () =
  Fault.create (Fault.plan ~rate:0.3 ~bitflip_rate:0.6 ~seed:1 ())

let chaos_resilience =
  {
    Service.default_resilience with
    Service.r_quarantine_threshold = 2;
    r_cooldown_requests = 4;
  }

let error_kind : Service.error -> string = function
  | Service.Bad_request _ -> "bad-request"
  | Transient _ -> "transient"
  | Version_fault _ -> "version-fault"
  | Cache_corrupt _ -> "cache-corrupt"
  | Sdc _ -> "sdc"
  | Deadline_exceeded _ -> "deadline"

(* one line per result: every response field but the wall-clock
   [resp_service_us] *)
let render_result buf label (r : (Service.response, Service.error) result) =
  match r with
  | Ok r ->
      Printf.bprintf buf
        "%s: ok value=%.17g exact=%b sim_us=%.17g version=%s tunables=[%s] \
         hit=%b bucket=%d degraded=%b retries=%d fallback=%d\n"
        label r.Service.resp_value r.resp_exact r.resp_sim_us
        (Synthesis.Version.name r.resp_version)
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.resp_tunables))
        r.resp_hit r.resp_bucket r.resp_degraded r.resp_retries r.resp_fallback
  | Error e ->
      Printf.bprintf buf "%s: error %s: %s\n" label (error_kind e)
        (Service.error_message e)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* the exposition without the wall-clock latency families, then the
   monitor's verdicts *)
let render_service buf svc =
  String.split_on_char '\n' (Stats.to_prometheus (Service.stats svc))
  |> List.iter (fun line ->
         if line <> "" && not (contains ~needle:"tangram_latency_us" line) then
           Printf.bprintf buf "  %s\n" line);
  match Service.monitor svc with
  | None -> ()
  | Some m ->
      List.iter
        (fun (name, slo) ->
          Printf.bprintf buf "slo %s fired %d\n" name (Obs.Slo.fired_count slo))
        (Runtime.Monitor.slos m);
      List.iter
        (fun (inc : Runtime.Recorder.incident) ->
          Printf.bprintf buf "incident #%d at %.17g us trigger %s\n"
            inc.Runtime.Recorder.in_seq inc.in_now_us
            (Runtime.Recorder.trigger_kind inc.in_trigger))
        (Runtime.Recorder.incidents (Runtime.Monitor.recorder m))

type submit = string -> ?deadline_us:float -> Service.request -> unit

let scenario buf name svc (run : submit -> unit) =
  Printf.bprintf buf "=== %s ===\n" name;
  let submit label ?deadline_us req =
    render_result buf label (Service.submit_result ?deadline_us svc req)
  in
  run submit;
  render_service buf svc

let sized_requests arch sizes =
  List.map (fun n -> (Printf.sprintf "%s n=%d" arch.Gpusim.Arch.name n, n)) sizes

let fleet_scenario ?(monitor = false) buf name =
  let svc = new_service () in
  Service.set_profiling svc true;
  if monitor then
    Service.set_monitor svc
      (Some (Runtime.Monitor.create ~snapshot_every:8 (Service.stats svc)));
  let fl =
    Fleet.create ~seed:5
      ~config:
        {
          Fleet.default_config with
          Fleet.fl_hedge_min_samples = 4;
          fl_probe_period = 8;
        }
      [
        Fleet.spec
          ~profile:
            (Fault.Fail_slow { sl_onset = 6; sl_ramp = 1; sl_factor = 10.0 })
          kepler;
        Fleet.spec ~profile:(Fault.Fail_stop 9) kepler;
        Fleet.spec ~profile:(Fault.Flaky 0.3) kepler;
      ]
  in
  Fleet.set_hedging fl true;
  Service.attach_fleet svc fl;
  scenario buf name svc (fun submit ->
      List.iteri
        (fun i n -> submit (Printf.sprintf "#%d n=%d" i n) (request (dense n)))
        (List.init 30 (fun i -> [| 512; 1024; 2048; 4096 |].(i mod 4)));
      (* a drained fleet routes nothing: the host answers *)
      List.iter (fun d -> Fleet.drain fl (Fleet.id d)) (Fleet.devices fl);
      submit "drained n=1024" (request (dense 1024)))

let service_scenarios () : string =
  let buf = Buffer.create 65536 in
  (* quiet: no faults, every size class on two arches, a synthetic
     request, a coalesced batch and a malformed request *)
  let svc = new_service () in
  scenario buf "quiet" svc (fun submit ->
      List.iter
        (fun arch ->
          List.iter
            (fun (label, n) -> submit label (request ~arch (dense n)))
            (sized_requests arch [ 0; 33; 4096; 70000; 33 ]))
        [ kepler; maxwell ];
      submit "synthetic 2^20" (request (synthetic (1 lsl 20)));
      submit "malformed"
        (request (R.Synthetic { n = 16; pattern = [| 1.; 2.; 3. |] }));
      List.iteri
        (fun i r -> render_result buf (Printf.sprintf "batch[%d]" i) r)
        (Service.submit_batch_result svc
           [
             request (dense 33);
             request (dense 4096);
             request (dense 33);
             request (synthetic (1 lsl 20));
             request (dense 33);
           ]));
  (* chaos: loud faults and bit flips with a hair-trigger breaker *)
  let chaos_sizes = List.init 24 (fun i -> [| 256; 1024; 4096 |].(i mod 3)) in
  let run_sizes (submit : submit) =
    List.iteri
      (fun i n -> submit (Printf.sprintf "#%d n=%d" i n) (request (dense n)))
      chaos_sizes
  in
  scenario buf "chaos"
    (new_service ~resilience:chaos_resilience ~fault:(chaos_fault ()) ())
    run_sizes;
  (* a transient-heavy storm with degraded mode off: failures surface
     as errors, retries run out *)
  scenario buf "degraded off"
    (new_service
       ~resilience:{ chaos_resilience with Service.r_allow_degraded = false }
       ~fault:
         (Fault.create
            (Fault.plan ~rate:0.8
               ~mix:[ (Fault.Transient, 0.8); (Fault.Timeout, 0.2) ]
               ~bitflip_rate:0.8 ~seed:1 ()))
       ())
    run_sizes;
  (* deadline budgets, then the brownout ladder set directly *)
  let svc =
    new_service ~resilience:chaos_resilience ~fault:(chaos_fault ()) ()
  in
  Service.set_profiling svc true;
  scenario buf "deadline and brownout" svc (fun submit ->
      List.iteri
        (fun i n ->
          let deadline_us = [| 1.0; 40.0; 1e6 |].(i mod 3) in
          submit
            (Printf.sprintf "#%d n=%d deadline=%g" i n deadline_us)
            ~deadline_us (request (dense n)))
        chaos_sizes;
      List.iter
        (fun level ->
          Service.set_brownout svc level;
          List.iter
            (fun n ->
              submit
                (Printf.sprintf "brownout %d n=%d" level n)
                (request (dense n)))
            [ 256; 1024; 4096; 4096 ])
        [ 1; 2; 3; 4; 0 ]);
  fleet_scenario buf "fleet";
  fleet_scenario ~monitor:true buf "monitored fleet";
  Buffer.contents buf

let service_golden = lazy (service_scenarios ())

(* the scenarios must reach every host-answer reason and every error a
   request can return, or the golden does not cover the paths *)
let service_coverage =
  Alcotest.test_case "scenarios reach every host answer and error kind" `Quick
    (fun () ->
      let text = read_file "golden/service_scenarios.txt" in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle text))
        (List.map
           (Printf.sprintf "host-reference (%s)")
           [ "degraded"; "brownout"; "sdc"; "deadline"; "fleet-down" ]);
      List.iter
        (fun kind ->
          let needle = Printf.sprintf ": error %s: " kind in
          Alcotest.(check bool) needle true (contains ~needle text))
        [ "bad-request"; "transient"; "version-fault"; "sdc"; "deadline" ])

(* ------------------------------------------------------------------ *)
(* The tuner's sampled-mode sweeps                                     *)
(* ------------------------------------------------------------------ *)

(* (K40c, 128) and (P100, 2048) fit in the sampled block budget; the
   GTX 980 key samples blocks, caps loops and spreads global atomics
   over per-block addresses *)
let tuner_keys =
  [ (kepler, 128); (Gpusim.Arch.pascal_p100, 2048); (maxwell, 4096) ]

let render_assignment a =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a)

let tuner_sweeps () : string =
  let buf = Buffer.create 65536 in
  let planner = Lazy.force plan in
  List.iter
    (fun (arch, n) ->
      Printf.bprintf buf "=== %s n=%d ===\n" arch.Gpusim.Arch.name n;
      List.iter
        (fun v ->
          let name = Synthesis.Version.name v in
          match Synthesis.Tuner.tune ~arch ~n (Synthesis.Planner.compiled planner v) with
          | o ->
              List.iter
                (fun (a, t) ->
                  Printf.bprintf buf "%s [%s] %.17g\n" name (render_assignment a) t)
                o.Synthesis.Tuner.sweep;
              Printf.bprintf buf "%s best [%s] %.17g\n" name
                (render_assignment o.Synthesis.Tuner.best)
                o.Synthesis.Tuner.best_time_us
          | exception e ->
              Printf.bprintf buf "%s error %s\n" name (Printexc.to_string e))
        (Synthesis.Version.enumerate_pruned ()))
    tuner_keys;
  Buffer.contents buf

let () =
  if Array.exists (String.equal "--print-service") Sys.argv then begin
    print_string (Lazy.force service_golden);
    exit 0
  end;
  if Array.exists (String.equal "--print-tuner") Sys.argv then begin
    print_string (tuner_sweeps ());
    exit 0
  end

let () =
  Alcotest.run "golden"
    [
      ( "codegen",
        [
          check_golden "Listing 3 structure (version l, CUDA)"
            "golden/listing3_version_l.cu" (cuda "l");
          check_golden "Listing 4 structure (version m, CUDA)"
            "golden/listing4_version_m.cu" (cuda "m");
          check_golden "Figure 3(b) structure (version o, CUDA)"
            "golden/listing3b_version_o.cu" (cuda "o");
          check_golden "version m, PTX" "golden/version_m.ptx" (ptx "m");
          check_golden "version n, PTX" "golden/version_n.ptx" (ptx "n");
          check_golden "version a vectorized, CUDA" "golden/version_a_vectorized.cu"
            (vectorized_cuda "a");
        ] );
      ( "lint",
        [
          check_golden "every sum version, lint text" "golden/lint_sum.txt"
            (lint_all (Lazy.force plan));
          check_golden "every max version, lint text" "golden/lint_max.txt"
            (lint_all (Synthesis.Planner.max_reduction ()));
        ] );
      ( "service",
        [
          check_golden "every request path, deterministic output"
            "golden/service_scenarios.txt" (Lazy.force service_golden);
          service_coverage;
        ] );
      ( "tuner",
        [
          check_golden "every pruned sum version's sweep at three keys"
            "golden/tuner_sweeps.txt" (tuner_sweeps ());
        ] );
    ]
