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
   v}

   The prover golden pins the verdict of every version of the four
   built-in spectra and, for float sum, each proof geometry's input
   size, tunables and reassociation-certificate depth. The slot golden
   pins, for every kernel of every sum and max version, the register
   names in the interpreter's slot order, which register bit flips
   select by. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-prove > test/golden/prove_certs.txt
     dune exec test/test_golden.exe -- --print-slots > test/golden/register_slots.txt
   v}

   The kind golden pins, for every kernel of every version of the four
   built-in spectra and of the CUB and Kokkos baselines, each register's
   kind (int, float or predicate) in slot order. The interpreter and
   both code emitters take their register kinds from one analysis, and
   a refactor of it must leave the golden byte-identical. Regenerate
   with

   {v
     dune exec test/test_golden.exe -- --print-kinds > test/golden/register_kinds.txt
   v}

   The exact-run golden pins the exact-mode result and simulated time
   ([%.17g]) of every sum and max version on the three preset arches at
   n = 1, 33 and 1000 with default tunables, and of one seeded register
   bit flip per version. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-exact > test/golden/exact_runs.txt
   v}

   The counter golden pins every kernel counter ([%.17g]) of every sum
   and max version on the three preset arches: an exact dense run at
   n = 1000 with default tunables, and a sampled run at n = 2^22 under
   the tuner's sampling (8 blocks, loops capped at 12 iterations) at
   each tunable's middle candidate. It also pins the access analyzer's
   per-launch prediction at n = 1000 under the same counter names, and
   its static cost on each preset. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-counts > test/golden/event_counts.txt
   v}

   The race-mutant golden pins the race sanitizer's error diagnostics
   on every distinct seeded mutant (each barrier dropped in turn, the
   first shared atomic de-atomicized, the first barrier under a
   lane-divergent guard, every shuffle widened to 64 lanes) of every sum
   and max version. Regenerate with

   {v
     dune exec test/test_golden.exe -- --print-race-mutants > test/golden/race_mutants.txt
   v}

   The suite runs from the repository root as well as from its build
   directory. *)

(* a golden file, relative to the test directory or the repository root *)
let golden name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

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

(* show the first diverging line, not a wall of text; [generate] runs
   only when the case does, so one group computes only its own text *)
let check_golden name file generate =
  Alcotest.test_case name `Quick (fun () ->
      let path = golden file in
      let expected = read_file path in
      let generated = generate () in
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

(* the scenarios must reach every host-answer reason and every error a
   request can return, or the golden does not cover the paths *)
let service_coverage =
  Alcotest.test_case "scenarios reach every host answer and error kind" `Quick
    (fun () ->
      let text = read_file (golden "service_scenarios.txt") in
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

(* ------------------------------------------------------------------ *)
(* The prover's verdicts and the interpreter's register slots          *)
(* ------------------------------------------------------------------ *)

let spectra =
  [
    ("sum", plan);
    ("max", lazy (Synthesis.Planner.max_reduction ()));
    ("min", lazy (Synthesis.Planner.min_reduction ()));
    ("int", lazy (Synthesis.Planner.int_sum ()));
  ]

let prove_certs () : string =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (spectrum, planner) ->
      Printf.bprintf buf "=== %s ===\n" spectrum;
      List.iter
        (fun v ->
          let verdict = Synthesis.Planner.prove (Lazy.force planner) v in
          Printf.bprintf buf "%s %s\n" (Synthesis.Version.name v)
            (Symbolic.Prove.describe verdict);
          match verdict with
          | Symbolic.Prove.Proved_reassoc certs ->
              List.iter
                (fun (c : Symbolic.Prove.cert) ->
                  Printf.bprintf buf "  n=%d [%s] depth %d\n" c.Symbolic.Prove.c_n
                    (render_assignment c.c_tunables) c.c_depth)
                certs
          | Symbolic.Prove.Proved | Symbolic.Prove.Refuted _ -> ())
        (Synthesis.Version.enumerate ()))
    spectra;
  Buffer.contents buf

let register_slots () : string =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (spectrum, planner) ->
      List.iter
        (fun v ->
          let p = Synthesis.Planner.program (Lazy.force planner) v in
          List.iter
            (fun (k : Device_ir.Ir.kernel) ->
              let ck = Gpusim.Compiled.compile k in
              Printf.bprintf buf "%s %s/%s:%s\n" spectrum
                (Synthesis.Version.name v) k.Device_ir.Ir.k_name
                (String.concat ""
                   (List.map (( ^ ) " ") (Array.to_list
                      ck.Gpusim.Compiled.kernel.Device_ir.Resolve.rk_reg_names))))
            p.Device_ir.Ir.p_kernels)
        (Synthesis.Version.enumerate ()))
    (List.filter (fun (s, _) -> s = "sum" || s = "max") spectra);
  Buffer.contents buf

(* every kernel of the four spectra and of the CUB and Kokkos
   baselines, with each register's kind in the interpreter's slot order *)
let register_kinds () : string =
  let buf = Buffer.create 131072 in
  let kernel label (k : Device_ir.Ir.kernel) =
    let ck = Gpusim.Compiled.compile k in
    Printf.bprintf buf "%s/%s:" label k.Device_ir.Ir.k_name;
    Array.iteri
      (fun i name ->
        Printf.bprintf buf " %s:%s" name
          (match ck.Gpusim.Compiled.slots.(i) with
          | Gpusim.Compiled.Int_reg _ -> "int"
          | Gpusim.Compiled.Float_reg _ -> "float"
          | Gpusim.Compiled.Pred_reg _ -> "pred"))
      ck.Gpusim.Compiled.kernel.Device_ir.Resolve.rk_reg_names;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (spectrum, planner) ->
      List.iter
        (fun v ->
          let p = Synthesis.Planner.program (Lazy.force planner) v in
          List.iter
            (kernel (spectrum ^ " " ^ Synthesis.Version.name v))
            p.Device_ir.Ir.p_kernels)
        (Synthesis.Version.enumerate ()))
    spectra;
  List.iter
    (fun (name, (p : Device_ir.Ir.program)) ->
      List.iter (kernel name) p.Device_ir.Ir.p_kernels)
    [
      ("cub", Baselines.Cub.program Gpusim.Arch.maxwell_gtx980);
      ("kokkos", Baselines.Kokkos.program Gpusim.Arch.maxwell_gtx980);
    ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exact-mode runs of every version                                    *)
(* ------------------------------------------------------------------ *)

(* mixed signs and fractions, so float sums round and max sees negatives *)
let exact_input n =
  Array.init n (fun i -> (float_of_int ((i * 7919) mod 1000) /. 8.0) -. 60.0)

let render_outcome (o : R.outcome) =
  Printf.sprintf "result %.17g time_us %.17g" o.R.result o.R.time_us

(* the first seed from [from] whose first drawn flip lands in a register:
   at bitflip rate 1 the global-memory space always fires first *)
let register_flip_plan from =
  let rec go seed =
    let plan = Fault.plan ~rate:0.0 ~bitflip_rate:0.5 ~seed () in
    match Fault.roll_flip (Fault.create plan) with
    | Some { Fault.fl_space = Fault.Register; _ } -> plan
    | _ -> go (seed + 1)
  in
  go from

let exact_runs () : string =
  let buf = Buffer.create 65536 in
  let run label f =
    Printf.bprintf buf "%s %s\n" label
      (match f () with
      | o -> render_outcome o
      | exception e -> "error " ^ Printexc.to_string e)
  in
  List.iter
    (fun (spectrum, planner) ->
      Printf.bprintf buf "=== %s ===\n" spectrum;
      List.iteri
        (fun i v ->
          let name = Synthesis.Version.name v in
          let cp = Synthesis.Planner.compiled (Lazy.force planner) v in
          List.iter
            (fun (arch : Gpusim.Arch.t) ->
              List.iter
                (fun n ->
                  run
                    (Printf.sprintf "%s %s n=%d" name arch.Gpusim.Arch.name n)
                    (fun () ->
                      R.run_compiled ~arch ~input:(R.Dense (exact_input n)) cp))
                [ 1; 33; 1000 ])
            Gpusim.Arch.presets;
          let arch = List.nth Gpusim.Arch.presets (i mod 3) in
          let plan = register_flip_plan (100 * i) in
          run
            (Printf.sprintf "%s %s n=1000 register flip seed %d" name
               arch.Gpusim.Arch.name plan.Fault.f_seed)
            (fun () ->
              R.run_compiled ~fault:(Fault.create plan) ~arch
                ~input:(R.Dense (exact_input 1000)) cp))
        (Synthesis.Version.enumerate ()))
    (List.filter (fun (s, _) -> s = "sum" || s = "max") spectra);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Observed and predicted kernel counters                              *)
(* ------------------------------------------------------------------ *)

let render_fields fields =
  String.concat " "
    (List.map (fun (name, v) -> Printf.sprintf "%s=%.17g" name v) fields)

let render_totals (o : R.outcome) =
  render_fields
    (Gpusim.Events.totals_fields
       (Gpusim.Events.totals_of_list
          (List.map
             (fun (lr : Gpusim.Interp.launch_result) -> lr.Gpusim.Interp.lr_events)
             o.R.launch_results)))

(* the tuner's sampling at each tunable's middle candidate *)
let sampled_opts =
  { Gpusim.Interp.max_blocks = Some 8; loop_cap = Some 12; check_uniform = false }

let middle_tunables (p : Device_ir.Ir.program) =
  List.map
    (fun (name, cands) -> (name, List.nth cands (List.length cands / 2)))
    p.Device_ir.Ir.p_tunables

let event_counts () : string =
  let buf = Buffer.create 65536 in
  let line label f =
    Printf.bprintf buf "%s %s\n" label
      (match f () with s -> s | exception e -> "error " ^ Printexc.to_string e)
  in
  let sampled_n = 1 lsl 22 in
  let pattern = Array.init 1024 (fun i -> float_of_int (i land 15)) in
  List.iter
    (fun (spectrum, planner) ->
      Printf.bprintf buf "=== %s ===\n" spectrum;
      List.iter
        (fun v ->
          let name = Synthesis.Version.name v in
          let p = Synthesis.Planner.program (Lazy.force planner) v in
          let cp = Synthesis.Planner.compiled (Lazy.force planner) v in
          let middle = middle_tunables p in
          List.iter
            (fun (arch : Gpusim.Arch.t) ->
              let arch_name = arch.Gpusim.Arch.name in
              line (Printf.sprintf "%s %s exact n=1000:" name arch_name) (fun () ->
                  render_totals
                    (R.run_compiled ~arch ~input:(R.Dense (exact_input 1000)) cp));
              line
                (Printf.sprintf "%s %s sampled n=%d [%s]:" name arch_name sampled_n
                   (render_assignment middle))
                (fun () ->
                  render_totals
                    (R.run_compiled ~opts:sampled_opts ~arch ~tunables:middle
                       ~input:(R.Synthetic { n = sampled_n; pattern })
                       cp)))
            Gpusim.Arch.presets;
          let an = Device_ir.Access.analyze ~n:1000 p in
          List.iter
            (fun (lp : Device_ir.Access.launch_pred) ->
              Printf.bprintf buf "%s predicted n=1000 %s: %s\n" name
                lp.Device_ir.Access.lp_kernel
                (render_fields (Device_ir.Counters.fields lp.Device_ir.Access.lp_totals)))
            an.Device_ir.Access.an_launches;
          let n_inits =
            List.length
              (List.filter
                 (fun (b : Device_ir.Ir.buffer) -> b.Device_ir.Ir.buf_init <> None)
                 p.Device_ir.Ir.p_buffers)
          in
          List.iter
            (fun (arch : Gpusim.Arch.t) ->
              Printf.bprintf buf "%s %s static n=1000: time_us=%.17g\n" name
                arch.Gpusim.Arch.name
                (Gpusim.Cost.of_static_program arch ~n_inits an))
            Gpusim.Arch.presets)
        (Synthesis.Version.enumerate ()))
    (List.filter (fun (s, _) -> s = "sum" || s = "max") spectra);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The race sanitizer on seeded mutants                                *)
(* ------------------------------------------------------------------ *)

let race_mutants () : string =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (spectrum, planner) ->
      Printf.bprintf buf "=== %s ===\n" spectrum;
      List.iter
        (fun v ->
          let p = Synthesis.Planner.program (Lazy.force planner) v in
          let mutants =
            List.init (Mutate.count_syncs p) (fun i ->
                (Printf.sprintf "drop barrier %d" i, Mutate.drop_sync i p))
            @ [
                ("de-atomicize", Mutate.de_atomicize p);
                ("divergent barrier", Mutate.divergent_barrier p);
                ("widen shuffles", Mutate.widen_shuffles p);
              ]
          in
          (* a rewrite that leaves the program as it is, or as an earlier
             rewrite left it, is no new mutant *)
          let seen = ref [ p ] in
          List.iter
            (fun (label, m) ->
              if not (List.exists (fun q -> compare q m = 0) !seen) then begin
                seen := m :: !seen;
                let errors = Device_ir.Diag.errors (Device_ir.Race.check_program m) in
                Printf.bprintf buf "%s %s: %s\n" (Synthesis.Version.name v) label
                  (Device_ir.Diag.summary errors);
                if errors <> [] then
                  Printf.bprintf buf "%s\n" (Device_ir.Diag.render errors)
              end)
            mutants)
        (Synthesis.Version.enumerate ()))
    (List.filter (fun (s, _) -> s = "sum" || s = "max") spectra);
  Buffer.contents buf

let () =
  if Array.exists (String.equal "--print-race-mutants") Sys.argv then begin
    print_string (race_mutants ());
    exit 0
  end;
  if Array.exists (String.equal "--print-prove") Sys.argv then begin
    print_string (prove_certs ());
    exit 0
  end;
  if Array.exists (String.equal "--print-exact") Sys.argv then begin
    print_string (exact_runs ());
    exit 0
  end;
  if Array.exists (String.equal "--print-counts") Sys.argv then begin
    print_string (event_counts ());
    exit 0
  end;
  if Array.exists (String.equal "--print-slots") Sys.argv then begin
    print_string (register_slots ());
    exit 0
  end;
  if Array.exists (String.equal "--print-kinds") Sys.argv then begin
    print_string (register_kinds ());
    exit 0
  end;
  if Array.exists (String.equal "--print-service") Sys.argv then begin
    print_string (service_scenarios ());
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
            "listing3_version_l.cu" (fun () -> cuda "l");
          check_golden "Listing 4 structure (version m, CUDA)"
            "listing4_version_m.cu" (fun () -> cuda "m");
          check_golden "Figure 3(b) structure (version o, CUDA)"
            "listing3b_version_o.cu" (fun () -> cuda "o");
          check_golden "version m, PTX" "version_m.ptx" (fun () -> ptx "m");
          check_golden "version n, PTX" "version_n.ptx" (fun () -> ptx "n");
          check_golden "version a vectorized, CUDA" "version_a_vectorized.cu"
            (fun () -> vectorized_cuda "a");
        ] );
      ( "lint",
        [
          check_golden "every sum version, lint text" "lint_sum.txt"
            (fun () -> lint_all (Lazy.force plan));
          check_golden "every max version, lint text" "lint_max.txt"
            (fun () -> lint_all (Synthesis.Planner.max_reduction ()));
        ] );
      ( "service",
        [
          check_golden "every request path, deterministic output"
            "service_scenarios.txt" service_scenarios;
          service_coverage;
        ] );
      ( "tuner",
        [
          check_golden "every pruned sum version's sweep at three keys"
            "tuner_sweeps.txt" tuner_sweeps;
        ] );
      ( "prove",
        [
          check_golden "every version's verdict, sum's certificate depths"
            "prove_certs.txt" prove_certs;
        ] );
      ( "slots",
        [
          check_golden "every sum and max kernel's register slot order"
            "register_slots.txt" register_slots;
        ] );
      ( "kinds",
        [
          check_golden "every spectrum and baseline kernel's register kinds"
            "register_kinds.txt" register_kinds;
        ] );
      ( "exact",
        [
          check_golden "every sum and max version in exact mode, three arches"
            "exact_runs.txt" exact_runs;
        ] );
      ( "race",
        [
          check_golden "every sum and max version's seeded mutants"
            "race_mutants.txt" race_mutants;
        ] );
      ( "counts",
        [
          check_golden "every sum and max version's observed and predicted counters"
            "event_counts.txt" event_counts;
        ] );
    ]
