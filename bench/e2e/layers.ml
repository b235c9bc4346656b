(* Per-layer accounting for traced runs.

   Two sources feed the per-layer metrics. Layers the benchmark calls
   itself (front end, lowering, sanitizers, prover, compiler, CUDA
   emitter) are timed directly around the public call, with their
   allocation, through [call]. Layers inside the service (lookup,
   ladder, guard, tuner, interpreter) are read back from the spans the
   library already records: a span's self time is its duration minus
   the part its child spans cover. *)

let now = Unix.gettimeofday

(* Words allocated so far. [Gc.minor_words] is exact; the minor count in
   [Gc.quick_stat] only moves at minor collections on OCaml 5. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type acc = { mutable seconds : float; mutable calls : int; mutable words : float }

let direct : (string, acc) Hashtbl.t = Hashtbl.create 16
let collecting = ref false

let acc name =
  match Hashtbl.find_opt direct name with
  | Some a -> a
  | None ->
      let a = { seconds = 0.0; calls = 0; words = 0.0 } in
      Hashtbl.add direct name a;
      a

(** Call one public layer function. While [collecting], the call is
    timed, its allocation counted, and it is wrapped in a span named
    after the layer so it shows in the Chrome trace; otherwise this is
    a plain call. *)
let call (name : string) (f : unit -> 'a) : 'a =
  if not !collecting then f ()
  else begin
    let a = acc name in
    let w0 = alloc_words () and t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        a.seconds <- a.seconds +. (now () -. t0);
        a.words <- a.words +. (alloc_words () -. w0);
        a.calls <- a.calls + 1)
      (fun () -> Obs.Trace.span ~name f)
  end

(** The directly timed layers, in report order. *)
let direct_layers =
  [
    "tir.parse_check";
    "passes.pipeline";
    "synthesis.enumerate";
    "synthesis.lower";
    "device_ir.validate";
    "device_ir.race";
    "device_ir.access";
    "symbolic.prove";
    "gpusim.compile";
    "device_ir.cuda";
  ]

(* ------------------------------------------------------------------ *)
(* Span-derived service layers                                         *)
(* ------------------------------------------------------------------ *)

type spans = {
  mutable lookup_s : float;
  mutable service_s : float;  (** request, plan, rung, attempt *)
  mutable guard_s : float;  (** verify, witness, reexec, vote *)
  mutable tune_total_s : float;  (** inclusive duration of [tune] spans *)
  mutable misses : int;  (** [tune] spans: one per planned bucket *)
  mutable sweeps : int;
  mutable tune_runs : int;
  mutable tune_run_s : float;
  mutable serve_run_s : float;
}

let empty_spans () =
  {
    lookup_s = 0.0;
    service_s = 0.0;
    guard_s = 0.0;
    tune_total_s = 0.0;
    misses = 0;
    sweeps = 0;
    tune_runs = 0;
    tune_run_s = 0.0;
    serve_run_s = 0.0;
  }

let self_s (n : Obs.Trace.node) =
  let children =
    List.fold_left (fun acc c -> acc +. c.Obs.Trace.n_dur_us) 0.0 n.Obs.Trace.n_children
  in
  Float.max 0.0 (n.Obs.Trace.n_dur_us -. children) /. 1e6

(** Attribute the self time of every span under [roots]. A [run] span
    belongs to the tuner when it sits under a [sweep], otherwise it is
    a served execution. Other spans, such as the ones named after a
    directly timed layer, count only towards coverage. *)
let attribute (roots : Obs.Trace.node list) : spans =
  let s = empty_spans () in
  let rec walk ~in_sweep (n : Obs.Trace.node) =
    let self = self_s n in
    let in_sweep = in_sweep || n.Obs.Trace.n_name = "sweep" in
    (match n.Obs.Trace.n_name with
    | "run" when in_sweep ->
        s.tune_runs <- s.tune_runs + 1;
        s.tune_run_s <- s.tune_run_s +. self
    | "run" -> s.serve_run_s <- s.serve_run_s +. self
    | "lookup" -> s.lookup_s <- s.lookup_s +. self
    | "request" | "plan" | "rung" | "attempt" -> s.service_s <- s.service_s +. self
    | "verify" | "witness" | "reexec" | "vote" -> s.guard_s <- s.guard_s +. self
    | "tune" ->
        s.misses <- s.misses + 1;
        s.tune_total_s <- s.tune_total_s +. (n.Obs.Trace.n_dur_us /. 1e6)
    | "sweep" -> s.sweeps <- s.sweeps + 1
    | _ -> ());
    List.iter (walk ~in_sweep) n.Obs.Trace.n_children
  in
  List.iter (walk ~in_sweep:false) roots;
  s

let covered_s (roots : Obs.Trace.node list) =
  List.fold_left (fun acc n -> acc +. (n.Obs.Trace.n_dur_us /. 1e6)) 0.0 roots

(* ------------------------------------------------------------------ *)
(* The per-layer metrics                                               *)
(* ------------------------------------------------------------------ *)

type traced = {
  setup_roots : Obs.Trace.node list;
  measured_roots : Obs.Trace.node list;
  setup_wall_s : float;
  measured_wall_s : float;
  untraced_wall_s : float;  (** the same rounds, run with tracing off *)
  requests : int;  (** service requests in the traced measured phase *)
  hits : int;
  sdc_checks : int;
  warp_insts : float;  (** simulated, from the service's kernel profile *)
  dram_bytes : float;
  cuda_bytes : float;  (** CUDA source emitted in the traced phases *)
}

let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div a (float_of_int b)

let coverage (t : traced) =
  div
    (covered_s t.setup_roots +. covered_s t.measured_roots)
    (t.setup_wall_s +. t.measured_wall_s)

(** Every per-layer metric as (name, value, unit). Per-request service
    metrics cover the traced measured phase; tuner metrics cover every
    miss traced (set-up and measured); directly timed layers are per
    call over set-up and measured phases. A metric whose layer did not
    run in this workload reads 0. *)
let metrics (t : traced) : (string * float * string) list =
  let m = attribute t.measured_roots in
  let all = attribute (t.setup_roots @ t.measured_roots) in
  let req = t.requests in
  let direct_ms name =
    match Hashtbl.find_opt direct name with
    | Some a -> fdiv (a.seconds *. 1e3) a.calls
    | None -> 0.0
  in
  let direct_mwords name =
    match Hashtbl.find_opt direct name with
    | Some a -> fdiv (a.words /. 1e6) a.calls
    | None -> 0.0
  in
  let cuda_calls = match Hashtbl.find_opt direct "device_ir.cuda" with Some a -> a.calls | None -> 0 in
  [
    ("runtime.lookup.us_per_req", fdiv (m.lookup_s *. 1e6) req, "us");
    ("runtime.service.us_per_req", fdiv (m.service_s *. 1e6) req, "us");
    ("runtime.plan_cache.hit_ratio", fdiv (float_of_int t.hits) req, "ratio");
    ("runtime.guard.ms_per_req", fdiv (m.guard_s *. 1e3) req, "ms");
    ("runtime.sdc_checks_per_req", fdiv (float_of_int t.sdc_checks) req, "count");
    ("synthesis.tuner.ms_per_miss", fdiv (all.tune_total_s *. 1e3) all.misses, "ms");
    ("synthesis.tuner.sweeps_per_miss", fdiv (float_of_int all.sweeps) all.misses, "count");
    ("synthesis.tuner.runs_per_miss", fdiv (float_of_int all.tune_runs) all.misses, "count");
    ("synthesis.tuner.useful_ratio", fdiv (float_of_int all.sweeps) all.tune_runs, "ratio");
    ("gpusim.tune_run.ms_per_run", fdiv (all.tune_run_s *. 1e3) all.tune_runs, "ms");
    ("gpusim.tune_run.share_pct", 100.0 *. div m.tune_run_s t.measured_wall_s, "%");
    ("gpusim.serve_run.ms_per_req", fdiv (m.serve_run_s *. 1e3) req, "ms");
    ("gpusim.serve_run.share_pct", 100.0 *. div m.serve_run_s t.measured_wall_s, "%");
    ("gpusim.serve.warp_insts_per_req", fdiv t.warp_insts req, "count");
    ("gpusim.serve.dram_mb_per_req", fdiv (t.dram_bytes /. 1e6) req, "MB");
    ("gpusim.serve.ns_per_warp_inst", div (m.serve_run_s *. 1e9) t.warp_insts, "ns");
  ]
  @ List.map (fun name -> (name ^ ".ms", direct_ms name, "ms")) direct_layers
  @ [ ("device_ir.cuda.kbytes", fdiv (t.cuda_bytes /. 1e3) cuda_calls, "kB") ]
  @ List.map (fun name -> (name ^ ".alloc_mwords", direct_mwords name, "Mwords")) direct_layers
  @ [
      ( "obs.trace_overhead_pct",
        100.0 *. (div t.measured_wall_s t.untraced_wall_s -. 1.0),
        "%" );
      ("obs.trace_coverage_pct", 100.0 *. coverage t, "%");
    ]
