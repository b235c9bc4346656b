(* End-to-end benchmark: per-operation host latency and throughput of
   the reduction service and the compile path, one workload per
   process, with a traced per-layer breakdown.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
     main.exe compare A_DIR B_DIR
     main.exe smoke-check BENCHMARK.json
     main.exe selftest

   The last line of a run is one JSON object:
   {"correct":..., "attempted":..., "failed":..., "metrics":{name:{"value":v,"unit":u}}}
   with the end-to-end metrics untraced and the per-layer metrics traced.
   See README.md for the workloads, the metrics and how to compare runs. *)

module W = Workloads
module J = Obs.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

(* linear interpolation between closest ranks *)
let percentile p l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float (Float.floor pos) in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median l = percentile 0.5 l

(* Python's statistics.quantiles(data, n=4), default 'exclusive' method *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then (median l, median l, median l)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let geomean = function
  | [] -> 0.0
  | l -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

(* Runs rounds [first], [first + 1], ... while [continue measured n]
   holds, where [measured] is the time spent in the [n] rounds run so
   far. Returns each round's (duration, ops), oldest first. *)
let run_rounds (inst : W.instance) ~first ~continue =
  let rec go r measured acc =
    if not (continue measured (r - first)) then List.rev acc
    else
      let t0 = now () in
      let ops = inst.W.round r in
      let d = now () -. t0 in
      go (r + 1) (measured +. d) ((d, ops) :: acc)
  in
  go first 0.0 []

let round_seconds rounds = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 rounds
let latencies rounds = List.concat_map (fun (_, ops) -> List.map snd ops) rounds

(* ------------------------------------------------------------------ *)
(* Busy rounds                                                         *)
(* ------------------------------------------------------------------ *)

(* The host shares its cores with other tenants. While a neighbour is
   busy, this program's memory-bound work runs some 1.45x slower (a
   register-only loop does not slow down), in stretches from a tenth of
   a second to minutes. A run's median latency and its throughput over
   all rounds mostly tell how long the host was slow. In 20 runs of
   warm-sampled whose rounds were logged, the host was slow for 18% to
   100% of each run, and two runs never reached its fast level. So
   [latency_p50_ms] and [throughput_rps] are taken at the slow level,
   the one every run reaches: over the run's busy rounds, the tenth of
   its rounds in which the host ran slowest, but never fewer than
   eight. Among fewer rounds, each seconds long, the differences
   between rounds are mostly chance, and a selection would only shrink
   the sample. So cold-start uses all its three rounds, and compile-all
   most or all of its 6 to 12.

   A round's pace is the median, over its operations, of the
   operation's latency divided by the median latency of its kind over
   the run. A median ignores a few slow operations, so a round is not
   picked for holding an intermittent cost of the program (a major GC
   slice, a slow path), and the busy rounds carry such costs at their
   usual rate. [selftest] checks that. *)
let busy_share = 0.1
let busy_min = 8

let busy_rounds rounds =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun (_, ops) ->
      List.iter
        (fun (kind, lat) ->
          Hashtbl.replace by_kind kind (lat :: Option.value ~default:[] (Hashtbl.find_opt by_kind kind)))
        ops)
    rounds;
  let typical = Hashtbl.create 16 in
  Hashtbl.iter (fun kind lats -> Hashtbl.replace typical kind (median lats)) by_kind;
  let pace (_, ops) = median (List.map (fun (kind, lat) -> lat /. Hashtbl.find typical kind) ops) in
  let n = List.length rounds in
  let keep = max (min busy_min n) (int_of_float (Float.ceil (busy_share *. float_of_int n))) in
  List.map (fun r -> (pace r, r)) rounds
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < keep)
  |> List.map snd

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let report_verdict (v : W.verdict) =
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) (List.rev v.W.problems);
  v.W.failed = 0 && v.W.checked > 0

(* The set-ups are spread through the run: set-up [i] of [reps] is
   followed by rounds on its instance until [i/reps] of [seconds] have
   been measured, so their median does not hinge on one noisy moment. *)
let end_to_end (o : opts) : bool * int * int * (string * float * string) list =
  let w = o.workload in
  let prepare = w.W.setup ~seed:o.seed ~smoke:o.smoke in
  let reps = if o.smoke then 1 else w.W.setup_reps in
  let rec chunk i (setup_times, rounds, words, verdict) =
    if i > reps then (setup_times, List.rev rounds, words, verdict)
    else begin
      let t0 = now () in
      let inst = prepare () in
      let setup_s = now () -. t0 in
      let target = o.seconds *. float_of_int i /. float_of_int reps in
      let done_s = round_seconds rounds in
      let w0 = Layers.alloc_words () in
      let fresh =
        run_rounds inst ~first:(List.length rounds) ~continue:(fun measured n ->
            done_s +. measured < target || (i = reps && rounds = [] && n = 0))
      in
      let words = words +. (Layers.alloc_words () -. w0) in
      chunk (i + 1)
        ( setup_s :: setup_times,
          List.rev_append fresh rounds,
          words,
          W.merge verdict (inst.W.finish ()) )
    end
  in
  let setup_times, rounds, words, v = chunk 1 ([], [], 0.0, W.no_verdict) in
  let lats = latencies rounds in
  let ops = float_of_int (List.length lats) in
  let busy = busy_rounds rounds in
  let busy_lats = latencies busy in
  let ok = report_verdict v in
  Printf.printf "%s: seed %d, %d set-ups, %d rounds (%d busy), %.0f ops, %d outputs checked\n"
    w.W.name o.seed reps (List.length rounds) (List.length busy) ops v.W.checked;
  Printf.printf "  over all rounds: p50 %.6g ms, %.6g ops/s\n" (1e3 *. median lats)
    (ops /. round_seconds rounds);
  ( ok,
    v.W.checked,
    v.W.failed,
    [
      ("setup_s", median setup_times, "s");
      ("latency_p50_ms", 1e3 *. median busy_lats, "ms");
      ("latency_p99_ms", 1e3 *. percentile 0.99 lats, "ms");
      ("throughput_rps", float_of_int (List.length busy_lats) /. round_seconds busy, "1/s");
      ("speedup_vs_cub_geomean", geomean v.W.speedups, "x");
      ("alloc_mwords_per_op", words /. ops /. 1e6, "Mwords");
      ("peak_heap_mb", heap_mb (), "MB");
    ] )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let num x = J.Num (if Float.is_finite x then x else 0.0)

let metrics_json metrics =
  J.Obj (List.map (fun (name, value, unit) -> (name, J.Obj [ ("value", num value); ("unit", J.Str unit) ])) metrics)

(* A traced run: one traced set-up, the measured rounds untraced, then
   the same rounds again with tracing and kernel profiling on. *)
let traced (o : opts) : bool * int * int * (string * float * string) list =
  let w = o.workload in
  let prepare = w.W.setup ~seed:o.seed ~smoke:o.smoke in
  Obs.Trace.set_capacity (1 lsl 20);
  let tracing on =
    Obs.Trace.set_enabled on;
    Layers.collecting := on
  in
  tracing true;
  let t0 = now () in
  let inst = prepare () in
  let setup_wall_s = now () -. t0 in
  let setup_roots = List.length (Obs.Trace.forest ()) in
  tracing false;
  let untraced =
    run_rounds inst ~first:0 ~continue:(fun measured n -> n = 0 || measured < o.seconds)
  in
  let rounds = List.length untraced in
  let req0, hits0, sdc0, _, _ = inst.W.service_counts () in
  tracing true;
  inst.W.set_profiling true;
  let t1 = now () in
  ignore (run_rounds inst ~first:0 ~continue:(fun _ n -> n < rounds));
  let measured_wall_s = now () -. t1 in
  inst.W.set_profiling false;
  tracing false;
  let req1, hits1, sdc1, warp_insts, dram_bytes = inst.W.service_counts () in
  let roots = Obs.Trace.forest () in
  let t =
    {
      Layers.setup_roots = List.filteri (fun i _ -> i < setup_roots) roots;
      measured_roots = List.filteri (fun i _ -> i >= setup_roots) roots;
      setup_wall_s;
      measured_wall_s;
      untraced_wall_s = round_seconds untraced;
      requests = req1 - req0;
      hits = hits1 - hits0;
      sdc_checks = sdc1 - sdc0;
      warp_insts;
      dram_bytes;
      cuda_bytes = inst.W.cuda_bytes ();
    }
  in
  let metrics = Layers.metrics t in
  let v = inst.W.finish () in
  let ok = report_verdict v in
  let dropped = Obs.Trace.dropped () and coverage = Layers.coverage t in
  if dropped > 0 then Printf.eprintf "FAIL the trace ring dropped %d events\n" dropped;
  if coverage < 0.95 then
    Printf.eprintf "FAIL span self times cover %.1f%% of the traced wall time (need 95%%)\n"
      (100.0 *. coverage);
  mkdir_p o.out;
  let base = Filename.concat o.out w.W.name in
  Obs.Trace.save (base ^ ".trace.json");
  write_file (base ^ ".layers.json")
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str w.W.name);
            ("seed", num (float_of_int o.seed));
            ("rounds", num (float_of_int rounds));
            ("dropped_events", num (float_of_int dropped));
            ("metrics", metrics_json metrics);
          ])
    ^ "\n");
  Printf.printf "%s (traced): seed %d, %d rounds, trace in %s.trace.json\n" w.W.name
    o.seed rounds base;
  (ok && dropped = 0 && coverage >= 0.95, v.W.checked, v.W.failed, metrics)

let result_json ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", num (float_of_int attempted));
         ("failed", num (float_of_int failed));
         ("metrics", metrics_json metrics);
       ])

let run (o : opts) =
  let correct, attempted, failed, metrics = (if o.trace then traced else end_to_end) o in
  List.iter (fun (name, value, unit) -> Printf.printf "  %-36s %14.6g %s\n" name value unit) metrics;
  print_endline (result_json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type spec_metric = { m_name : string; m_unit : string; m_better : string; m_bound : float option }

let read_json path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field name j = match J.member name j with Some x -> x | None -> failwith ("missing " ^ name)
let str j = Option.get (J.to_str j)
let list j = Option.get (J.to_list j)

let spec_metrics key spec =
  List.map
    (fun m ->
      {
        m_name = str (field "name" m);
        m_unit = str (field "unit" m);
        m_better = str (field "better" m);
        m_bound = Option.bind (J.member "bound" m) J.to_float;
      })
    (list (field key spec))

let spec_workloads spec = List.map (fun w -> str (field "name" w)) (list (field "workloads" spec))

(* the (name, unit) pairs of a run's last stdout line *)
let printed_metrics (result : J.t) =
  match field "metrics" result with
  | J.Obj kvs -> List.map (fun (name, m) -> (name, str (field "unit" m), Option.get (J.to_float (field "value" m)))) kvs
  | _ -> failwith "metrics is not an object"

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* ------------------------------------------------------------------ *)
(* compare A_DIR B_DIR                                                 *)
(* ------------------------------------------------------------------ *)

(* Result files are the stdout of runs, named <workload>.<anything>. *)
let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun file ->
         match String.index_opt file '.' with
         | None -> None
         | Some i -> (
             let text = In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all in
             match J.of_string (last_line text) with
             | Ok j -> Some (String.sub file 0 i, printed_metrics j)
             | Error _ ->
                 Printf.eprintf "skipping %s: last line is not a result\n" file;
                 None))

let compare_dirs a_dir b_dir =
  let spec = read_json "BENCHMARK.json" in
  let metrics = spec_metrics "end_to_end" spec @ spec_metrics "per_layer" spec in
  let a = load_dir a_dir and b = load_dir b_dir in
  let values runs workload name =
    List.concat_map
      (fun (w, ms) ->
        if w <> workload then []
        else List.filter_map (fun (n, _, x) -> if n = name then Some x else None) ms)
      runs
  in
  let disagree = ref 0 in
  Printf.printf "%-14s %-36s %3s %12s %12s %12s %7s | %3s %12s %12s %12s %7s | %s\n" "workload" "metric" "nA"
    "q1" "median" "q3" "spread" "nB" "q1" "median" "q3" "spread" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let va = values a workload m.m_name and vb = values b workload m.m_name in
          if va <> [] || vb <> [] then begin
            let qa1, qa2, qa3 = quartiles va and qb1, qb2, qb3 = quartiles vb in
            let spread q1 q2 q3 = if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2 in
            let verdict =
              match m.m_bound with
              | None -> "-"
              | Some _ when va = [] || vb = [] -> "missing"
              | Some bound ->
                  let change = if qa2 = 0.0 then 0.0 else (qb2 -. qa2) /. Float.abs qa2 in
                  let worse = if m.m_better = "lower" then change else -.change in
                  let agree = Float.abs change <= bound in
                  if not agree then incr disagree;
                  Printf.sprintf "%s (%+.1f%%, B %s, bound %.0f%%)"
                    (if agree then "agree" else "DIFFER")
                    (100.0 *. change)
                    (if worse > 0.0 then "worse" else "better")
                    (100.0 *. bound)
            in
            Printf.printf "%-14s %-36s %3d %12.6g %12.6g %12.6g %6.1f%% | %3d %12.6g %12.6g %12.6g %6.1f%% | %s\n"
              workload m.m_name (List.length va) qa1 qa2 qa3
              (100.0 *. spread qa1 qa2 qa3)
              (List.length vb) qb1 qb2 qb3
              (100.0 *. spread qb1 qb2 qb3)
              verdict
          end)
        metrics)
    (spec_workloads spec);
  Printf.printf "%d bounded (metric, workload) pairs disagree\n" !disagree;
  exit (if !disagree = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* smoke-check BENCHMARK.json                                          *)
(* ------------------------------------------------------------------ *)

(* Runs every workload at smoke scale, untraced and traced, each in its
   own process, and checks that each prints exactly the metrics
   BENCHMARK.json lists, with the same units, and passes its checks. *)
let smoke_check spec_path =
  let spec = read_json spec_path in
  let errors = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr errors; prerr_endline ("smoke-check: " ^ s)) fmt in
  let names = spec_workloads spec in
  List.iter
    (fun w -> if not (List.mem w.W.name names) then fail "workload %s is not in %s" w.W.name spec_path)
    W.all;
  List.iter
    (fun name ->
      List.iter
        (fun (trace, key) ->
          let args =
            [| Sys.executable_name; "--workload"; name; "--seed"; "1"; "--seconds"; "0";
               "--trace"; trace; "--smoke"; "--out"; "smoke-out" |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let out = In_channel.input_all ic in
          let status = Unix.close_process_in ic in
          if status <> Unix.WEXITED 0 then fail "%s --trace %s exited abnormally" name trace;
          match J.of_string (last_line out) with
          | Error e -> fail "%s --trace %s: last line is not JSON (%s)" name trace e
          | Ok result ->
              if J.member "correct" result <> Some (J.Bool true) then
                fail "%s --trace %s: not correct" name trace;
              let printed = List.map (fun (n, u, _) -> (n, u)) (printed_metrics result) in
              let expected = List.map (fun m -> (m.m_name, m.m_unit)) (spec_metrics key spec) in
              List.iter
                (fun (n, u) ->
                  match List.assoc_opt n printed with
                  | None -> fail "%s --trace %s: %s not printed" name trace n
                  | Some u' when u' <> u -> fail "%s --trace %s: %s printed in %s, listed in %s" name trace n u' u
                  | Some _ -> ())
                expected;
              List.iter
                (fun (n, _) ->
                  if not (List.mem_assoc n expected) then
                    fail "%s --trace %s: %s printed but not listed" name trace n)
                printed)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    names;
  if !errors > 0 then exit 1;
  Printf.printf "smoke-check: %d workloads print every listed metric with its unit\n"
    (List.length names)

(* ------------------------------------------------------------------ *)
(* selftest                                                            *)
(* ------------------------------------------------------------------ *)

(* Checks the busy-round statistics on seeded rounds from a modelled
   host: three kinds of operation, 30 per round, with 10% jitter, on a
   host that is 1.45x slower in stretches of 2 to 30 rounds, 30% of the
   time. The busy rounds must give the slow host's median latency
   within 5%. Then one operation in 10 is slowed by five times the
   median latency, as an occasional slow path would be. The busy
   rounds must hold their share of the slowed operations within a
   factor of 1.5, so that they are neither picked for them nor rid of
   them, and their throughput must fall at least half as much as the
   throughput over all rounds. *)
let selftest () =
  let st = Random.State.make [| 20 |] in
  let slow_host = ref true and stretch = ref 0 and slow_lats = ref [] in
  let clean =
    List.init 200 (fun _ ->
        if !stretch = 0 then begin
          slow_host := Random.State.float st 1.0 < 0.3;
          stretch := 2 + Random.State.int st 29
        end;
        decr stretch;
        let ops =
          List.concat_map
            (fun (kind, base) ->
              List.init 10 (fun _ ->
                  let lat = base *. (if !slow_host then 1.45 else 1.0) *. (1.0 +. Random.State.float st 0.1) in
                  if !slow_host then slow_lats := lat :: !slow_lats;
                  (kind, lat)))
            [ ("a", 1.2e-3); ("b", 2.4e-3); ("c", 4.5e-3) ]
        in
        (List.fold_left (fun acc (_, lat) -> acc +. lat) 0.0 ops, ops))
  in
  let slow_p50 = median !slow_lats and busy_p50 = median (latencies (busy_rounds clean)) in
  let extra = 5.0 *. median (latencies clean) in
  let slowed =
    List.map
      (fun (d, ops) ->
        let added = ref 0.0 in
        let ops =
          List.map
            (fun (kind, lat) ->
              if Random.State.int st 10 <> 0 then (kind, lat)
              else begin
                added := !added +. extra;
                (kind, lat +. extra)
              end)
            ops
        in
        (d +. !added, ops))
      clean
  in
  let rps rounds = float_of_int (List.length (latencies rounds)) /. round_seconds rounds in
  let slowed_share rounds =
    let l = latencies rounds in
    float_of_int (List.length (List.filter (fun x -> x >= extra) l)) /. float_of_int (List.length l)
  in
  let drop pick = 1.0 -. (rps (pick slowed) /. rps (pick clean)) in
  let share_all = slowed_share slowed and share_busy = slowed_share (busy_rounds slowed) in
  let drop_all = drop Fun.id and drop_busy = drop busy_rounds in
  Printf.printf
    "selftest: median latency %.4g ms on the slow host, %.4g ms over all rounds, %.4g ms over busy \
     ones\n"
    (1e3 *. slow_p50) (1e3 *. median (latencies clean)) (1e3 *. busy_p50);
  Printf.printf
    "selftest: slowed operations are %.1f%% of all and %.1f%% of busy ones; throughput falls \
     %.1f%% over all rounds and %.1f%% over busy ones\n"
    (100.0 *. share_all) (100.0 *. share_busy) (100.0 *. drop_all) (100.0 *. drop_busy);
  let fails =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (Float.abs (busy_p50 /. slow_p50 -. 1.0) > 0.05, "the busy rounds miss the slow host");
        ( share_busy < share_all /. 1.5 || share_busy > 1.5 *. share_all,
          "the busy rounds are picked by an intermittent cost" );
        (drop_busy < 0.5 *. drop_all, "the busy rounds hide an intermittent cost");
      ]
  in
  List.iter (fun msg -> prerr_endline ("selftest: " ^ msg)) fails;
  if fails <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n\
    \       main.exe compare A_DIR B_DIR\n\
    \       main.exe smoke-check BENCHMARK.json\n\
    \       main.exe selftest";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_dirs a b
  | [ "smoke-check"; spec_path ] -> smoke_check spec_path
  | [ "selftest" ] -> selftest ()
  | args ->
      let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
      let smoke = ref false and out = ref (Filename.concat "bench" (Filename.concat "e2e" "_out")) in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
            workload := (match W.find w with Some w -> Some w | None -> usage ());
            parse rest
        | "--seed" :: n :: rest ->
            seed := int_of_string_opt n;
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := Option.bind (float_of_string_opt s) (fun s -> if s >= 0.0 then Some s else None);
            parse rest
        | "--trace" :: ("0" | "1" as t) :: rest ->
            trace := Some (t = "1");
            parse rest
        | "--smoke" :: rest ->
            smoke := true;
            parse rest
        | "--out" :: dir :: rest ->
            out := dir;
            parse rest
        | _ -> usage ()
      in
      parse args;
      match (!workload, !seed, !seconds, !trace) with
      | Some workload, Some seed, Some seconds, Some trace ->
          run { workload; seed; seconds; trace; smoke = !smoke; out = !out }
      | _ -> usage ()
