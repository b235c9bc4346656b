(* The four workloads. Each one is a closed loop with a single caller:
   the next operation starts only after the previous one returned.

   A workload is set up once per instance (the timed [setup_s] part),
   then driven in rounds. A round holds a fixed multiset of operations
   whose order the seed draws, so every complete round does the same
   work and per-run numbers do not depend on how the seed happened to
   mix the keys. Outputs are kept and checked after the timed loop. *)

module P = Synthesis.Planner
module R = Gpusim.Runner
module S = Runtime.Service
module V = Synthesis.Version
module A = Gpusim.Arch

let now = Unix.gettimeofday

type verdict = {
  checked : int;
  failed : int;
  speedups : float list;  (** CUB simulated time / served simulated time *)
  problems : string list;  (** first few failures, for the log *)
}

let no_verdict = { checked = 0; failed = 0; speedups = []; problems = [] }

let merge a b =
  {
    checked = a.checked + b.checked;
    failed = a.failed + b.failed;
    speedups = List.rev_append a.speedups b.speedups;
    problems = a.problems @ b.problems;
  }

(** One set-up instance of a workload. *)
type instance = {
  round : int -> (string * float) list;
      (** run round [r]; each operation's kind (its key or version) and
          latency (s) *)
  set_profiling : bool -> unit;
      (** serving workloads: turn kernel-counter profiling on for the
          traced phase (a no-op for compile-all) *)
  service_counts : unit -> int * int * int * float * float;
      (** requests, hits, SDC checks, simulated warp instructions and
          DRAM bytes over the services' lifetime (profiled phase only
          for the last two) *)
  cuda_bytes : unit -> float;
  finish : unit -> verdict;  (** check every kept output *)
}

type t = {
  name : string;
  setup_reps : int;
      (** set-ups timed per run; the median is [setup_s]. Cheap set-ups
          repeat more, so the median spans more than a noise blip *)
  setup : seed:int -> smoke:bool -> unit -> instance;
      (** [setup ~seed ~smoke] draws the inputs (untimed) and returns the
          timed set-up, which can run several times *)
}

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffle st (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let dense st n = R.Dense (Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))

(* Synthetic inputs repeat a power-of-two pattern to a paper-scale
   logical size; the service runs them in sampled mode. *)
let synthetic st n =
  R.Synthetic { n; pattern = Array.init 1024 (fun _ -> float_of_int (Random.State.int st 16)) }

(* Distinct inputs kept per key; requests draw among them. *)
let pool_size = 4

(* ------------------------------------------------------------------ *)
(* Serving workloads                                                   *)
(* ------------------------------------------------------------------ *)

type key = { arch : A.t; n : int; dense_input : bool }

let key_name k = Printf.sprintf "%s/%d" k.arch.A.name k.n
let k40c = A.kepler_k40c
let gtx980 = A.maxwell_gtx980
let p100 = A.pascal_p100

(* The service's sampled interpreter mode (Service.sampled_opts is not
   exported): CUB baselines run in the mode the served request ran in. *)
let sampled_opts : Gpusim.Interp.options =
  { Gpusim.Interp.max_blocks = Some 12; loop_cap = Some 24; check_uniform = false }

let opts_of (input : R.input) =
  match input with R.Dense _ -> Gpusim.Interp.exact | R.Synthetic _ -> sampled_opts

(* The warm workloads tune over a short fixed list, so that a set-up
   takes well under a second and a run can repeat it: tuning all 30
   candidates for their keys takes some 30 s. These were the full
   tuner's picks for those keys when the list was written; nothing
   checks that they still are. *)
let short_list_sampled = [ "DT,A/direct:V"; "DT,A/direct:Vs" ]
let short_list_exact = [ "DT,A/direct:V"; "DT,A/direct:Vs"; "DT,A/DS+S>Vs" ]

let versions_named names =
  let pruned = V.enumerate_pruned () in
  List.map
    (fun name ->
      match List.find_opt (fun v -> V.name v = name) pruned with
      | Some v -> v
      | None -> failwith ("no pruned version named " ^ name))
    names

(* Planner creation plus the plan stage a service runs on its first
   miss: prove and compile every candidate (memoized in the planner), so
   later misses pay for tuning alone. *)
let plan_stage (candidates : unit -> V.t list) : P.t * V.t list =
  let unit_info =
    Layers.call "tir.parse_check" (fun () ->
        Tir.Check.check_unit (Tir.Parser.parse_unit Tir.Builtins.sum_source))
  in
  let planner = Layers.call "passes.pipeline" (fun () -> P.create unit_info) in
  let candidates = Layers.call "synthesis.enumerate" candidates in
  List.iter
    (fun v ->
      match Layers.call "symbolic.prove" (fun () -> P.prove planner v) with
      | Symbolic.Prove.Refuted _ -> ()
      | Symbolic.Prove.Proved | Symbolic.Prove.Proved_reassoc _ ->
          Layers.call "gpusim.compile" (fun () ->
              try ignore (P.compiled planner v)
              with Device_ir.Validate.Invalid _ | Device_ir.Race.Racy _ -> ()))
    candidates;
  (planner, candidates)

type served = {
  s_key : key;
  s_input : R.input;
  s_expect_hit : bool;
  s_result : (S.response, S.error) result;
}

let check_served planner cub_us (s : served) : (float, string) result =
  let what = key_name s.s_key in
  match s.s_result with
  | Error e -> Error (what ^ ": " ^ S.error_message e)
  | Ok r when r.S.resp_degraded -> Error (what ^ ": served degraded")
  | Ok r when r.S.resp_hit <> s.s_expect_hit ->
      Error (Printf.sprintf "%s: plan-cache hit=%b, expected %b" what r.S.resp_hit s.s_expect_hit)
  | Ok r when r.S.resp_exact <> s.s_key.dense_input ->
      Error (Printf.sprintf "%s: exact=%b on a %s input" what r.S.resp_exact
               (if s.s_key.dense_input then "dense" else "synthetic"))
  | Ok r ->
      let in_tolerance =
        (not r.S.resp_exact)
        ||
        let expected = P.reference_input planner s.s_input in
        let tol =
          Runtime.Tolerance.bound ~op:planner.P.op ~elem:planner.P.elem
            ~version:r.S.resp_version ~n:s.s_key.n
            ~sum_abs:(Runtime.Tolerance.sum_abs_of_input s.s_input)
            ()
        in
        Runtime.Tolerance.acceptable tol ~expected ~got:r.S.resp_value
      in
      if in_tolerance then Ok (cub_us s.s_key /. r.S.resp_sim_us)
      else Error (Printf.sprintf "%s: %.9g outside tolerance of the host reference" what r.S.resp_value)

(** Shared machinery of the three serving workloads. [cold] makes a
    fresh service per round, so every request is the first touch of its
    key; otherwise one service is warmed in set-up with one request per
    key and each round replays [per_key] requests per key. *)
let serving ~cold ~(keys : key list) ~per_key ~(candidates : unit -> V.t list) ~seed :
    unit -> instance =
  let pools =
    List.mapi
      (fun i k ->
        let st = rng ~seed (1000 + i) in
        ( k,
          Array.init pool_size (fun _ ->
              if k.dense_input then dense st k.n else synthetic st k.n) ))
      keys
  in
  let pool k = List.assq k pools in
  (* CUB's simulated time depends on the key alone; every instance of a
     run shares it *)
  let cub = Hashtbl.create 8 in
  let cub_us k =
    match Hashtbl.find_opt cub (key_name k) with
    | Some t -> t
    | None ->
        let input = (pool k).(0) in
        let t = (Baselines.Cub.run ~opts:(opts_of input) ~arch:k.arch input).R.time_us in
        Hashtbl.add cub (key_name k) t;
        t
  in
  fun () ->
  let planner, candidates = plan_stage candidates in
  let services = ref [] in
  let profiling = ref false in
  let fresh () =
    let svc = S.create ~candidates planner in
    S.set_profiling svc !profiling;
    services := svc :: !services;
    svc
  in
  let served = ref [] in
  let submit svc k input ~expect_hit =
    let result = S.submit_result svc { S.req_arch = k.arch; req_input = input } in
    served := { s_key = k; s_input = input; s_expect_hit = expect_hit; s_result = result } :: !served
  in
  let warm = if cold then None else Some (fresh ()) in
  Option.iter
    (fun svc -> List.iter (fun k -> submit svc k (pool k).(0) ~expect_hit:false) keys)
    warm;
  let slots = Array.of_list (List.concat_map (fun k -> List.init per_key (fun _ -> k)) keys) in
  let round r =
    let st = rng ~seed r in
    let order = shuffle st slots in
    let inputs = Array.map (fun k -> (pool k).(Random.State.int st pool_size)) order in
    let svc = match warm with Some svc -> svc | None -> fresh () in
    let lat = ref [] in
    Array.iteri
      (fun i k ->
        let t0 = now () in
        submit svc k inputs.(i) ~expect_hit:(not cold);
        lat := (key_name k, now () -. t0) :: !lat)
      order;
    !lat
  in
  let finish () =
    List.fold_left
      (fun v s ->
        match check_served planner cub_us s with
        | Ok sp ->
            { v with checked = v.checked + 1; speedups = sp :: v.speedups }
        | Error msg ->
            {
              v with
              checked = v.checked + 1;
              failed = v.failed + 1;
              problems = (if List.length v.problems < 5 then msg :: v.problems else v.problems);
            })
      no_verdict !served
  in
  let service_counts () =
    List.fold_left
      (fun (req, hits, sdc, insts, dram) svc ->
        let st = S.stats svc in
        let insts', dram' =
          List.fold_left
            (fun (i, d) (_, (_, (tot : Gpusim.Events.totals))) ->
              (i +. tot.Gpusim.Events.t_warp_insts, d +. tot.Gpusim.Events.t_bytes_dram))
            (0.0, 0.0) (Runtime.Stats.kernel_rows st)
        in
        ( req + Runtime.Stats.hits st + Runtime.Stats.misses st,
          hits + Runtime.Stats.hits st,
          sdc + Runtime.Stats.sdc_checks st,
          insts +. insts',
          dram +. dram' ))
      (0, 0, 0, 0.0, 0.0) !services
  in
  {
    round;
    set_profiling =
      (fun on ->
        profiling := on;
        List.iter (fun svc -> S.set_profiling svc on) !services);
    service_counts;
    cuda_bytes = (fun () -> 0.0);
    finish;
  }

(* Every request is the first touch of its plan-cache key on a running
   service, whose planner proved and compiled its candidates in set-up:
   the time to a first answer for a new shape, spent in the tuner. The
   keys cover the three paper testbeds; two small dense keys tune in
   exact mode, and one paper-scale synthetic key tunes in sampled mode
   for about 8 s, too long to time more than one per round.

   The serving workloads have an odd number of keys, each requested
   equally often, so that the median request falls inside one key's
   latencies rather than between the slowest of one key and the fastest
   of the next. *)
let cold_start =
  {
    name = "cold-start";
    setup_reps = 5;
    setup =
      (fun ~seed ~smoke ->
        let dense_key arch n = { arch; n; dense_input = true } in
        if smoke then
          serving ~cold:true ~keys:[ dense_key k40c 64 ] ~per_key:1
            ~candidates:(fun () -> versions_named short_list_exact) ~seed
        else
          serving ~cold:true
            ~keys:
              [
                dense_key k40c 128;
                dense_key p100 2048;
                { arch = gtx980; n = 1 lsl 20; dense_input = false };
              ]
            ~per_key:1 ~candidates:V.enumerate_pruned ~seed);
  }

(* Paper-scale synthetic inputs on a warm plan cache run in sampled mode
   and are not witness-checked: the hot path is the sampled interpreter
   alone, and the tuner never runs. *)
let warm_sampled =
  {
    name = "warm-sampled";
    setup_reps = 9;
    setup =
      (fun ~seed ~smoke ->
        let synth_key arch n = { arch; n; dense_input = false } in
        let keys, per_key =
          if smoke then ([ synth_key k40c 4096 ], 20)
          else ([ synth_key k40c (1 lsl 20); synth_key gtx980 (1 lsl 24); synth_key p100 (1 lsl 28) ], 10)
        in
        serving ~cold:false ~keys ~per_key
          ~candidates:(fun () -> versions_named short_list_sampled) ~seed);
  }

(* Dense inputs of 64..65536 elements, rotating over the three testbeds,
   on a warm cache run in exact mode, every answer checked by the SDC
   guard's witness: the same interpreter in its other mode, so a change
   that helps sampled runs but hurts exact ones shows here. *)
let warm_exact =
  {
    name = "warm-exact";
    setup_reps = 5;
    setup =
      (fun ~seed ~smoke ->
        let dense_key arch n = { arch; n; dense_input = true } in
        let keys, per_key =
          if smoke then ([ dense_key k40c 1024 ], 20)
          else
            ( [
                dense_key k40c 64;
                dense_key gtx980 1024;
                dense_key p100 4096;
                dense_key k40c 16384;
                dense_key gtx980 65536;
              ],
              2 )
        in
        serving ~cold:false ~keys ~per_key
          ~candidates:(fun () -> versions_named short_list_exact) ~seed);
  }

(* ------------------------------------------------------------------ *)
(* compile-all                                                         *)
(* ------------------------------------------------------------------ *)

type spectrum = { sp_name : string; sp_source : string }

let spectra =
  [
    { sp_name = "sum"; sp_source = Tir.Builtins.sum_source };
    { sp_name = "max"; sp_source = Tir.Builtins.max_source };
  ]

(* Every [stride]-th enumerated version of each spectrum: a fixed set, so
   every round does the same work. A full pass over all 176 versions
   takes longer than one run may measure. *)
let stride = 12

let compiled_ok planner v =
  match P.compiled planner v with
  | _ -> true
  | exception (Device_ir.Validate.Invalid _ | Device_ir.Race.Racy _) -> false

(* [Planner.lint], one layer at a time so a traced run can time each
   layer. compile-all checks once per run that it still returns what
   lint returns for every version it compiles. *)
let lint_by_layer planner v : Device_ir.Diag.t list =
  let p = Layers.call "synthesis.lower" (fun () -> P.program planner v) in
  let validate =
    Layers.call "device_ir.validate" (fun () ->
        Device_ir.Validate.to_diags (Device_ir.Validate.check_program p))
  in
  let race = Layers.call "device_ir.race" (fun () -> Device_ir.Race.check_program p) in
  let access = Layers.call "device_ir.access" (fun () -> Device_ir.Access.check_program p) in
  let verdict = Layers.call "symbolic.prove" (fun () -> P.prove planner v) in
  Device_ir.Diag.sort
    (validate @ race @ access @ Symbolic.Prove.to_diags ~program:p.Device_ir.Ir.p_name verdict)

(* One version through the `tangramc lint` and codegen path: its
   diagnostics, whether it is clean and compiles, and its CUDA size. *)
let compile_version planner v : Device_ir.Diag.t list * bool * int =
  let diags = lint_by_layer planner v in
  let ok = Layers.call "gpusim.compile" (fun () -> compiled_ok planner v) in
  let src = Layers.call "device_ir.cuda" (fun () -> P.cuda_source planner v) in
  (diags, ok && not (Device_ir.Diag.has_errors diags), String.length src)

(* The `tangramc lint/prove --all-variants` and codegen path, with no
   tuner and no serving. The sum and max spectra cover the
   reassociation-proved float add and the order-independent max, which
   use different atomics. *)
let compile_all =
  {
    name = "compile-all";
    setup_reps = 25;
    setup =
      (fun ~seed ~smoke ->
        (* the generated code's quality: each version at 2^24 elements on
           the P100 with its default tunables, against CUB; computed once
           per version and run *)
        let input = synthetic (rng ~seed 7) (1 lsl 24) in
        let cub = lazy (Baselines.Cub.run ~opts:sampled_opts ~arch:p100 input).R.time_us in
        let speedups = Hashtbl.create 16 in
        let speedup planner (sp, v) =
          let key = (sp.sp_name, V.name v) in
          match Hashtbl.find_opt speedups key with
          | Some s -> s
          | None ->
              let s =
                match P.run ~opts:sampled_opts ~arch:p100 planner ~input v with
                | o -> Ok (Lazy.force cub /. o.R.time_us)
                | exception e -> Error (Printexc.to_string e)
              in
              Hashtbl.add speedups key s;
              s
        in
        (* lint_by_layer is compared with Planner.lint once per run *)
        let lint_compared = ref false in
        fun () ->
        (* set-up: parse and check both spectra and enumerate the search
           space; each round then runs the pass pipeline afresh, so no
           planner memo carries over between rounds *)
        let units =
          List.map
            (fun sp ->
              ( sp,
                Layers.call "tir.parse_check" (fun () ->
                    Tir.Check.check_unit (Tir.Parser.parse_unit sp.sp_source)) ))
            spectra
        in
        let versions = Layers.call "synthesis.enumerate" (fun () -> V.enumerate ()) in
        let picked =
          if smoke then List.filteri (fun i _ -> i < 2) versions
          else List.filteri (fun i _ -> i mod stride = 0) versions
        in
        let slots =
          Array.of_list
            (List.concat_map (fun (sp, _) -> List.map (fun v -> (sp, v)) picked) units)
        in
        let slots = if smoke then Array.sub slots 0 (min 3 (Array.length slots)) else slots in
        let outcomes = ref [] in
        let cuda = ref 0.0 in
        let last_planners = ref [] in
        (* each slot's diagnostics in the latest round *)
        let last_diags = Hashtbl.create 64 in
        let round r =
          let order = shuffle (rng ~seed r) slots in
          let planners =
            List.map
              (fun (sp, unit_info) ->
                (sp.sp_name, Layers.call "passes.pipeline" (fun () -> P.create unit_info)))
              units
          in
          last_planners := planners;
          let lat = ref [] in
          Array.iter
            (fun (sp, v) ->
              let planner = List.assoc sp.sp_name planners in
              let t0 = now () in
              let diags, ok, bytes = compile_version planner v in
              lat := (sp.sp_name ^ " " ^ V.name v, now () -. t0) :: !lat;
              if !Layers.collecting then cuda := !cuda +. float_of_int bytes;
              Hashtbl.replace last_diags (sp.sp_name, V.name v) diags;
              outcomes := ((sp.sp_name, V.name v), ok) :: !outcomes)
            order;
          !lat
        in
        let finish () =
          let lint_failures =
            List.filter_map
              (fun ((sp, v), ok) ->
                if ok then None else Some (sp ^ " " ^ v ^ ": diagnostics or compile failure"))
              !outcomes
          in
          let drift =
            if !lint_compared || !last_planners = [] then []
            else begin
              lint_compared := true;
              List.filter_map
                (fun (sp, v) ->
                  let planner = List.assoc sp.sp_name !last_planners in
                  if Hashtbl.find last_diags (sp.sp_name, V.name v) = P.lint planner v then None
                  else
                    Some (sp.sp_name ^ " " ^ V.name v ^ ": the layer-by-layer lint differs from Planner.lint"))
                (Array.to_list slots)
            end
          in
          (* a set-up whose instance ran no round has nothing to price *)
          let runs =
            if !last_planners = [] then []
            else
              List.map
                (fun ((sp, v) as slot) ->
                  (sp.sp_name ^ " " ^ V.name v, speedup (List.assoc sp.sp_name !last_planners) slot))
                (Array.to_list slots)
          in
          let run_failures =
            List.filter_map
              (function name, Error e -> Some (name ^ ": does not run: " ^ e) | _, Ok _ -> None)
              runs
          in
          let failures = drift @ lint_failures @ run_failures in
          {
            checked = List.length !outcomes;
            failed = List.length failures;
            speedups = List.filter_map (function _, Ok s -> Some s | _, Error _ -> None) runs;
            problems = List.filteri (fun i _ -> i < 5) failures;
          }
        in
        {
          round;
          set_profiling = (fun _ -> ());
          service_counts = (fun () -> (0, 0, 0, 0.0, 0.0));
          cuda_bytes = (fun () -> !cuda);
          finish;
        });
  }

let all = [ cold_start; warm_sampled; warm_exact; compile_all ]
let find name = List.find_opt (fun w -> w.name = name) all
