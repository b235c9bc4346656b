(* Tangram-OCaml: public API.

   This library reproduces "Automatic Generation of Warp-Level Primitives
   and Atomic Instructions for Fast and Portable Parallel Reduction on
   GPUs" (CGO 2019). The pipeline:

   {v
     codelet source (Tir)  --check-->  unit
        --Passes (Fig. 5: atomics, shuffles)-->  codelet variants
        --Synthesis (Version enumeration + lowering)-->  device-IR programs
        --Gpusim / Device_ir.Cuda-->  simulated timings / CUDA C text
   v}

   Quickstart:

   {[
     let ctx = Tangram.create () in
     let arch = Tangram.Arch.kepler_k40c in
     let sum = Tangram.reduce ctx ~arch (Array.init 4096 float_of_int) in
     ...
   ]}

   The re-exported modules give full access to each stage. *)

module Ast = Tir.Ast
module Parser = Tir.Parser
module Lexer = Tir.Lexer
module Check = Tir.Check
module Pp = Tir.Pp
module Builtins = Tir.Builtins
module Driver = Passes.Driver
module Version = Synthesis.Version
module Planner = Synthesis.Planner
module Tuner = Synthesis.Tuner
module Calibrate = Synthesis.Calibrate
module Arch = Gpusim.Arch
module Runner = Gpusim.Runner
module Interp = Gpusim.Interp
module Fault = Gpusim.Fault
module Compiled = Gpusim.Compiled
module Value = Gpusim.Value
module Cost = Gpusim.Cost
module Events = Gpusim.Events
module Cuda = Device_ir.Cuda
module Ir = Device_ir.Ir
module Validate = Device_ir.Validate
module Diag = Device_ir.Diag
module Race = Device_ir.Race
module Access = Device_ir.Access
module Unroll = Device_ir.Unroll
module Vectorize = Device_ir.Vectorize
module Ptx = Device_ir.Ptx
module Serialize = Device_ir.Serialize
module Ir_analysis = Device_ir.Analysis
(* the symbolic shuffle engine: term normal forms, the warp-level
   symbolic evaluator, the equivalence prover and proof-guided synthesis
   ([Symbolic.Term], [Symbolic.Eval], [Symbolic.Prove], [Symbolic.Synth],
   [Symbolic.Exchange]) *)
module Symbolic = Symbolic
module Plan_cache = Runtime.Plan_cache
module Service = Runtime.Service
module Admission = Runtime.Admission
module Fleet = Runtime.Fleet
module Stats = Runtime.Stats
module Trace = Runtime.Trace
module Tolerance = Runtime.Tolerance
module Guard = Runtime.Guard
module Recorder = Runtime.Recorder
module Monitor = Runtime.Monitor
(* the whole observability layer ([Obs.Trace], [Obs.Log], [Obs.Json]);
   [Trace] above is the request-trace replayer, a different thing *)
module Obs = Obs
module Scan = Apps.Scan
module Histogram = Apps.Histogram
module Cub = Baselines.Cub
module Kokkos = Baselines.Kokkos
module Openmp = Baselines.Openmp

(** A reduction context: the checked codelet unit, its pass-generated
    variants, and caches of tuned parameters and per-size version
    selections (the runtime selection the paper delegates to DySel). *)
type t = {
  plan : Planner.t;
  tuned : (string * Version.t, (string * int) list) Hashtbl.t;
      (** (architecture, version) -> best tunables *)
  selected : (string * int, Version.t * (string * int) list) Hashtbl.t;
      (** (architecture, size bucket) -> chosen version *)
}

(** [create ()] builds a context for the paper's [sum] reduction;
    [~source] supplies a different codelet unit (e.g.
    {!Tir.Builtins.max_source}, or your own). *)
let create ?source () : t =
  let unit_info =
    match source with
    | None -> Builtins.sum_unit ()
    | Some src -> Check.check_unit (Parser.parse_unit src)
  in
  { plan = Planner.create unit_info; tuned = Hashtbl.create 64;
    selected = Hashtbl.create 64 }

let plan (t : t) : Planner.t = t.plan

(** All synthesisable code versions (the 88-version search space). *)
let all_versions () : Version.t list = Synthesis.Version.enumerate ()

(** The pruned search space: the 30 versions that finish with global
    atomics (Section IV-B). *)
let pruned_versions () : Version.t list = Synthesis.Version.enumerate_pruned ()

(** The CUDA C source of one version — the paper's output path. *)
let cuda_source ?options (t : t) (v : Version.t) : string =
  Planner.cuda_source ?options t.plan v

(* ------------------------------------------------------------------ *)
(* Tuning and selection                                                *)
(* ------------------------------------------------------------------ *)

(** Best tunables for [v] on [arch], swept at size [n] (cached per
    architecture/version, like the paper's one-off tuning script). *)
let tuned_parameters ?(n = 1 lsl 24) (t : t) ~(arch : Arch.t) (v : Version.t) :
    (string * int) list =
  let key = (arch.Arch.name, v) in
  match Hashtbl.find_opt t.tuned key with
  | Some tn -> tn
  | None ->
      let outcome = Tuner.tune ~arch ~n (Planner.compiled t.plan v) in
      Hashtbl.add t.tuned key outcome.Tuner.best;
      outcome.Tuner.best

let size_bucket (n : int) : int =
  (* one selection per power-of-two size class *)
  let rec go b k = if k <= 1 then b else go (b + 1) (k lsr 1) in
  go 0 n

(** Dynamic version selection: evaluate every pruned version at this size
    class on the simulated architecture (sampled mode) and keep the
    fastest. Cached per (architecture, size class). *)
let select (t : t) ~(arch : Arch.t) ~(n : int) : Version.t * (string * int) list =
  let key = (arch.Arch.name, size_bucket n) in
  match Hashtbl.find_opt t.selected key with
  | Some x -> x
  | None ->
      let pattern = Array.init 1024 (fun i -> float_of_int (i land 7)) in
      let input = Runner.Synthetic { n; pattern } in
      let opts =
        { Interp.max_blocks = Some 12; loop_cap = Some 24; check_uniform = false }
      in
      let best = ref None in
      List.iter
        (fun v ->
          let tunables = tuned_parameters t ~arch v in
          match Planner.run ~opts ~arch ~tunables t.plan ~input v with
          | o -> (
              match !best with
              | Some (_, _, bt) when bt <= o.Runner.time_us -> ()
              | _ -> best := Some (v, tunables, o.Runner.time_us))
          | exception Interp.Sim_error _ -> ())
        (pruned_versions ());
      (match !best with
      | Some (v, tunables, _) ->
          Hashtbl.add t.selected key (v, tunables);
          (v, tunables)
      | None -> invalid_arg "Tangram.select: no version survived")

(* ------------------------------------------------------------------ *)
(* One-call reduction                                                  *)
(* ------------------------------------------------------------------ *)

(** Reduce [input] on the simulated [arch] with the best version for its
    size; returns the value and the simulated wall-clock. *)
let reduce_outcome (t : t) ~(arch : Arch.t) (input : float array) : Runner.outcome =
  let v, tunables = select t ~arch ~n:(Array.length input) in
  Planner.run ~arch ~tunables t.plan ~input:(Runner.Dense input) v

let reduce (t : t) ~(arch : Arch.t) (input : float array) : float =
  (reduce_outcome t ~arch input).Runner.result
