(** Tangram-OCaml: public API of the CGO 2019 reproduction.

    The pipeline:

    {v
      codelet source (Tir)  --check-->  unit
         --Passes (Fig. 5: atomics, shuffles)-->  codelet variants
         --Synthesis (Version enumeration + lowering)-->  device-IR programs
         --Gpusim / Cuda / Ptx-->  simulated timings / source text
    v}

    Quickstart:

    {[
      let ctx = Tangram.create () in
      let arch = Tangram.Arch.kepler_k40c in
      let sum = Tangram.reduce ctx ~arch (Array.init 4096 float_of_int) in
      ...
    ]}

    The re-exported modules give full access to each stage. *)

(** {1 Stage modules} *)

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
module Ir_analysis = Device_ir.Analysis
module Unroll = Device_ir.Unroll
module Vectorize = Device_ir.Vectorize
module Ptx = Device_ir.Ptx
module Serialize = Device_ir.Serialize
module Symbolic = Symbolic
(** The symbolic shuffle engine: term normal forms ({!Symbolic.Term}),
    the warp-level symbolic evaluator ({!Symbolic.Eval}), the
    equivalence prover ({!Symbolic.Prove}) and proof-guided synthesis
    ({!Symbolic.Synth}, {!Symbolic.Exchange}). *)

module Plan_cache = Runtime.Plan_cache
module Service = Runtime.Service
module Admission = Runtime.Admission

(** The simulated device fleet: failure profiles, health-aware routing,
    hedged execution ({!Service.attach_fleet}). *)
module Fleet = Runtime.Fleet

module Stats = Runtime.Stats
module Trace = Runtime.Trace
module Tolerance = Runtime.Tolerance
module Guard = Runtime.Guard

(** The black-box flight recorder: per-request ring plus incident
    bundles ({!Monitor}). *)
module Recorder = Runtime.Recorder

(** The service monitor: windowed metrics, SLO burn rates and the flight
    recorder ({!Service.set_monitor}). *)
module Monitor = Runtime.Monitor

(** The observability layer ({!Obs.Trace}, {!Obs.Log}, {!Obs.Json},
    {!Obs.Metrics}, {!Obs.Slo}); {!Trace} above is the request-trace
    replayer, a different thing. *)
module Obs = Obs

module Scan = Apps.Scan
module Histogram = Apps.Histogram
module Cub = Baselines.Cub
module Kokkos = Baselines.Kokkos
module Openmp = Baselines.Openmp

(** {1 Reduction contexts} *)

(** A reduction context: the checked codelet unit, its pass-generated
    variants, and caches of tuned parameters and per-size version
    selections (the runtime selection the paper delegates to DySel). *)
type t = {
  plan : Planner.t;
  tuned : (string * Version.t, (string * int) list) Hashtbl.t;
  selected : (string * int, Version.t * (string * int) list) Hashtbl.t;
}

(** [create ()] builds a context for the paper's [sum] spectrum; [~source]
    supplies a different codelet unit (e.g. {!Builtins.max_source} or your
    own).
    @raise Tir.Parser.Parse_error / {!Check.Check_error} on bad source. *)
val create : ?source:string -> unit -> t

val plan : t -> Planner.t

(** All synthesisable code versions (the 88-version search space). *)
val all_versions : unit -> Version.t list

(** The pruned search space: the 30 versions that finish with global
    atomics (Section IV-B). *)
val pruned_versions : unit -> Version.t list

(** The CUDA C source of one version — the paper's output path. *)
val cuda_source : ?options:Cuda.options -> t -> Version.t -> string

(** {1 Tuning and selection} *)

(** Best tunables for a version on an architecture, swept at size [n]
    (default 16M, like the paper's one-off tuning script); cached. *)
val tuned_parameters : ?n:int -> t -> arch:Arch.t -> Version.t -> (string * int) list

(** The power-of-two size class used as the selection-cache key. *)
val size_bucket : int -> int

(** Dynamic version selection: the fastest pruned version at this size
    class on the simulated architecture, with its tuned parameters;
    cached per (architecture, size class). *)
val select : t -> arch:Arch.t -> n:int -> Version.t * (string * int) list

(** {1 One-call reduction} *)

(** Reduce [input] on the simulated architecture with the best version for
    its size (full outcome: value, simulated time, per-launch costs). *)
val reduce_outcome : t -> arch:Arch.t -> float array -> Runner.outcome

(** Just the reduced value. *)
val reduce : t -> arch:Arch.t -> float array -> float
