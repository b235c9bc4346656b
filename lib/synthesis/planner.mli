(** The planner: from a checked codelet unit to runnable code versions.

    Runs the Figure 5 pass pipeline once, infers the spectrum's combining
    operation from its autonomous codelet, and instantiates {!Version.t}
    compositions on demand (with compiled-program caching). *)

type t = {
  unit_info : (Tir.Ast.codelet * Tir.Check.info) list;
  variants : Passes.Driver.variant list;
  spectrum : string;  (** the primary spectrum (the first codelet's) *)
  combiner : string;
      (** the spectrum combining partial results (the consumer named by the
          primary's compound codelets; equals [spectrum] for self-combining
          reductions) *)
  op : Tir.Ast.atomic_kind;
  elem : Device_ir.Ir.scalar;
  cache : (Version.t, Gpusim.Runner.compiled_program) Hashtbl.t;
  prove_cache : (Version.t, Symbolic.Prove.verdict) Hashtbl.t;
}

exception Plan_error of string

(** Build a planner for a checked unit. The element type is the primary
    (first) codelet's return type; the combining operation defaults to
    addition when inference fails. @raise Plan_error on an empty unit,
    and when the primary codelet returns no int, unsigned or float. *)
val create : (Tir.Ast.codelet * Tir.Check.info) list -> t

(** Planner over the built-in [sum] spectrum. *)
val sum : unit -> t

(** Planner over the built-in [max] spectrum. *)
val max_reduction : unit -> t

(** Planner over the built-in [min] spectrum. *)
val min_reduction : unit -> t

(** Planner over the built-in integer sum spectrum (element type I32). *)
val int_sum : unit -> t

(** The device-IR program implementing [v] (uncompiled). *)
val program : t -> Version.t -> Device_ir.Ir.program

(** Validated and compiled, cached per version. *)
val compiled : t -> Version.t -> Gpusim.Runner.compiled_program

(** Machine-check one version against the tree-loop reference with the
    symbolic prover ({!Symbolic.Prove.equiv}); cached per version. Total:
    composition failures refute with [TSYM002] instead of raising. *)
val prove : t -> Version.t -> Symbolic.Prove.verdict

(** All sanitizer diagnostics for one version (validator errors as
    [TVAL001], the {!Device_ir.Race} report, [TPERF...] memory-access
    warnings from {!Device_ir.Access}, and [TSYM...] refutations from
    {!prove}), sorted errors-first. Never raises on a bad variant. *)
val lint : t -> Version.t -> Device_ir.Diag.t list

(** Static memory-access analysis of one version at a concrete geometry
    ([n]/[tunables] default as in {!Device_ir.Access.analyze}). *)
val access :
  ?n:int -> ?tunables:(string * int) list -> t -> Version.t ->
  Device_ir.Access.analysis

(** Predicted wall-clock (µs) of one version on an architecture from the
    static analysis alone — {!Gpusim.Cost.of_static_program} over
    {!access}, with the runner's per-buffer initialisation charge. *)
val static_cost :
  ?n:int -> ?tunables:(string * int) list -> Gpusim.Arch.t -> t -> Version.t ->
  float

(** Stable rendering of the combining operation ("atomicAdd", ...), a
    plan-cache key component. *)
val op_name : t -> string

(** Stable rendering of the element type ("F32", ...), a plan-cache key
    component. *)
val elem_name : t -> string

(** The CUDA C rendering of a version (the paper's output path). *)
val cuda_source : ?options:Device_ir.Cuda.options -> t -> Version.t -> string

(** Host-side reference reduction, for checking simulated runs: a left
    fold of the elements [lo .. hi-1] (the whole array by default). *)
val reference : ?lo:int -> ?hi:int -> t -> float array -> float

(** Host reference over a synthetic input (logical size [n] repeating
    [pattern]) in closed form — sums scale by the cycle count, min/max
    saturate after one period — so the degraded serving path stays O(1)
    in [n]. *)
val reference_synthetic : t -> n:int -> pattern:float array -> float

(** Host reference for any runner input (dense or synthetic). *)
val reference_input : t -> Gpusim.Runner.input -> float

(** Run one version end to end on a simulated architecture. *)
val run :
  ?opts:Gpusim.Interp.options ->
  arch:Gpusim.Arch.t ->
  ?tunables:(string * int) list ->
  t ->
  input:Gpusim.Runner.input ->
  Version.t ->
  Gpusim.Runner.outcome

type synth_result = {
  sr_summary : Symbolic.Synth.summary;
  sr_registered : Version.t list;
  sr_verdicts : (Version.t * Symbolic.Prove.verdict) list;
}

(** Sweep the {!Symbolic.Synth} exchange space: compose each candidate,
    prove every composed version, and register the proof-checked,
    compiling survivors with {!Version.register_synthesized}. *)
val synthesize : t -> synth_result
