(** The autotuner: Section IV-C's "simple script that runs all versions
    with different tuning parameters for the biggest problem size".

    Sweeps the Cartesian product of the program's tunable candidates on
    the simulator in fast sampled mode; configurations whose tile is
    gratuitously larger than the input are skipped. *)

type outcome = {
  best : (string * int) list;
  best_time_us : float;
  evaluated : int;
  sweep : ((string * int) list * float) list;  (** every configuration tried *)
}

(** The default sweep cap: {!tune} refuses Cartesian products larger than
    this (10k configurations) instead of silently enumerating them. *)
val max_configurations : int

(** Size of the Cartesian product of the candidate lists, without
    materializing it. *)
val configuration_count : (string * int list) list -> int

(** Number of {!tune} sweeps performed so far in this process — a
    monotone counter used by the runtime layer's cache-effectiveness
    tests ("a cache hit must not re-tune"). *)
val invocations : unit -> int

(** Sweep a compiled program's tunables on [arch] for input size [n].
    @raise Invalid_argument when no configuration survives, or when the
    sweep would exceed [max_configs] (default {!max_configurations})
    configurations. *)
val tune :
  ?opts:Gpusim.Interp.options ->
  ?max_configs:int ->
  arch:Gpusim.Arch.t ->
  n:int ->
  Gpusim.Runner.compiled_program ->
  outcome
