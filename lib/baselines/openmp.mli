(** OpenMP CPU baseline: [#pragma omp parallel for reduction] on the
    paper's IBM Minsky node (two dual-socket 8-core 3.5 GHz POWER8+ CPUs).

    The CPU is modelled analytically — fork/join overhead plus the
    achieved streaming bandwidth of the compiled loop — while the
    reduction value itself is computed exactly by a host fold. *)

type cpu = {
  name : string;
  cores : int;
  smt : int;  (** hardware threads per core *)
  clock_ghz : float;
  fork_join_us : float;  (** parallel-region entry + reduction + join *)
  eff_bw_gbs : float;  (** achieved streaming bandwidth *)
  elems_per_cycle_per_core : float;
}

(** The paper's testbed. *)
val power8_minsky : cpu

type outcome = { result : float; time_us : float }

(** The model's time for [n] 32-bit elements. *)
val time_us : cpu -> n:int -> float

(** Reduce [input] (exactly) and estimate the wall clock on
    {!power8_minsky}. *)
val run : Gpusim.Runner.input -> outcome
