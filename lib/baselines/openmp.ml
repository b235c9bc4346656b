(* OpenMP CPU baseline: the paper's [#pragma omp parallel for reduction]
   running on an IBM Minsky node (two dual-socket 8-core 3.5 GHz POWER8+
   CPUs, OpenMP 4.0, gcc 5.4).

   The CPU is modelled analytically — the relevant regimes in Figures 7-10
   are set by two quantities:

   - the parallel-region fork/join + reduction-combine overhead (a few
     microseconds with >100 SMT threads), which the CPU pays instead of a
     kernel launch: small enough that the CPU wins tiny inputs;
   - the achieved memory bandwidth of the scalar gcc-compiled loop, which
     caps large inputs well below the GPUs' bandwidth.

   The reduction result itself is computed exactly (for [Dense] inputs) by
   an actual fold, so correctness checks treat this baseline like any other
   backend. *)

type cpu = {
  name : string;
  cores : int;
  smt : int;  (** hardware threads per core *)
  clock_ghz : float;
  fork_join_us : float;  (** parallel region entry + reduction tree + join *)
  eff_bw_gbs : float;  (** achieved streaming bandwidth of the compiled loop *)
  elems_per_cycle_per_core : float;
      (** per-core issue rate of the scalar accumulate loop *)
}

let power8_minsky : cpu =
  {
    name = "2x POWER8+ (Minsky)";
    cores = 16;
    smt = 8;
    clock_ghz = 3.5;
    fork_join_us = 5.5;
    eff_bw_gbs = 72.0;
    elems_per_cycle_per_core = 1.0;
  }

type outcome = { result : float; time_us : float }

let time_us (cpu : cpu) ~(n : int) : float =
  let bytes = 4.0 *. float_of_int n in
  let bw_us = bytes /. (cpu.eff_bw_gbs *. 1000.0) in
  let compute_us =
    float_of_int n
    /. (float_of_int cpu.cores *. cpu.elems_per_cycle_per_core *. cpu.clock_ghz
        *. 1000.0)
  in
  cpu.fork_join_us +. Float.max bw_us compute_us

let run (input : Gpusim.Runner.input) : outcome =
  let n = Gpusim.Runner.input_size input in
  let result =
    match input with
    | Gpusim.Runner.Dense a -> Array.fold_left ( +. ) 0.0 a
    | Gpusim.Runner.Synthetic { n; pattern } ->
        (* sum of the repeating pattern, with the partial tail *)
        let len = Array.length pattern in
        let full = n / len and rem = n mod len in
        let pat_sum = Array.fold_left ( +. ) 0.0 pattern in
        let tail = ref 0.0 in
        for i = 0 to rem - 1 do
          tail := !tail +. pattern.(i)
        done;
        (float_of_int full *. pat_sum) +. !tail
  in
  { result; time_us = time_us power8_minsky ~n }
