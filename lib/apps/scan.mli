(** Parallel prefix sum (scan) on the simulated GPU — the paper's second
    motivating workload (Scan [14]).

    A three-phase multi-block inclusive scan with warp-level Kogge-Stone
    steps built on [__shfl_up]: per-block scan (warp scan, warp-totals
    scan by warp 0, offset add) + block-sums exclusive scan + per-block
    offset addition. *)

val block : int

type outcome = { scanned : float array; time_us : float }

(** Inclusive prefix sum of [input]. @raise Invalid_argument on empty
    input. *)
val inclusive : arch:Gpusim.Arch.t -> float array -> outcome

(** Exclusive scan, derived by shifting the inclusive result. *)
val exclusive : arch:Gpusim.Arch.t -> float array -> outcome

(** Host reference (inclusive). *)
val reference : float array -> float array
