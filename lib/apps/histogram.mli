(** Histogram with privatised shared-memory bins — the paper's motivating
    use-case for atomic instructions on shared memory (Sections I and
    II-A.2). Under skewed inputs the shared-memory updates contend
    heavily, exposing the Kepler (lock-update-unlock) vs Maxwell (native)
    gap. *)

val block : int
val kernel : Device_ir.Ir.kernel

type outcome = { histogram : float array; time_us : float }

(** Histogram of [data]; values must lie in [0, bins).
    @raise Invalid_argument on empty input. *)
val run :
  ?opts:Gpusim.Interp.options -> arch:Gpusim.Arch.t -> float array -> outcome

(** Host reference. @raise Invalid_argument on out-of-range values. *)
val reference : float array -> float array
