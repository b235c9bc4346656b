(** CUB-style hand-written reduction baseline
    ([cub::DeviceReduce::Sum], version 1.8.0 era).

    A fixed two-pass scheme (per-block partials, then a single-block
    downsweep) with 128-bit vectorized loads in a grid-stride loop and a
    shuffle-based BlockReduce; plus the two-phase API's temp-storage
    query/allocation overhead. The even-share grid is sized from the
    architecture, never from the input — which is why CUB loses on small
    and medium arrays (Section IV-C.1). *)

val block : int
val vec : int

(** The even-share grid size as a host expression over the input size. *)
val grid_hexp : Gpusim.Arch.t -> Device_ir.Ir.hexp

(** The whole two-kernel program for one architecture. *)
val program : Gpusim.Arch.t -> Device_ir.Ir.program

val compiled : Gpusim.Arch.t -> Gpusim.Runner.compiled_program

(** Run the baseline; [time_us] includes the API overhead. *)
val run :
  ?opts:Gpusim.Interp.options ->
  arch:Gpusim.Arch.t ->
  Gpusim.Runner.input ->
  Gpusim.Runner.outcome
