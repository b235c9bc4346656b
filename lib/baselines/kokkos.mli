(** Kokkos-style performance-portability baseline (the GPU backend of
    [Kokkos::parallel_reduce]).

    Models the strategy the paper's profiling found (Section IV-C.2):
    three launches (internal setup/fence, a staged compute-bound main
    reduction, the final combine), with the main kernel's memory traffic
    priced at the staged (L2-resident) stream efficiency — slow on small
    arrays, fastest of all beyond ~10M elements. *)

val block : int
val grid_hexp : Gpusim.Arch.t -> Device_ir.Ir.hexp
val program : Gpusim.Arch.t -> Device_ir.Ir.program
val compiled : Gpusim.Arch.t -> Gpusim.Runner.compiled_program

(** Run the baseline; launches are re-costed at the staged stream
    efficiency. *)
val run :
  ?opts:Gpusim.Interp.options ->
  arch:Gpusim.Arch.t ->
  Gpusim.Runner.input ->
  Gpusim.Runner.outcome
