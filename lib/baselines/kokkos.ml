(* Kokkos-style performance-portability baseline (the GPU backend of
   Kokkos::parallel_reduce).

   The paper's profiling (Section IV-C.2) found that "the Kokkos code uses
   multiple GPU kernels, and the most time-consuming kernel is
   compute-bound, not memory-bound ... The Kokkos code works by staging
   memory accesses for the main kernel through other sister kernels". We
   model that strategy:

   - three launches: a setup/fence kernel (Kokkos's internal
     initialisation), the staged main reduction, and the final combine —
     which is why Kokkos trails everything on small arrays;
   - the main kernel's memory traffic is priced at the staged (L2-resident)
     efficiency ({!Gpusim.Arch.staged_stream_efficiency}), reproducing its
     large-array advantage over CUB and Tangram (~2.2-2.7x beyond 10M
     elements);
   - per-element compute is heavier than CUB's (functor call, join and
     range bookkeeping), making the kernel issue-bound: three extra ALU
     operations model the functor/join overhead. *)

module Ir = Device_ir.Ir

let block = 256

let grid_hexp (arch : Gpusim.Arch.t) : Ir.hexp =
  Ir.H_max
    ( Ir.H_int 1,
      Ir.H_min
        (Ir.hceil Ir.hsize (Ir.H_int block), Ir.H_int (arch.Gpusim.Arch.sms * 8)) )

(* a tiny kernel standing in for Kokkos's internal setup/fence round trip *)
let setup_kernel () : Ir.kernel =
  {
    Ir.k_name = "kokkos_setup";
    k_params = [];
    k_arrays = [ ("scratch", Ir.F32) ];
    k_shared = [];
    k_body =
      [
        Ir.if_
          Ir.(tid <: Int 32)
          [ Ir.store_global "scratch" Ir.tid (Ir.Float 0.0) ]
          [];
      ];
  }

let main_kernel () : Ir.kernel =
  let fresh = Blocks.fresh_counter () in
  let acc = fresh "acc" and it = fresh "i" in
  let i = fresh "gi" and x = fresh "x" in
  let j0 = fresh "j0" and j1 = fresh "j1" and j2 = fresh "j2" in
  let reduce_stmts, shared = Blocks.block_reduce ~fresh acc in
  let body =
    [
      Ir.let_ acc (Ir.Float 0.0);
      Ir.for_ it ~init:(Ir.Int 0)
        ~cond:Ir.(Reg it <: Param "Trip")
        ~step:Ir.(Reg it +: Int 1)
        [
          Ir.let_ i Ir.((Reg it *: (gdim *: bdim)) +: ((bid *: bdim) +: tid));
          (* functor-dispatch / join bookkeeping Kokkos performs per item *)
          Ir.let_ j0 Ir.(Reg i *: Int 1);
          Ir.let_ j1 Ir.(Reg j0 +: Int 0);
          Ir.let_ j2 Ir.(Reg j1 %: Int 1073741824);
          Ir.if_
            Ir.(Reg j2 <: Param "SourceSize")
            [ Ir.load_global x "input_x" (Ir.Reg j2); Ir.let_ acc Ir.(Reg acc +: Reg x) ]
            [];
        ];
    ]
    @ reduce_stmts
    @ [ Ir.if_ Ir.(tid =: Int 0) [ Ir.store_global "partials_out" Ir.bid (Ir.Reg acc) ] [] ]
  in
  {
    Ir.k_name = "kokkos_main";
    k_params = [ ("SourceSize", Ir.I32); ("Trip", Ir.I32) ];
    k_arrays = [ ("input_x", Ir.F32); ("partials_out", Ir.F32) ];
    k_shared = [ shared ];
    k_body = body;
  }

let program (arch : Gpusim.Arch.t) : Ir.program =
  let grid = grid_hexp arch in
  let trip1 = Ir.hceil Ir.hsize (Ir.H_mul (grid, Ir.H_int block)) in
  let final, buffers, final_launch = Blocks.combine ~name:"kokkos_final" ~block ~grid in
  {
    Ir.p_name = "kokkos";
    p_elem = Ir.F32;
    p_kernels = [ setup_kernel (); main_kernel (); final ];
    p_buffers =
      { Ir.buf_name = "scratch"; buf_ty = Ir.F32; buf_size = Ir.H_int 32; buf_init = None }
      :: buffers;
    p_launches =
      [
        {
          Ir.ln_kernel = "kokkos_setup";
          ln_grid = Ir.H_int 1;
          ln_block = Ir.H_int 32;
          ln_shared_elems = Ir.H_int 0;
          ln_args = [ Ir.Arg_buffer "scratch" ];
        };
        {
          Ir.ln_kernel = "kokkos_main";
          ln_grid = grid;
          ln_block = Ir.H_int block;
          ln_shared_elems = Ir.H_int 0;
          ln_args =
            [
              Ir.Arg_buffer "input"; Ir.Arg_buffer "partials"; Ir.Arg_scalar Ir.hsize;
              Ir.Arg_scalar trip1;
            ];
        };
        final_launch;
      ];
    p_tunables = [];
    p_result = "final";
  }

let compiled = Blocks.compiled_per_arch program

(** Run the Kokkos baseline; the main kernel's memory traffic is re-priced
    at the staged (L2-resident) stream efficiency, per the paper's
    profiling of Kokkos's staging sister kernels. *)
let run ?(opts = Gpusim.Interp.exact) ~(arch : Gpusim.Arch.t)
    (input : Gpusim.Runner.input) : Gpusim.Runner.outcome =
  let o = Gpusim.Runner.run_compiled ~opts ~arch ~input (compiled arch) in
  let costs =
    List.map
      (fun (lr : Gpusim.Interp.launch_result) ->
        Gpusim.Cost.of_launch ~style:Gpusim.Cost.Staged_loads arch lr)
      o.Gpusim.Runner.launch_results
  in
  let time_us = Gpusim.Cost.of_program arch ~n_inits:1 costs in
  { o with Gpusim.Runner.time_us; launch_costs = costs }
