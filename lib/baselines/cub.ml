(* CUB-style hand-written reduction baseline (cub::DeviceReduce::Sum,
   version 1.8.0 era).

   Strategy, per the library's documented policy and the paper's profiling
   (Section IV-C.1):

   - a fixed two-pass scheme: one grid-wide kernel producing per-block
     partials, then a single-block kernel reducing them — CUB always pays
     two dependent launches plus the temp-storage query/allocation calls of
     its two-phase API, which is why it loses on small and medium arrays;
   - 128-bit {b vectorized} loads in a grid-stride loop (4 floats per
     thread per iteration) — the bandwidth optimisation that makes it the
     fastest code for large arrays;
   - a shuffle-based BlockReduce;
   - an even-share grid sized to saturate the device, independent of the
     input ("CUB does not apply special optimizations for small arrays"). *)

module Ir = Device_ir.Ir

let block = 256
let vec = 4

(* grid: even-share over the device, capped to keep per-thread work >= one
   vector; never grows beyond 16 blocks per SM *)
let grid_hexp (arch : Gpusim.Arch.t) : Ir.hexp =
  Ir.H_max
    ( Ir.H_int 1,
      Ir.H_min
        (Ir.hceil Ir.hsize (Ir.H_int (block * vec)), Ir.H_int (arch.Gpusim.Arch.sms * 16))
    )

let upsweep_kernel () : Ir.kernel =
  let fresh = Blocks.fresh_counter () in
  let acc = fresh "acc" and it = fresh "i" in
  let vbase = fresh "vbase" in
  let vs = List.init vec (fun k -> Printf.sprintf "v%d" k) in
  let vec_sum =
    List.fold_left (fun e v -> Ir.(e +: Reg v)) (Ir.Reg (List.hd vs)) (List.tl vs)
  in
  let tail_loads =
    List.concat
      (List.mapi
         (fun k _ ->
           Blocks.guarded_accum ~fresh ~arr:"input_x" ~bound:(Ir.Param "SourceSize")
             acc
             Ir.(Reg vbase +: Int k))
         vs)
  in
  let reduce_stmts, shared = Blocks.block_reduce ~fresh acc in
  let body =
    [
      Ir.let_ acc (Ir.Float 0.0);
      Ir.for_ it ~init:(Ir.Int 0)
        ~cond:Ir.(Reg it <: Param "Trip")
        ~step:Ir.(Reg it +: Int 1)
        [
          Ir.let_ vbase
            Ir.(
              ((Reg it *: (gdim *: bdim)) +: ((bid *: bdim) +: tid)) *: Int vec);
          Ir.if_
            Ir.((Reg vbase +: Int (vec - 1)) <: Param "SourceSize")
            [
              Ir.Vec_load { dsts = vs; arr = "input_x"; base = Ir.Reg vbase };
              Ir.let_ acc Ir.(Reg acc +: vec_sum);
            ]
            tail_loads;
        ];
    ]
    @ reduce_stmts
    @ [ Ir.if_ Ir.(tid =: Int 0) [ Ir.store_global "partials_out" Ir.bid (Ir.Reg acc) ] [] ]
  in
  {
    Ir.k_name = "cub_upsweep";
    k_params = [ ("SourceSize", Ir.I32); ("Trip", Ir.I32) ];
    k_arrays = [ ("input_x", Ir.F32); ("partials_out", Ir.F32) ];
    k_shared = [ shared ];
    k_body = body;
  }

let program (arch : Gpusim.Arch.t) : Ir.program =
  let grid = grid_hexp arch in
  let trip1 = Ir.hceil Ir.hsize (Ir.H_mul (grid, Ir.H_int (block * vec))) in
  let downsweep, buffers, downsweep_launch =
    Blocks.combine ~name:"cub_downsweep" ~block ~grid
  in
  {
    Ir.p_name = "cub";
    p_elem = Ir.F32;
    p_kernels = [ upsweep_kernel (); downsweep ];
    p_buffers = buffers;
    p_launches =
      [
        {
          Ir.ln_kernel = "cub_upsweep";
          ln_grid = grid;
          ln_block = Ir.H_int block;
          ln_shared_elems = Ir.H_int 0;
          ln_args =
            [
              Ir.Arg_buffer "input"; Ir.Arg_buffer "partials"; Ir.Arg_scalar Ir.hsize;
              Ir.Arg_scalar trip1;
            ];
        };
        downsweep_launch;
      ];
    p_tunables = [];
    p_result = "final";
  }

(** The two-phase [cub::DeviceReduce] API costs one extra driver round trip
    (temp-storage size query) and a [cudaMalloc] of the temp storage before
    the real call. *)
let api_overhead_us (arch : Gpusim.Arch.t) : float =
  arch.Gpusim.Arch.launch_overhead_us +. (2.0 *. arch.Gpusim.Arch.init_overhead_us)

let compiled = Blocks.compiled_per_arch program

let run ?(opts = Gpusim.Interp.exact) ~(arch : Gpusim.Arch.t)
    (input : Gpusim.Runner.input) : Gpusim.Runner.outcome =
  let o = Gpusim.Runner.run_compiled ~opts ~arch ~input (compiled arch) in
  { o with Gpusim.Runner.time_us = o.Gpusim.Runner.time_us +. api_overhead_us arch }
