(* Shared device-IR building blocks for the hand-written baselines:
   CUB-style block reduction (warp shuffle tree, per-warp partials in
   shared memory, first-warp tree), guarded serial accumulation, the
   single-block combine pass both two-pass baselines end with, and a
   per-architecture compile memo. *)

module Ir = Device_ir.Ir

(** Fresh register names [base_1], [base_2], ... from one counter. *)
let fresh_counter () =
  let c = ref 0 in
  fun base -> incr c; Printf.sprintf "%s_%d" base !c

(** Warp-level shuffle reduction of register [acc]:
    [for off = 16..1: acc += __shfl_down(acc, off)]. *)
let warp_shfl_tree ~(fresh : string -> string) (acc : string) : Ir.stmt list =
  let off = fresh "off" and t = fresh "shv" in
  [
    Ir.for_halving off ~from:(Ir.Int 16)
      [
        Ir.shfl_down t (Ir.Reg acc) (Ir.Reg off) ~width:32;
        Ir.let_ acc Ir.(Reg acc +: Reg t);
      ];
  ]

(** CUB-style BlockReduce over per-thread partials in [acc]: shuffle tree
    per warp, lane-0 partials to shared memory, first warp reduces them.
    After this, thread 0's [acc] holds the block total. Returns the
    statements and the shared declaration it needs. *)
let block_reduce ~(fresh : string -> string) (acc : string) :
    Ir.stmt list * Ir.shared_decl =
  let part = fresh "warp_part" in
  let decl = { Ir.sh_name = part; sh_ty = Ir.F32; sh_size = Ir.Static_size 32 } in
  let x = fresh "wp" in
  let stmts =
    [
      Ir.if_
        Ir.(tid <: Int 32)
        [ Ir.store_shared part Ir.tid (Ir.Float 0.0) ]
        [];
      Ir.Sync;
    ]
    @ warp_shfl_tree ~fresh acc
    @ [
        Ir.if_ Ir.(lane_id =: Int 0) [ Ir.store_shared part Ir.warp_id (Ir.Reg acc) ] [];
        Ir.Sync;
        Ir.if_
          Ir.(warp_id =: Int 0)
          ([
             Ir.let_ x (Ir.Float 0.0);
             Ir.if_
               Ir.(lane_id <: (bdim /: warp_size))
               [ Ir.load_shared x part Ir.lane_id ]
               [];
             Ir.let_ acc (Ir.Reg x);
           ]
          @ warp_shfl_tree ~fresh acc)
          [];
      ]
  in
  (stmts, decl)

(** Guarded scalar accumulation of [input_arr.(idx)] into [acc] when
    [idx < bound]. *)
let guarded_accum ~(fresh : string -> string) ~(arr : string) ~(bound : Ir.exp)
    (acc : string) (idx : Ir.exp) : Ir.stmt list =
  let i = fresh "gi" and x = fresh "x" in
  [
    Ir.let_ i idx;
    Ir.if_
      Ir.(Reg i <: bound)
      [ Ir.load_global x arr (Ir.Reg i); Ir.let_ acc Ir.(Reg acc +: Reg x) ]
      [];
  ]

(** The combine pass: kernel [name], one block of [block] threads,
    sums the [grid] per-block partials in buffer ["partials"] into
    buffer ["final"]. Returns the kernel, those two buffers and its
    launch. *)
let combine ~(name : string) ~(block : int) ~(grid : Ir.hexp) :
    Ir.kernel * Ir.buffer list * Ir.launch =
  let fresh = fresh_counter () in
  let acc = fresh "acc" and it = fresh "i" in
  let reduce_stmts, shared = block_reduce ~fresh acc in
  let body =
    [
      Ir.let_ acc (Ir.Float 0.0);
      Ir.for_ it ~init:(Ir.Int 0)
        ~cond:Ir.(Reg it <: Param "Trip")
        ~step:Ir.(Reg it +: Int 1)
        (guarded_accum ~fresh ~arr:"partials_in" ~bound:(Ir.Param "NumPartials") acc
           Ir.(tid +: (Reg it *: Int block)));
    ]
    @ reduce_stmts
    @ [ Ir.if_ Ir.(tid =: Int 0) [ Ir.store_global "final_out" (Ir.Int 0) (Ir.Reg acc) ] [] ]
  in
  let kernel =
    {
      Ir.k_name = name;
      k_params = [ ("NumPartials", Ir.I32); ("Trip", Ir.I32) ];
      k_arrays = [ ("partials_in", Ir.F32); ("final_out", Ir.F32) ];
      k_shared = [ shared ];
      k_body = body;
    }
  in
  let buffers =
    [
      { Ir.buf_name = "partials"; buf_ty = Ir.F32; buf_size = grid; buf_init = Some 0.0 };
      { Ir.buf_name = "final"; buf_ty = Ir.F32; buf_size = Ir.H_int 1; buf_init = None };
    ]
  in
  let launch =
    {
      Ir.ln_kernel = name;
      ln_grid = Ir.H_int 1;
      ln_block = Ir.H_int block;
      ln_shared_elems = Ir.H_int 0;
      ln_args =
        [
          Ir.Arg_buffer "partials"; Ir.Arg_buffer "final"; Ir.Arg_scalar grid;
          Ir.Arg_scalar (Ir.hceil grid (Ir.H_int block));
        ];
    }
  in
  (kernel, buffers, launch)

(** [program]'s compiled form, compiled once per architecture. *)
let compiled_per_arch (program : Gpusim.Arch.t -> Ir.program) :
    Gpusim.Arch.t -> Gpusim.Runner.compiled_program =
  let cache = Hashtbl.create 4 in
  fun arch ->
    match Hashtbl.find_opt cache arch.Gpusim.Arch.name with
    | Some cp -> cp
    | None ->
        let cp = Gpusim.Runner.compile (program arch) in
        Hashtbl.add cache arch.Gpusim.Arch.name cp;
        cp
