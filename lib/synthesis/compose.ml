(* Composition: instantiate a {!Version.t} as a complete device-IR host
   program, mirroring Tangram's grid/block/thread synthesis (Section
   II-B.2).

   Generated program shape (compare Listings 1-3):

   - one [reduce_block] kernel over the input. Its grid distributes the
     input across blocks (tiled or strided); inside, the block scheme is
     one of: a directly-lowered cooperative codelet, a thread-distributed
     serial reduction plus a finisher, or the pure global-atomic scheme;
   - atomic-finish versions accumulate per-block results into the
     single-cell [final] buffer with a device-scope atomic (Listing 2);
   - hierarchical versions write per-block partials to a buffer and launch
     a second kernel ([reduce_final]) to reduce them (Listing 1's
     structure);
   - the block-atomic finisher accumulates per-thread partials into a
     per-block global cell with a block-scoped atomic (Listing 2's
     [atomicAdd_block]).

   Argument convention: launches pass every buffer first (in the kernel's
   array-parameter order), then every scalar. *)

module Ir = Device_ir.Ir
open Tir

let bsize_candidates = [ 32; 64; 128; 256; 512; 1024 ]
let coarsen_candidates = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

type context = {
  variants : Passes.Driver.variant list;
  primary : string;
      (** the spectrum being computed (its codelets read the raw input) *)
  combiner : string;
      (** the spectrum that combines partial results — named by the
          compound codelet's consuming spectrum call ([return sum(map)]);
          identical to [primary] for self-combining reductions like sum,
          different for e.g. a sum-of-squares whose partials must be
          {i summed}, not squared again *)
  op : Ast.atomic_kind;
  elem : Ir.scalar;
  counter : int ref;
}

let fresh (ctx : context) (base : string) : string =
  incr ctx.counter;
  Printf.sprintf "%s_%d" base !(ctx.counter)

let scalar_variant (ctx : context) : Passes.Driver.variant =
  match
    List.find_opt
      (fun (v : Passes.Driver.variant) ->
        v.Passes.Driver.v_kind = Ast.Autonomous
        && v.Passes.Driver.v_spectrum = ctx.primary)
      ctx.variants
  with
  | Some v -> v
  | None ->
      raise
        (Lower.Lower_error
           (Printf.sprintf "spectrum %S has no autonomous codelet" ctx.primary))

(* cooperative codelets reading the raw input belong to the primary
   spectrum; those combining partial results to the combiner spectrum *)
let coop_variant ?(combining = false) (ctx : context) (c : Version.coop) :
    Passes.Driver.variant =
  Passes.Driver.find_spectrum_variant ctx.variants
    ~spectrum:(if combining then ctx.combiner else ctx.primary)
    ~name:(Version.coop_variant_name c)

let identity (ctx : context) : float =
  Lower.identity_of ctx.op ctx.elem

(* ------------------------------------------------------------------ *)
(* Index maps                                                          *)
(* ------------------------------------------------------------------ *)

(* container index within the block's tile -> global element index *)
let grid_map (pattern : Ast.access_pattern) (j : Ir.exp) : Ir.exp =
  match pattern with
  | Ast.Tiled -> Ir.((bid *: Param "TileSize") +: j)
  | Ast.Strided -> Ir.(bid +: (j *: gdim))

(* per-thread item index -> container index within the block's tile *)
let thread_map (pattern : Ast.access_pattern) (i : Ir.exp) : Ir.exp =
  match pattern with
  | Ast.Tiled -> Ir.((tid *: Param "Coarsen") +: i)
  | Ast.Strided -> Ir.(tid +: (i *: bdim))

(* ------------------------------------------------------------------ *)
(* Synthesized shuffle exchanges                                       *)
(* ------------------------------------------------------------------ *)

(* A proof-checked exchange network stands in for a cooperative codelet:
   emitted straight at the IR level (there is no TIR codelet behind it).
   Stage 1 folds each warp's partials with the exchange; warp leaders
   park their results in a 32-cell shared array (seeded with the
   identity so dead-warp slots read clean), and every warp redundantly
   folds the slots with the canonical down-shift tree — shuffles stay
   out of divergent control, the same discipline the stock shuffle
   codelets follow, and thread 0 ends up with the block total. Returns
   the result register, the statements, and the shared declaration. *)
let exchange_reduce (ctx : context) (e : Symbolic.Exchange.t) ~(v : string) :
    string * Ir.stmt list * Ir.shared_decl list =
  let combine = Lower.combine_exp ctx.op in
  let ident = Lower.identity_exp ctx.op ctx.elem in
  let wpart = fresh ctx "wpart" in
  let tmp = fresh ctx "xc" in
  let res = fresh ctx "xr" in
  let tmp2 = fresh ctx "xc2" in
  let stage1 = Symbolic.Exchange.warp_stage ~combine ~v ~tmp e in
  let tree =
    List.concat_map
      (fun d ->
        [
          Ir.shfl_down tmp2 (Ir.Reg res) (Ir.Int d) ~width:32;
          Ir.let_ res (combine (Ir.Reg res) (Ir.Reg tmp2));
        ])
      [ 16; 8; 4; 2; 1 ]
  in
  let body =
    stage1
    @ [
        Ir.if_ Ir.(tid <: Int 32) [ Ir.store_shared wpart Ir.tid ident ] [];
        Ir.Sync;
        Ir.if_
          Ir.(lane_id =: Int 0)
          [ Ir.store_shared wpart Ir.warp_id (Ir.Reg v) ]
          [];
        Ir.Sync;
        Ir.load_shared res wpart Ir.lane_id;
      ]
    @ tree
  in
  ( res,
    body,
    [ { Ir.sh_name = wpart; sh_ty = ctx.elem; sh_size = Ir.Static_size 32 } ] )

(* ------------------------------------------------------------------ *)
(* Block-level pieces                                                  *)
(* ------------------------------------------------------------------ *)

type block_piece = {
  bp_body : Ir.stmt list;
  bp_shared : Ir.shared_decl list;
  bp_result : string option;  (** None: the scheme already finished globally *)
  bp_dynamic : bool;
  bp_extra_arrays : (string * Ir.scalar) list;  (** e.g. the block_accum cells *)
  bp_needs_coarsen : bool;
}

let lower_block (ctx : context) (v : Version.t) : block_piece =
  let gmap = grid_map v.Version.grid_pattern in
  let bound = Ir.Param "SourceSize" in
  match v.Version.block with
  | Version.Direct (Version.X e) ->
      (* one guarded element per thread straight off the grid map, then
         the synthesized exchange *)
      let xv = fresh ctx "xv" in
      let gi = fresh ctx "gi" in
      let load =
        [
          Ir.let_ xv (Lower.identity_exp ctx.op ctx.elem);
          Ir.let_ gi (gmap Ir.tid);
          Ir.if_ Ir.(Reg gi <: bound) [ Ir.load_global xv "input_x" (Ir.Reg gi) ] [];
        ]
      in
      let res, body, shared = exchange_reduce ctx e ~v:xv in
      {
        bp_body = load @ body;
        bp_shared = shared;
        bp_result = Some res;
        bp_dynamic = false;
        bp_extra_arrays = [];
        bp_needs_coarsen = false;
      }
  | Version.Direct c ->
      let lc =
        Lower.lower_codelet ~fresh:(fresh ctx) ~prefix:"c" ~op:ctx.op ~elem:ctx.elem
          ~binding:(Lower.C_global { global_of = gmap; bound })
          ~csize:(Ir.Param "TileSize") (coop_variant ctx c)
      in
      {
        bp_body = lc.Lower.lc_body;
        bp_shared = lc.Lower.lc_shared;
        bp_result = Some lc.Lower.lc_result;
        bp_dynamic = lc.Lower.lc_needs_dynamic;
        bp_extra_arrays = [];
        bp_needs_coarsen = false;
      }
  | Version.Direct_global_atomic ->
      (* every thread applies the autonomous codelet to its one-element
         sub-container (so non-self-combining spectra still compute the
         right per-element value) and accumulates straight into the
         device-wide result *)
      let serial =
        Lower.lower_codelet ~fresh:(fresh ctx) ~prefix:"t" ~op:ctx.op ~elem:ctx.elem
          ~binding:
            (Lower.C_global { global_of = (fun i -> gmap Ir.(tid +: i)); bound })
          ~csize:(Ir.Int 1) (scalar_variant ctx)
      in
      let gi = fresh ctx "gi" in
      let body =
        serial.Lower.lc_body
        @ [
            (* out-of-range threads hold the identity; skipping their atomic
               halves the edge-block contention *)
            Ir.let_ gi (gmap Ir.tid);
            Ir.if_
              Ir.(Reg gi <: bound)
              [
                Ir.atomic ~space:Ir.Global ~op:(Lower.ir_atomic_op ctx.op)
                  ~scope:Ir.Scope_device "final_out" (Ir.Int 0)
                  (Ir.Reg serial.Lower.lc_result);
              ]
              [];
          ]
      in
      {
        bp_body = body;
        bp_shared = serial.Lower.lc_shared;
        bp_result = None;
        bp_dynamic = serial.Lower.lc_needs_dynamic;
        bp_extra_arrays = [];
        bp_needs_coarsen = false;
      }
  | Version.Compound (tpat, finisher) -> (
      let tmap i = gmap (thread_map tpat i) in
      let serial =
        Lower.lower_codelet ~fresh:(fresh ctx) ~prefix:"t" ~op:ctx.op ~elem:ctx.elem
          ~binding:(Lower.C_global { global_of = tmap; bound })
          ~csize:(Ir.Param "Coarsen") (scalar_variant ctx)
      in
      let tval = serial.Lower.lc_result in
      match finisher with
      | Version.F_coop (Version.X e) ->
          let res, body, shared = exchange_reduce ctx e ~v:tval in
          {
            bp_body = serial.Lower.lc_body @ body;
            bp_shared = serial.Lower.lc_shared @ shared;
            bp_result = Some res;
            bp_dynamic = serial.Lower.lc_needs_dynamic;
            bp_extra_arrays = [];
            bp_needs_coarsen = true;
          }
      | Version.F_coop c ->
          let fin =
            Lower.lower_codelet ~fresh:(fresh ctx) ~prefix:"f" ~op:ctx.op
              ~elem:ctx.elem ~binding:(Lower.C_register tval) ~csize:Ir.bdim
              (coop_variant ~combining:true ctx c)
          in
          {
            bp_body = serial.Lower.lc_body @ fin.Lower.lc_body;
            bp_shared = serial.Lower.lc_shared @ fin.Lower.lc_shared;
            bp_result = Some fin.Lower.lc_result;
            bp_dynamic = serial.Lower.lc_needs_dynamic || fin.Lower.lc_needs_dynamic;
            bp_extra_arrays = [];
            bp_needs_coarsen = true;
          }
      | Version.F_block_atomic ->
          (* Listing 2: per-thread partials accumulate into a per-block
             global cell with a block-scoped atomic; after a barrier, the
             first thread picks the total up *)
          let res = fresh ctx "bacc" in
          let body =
            serial.Lower.lc_body
            @ [
                Ir.atomic ~space:Ir.Global ~op:(Lower.ir_atomic_op ctx.op)
                  ~scope:Ir.Scope_block "block_accum" Ir.bid (Ir.Reg tval);
                Ir.Sync;
                Ir.let_ res (Lower.identity_exp ctx.op ctx.elem);
                Ir.if_
                  Ir.(tid =: Int 0)
                  [ Ir.load_global res "block_accum" Ir.bid ]
                  [];
              ]
          in
          {
            bp_body = body;
            bp_shared = serial.Lower.lc_shared;
            bp_result = Some res;
            bp_dynamic = serial.Lower.lc_needs_dynamic;
            bp_extra_arrays = [ ("block_accum", ctx.elem) ];
            bp_needs_coarsen = true;
          })

(* ------------------------------------------------------------------ *)
(* Second (hierarchical) kernel                                        *)
(* ------------------------------------------------------------------ *)

let second_kernel (ctx : context) (sk : Version.second_kernel) : Ir.kernel * int =
  match sk with
  | Version.SK_serial ->
      (* one thread walks all partials *)
      let acc = fresh ctx "acc" and i = fresh ctx "i" and x = fresh ctx "x" in
      let body =
        [
          Ir.let_ acc (Lower.identity_exp ctx.op ctx.elem);
          Ir.for_ i ~init:(Ir.Int 0)
            ~cond:Ir.(Reg i <: Param "NumPartials")
            ~step:Ir.(Reg i +: Int 1)
            [
              Ir.load_global x "partials_in" (Ir.Reg i);
              Ir.let_ acc (Lower.combine_exp ctx.op (Ir.Reg acc) (Ir.Reg x));
            ];
          Ir.store_global "final_out" (Ir.Int 0) (Ir.Reg acc);
        ]
      in
      ( {
          Ir.k_name = "reduce_final";
          k_params = [ ("NumPartials", Ir.I32) ];
          k_arrays = [ ("partials_in", ctx.elem); ("final_out", ctx.elem) ];
          k_shared = [];
          k_body = body;
        },
        1 )
  | Version.SK_tree ->
      (* one block: strided serial accumulation, then the cooperative tree
         finisher over the per-thread partials *)
      let block = 256 in
      let acc = fresh ctx "acc" and i = fresh ctx "i" and x = fresh ctx "x" in
      let gi = fresh ctx "gi" in
      let serial =
        [
          Ir.let_ acc (Lower.identity_exp ctx.op ctx.elem);
          Ir.for_ i ~init:(Ir.Int 0)
            ~cond:Ir.(Reg i <: Param "Trip")
            ~step:Ir.(Reg i +: Int 1)
            [
              Ir.let_ gi Ir.(tid +: (Reg i *: Int block));
              Ir.if_
                Ir.(Reg gi <: Param "NumPartials")
                [
                  Ir.load_global x "partials_in" (Ir.Reg gi);
                  Ir.let_ acc (Lower.combine_exp ctx.op (Ir.Reg acc) (Ir.Reg x));
                ]
                [];
            ];
        ]
      in
      let fin =
        Lower.lower_codelet ~fresh:(fresh ctx) ~prefix:"f2" ~op:ctx.op ~elem:ctx.elem
          ~binding:(Lower.C_register acc) ~csize:Ir.bdim
          (coop_variant ~combining:true ctx Version.V)
      in
      let body =
        serial @ fin.Lower.lc_body
        @ [
            Ir.if_
              Ir.(tid =: Int 0)
              [ Ir.store_global "final_out" (Ir.Int 0) (Ir.Reg fin.Lower.lc_result) ]
              [];
          ]
      in
      ( {
          Ir.k_name = "reduce_final";
          k_params = [ ("NumPartials", Ir.I32); ("Trip", Ir.I32) ];
          k_arrays = [ ("partials_in", ctx.elem); ("final_out", ctx.elem) ];
          k_shared = fin.Lower.lc_shared;
          k_body = body;
        },
        block )

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

(** Instantiate [v] against a codelet unit's variants. [op] is the
    spectrum's combining operation (inferred by the planner); [elem] the
    element type. *)
let program ~(variants : Passes.Driver.variant list) ~(primary : string)
    ?(combiner : string option) ~(op : Ast.atomic_kind) ~(elem : Ir.scalar)
    (v : Version.t) : Ir.program =
  let combiner = Option.value ~default:primary combiner in
  let ctx = { variants; primary; combiner; op; elem; counter = ref 0 } in
  let piece = lower_block ctx v in
  let atomic_finish = v.Version.grid_finish = Version.Atomic in
  let finish_stmts =
    match (piece.bp_result, v.Version.grid_finish) with
    | None, Version.Atomic -> []  (* Direct_global_atomic already finished *)
    | None, Version.Hierarchical _ -> assert false  (* enumeration forbids it *)
    | Some res, Version.Atomic ->
        [
          Ir.if_
            Ir.(tid =: Int 0)
            [
              Ir.atomic ~space:Ir.Global ~op:(Lower.ir_atomic_op ctx.op)
                ~scope:Ir.Scope_device "final_out" (Ir.Int 0) (Ir.Reg res);
            ]
            [];
        ]
    | Some res, Version.Hierarchical _ ->
        [
          Ir.if_
            Ir.(tid =: Int 0)
            [ Ir.store_global "partials_out" Ir.bid (Ir.Reg res) ]
            [];
        ]
  in
  let out_array =
    if atomic_finish then ("final_out", elem) else ("partials_out", elem)
  in
  let k1_params =
    [ ("SourceSize", Ir.I32); ("TileSize", Ir.I32) ]
    @ if piece.bp_needs_coarsen then [ ("Coarsen", Ir.I32) ] else []
  in
  let kernel1 =
    {
      Ir.k_name = "reduce_block";
      k_params = k1_params;
      k_arrays = (("input_x", elem) :: piece.bp_extra_arrays) @ [ out_array ];
      k_shared = piece.bp_shared;
      k_body = piece.bp_body @ finish_stmts;
    }
  in
  let tunables =
    ("bsize", bsize_candidates)
    :: (if piece.bp_needs_coarsen then [ ("coarsen", coarsen_candidates) ] else [])
  in
  let tile_h =
    if piece.bp_needs_coarsen then Ir.H_mul (Ir.htun "bsize", Ir.htun "coarsen")
    else Ir.htun "bsize"
  in
  let p_h = Ir.hceil Ir.hsize tile_h in
  let ident = identity ctx in
  let dynamic_h = if piece.bp_dynamic then Ir.htun "bsize" else Ir.H_int 0 in
  let launch1_args buffers =
    List.map (fun b -> Ir.Arg_buffer b) buffers
    @ [ Ir.Arg_scalar Ir.hsize; Ir.Arg_scalar tile_h ]
    @ if piece.bp_needs_coarsen then [ Ir.Arg_scalar (Ir.htun "coarsen") ] else []
  in
  let extra_buffers =
    List.map
      (fun (name, ty) ->
        { Ir.buf_name = name; buf_ty = ty; buf_size = p_h; buf_init = Some ident })
      piece.bp_extra_arrays
  in
  let final_buffer =
    { Ir.buf_name = "final"; buf_ty = elem; buf_size = Ir.H_int 1; buf_init = Some ident }
  in
  if atomic_finish then
    {
      Ir.p_name = Version.name v;
      p_elem = elem;
      p_kernels = [ kernel1 ];
      p_buffers = extra_buffers @ [ final_buffer ];
      p_launches =
        [
          {
            Ir.ln_kernel = "reduce_block";
            ln_grid = p_h;
            ln_block = Ir.htun "bsize";
            ln_shared_elems = dynamic_h;
            ln_args =
              launch1_args
                (("input" :: List.map fst piece.bp_extra_arrays) @ [ "final" ]);
          };
        ];
      p_tunables = tunables;
      p_result = "final";
    }
  else
    let sk =
      match v.Version.grid_finish with
      | Version.Hierarchical sk -> sk
      | Version.Atomic -> assert false
    in
    let kernel2, block2 = second_kernel ctx sk in
    let partials_buffer =
      { Ir.buf_name = "partials"; buf_ty = elem; buf_size = p_h; buf_init = Some ident }
    in
    let launch2_args =
      [ Ir.Arg_buffer "partials"; Ir.Arg_buffer "final"; Ir.Arg_scalar p_h ]
      @
      match sk with
      | Version.SK_serial -> []
      | Version.SK_tree -> [ Ir.Arg_scalar (Ir.hceil p_h (Ir.H_int block2)) ]
    in
    {
      Ir.p_name = Version.name v;
      p_elem = elem;
      p_kernels = [ kernel1; kernel2 ];
      p_buffers = extra_buffers @ [ partials_buffer; final_buffer ];
      p_launches =
        [
          {
            Ir.ln_kernel = "reduce_block";
            ln_grid = p_h;
            ln_block = Ir.htun "bsize";
            ln_shared_elems = dynamic_h;
            ln_args =
              launch1_args
                (("input" :: List.map fst piece.bp_extra_arrays) @ [ "partials" ]);
          };
          {
            Ir.ln_kernel = "reduce_final";
            ln_grid = Ir.H_int 1;
            ln_block = Ir.H_int block2;
            ln_shared_elems =
              (match sk with
              | Version.SK_serial -> Ir.H_int 0
              | Version.SK_tree ->
                  if Array.length (Array.of_list kernel2.Ir.k_shared) > 0
                     && List.exists
                          (fun d -> d.Ir.sh_size = Ir.Dynamic_size)
                          kernel2.Ir.k_shared
                  then Ir.H_int block2
                  else Ir.H_int 0);
            ln_args = launch2_args;
          };
        ];
      p_tunables = tunables;
      p_result = "final";
    }
