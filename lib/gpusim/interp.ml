(* Warp-synchronous SIMT interpreter for compiled device-IR kernels.

   Execution model
   ---------------
   Blocks execute one after another (the cost model, not the interpreter,
   accounts for inter-block parallelism). Within a block, statements that
   contain no barrier are executed warp by warp, each warp running the whole
   statement in lock step under an active-lane mask (branch divergence
   splits the mask, exactly like a SIMT reconvergence stack of depth one per
   nesting level). Statements containing a barrier require block-uniform
   control flow — the validator enforces this statically and the interpreter
   re-checks dynamically — and are driven block-wide, statement by
   statement, so that every warp reaches the barrier before any proceeds.

   Cost charging
   -------------
   While executing, the interpreter charges per-warp pipelined cycle costs
   (from the {!Arch} descriptor) into per-warp accumulators and raises them
   to a common maximum at barriers; the block's critical path is the largest
   accumulator at block end. It simultaneously counts events (transactions,
   conflicts, divergence, ...) in an {!Events.t}, each warp event through
   the {!Device_ir.Counters} function that names it, the one
   {!Device_ir.Access} predicts with. Three charges are the interpreter's
   own: Kepler's lock rounds, the loop cap's skipped iterations, and
   [t_launches] and [t_max_heat] at launch end. Global-memory transaction
   counting models 128-byte coalescing; shared-memory accesses model
   32-bank conflicts; shared atomics are priced per same-address conflicting
   lane according to the architecture's implementation (lock-update-unlock
   vs native); global atomics additionally heat a per-address map used by
   the cost model for device-wide serialisation. The launch-shape check
   and shared-array sizing are {!Device_ir.Resolve}'s, shared with the
   symbolic evaluator.

   Registers
   ---------
   Every thread's registers live in the frame of {!Compiled}: float
   slots unboxed in a float bank, int and predicate slots in an int
   bank, each slot of the one kind {!Device_ir.Analysis.registers}
   gives its register. Each slot's writes (a statement's result, a
   memory cell, a shuffle's source) are compiled once per kernel into
   the slot's writer, so the statement loops below never dispatch on a
   register's kind; a loop iterator is always an int slot. The banks
   are not reset between blocks or launches: a kernel compiles only
   when a definition reaches every read, and a shuffle lane outside the
   mask or past the block publishes the destination kind's zero, not a
   register it never wrote. A bound buffer or parameter whose kind
   differs from its declaration is rejected at launch, since the slot
   kinds were taken from the declarations.

   Sampling
   --------
   With [options.max_blocks] set, only a sample of blocks executes and
   counters are extrapolated (an atomic address's heat only when every
   sampled block heated it: a block-private address keeps one block's
   heat, see {!Events.scale_all}); with [options.loop_cap] set, affine loops are
   cut short and their remaining iterations extrapolated from the last
   executed one. Sampled runs produce meaningless data values and are only
   for timing, which is why {!exact} is the default. *)

module Ir = Device_ir.Ir
module Lanes = Device_ir.Lanes
module C = Compiled
module R = Device_ir.Resolve
module Counters = Device_ir.Counters

exception Sim_error of string

let sim_error fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type options = {
  max_blocks : int option;
  loop_cap : int option;
  check_uniform : bool;
}

let exact = { max_blocks = None; loop_cap = None; check_uniform = true }
let sampled = { max_blocks = Some 12; loop_cap = Some 24; check_uniform = false }

type buffer = {
  data : float array;
  b_ty : Ir.scalar;
  b_id : int;
  b_read_only : bool;  (** the input buffer: stores and atomics trap *)
  b_size : int;  (** logical element count (bounds checks use this) *)
  b_wrap : bool;
      (** virtual buffer: the logical range is larger than [data], which
          repeats cyclically ([Array.length data] must be a power of two).
          Used to drive timing runs at paper-scale sizes (up to 268M
          elements) without allocating gigabytes; results are then
          approximate. *)
}

let make_buffer ?(read_only = false) ~(ty : Ir.scalar) ~(id : int)
    (data : float array) : buffer =
  { data; b_ty = ty; b_id = id; b_read_only = read_only;
    b_size = Array.length data; b_wrap = false }

(** A virtual buffer of logical size [n] whose contents repeat [pattern]
    (length a power of two). *)
let make_virtual_buffer ?(read_only = false) ~(ty : Ir.scalar) ~(id : int) ~(n : int)
    (pattern : float array) : buffer =
  let len = Array.length pattern in
  if len land (len - 1) <> 0 || len = 0 then
    invalid_arg "make_virtual_buffer: pattern length must be a power of two";
  { data = pattern; b_ty = ty; b_id = id; b_read_only = read_only;
    b_size = n; b_wrap = true }

type block_ctx = {
  arch : Arch.t;
  opts : options;
  ev : Events.t;
  cnt : Events.totals;  (** [ev]'s counters *)
  k : C.cexp R.kernel;
  writers : C.writer array;  (** each register slot's writes *)
  slots : C.slot array;
  fr : C.frame;  (** registers, parameters and geometry expressions read *)
  globals : buffer array;
  shared : float array array;
  wcycles : float array;  (** per-warp accumulated pipelined cycles *)
  nthreads : int;
  nwarps : int;
}

let warp_lanes = 32

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* Expressions are closures compiled once per kernel ({!Compiled}),
   evaluated for the frame's current thread in the form the statement
   uses: an index, a stored value or a condition. *)
let[@inline] lane_int (fr : C.frame) (tid : int) (e : C.cexp) : int =
  fr.C.tid <- tid;
  e.C.ci fr

(* stores [e]'s value, as the float a cell holds, into [a.(i)] *)
let[@inline] lane_float (fr : C.frame) (tid : int) (e : C.cexp) (a : float array)
    (i : int) : unit =
  fr.C.tid <- tid;
  e.C.cf fr a i

let[@inline] lane_bool (fr : C.frame) (tid : int) (e : C.cexp) : bool =
  fr.C.tid <- tid;
  e.C.cb fr

(* ------------------------------------------------------------------ *)
(* Memory helpers                                                      *)
(* ------------------------------------------------------------------ *)

let buffer_phys (b : buffer) (i : int) : int =
  if b.b_wrap then i land (Array.length b.data - 1) else i

(* the physical cell of element [i], bounds-checked for a read *)
let buffer_cell (b : buffer) (i : int) : int =
  if i < 0 || i >= b.b_size then
    sim_error "global array #%d: index %d out of bounds (size %d)" b.b_id i b.b_size
  else buffer_phys b i

(* the physical cell of element [i], checked for a store; the caller
   stores in place, so no float crosses a call *)
let buffer_store_cell (b : buffer) (i : int) : int =
  if b.b_read_only then sim_error "global array #%d: write to read-only buffer" b.b_id
  else if i < 0 || i >= b.b_size then
    sim_error "global array #%d: store index %d out of bounds (size %d)" b.b_id i
      b.b_size
  else buffer_phys b i

let shared_cell (ctx : block_ctx) (slot : int) (i : int) : int =
  let a = ctx.shared.(slot) in
  if i < 0 || i >= Array.length a then
    sim_error "%s: shared array %s: index %d out of bounds (size %d)" ctx.k.R.rk_name
      ctx.k.R.rk_shared.(slot).Ir.sh_name i (Array.length a)
  else i

let shared_store_cell (ctx : block_ctx) (slot : int) (i : int) : int =
  let a = ctx.shared.(slot) in
  if i < 0 || i >= Array.length a then
    sim_error "%s: shared array %s: store index %d out of bounds (size %d)"
      ctx.k.R.rk_name ctx.k.R.rk_shared.(slot).Ir.sh_name i (Array.length a)
  else i

(* ------------------------------------------------------------------ *)
(* Per-warp execution                                                  *)
(* ------------------------------------------------------------------ *)

let charge (ctx : block_ctx) (w : int) (cycles : float) : unit =
  ctx.wcycles.(w) <- ctx.wcycles.(w) +. cycles

(* the int-bank cell of loop iterator [slot] for the frame's thread *)
let iterator_cell (ctx : block_ctx) (slot : int) : int =
  match ctx.slots.(slot) with
  | C.Int_reg i -> (ctx.fr.C.tid * ctx.fr.C.ni) + i
  | C.Float_reg _ | C.Pred_reg _ -> invalid_arg "Interp: a loop iterator that is not an int"

(* a float as a cell of that type holds it: Value.of_float, back to float *)
let cell_value (ty : Ir.scalar) (f : float) : float =
  match ty with
  | Ir.F32 -> f
  | Ir.I32 | Ir.U32 -> float_of_int (Value.norm32 (int_of_float f))
  | Ir.Pred -> if f <> 0.0 then 1.0 else 0.0

(* One lane's atomic on element [i]: the old value goes to [dst] (when
   the atomic keeps it), the combined one to the cell. *)
let apply_atomic (ctx : block_ctx) ~(space : Ir.space) ~(slot : int)
    (op : Ir.atomic_op) (dst : C.writer option) (i : int) (v : float) : unit =
  let fr = ctx.fr in
  match space with
  | Ir.Global ->
      let b = ctx.globals.(slot) in
      let j = buffer_cell b i in
      let old = cell_value b.b_ty b.data.(j) in
      (match dst with Some w -> w.C.load fr b.data j | None -> ());
      b.data.(buffer_store_cell b i) <- cell_value b.b_ty (Ir.combine op old v)
  | Ir.Shared ->
      let a = ctx.shared.(slot) and ty = ctx.k.R.rk_shared.(slot).Ir.sh_ty in
      let j = shared_cell ctx slot i in
      let old = cell_value ty a.(j) in
      (match dst with Some w -> w.C.load fr a j | None -> ());
      a.(shared_store_cell ctx slot i) <- cell_value ty (Ir.combine op old v)

(* per-lane operands of one warp statement: indices and stored values
   (as the floats memory holds) *)
let scratch_idx = Array.make warp_lanes 0
let scratch_f = Array.make warp_lanes 0.0

(* The register banks, reused from launch to launch rather than
   allocated per launch: no read reaches a slot before its first write
   in a block. *)
let fbank = ref [||]
let ibank = ref [||]

let bank (pool : 'a array ref) (n : int) (zero : 'a) : 'a array =
  if Array.length !pool < n then pool := Array.make n zero;
  !pool

(* Lane masks of the structured statements, reused rather than allocated
   per warp: a conditional at nesting depth [d] splits its lanes into
   masks [2d] and [2d+1], a loop keeps its live lanes in mask [2d]. *)
let mask_pool : bool array array ref = ref [||]

let pool_mask (i : int) : bool array =
  let pool = !mask_pool in
  if i >= Array.length pool then
    mask_pool :=
      Array.init (2 * (i + 1)) (fun j ->
          if j < Array.length pool then pool.(j) else Array.make warp_lanes false);
  !mask_pool.(i)

(* [s] runs at nesting depth [d] under [mask] *)
let rec exec_warp (ctx : block_ctx) (d : int) (w : int) (mask : bool array)
    (s : C.cexp R.stmt) : unit =
  let lanes = Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  let a = ctx.arch in
  let fr = ctx.fr in
  match s with
  | R.Let (slot, e) ->
      let set = ctx.writers.(slot).C.set in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          fr.C.tid <- base + l;
          set e fr
        end
      done;
      Counters.alu ctx.cnt;
      charge ctx w a.Arch.cyc_alu
  | R.Load { l_arr; l_dst; l_idx; _ } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then scratch_idx.(l) <- lane_int fr (base + l) l_idx
      done;
      let load = ctx.writers.(l_dst).C.load in
      match l_arr.R.a_space with
      | Ir.Global ->
          let b = ctx.globals.(l_arr.R.a_slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let j = buffer_cell b scratch_idx.(l) in
              fr.C.tid <- base + l;
              load fr b.data j
            end
          done;
          let trans = Lanes.segments scratch_idx mask lanes in
          Counters.global_load ctx.cnt ~trans;
          charge ctx w (a.Arch.cyc_global *. float_of_int trans)
      | Ir.Shared ->
          let slot = l_arr.R.a_slot in
          let cells = ctx.shared.(slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let j = shared_cell ctx slot scratch_idx.(l) in
              fr.C.tid <- base + l;
              load fr cells j
            end
          done;
          let degree = Lanes.bank_degree scratch_idx mask lanes in
          Counters.shared_access ctx.cnt ~degree;
          charge ctx w (a.Arch.cyc_shared *. float_of_int degree))
  | R.Store { st_arr; st_idx; st_v; _ } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          scratch_idx.(l) <- lane_int fr (base + l) st_idx;
          lane_float fr (base + l) st_v scratch_f l
        end
      done;
      match st_arr.R.a_space with
      | Ir.Global ->
          let b = ctx.globals.(st_arr.R.a_slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              b.data.(buffer_store_cell b scratch_idx.(l)) <- scratch_f.(l)
          done;
          let trans = Lanes.segments scratch_idx mask lanes in
          Counters.global_store ctx.cnt ~trans;
          charge ctx w (a.Arch.cyc_global *. float_of_int trans)
      | Ir.Shared ->
          let slot = st_arr.R.a_slot in
          let cells = ctx.shared.(slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              cells.(shared_store_cell ctx slot scratch_idx.(l)) <- scratch_f.(l)
          done;
          let degree = Lanes.bank_degree scratch_idx mask lanes in
          Counters.shared_access ctx.cnt ~degree;
          charge ctx w (a.Arch.cyc_shared *. float_of_int degree))
  | R.Vec_load { vl_dsts; vl_arr; vl_base; _ } ->
      let b = ctx.globals.(vl_arr.R.a_slot) in
      let width = Array.length vl_dsts in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let base_i = lane_int fr (base + l) vl_base in
          if base_i mod width <> 0 then
            sim_error "%s: misaligned vector load at element %d (width %d)"
              ctx.k.R.rk_name base_i width;
          scratch_idx.(l) <- base_i;
          for j = 0 to width - 1 do
            ctx.writers.(vl_dsts.(j)).C.load fr b.data (buffer_cell b (base_i + j))
          done
        end
      done;
      let trans = Lanes.vec_segments scratch_idx mask lanes ~width in
      Counters.vector_load ctx.cnt ~trans;
      charge ctx w (a.Arch.cyc_global *. float_of_int trans)
  | R.Atomic { at_dst; at_arr; at_op; at_scope; at_idx; at_v; _ } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          scratch_idx.(l) <- lane_int fr (base + l) at_idx;
          lane_float fr (base + l) at_v scratch_f l
        end
      done;
      let dst = if at_dst >= 0 then Some ctx.writers.(at_dst) else None in
      (* lanes apply in lane order: deterministic serialisation *)
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          fr.C.tid <- base + l;
          apply_atomic ctx ~space:at_arr.R.a_space ~slot:at_arr.R.a_slot at_op dst
            scratch_idx.(l) scratch_f.(l)
        end
      done;
      let n_active = Lanes.active mask lanes in
      if n_active > 0 then
        match at_arr.R.a_space with
        | Ir.Shared -> (
            let worst = Lanes.atomic_worst scratch_idx mask lanes in
            Counters.shared_atomic ctx.cnt ~active:n_active ~worst;
            match a.Arch.shared_atomic with
            | Arch.Lock_update_unlock ->
                (* each lock round retires one lane per contended address and
                   replays the rest: [worst] rounds, every round a divergent
                   branch; observed only, the cost model prices predicted
                   rounds from [t_atomic_shared_serial] *)
                ctx.cnt.Events.t_divergent_branches <-
                  ctx.cnt.Events.t_divergent_branches +. float_of_int worst;
                charge ctx w (a.Arch.cyc_lock_iteration *. float_of_int worst)
            | Arch.Native ->
                charge ctx w (a.Arch.cyc_shared_atomic *. float_of_int worst))
        | Ir.Global ->
            let distinct = Lanes.atomic_distinct scratch_idx mask lanes in
            Counters.global_atomic ctx.cnt ~active:n_active ~distinct;
            (* block-scoped atomics don't reach the device-wide L2 units *)
            let device_scope =
              (not (a.Arch.has_scoped_atomics && at_scope = Ir.Scope_block))
            in
            if device_scope then begin
              let b_id = ctx.globals.(at_arr.R.a_slot).b_id in
              for l = 0 to lanes - 1 do
                if mask.(l) then
                  Events.heat ctx.ev ~buffer:b_id ~index:scratch_idx.(l) ~by:1.0
              done
            end;
            charge ctx w (a.Arch.cyc_global *. float_of_int distinct))
  | R.Shfl { sh_dst; sh_mode; sh_v; sh_lane; sh_width } ->
      (* every active lane publishes v; a lane outside the mask or past
         the block publishes the destination kind's zero *)
      let width = sh_width in
      let wr = ctx.writers.(sh_dst) in
      for l = 0 to warp_lanes - 1 do
        if l < lanes && mask.(l) then begin
          fr.C.tid <- base + l;
          wr.C.publish sh_v fr l
        end
        else wr.C.absent l
      done;
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let delta = lane_int fr (base + l) sh_lane in
          let src = Lanes.shfl_src sh_mode ~lane:l ~delta ~width in
          if src = Lanes.out_of_warp then
            sim_error "%s: lane %d of a %s shuffle (lane operand %d, width %d) \
                       reads outside the %d-lane warp"
              ctx.k.R.rk_name l (Ir.show_shuffle_mode sh_mode) delta width
              warp_lanes;
          wr.C.take fr src
        end
      done;
      Counters.shuffle ctx.cnt;
      charge ctx w a.Arch.cyc_shfl
  | R.Sync _ -> sim_error "%s: __syncthreads() under divergent control flow" ctx.k.R.rk_name
  | R.If { if_cond; if_then; if_else; if_sync } ->
      if if_sync then
        sim_error "%s: barrier inside thread-divergent conditional" ctx.k.R.rk_name;
      let tmask = pool_mask (2 * d) and emask = pool_mask ((2 * d) + 1) in
      let n_t = ref 0 and n_e = ref 0 in
      for l = 0 to lanes - 1 do
        let t = mask.(l) && lane_bool fr (base + l) if_cond in
        tmask.(l) <- t;
        emask.(l) <- mask.(l) && not t;
        if t then incr n_t else if mask.(l) then incr n_e
      done;
      let divergent = !n_t > 0 && !n_e > 0 in
      Counters.branch ctx.cnt ~divergent;
      charge ctx w a.Arch.cyc_branch;
      if divergent then charge ctx w a.Arch.cyc_divergence;
      if !n_t > 0 then exec_body ctx (d + 1) w tmask if_then;
      if !n_e > 0 then exec_body ctx (d + 1) w emask if_else
  | R.For { f_var; f_init; f_cond; f_step; f_body; f_sync; f_affine } ->
      if f_sync then
        sim_error "%s: barrier inside thread-divergent loop" ctx.k.R.rk_name;
      let wr = ctx.writers.(f_var) in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          fr.C.tid <- base + l;
          wr.C.set f_init fr
        end
      done;
      Counters.alu ctx.cnt;
      charge ctx w a.Arch.cyc_alu;
      let live = pool_mask (2 * d) in
      Array.blit mask 0 live 0 lanes;
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if lane_bool fr (base + l) f_cond then incr n_live else live.(l) <- false
        done;
        Counters.loop_test ctx.cnt;
        charge ctx w a.Arch.cyc_branch;
        if !n_live = 0 then continue_ := false
        else begin
          (match (f_affine, ctx.opts.loop_cap) with
          | Some { R.af_bound; R.af_stride }, Some cap when !iter >= cap ->
              (* extrapolate: execute one representative iteration and scale
                 everything it recorded by the worst remaining trip count *)
              let remaining = ref 1 in
              for l = 0 to lanes - 1 do
                if live.(l) then begin
                  let b = lane_int fr (base + l) af_bound in
                  let v = fr.C.iregs.(iterator_cell ctx f_var) in
                  let r = (b - v + af_stride - 1) / af_stride in
                  if r > !remaining then remaining := r
                end
              done;
              let snap = Counters.copy ctx.cnt in
              let cyc0 = ctx.wcycles.(w) in
              exec_body ctx (d + 1) w live f_body;
              let factor = float_of_int !remaining in
              Counters.scale_from ctx.cnt snap ~factor;
              ctx.wcycles.(w) <- cyc0 +. ((ctx.wcycles.(w) -. cyc0) *. factor);
              (* the skipped iterations would also have paid the loop
                 condition and iterator update. Unlike [loop_test] plus
                 [alu] per iteration, this charges each skipped iteration
                 two warp instructions (a loop test is a branch only),
                 and the representative iteration's step is never
                 charged at all *)
              let skipped = factor -. 1.0 in
              ctx.cnt.Events.t_branches <- ctx.cnt.Events.t_branches +. skipped;
              ctx.cnt.Events.t_alu_insts <- ctx.cnt.Events.t_alu_insts +. skipped;
              ctx.cnt.Events.t_warp_insts <- ctx.cnt.Events.t_warp_insts +. (2.0 *. skipped);
              charge ctx w (skipped *. (a.Arch.cyc_branch +. a.Arch.cyc_alu));
              (* jump the iterator past the bound so the loop exits *)
              for l = 0 to lanes - 1 do
                if live.(l) then begin
                  fr.C.tid <- base + l;
                  let j = iterator_cell ctx f_var in
                  fr.C.iregs.(j) <- fr.C.iregs.(j) + (af_stride * !remaining)
                end
              done
          | _ ->
              exec_body ctx (d + 1) w live f_body;
              for l = 0 to lanes - 1 do
                if live.(l) then begin
                  fr.C.tid <- base + l;
                  wr.C.set f_step fr
                end
              done;
              Counters.alu ctx.cnt;
              charge ctx w a.Arch.cyc_alu);
          incr iter;
          if !iter > 100_000_000 then
            sim_error "%s: loop exceeded 1e8 iterations" ctx.k.R.rk_name
        end
      done
  | R.While { w_cond; w_body; w_sync } ->
      if w_sync then
        sim_error "%s: barrier inside thread-divergent loop" ctx.k.R.rk_name;
      let live = pool_mask (2 * d) in
      Array.blit mask 0 live 0 lanes;
      let continue_ = ref true in
      let iter = ref 0 in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if lane_bool fr (base + l) w_cond then incr n_live else live.(l) <- false
        done;
        Counters.loop_test ctx.cnt;
        charge ctx w a.Arch.cyc_branch;
        if !n_live = 0 then continue_ := false
        else begin
          exec_body ctx (d + 1) w live w_body;
          incr iter;
          if !iter > 100_000_000 then
            sim_error "%s: while loop exceeded 1e8 iterations" ctx.k.R.rk_name
        end
      done

and exec_body ctx d w mask (body : C.cexp R.stmt array) : unit =
  for i = 0 to Array.length body - 1 do
    exec_warp ctx d w mask body.(i)
  done

(* ------------------------------------------------------------------ *)
(* Block-wide execution (barrier-aware)                                *)
(* ------------------------------------------------------------------ *)

let full_mask = Array.make warp_lanes true

(* the slowest warp's accumulated cycles (never NaN): an inlined loop of
   comparisons, since a fold, a call to [Float.max] or a returned float
   boxes *)
let[@inline] max_cycles (ctx : block_ctx) : float =
  let m = ref 0.0 in
  for w = 0 to ctx.nwarps - 1 do
    let c = ctx.wcycles.(w) in
    if c > !m then m := c
  done;
  !m

let barrier (ctx : block_ctx) : unit =
  let worst = max_cycles ctx in
  for w = 0 to ctx.nwarps - 1 do
    ctx.wcycles.(w) <- worst +. ctx.arch.Arch.cyc_sync
  done;
  Counters.barrier ctx.cnt ~warps:ctx.nwarps

let check_uniform_cond (ctx : block_ctx) (e : C.cexp) : bool =
  let fr = ctx.fr in
  let v0 = lane_bool fr 0 e in
  if ctx.opts.check_uniform then
    for t = 1 to ctx.nthreads - 1 do
      if lane_bool fr t e <> v0 then
        sim_error "%s: non-uniform condition guards a barrier (thread %d disagrees)"
          ctx.k.R.rk_name t
    done;
  v0

let rec exec_block_stmt (ctx : block_ctx) (s : C.cexp R.stmt) : unit =
  if not (R.has_sync s) then
    for w = 0 to ctx.nwarps - 1 do
      exec_warp ctx 0 w full_mask s
    done
  else
    match s with
    | R.Sync _ -> barrier ctx
    | R.If { if_cond; if_then; if_else; _ } ->
        Counters.block_branch ctx.cnt ~warps:ctx.nwarps;
        if check_uniform_cond ctx if_cond then Array.iter (exec_block_stmt ctx) if_then
        else Array.iter (exec_block_stmt ctx) if_else
    | R.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
        let fr = ctx.fr and wr = ctx.writers.(f_var) in
        for t = 0 to ctx.nthreads - 1 do
          fr.C.tid <- t;
          wr.C.set f_init fr
        done;
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx f_cond then begin
            Array.iter (exec_block_stmt ctx) f_body;
            for t = 0 to ctx.nthreads - 1 do
              fr.C.tid <- t;
              wr.C.set f_step fr
            done;
            Counters.block_branch ctx.cnt ~warps:ctx.nwarps
          end
          else continue_ := false
        done
    | R.While { w_cond; w_body; _ } ->
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx w_cond then
            Array.iter (exec_block_stmt ctx) w_body
          else continue_ := false
        done
    | R.Let _ | R.Load _ | R.Store _ | R.Vec_load _ | R.Atomic _ | R.Shfl _ ->
        assert false

(* ------------------------------------------------------------------ *)
(* Bit-flip injection                                                  *)
(* ------------------------------------------------------------------ *)

(* Land a fault-plan bit flip in the live state of the current block:
   one cell of a shared tile, or one register slot of one thread. The
   raw selectors reduce modulo the actual population so any drawn flip
   maps to a real location. Global-memory flips are applied by the
   runner at launch boundaries, not here. *)
let apply_flip (ctx : block_ctx) (fl : Fault.flip) : unit =
  match fl.Fault.fl_space with
  | Fault.Global_mem -> ()
  | Fault.Shared_mem ->
      let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 ctx.shared in
      if total > 0 then begin
        let idx = ref (fl.Fault.fl_target mod total) and slot = ref 0 in
        while !idx >= Array.length ctx.shared.(!slot) do
          idx := !idx - Array.length ctx.shared.(!slot);
          incr slot
        done;
        let a = ctx.shared.(!slot) in
        let ty = ctx.k.R.rk_shared.(!slot).Ir.sh_ty in
        a.(!idx) <- Fault.flip_value ty ~bit:fl.Fault.fl_bit a.(!idx)
      end
  | Fault.Register ->
      (* a float slot flips as F32, an int slot as I32, a predicate
         negates *)
      let fr = ctx.fr and nregs = Array.length ctx.slots in
      let t = fl.Fault.fl_target mod ctx.nthreads in
      let bit = fl.Fault.fl_bit in
      let flip_int i =
        Value.norm32 (int_of_float (Fault.flip_value Ir.I32 ~bit (float_of_int i)))
      in
      if nregs > 0 then
        match ctx.slots.(fl.Fault.fl_target / ctx.nthreads mod nregs) with
        | C.Float_reg i ->
            let j = (t * fr.C.nf) + i in
            fr.C.fregs.(j) <- Fault.flip_value Ir.F32 ~bit fr.C.fregs.(j)
        | C.Int_reg i ->
            let j = (t * fr.C.ni) + i in
            fr.C.iregs.(j) <- flip_int fr.C.iregs.(j)
        | C.Pred_reg i ->
            let j = (t * fr.C.ni) + i in
            fr.C.iregs.(j) <- 1 - fr.C.iregs.(j)

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

type launch_result = {
  lr_grid : int;
  lr_block : int;
  lr_shared_bytes : int;  (** per-block shared memory footprint *)
  lr_events : Events.t;
  lr_block_cp : float;  (** mean per-block critical path, cycles *)
}

(** Execute a compiled kernel on [arch]. [globals] binds each kernel array
    slot to a buffer; [params] are the scalar arguments in declaration
    order. Returns per-launch events and the mean per-block critical
    path. *)
let run_kernel ?(flip : Fault.flip option) ~(arch : Arch.t) ~(opts : options)
    (ck : C.t) ~(grid : int) ~(block : int) ~(shared_elems : int)
    ~(globals : buffer array) ~(params : Value.t array) : launch_result =
  let k = ck.C.kernel in
  if arch.Arch.warp_size <> warp_lanes then
    sim_error "architecture warp size %d unsupported (expected 32)"
      arch.Arch.warp_size;
  Option.iter
    (fun msg -> raise (Sim_error msg))
    (R.launch_error k ~grid ~block ~max_block:arch.Arch.max_threads_per_block
       ~arrays:(Array.length globals) ~params:(Array.length params));
  (* slots take their kinds from the declarations *)
  Array.iteri
    (fun i (name, ty) ->
      if C.kind_of_value params.(i) <> Device_ir.Analysis.kind_of_scalar ty then
        sim_error "%s: scalar parameter %s is declared %s but bound to %s"
          k.R.rk_name name (Ir.show_scalar ty) (Value.to_string params.(i)))
    k.R.rk_params;
  Array.iteri
    (fun i (name, ty) ->
      let kind = Device_ir.Analysis.kind_of_scalar in
      if kind globals.(i).b_ty <> kind ty then
        sim_error "%s: array %s is declared %s but bound to a %s buffer" k.R.rk_name
          name (Ir.show_scalar ty) (Ir.show_scalar globals.(i).b_ty))
    k.R.rk_arrays;
  let shared_sizes = Array.map (fun d -> R.shared_size ~shared_elems d) k.R.rk_shared in
  let shared_bytes = 4 * Array.fold_left ( + ) 0 shared_sizes in
  if shared_bytes > arch.Arch.shared_mem_per_block then
    sim_error "%s: shared memory footprint %dB exceeds per-block limit %dB"
      k.R.rk_name shared_bytes arch.Arch.shared_mem_per_block;
  let ev = Events.create () in
  let nwarps = (block + warp_lanes - 1) / warp_lanes in
  let ctx =
    {
      arch;
      opts;
      ev;
      cnt = ev.Events.counts;
      k;
      writers = ck.C.writers;
      slots = ck.C.slots;
      fr =
        {
          C.fregs = bank fbank (block * ck.C.nf) 0.0;
          iregs = bank ibank (block * ck.C.ni) 0;
          nf = ck.C.nf;
          ni = ck.C.ni;
          params;
          block_dim = block;
          grid_dim = grid;
          block_idx = 0;
          tid = 0;
        };
      globals;
      shared = Array.map (fun n -> Array.make (max n 1) 0.0) shared_sizes;
      wcycles = Array.make nwarps 0.0;
      nthreads = block;
      nwarps;
    }
  in
  let simulate =
    match opts.max_blocks with None -> grid | Some cap -> min grid cap
  in
  (* sample evenly across the grid so that edge blocks are represented *)
  let block_ids =
    if simulate = grid then Array.init grid (fun i -> i)
    else
      Array.init simulate (fun i ->
          let id = i * grid / simulate in
          if i = simulate - 1 then grid - 1 else id)
  in
  let cp_total = ref 0.0 in
  (* a shared/register flip lands in one simulated block, after one
     top-level statement boundary of its body — both chosen by the flip's
     site selector *)
  let nstmts = Array.length k.R.rk_body in
  let flip_block, flip_stmt =
    match flip with
    | Some fl when fl.Fault.fl_space <> Fault.Global_mem && nstmts > 0 ->
        (fl.Fault.fl_site mod simulate, fl.Fault.fl_site mod nstmts)
    | _ -> (-1, -1)
  in
  (try
     Array.iteri
       (fun pos b ->
         Events.begin_block ev;
         ctx.fr.C.block_idx <- b;
         Array.iter (fun sh -> Array.fill sh 0 (Array.length sh) 0.0) ctx.shared;
         Array.fill ctx.wcycles 0 nwarps 0.0;
         if pos = flip_block then
           Array.iteri
             (fun i s ->
               exec_block_stmt ctx s;
               if i = flip_stmt then apply_flip ctx (Option.get flip))
             k.R.rk_body
         else Array.iter (exec_block_stmt ctx) k.R.rk_body;
         cp_total := !cp_total +. max_cycles ctx)
       block_ids
   with Value.Trap msg -> sim_error "%s: %s" k.R.rk_name msg);
  if simulate < grid then
    Events.scale_all ev ~factor:(float_of_int grid /. float_of_int simulate);
  ev.Events.counts.Events.t_launches <- 1.0;
  ev.Events.counts.Events.t_max_heat <- Events.max_heat ev;
  {
    lr_grid = grid;
    lr_block = block;
    lr_shared_bytes = shared_bytes;
    lr_events = ev;
    lr_block_cp = (if simulate = 0 then 0.0 else !cp_total /. float_of_int simulate);
  }
