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
   conflicts, divergence, ...) in an {!Events.t}. Global-memory transaction
   counting models 128-byte coalescing; shared-memory accesses model
   32-bank conflicts; shared atomics are priced per same-address conflicting
   lane according to the architecture's implementation (lock-update-unlock
   vs native); global atomics additionally heat a per-address map used by
   the cost model for device-wide serialisation.

   Sampling
   --------
   With [options.max_blocks] set, only a sample of blocks executes and
   counters are extrapolated; with [options.loop_cap] set, affine loops are
   cut short and their remaining iterations extrapolated from the last
   executed one. Sampled runs produce meaningless data values and are only
   for timing, which is why {!exact} is the default. *)

module Ir = Device_ir.Ir
module Lanes = Device_ir.Lanes
module C = Compiled

exception Sim_error of string

let sim_error fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type options = {
  max_blocks : int option;
  loop_cap : int option;
  check_uniform : bool;
}

let exact = { max_blocks = None; loop_cap = None; check_uniform = true }
let approximate = { max_blocks = Some 48; loop_cap = Some 48; check_uniform = false }

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
  k : C.t;
  params : Value.t array;
  globals : buffer array;
  shared : float array array;
  regs : Value.t array array;  (** [thread][slot] *)
  wcycles : float array;  (** per-warp accumulated pipelined cycles *)
  nthreads : int;
  nwarps : int;
  mutable block_idx : int;
  grid_dim : int;
}

let warp_bits = 5
let warp_lanes = 32

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval (ctx : block_ctx) (tid : int) (e : C.cexp) : Value.t =
  match e with
  | C.CInt n -> Value.VI n
  | C.CFloat f -> Value.VF f
  | C.CBool b -> Value.VB b
  | C.CReg slot -> ctx.regs.(tid).(slot)
  | C.CParam slot -> ctx.params.(slot)
  | C.CSpecial s -> (
      match s with
      | Ir.Thread_idx -> Value.VI tid
      | Ir.Block_idx -> Value.VI ctx.block_idx
      | Ir.Block_dim -> Value.VI ctx.nthreads
      | Ir.Grid_dim -> Value.VI ctx.grid_dim
      | Ir.Warp_size -> Value.VI warp_lanes
      | Ir.Lane_id -> Value.VI (tid land (warp_lanes - 1))
      | Ir.Warp_id -> Value.VI (tid lsr warp_bits))
  | C.CUnop (op, a) -> Value.unop op (eval ctx tid a)
  | C.CBinop (op, a, b) -> Value.binop op (eval ctx tid a) (eval ctx tid b)
  | C.CSelect (c, a, b) ->
      if Value.to_bool (eval ctx tid c) then eval ctx tid a else eval ctx tid b

let eval_int ctx tid e = Value.to_int (eval ctx tid e)
let eval_bool ctx tid e = Value.to_bool (eval ctx tid e)

(* ------------------------------------------------------------------ *)
(* Memory helpers                                                      *)
(* ------------------------------------------------------------------ *)

let buffer_phys (b : buffer) (i : int) : int =
  if b.b_wrap then i land (Array.length b.data - 1) else i

let buffer_get (b : buffer) (i : int) : Value.t =
  if i < 0 || i >= b.b_size then
    sim_error "global array #%d: index %d out of bounds (size %d)" b.b_id i b.b_size
  else Value.of_float b.b_ty b.data.(buffer_phys b i)

let buffer_set (b : buffer) (i : int) (v : Value.t) : unit =
  if b.b_read_only then sim_error "global array #%d: write to read-only buffer" b.b_id
  else if i < 0 || i >= b.b_size then
    sim_error "global array #%d: store index %d out of bounds (size %d)" b.b_id i
      b.b_size
  else b.data.(buffer_phys b i) <- Value.to_float v

let shared_get (ctx : block_ctx) (slot : int) (i : int) : Value.t =
  let a = ctx.shared.(slot) in
  if i < 0 || i >= Array.length a then
    sim_error "%s: shared array %s: index %d out of bounds (size %d)" ctx.k.C.ck_name
      ctx.k.C.ck_shared.(slot).Ir.sh_name i (Array.length a)
  else Value.of_float ctx.k.C.ck_shared.(slot).Ir.sh_ty a.(i)

let shared_set (ctx : block_ctx) (slot : int) (i : int) (v : Value.t) : unit =
  let a = ctx.shared.(slot) in
  if i < 0 || i >= Array.length a then
    sim_error "%s: shared array %s: store index %d out of bounds (size %d)"
      ctx.k.C.ck_name ctx.k.C.ck_shared.(slot).Ir.sh_name i (Array.length a)
  else a.(i) <- Value.to_float v

(* ------------------------------------------------------------------ *)
(* Per-warp execution                                                  *)
(* ------------------------------------------------------------------ *)

let charge (ctx : block_ctx) (w : int) (cycles : float) : unit =
  ctx.wcycles.(w) <- ctx.wcycles.(w) +. cycles

let apply_atomic (ctx : block_ctx) ~(space : Ir.space) ~(slot : int)
    (op : Ir.atomic_op) (i : int) (v : Value.t) : Value.t =
  match space with
  | Ir.Global ->
      let b = ctx.globals.(slot) in
      let old = buffer_get b i in
      buffer_set b i
        (Value.of_float b.b_ty (Ir.combine op (Value.to_float old) (Value.to_float v)));
      old
  | Ir.Shared ->
      let old = shared_get ctx slot i in
      shared_set ctx slot i
        (Value.of_float ctx.k.C.ck_shared.(slot).Ir.sh_ty
           (Ir.combine op (Value.to_float old) (Value.to_float v)));
      old

let scratch_idx = Array.make warp_lanes 0
let scratch_val : Value.t array = Array.make warp_lanes Value.zero

let rec exec_warp (ctx : block_ctx) (w : int) (mask : bool array) (s : C.cstmt) :
    unit =
  let lanes = Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  let a = ctx.arch in
  match s with
  | C.CLet (slot, e) ->
      for l = 0 to lanes - 1 do
        if mask.(l) then ctx.regs.(base + l).(slot) <- eval ctx (base + l) e
      done;
      ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
      ctx.ev.Events.alu_insts <- ctx.ev.Events.alu_insts +. 1.0;
      charge ctx w a.Arch.cyc_alu
  | C.CLoad { l_arr; l_dst; l_idx } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then scratch_idx.(l) <- eval_int ctx (base + l) l_idx
      done;
      match l_arr.C.a_space with
      | Ir.Global ->
          let b = ctx.globals.(l_arr.C.a_slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              ctx.regs.(base + l).(l_dst) <- buffer_get b scratch_idx.(l)
          done;
          let trans = Lanes.segments scratch_idx mask lanes in
          ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
          ctx.ev.Events.gld_warp_ops <- ctx.ev.Events.gld_warp_ops +. 1.0;
          ctx.ev.Events.gld_trans <- ctx.ev.Events.gld_trans +. float_of_int trans;
          ctx.ev.Events.bytes_dram <-
            ctx.ev.Events.bytes_dram +. (128.0 *. float_of_int trans);
          charge ctx w (a.Arch.cyc_global *. float_of_int trans)
      | Ir.Shared ->
          for l = 0 to lanes - 1 do
            if mask.(l) then
              ctx.regs.(base + l).(l_dst) <- shared_get ctx l_arr.C.a_slot scratch_idx.(l)
          done;
          let degree = Lanes.bank_degree scratch_idx mask lanes in
          ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
          ctx.ev.Events.shared_ops <- ctx.ev.Events.shared_ops +. 1.0;
          ctx.ev.Events.shared_serial <-
            ctx.ev.Events.shared_serial +. float_of_int degree;
          charge ctx w (a.Arch.cyc_shared *. float_of_int degree))
  | C.CStore { st_arr; st_idx; st_v } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          scratch_idx.(l) <- eval_int ctx (base + l) st_idx;
          scratch_val.(l) <- eval ctx (base + l) st_v
        end
      done;
      match st_arr.C.a_space with
      | Ir.Global ->
          let b = ctx.globals.(st_arr.C.a_slot) in
          for l = 0 to lanes - 1 do
            if mask.(l) then buffer_set b scratch_idx.(l) scratch_val.(l)
          done;
          let trans = Lanes.segments scratch_idx mask lanes in
          ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
          ctx.ev.Events.gst_trans <- ctx.ev.Events.gst_trans +. float_of_int trans;
          ctx.ev.Events.bytes_dram <-
            ctx.ev.Events.bytes_dram +. (128.0 *. float_of_int trans);
          charge ctx w (a.Arch.cyc_global *. float_of_int trans)
      | Ir.Shared ->
          for l = 0 to lanes - 1 do
            if mask.(l) then shared_set ctx st_arr.C.a_slot scratch_idx.(l) scratch_val.(l)
          done;
          let degree = Lanes.bank_degree scratch_idx mask lanes in
          ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
          ctx.ev.Events.shared_ops <- ctx.ev.Events.shared_ops +. 1.0;
          ctx.ev.Events.shared_serial <-
            ctx.ev.Events.shared_serial +. float_of_int degree;
          charge ctx w (a.Arch.cyc_shared *. float_of_int degree))
  | C.CVec_load { vl_dsts; vl_arr; vl_base } ->
      let b = ctx.globals.(vl_arr) in
      let width = Array.length vl_dsts in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let base_i = eval_int ctx (base + l) vl_base in
          if base_i mod width <> 0 then
            sim_error "%s: misaligned vector load at element %d (width %d)"
              ctx.k.C.ck_name base_i width;
          scratch_idx.(l) <- base_i;
          Array.iteri
            (fun j dst -> ctx.regs.(base + l).(dst) <- buffer_get b (base_i + j))
            vl_dsts
        end
      done;
      let trans = Lanes.vec_segments scratch_idx mask lanes ~width in
      ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
      ctx.ev.Events.vec_load_ops <- ctx.ev.Events.vec_load_ops +. 1.0;
      ctx.ev.Events.gld_trans <- ctx.ev.Events.gld_trans +. float_of_int trans;
      ctx.ev.Events.bytes_dram <-
        ctx.ev.Events.bytes_dram +. (128.0 *. float_of_int trans);
      charge ctx w (a.Arch.cyc_global *. float_of_int trans)
  | C.CAtomic { at_dst; at_arr; at_op; at_scope; at_idx; at_v } -> (
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          scratch_idx.(l) <- eval_int ctx (base + l) at_idx;
          scratch_val.(l) <- eval ctx (base + l) at_v
        end
      done;
      (* lanes apply in lane order: deterministic serialisation *)
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let old =
            apply_atomic ctx ~space:at_arr.C.a_space ~slot:at_arr.C.a_slot at_op
              scratch_idx.(l) scratch_val.(l)
          in
          if at_dst >= 0 then ctx.regs.(base + l).(at_dst) <- old
        end
      done;
      let n_active = Lanes.active mask lanes in
      if n_active > 0 then
        let distinct, worst = Lanes.atomic_conflicts scratch_idx mask lanes in
        match at_arr.C.a_space with
        | Ir.Shared -> (
            ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
            ctx.ev.Events.atomic_shared_ops <-
              ctx.ev.Events.atomic_shared_ops +. float_of_int n_active;
            ctx.ev.Events.atomic_shared_serial <-
              ctx.ev.Events.atomic_shared_serial +. float_of_int worst;
            match a.Arch.shared_atomic with
            | Arch.Lock_update_unlock ->
                (* each lock round retires one lane per contended address and
                   replays the rest: [worst] rounds, every round a divergent
                   branch *)
                ctx.ev.Events.divergent_branches <-
                  ctx.ev.Events.divergent_branches +. float_of_int worst;
                charge ctx w (a.Arch.cyc_lock_iteration *. float_of_int worst)
            | Arch.Native ->
                charge ctx w (a.Arch.cyc_shared_atomic *. float_of_int worst))
        | Ir.Global ->
            ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
            ctx.ev.Events.atomic_global_ops <-
              ctx.ev.Events.atomic_global_ops +. float_of_int n_active;
            ctx.ev.Events.atomic_global_trans <-
              ctx.ev.Events.atomic_global_trans +. float_of_int distinct;
            (* block-scoped atomics don't reach the device-wide L2 units *)
            let device_scope =
              (not (a.Arch.has_scoped_atomics && at_scope = Ir.Scope_block))
            in
            if device_scope then begin
              let b_id = ctx.globals.(at_arr.C.a_slot).b_id in
              for l = 0 to lanes - 1 do
                if mask.(l) then
                  Events.heat ctx.ev ~buffer:b_id ~index:scratch_idx.(l) ~by:1.0
              done
            end;
            charge ctx w (a.Arch.cyc_global *. float_of_int distinct))
  | C.CShfl { sh_dst; sh_mode; sh_v; sh_lane; sh_width } ->
      (* publish v from every lane of the warp (inactive lanes publish their
         current register state, deterministically) *)
      let width = sh_width in
      for l = 0 to warp_lanes - 1 do
        scratch_val.(l) <-
          (if l < lanes then eval ctx (base + l) sh_v else Value.zero)
      done;
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let delta = eval_int ctx (base + l) sh_lane in
          let src = Lanes.shfl_src sh_mode ~lane:l ~delta ~width in
          if src = Lanes.out_of_warp then
            sim_error "%s: lane %d of a %s shuffle (lane operand %d, width %d) \
                       reads outside the %d-lane warp"
              ctx.k.C.ck_name l (Ir.show_shuffle_mode sh_mode) delta width
              warp_lanes;
          ctx.regs.(base + l).(sh_dst) <- scratch_val.(src)
        end
      done;
      ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
      ctx.ev.Events.shfl_insts <- ctx.ev.Events.shfl_insts +. 1.0;
      charge ctx w a.Arch.cyc_shfl
  | C.CSync -> sim_error "%s: __syncthreads() under divergent control flow" ctx.k.C.ck_name
  | C.CIf { if_cond; if_then; if_else; if_sync } ->
      if if_sync then
        sim_error "%s: barrier inside thread-divergent conditional" ctx.k.C.ck_name;
      let tmask = Array.make warp_lanes false in
      let emask = Array.make warp_lanes false in
      let n_t = ref 0 and n_e = ref 0 in
      for l = 0 to lanes - 1 do
        if mask.(l) then
          if eval_bool ctx (base + l) if_cond then begin
            tmask.(l) <- true;
            incr n_t
          end
          else begin
            emask.(l) <- true;
            incr n_e
          end
      done;
      ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
      ctx.ev.Events.branches <- ctx.ev.Events.branches +. 1.0;
      charge ctx w a.Arch.cyc_branch;
      if !n_t > 0 && !n_e > 0 then begin
        ctx.ev.Events.divergent_branches <- ctx.ev.Events.divergent_branches +. 1.0;
        charge ctx w a.Arch.cyc_divergence
      end;
      if !n_t > 0 then Array.iter (exec_warp ctx w tmask) if_then;
      if !n_e > 0 then Array.iter (exec_warp ctx w emask) if_else
  | C.CFor { f_var; f_init; f_cond; f_step; f_body; f_sync; f_affine } ->
      if f_sync then
        sim_error "%s: barrier inside thread-divergent loop" ctx.k.C.ck_name;
      for l = 0 to lanes - 1 do
        if mask.(l) then ctx.regs.(base + l).(f_var) <- eval ctx (base + l) f_init
      done;
      ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
      ctx.ev.Events.alu_insts <- ctx.ev.Events.alu_insts +. 1.0;
      charge ctx w a.Arch.cyc_alu;
      let live = Array.copy mask in
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) f_cond then incr n_live else live.(l) <- false
        done;
        ctx.ev.Events.branches <- ctx.ev.Events.branches +. 1.0;
        charge ctx w a.Arch.cyc_branch;
        if !n_live = 0 then continue_ := false
        else begin
          (match (f_affine, ctx.opts.loop_cap) with
          | Some { C.af_bound; C.af_stride }, Some cap when !iter >= cap ->
              (* extrapolate: execute one representative iteration and scale
                 everything it recorded by the worst remaining trip count *)
              let remaining = ref 1 in
              for l = 0 to lanes - 1 do
                if live.(l) then begin
                  let v = Value.to_int (ctx.regs.(base + l).(f_var)) in
                  let b = eval_int ctx (base + l) af_bound in
                  let r = (b - v + af_stride - 1) / af_stride in
                  if r > !remaining then remaining := r
                end
              done;
              let snap = Events.snapshot ctx.ev in
              let cyc0 = ctx.wcycles.(w) in
              Array.iter (exec_warp ctx w live) f_body;
              let factor = float_of_int !remaining in
              Events.scale_from ctx.ev snap ~factor;
              ctx.wcycles.(w) <- cyc0 +. ((ctx.wcycles.(w) -. cyc0) *. factor);
              (* the skipped iterations would also have paid the loop
                 condition and iterator update *)
              let skipped = factor -. 1.0 in
              ctx.ev.Events.branches <- ctx.ev.Events.branches +. skipped;
              ctx.ev.Events.alu_insts <- ctx.ev.Events.alu_insts +. skipped;
              ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. (2.0 *. skipped);
              charge ctx w (skipped *. (a.Arch.cyc_branch +. a.Arch.cyc_alu));
              (* jump the iterator past the bound so the loop exits *)
              for l = 0 to lanes - 1 do
                if live.(l) then begin
                  let v = Value.to_int (ctx.regs.(base + l).(f_var)) in
                  ctx.regs.(base + l).(f_var) <-
                    Value.VI (v + (af_stride * !remaining))
                end
              done
          | _ ->
              Array.iter (exec_warp ctx w live) f_body;
              for l = 0 to lanes - 1 do
                if live.(l) then
                  ctx.regs.(base + l).(f_var) <- eval ctx (base + l) f_step
              done;
              ctx.ev.Events.warp_insts <- ctx.ev.Events.warp_insts +. 1.0;
              ctx.ev.Events.alu_insts <- ctx.ev.Events.alu_insts +. 1.0;
              charge ctx w a.Arch.cyc_alu);
          incr iter;
          if !iter > 100_000_000 then
            sim_error "%s: loop exceeded 1e8 iterations" ctx.k.C.ck_name
        end
      done
  | C.CWhile { w_cond; w_body; w_sync } ->
      if w_sync then
        sim_error "%s: barrier inside thread-divergent loop" ctx.k.C.ck_name;
      let live = Array.copy mask in
      let continue_ = ref true in
      let iter = ref 0 in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) w_cond then incr n_live else live.(l) <- false
        done;
        ctx.ev.Events.branches <- ctx.ev.Events.branches +. 1.0;
        charge ctx w a.Arch.cyc_branch;
        if !n_live = 0 then continue_ := false
        else begin
          Array.iter (exec_warp ctx w live) w_body;
          incr iter;
          if !iter > 100_000_000 then
            sim_error "%s: while loop exceeded 1e8 iterations" ctx.k.C.ck_name
        end
      done

(* ------------------------------------------------------------------ *)
(* Block-wide execution (barrier-aware)                                *)
(* ------------------------------------------------------------------ *)

let full_mask = Array.make warp_lanes true

let barrier (ctx : block_ctx) : unit =
  let worst = Array.fold_left Float.max 0.0 ctx.wcycles in
  for w = 0 to ctx.nwarps - 1 do
    ctx.wcycles.(w) <- worst +. ctx.arch.Arch.cyc_sync
  done;
  ctx.ev.Events.syncs <- ctx.ev.Events.syncs +. float_of_int ctx.nwarps;
  ctx.ev.Events.warp_insts <-
    ctx.ev.Events.warp_insts +. float_of_int ctx.nwarps

let check_uniform_cond (ctx : block_ctx) (e : C.cexp) : bool =
  let v0 = eval_bool ctx 0 e in
  if ctx.opts.check_uniform then
    for t = 1 to ctx.nthreads - 1 do
      if eval_bool ctx t e <> v0 then
        sim_error "%s: non-uniform condition guards a barrier (thread %d disagrees)"
          ctx.k.C.ck_name t
    done;
  v0

let stmt_has_sync (s : C.cstmt) : bool =
  match s with
  | C.CSync -> true
  | C.CIf { if_sync; _ } -> if_sync
  | C.CFor { f_sync; _ } -> f_sync
  | C.CWhile { w_sync; _ } -> w_sync
  | C.CLet _ | C.CLoad _ | C.CStore _ | C.CVec_load _ | C.CAtomic _ | C.CShfl _ ->
      false

let rec exec_block_stmt (ctx : block_ctx) (s : C.cstmt) : unit =
  if not (stmt_has_sync s) then
    for w = 0 to ctx.nwarps - 1 do
      exec_warp ctx w full_mask s
    done
  else
    match s with
    | C.CSync -> barrier ctx
    | C.CIf { if_cond; if_then; if_else; _ } ->
        ctx.ev.Events.branches <- ctx.ev.Events.branches +. float_of_int ctx.nwarps;
        if check_uniform_cond ctx if_cond then Array.iter (exec_block_stmt ctx) if_then
        else Array.iter (exec_block_stmt ctx) if_else
    | C.CFor { f_var; f_init; f_cond; f_step; f_body; _ } ->
        for t = 0 to ctx.nthreads - 1 do
          ctx.regs.(t).(f_var) <- eval ctx t f_init
        done;
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx f_cond then begin
            Array.iter (exec_block_stmt ctx) f_body;
            for t = 0 to ctx.nthreads - 1 do
              ctx.regs.(t).(f_var) <- eval ctx t f_step
            done;
            ctx.ev.Events.branches <-
              ctx.ev.Events.branches +. float_of_int ctx.nwarps
          end
          else continue_ := false
        done
    | C.CWhile { w_cond; w_body; _ } ->
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx w_cond then
            Array.iter (exec_block_stmt ctx) w_body
          else continue_ := false
        done
    | C.CLet _ | C.CLoad _ | C.CStore _ | C.CVec_load _ | C.CAtomic _ | C.CShfl _ ->
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
        let ty = ctx.k.C.ck_shared.(!slot).Ir.sh_ty in
        a.(!idx) <- Fault.flip_value ty ~bit:fl.Fault.fl_bit a.(!idx)
      end
  | Fault.Register ->
      let nregs = Array.length ctx.regs.(0) in
      let t = fl.Fault.fl_target mod ctx.nthreads in
      let slot = fl.Fault.fl_target / ctx.nthreads mod nregs in
      ctx.regs.(t).(slot) <-
        (match ctx.regs.(t).(slot) with
        | Value.VF f -> Value.VF (Fault.flip_value Ir.F32 ~bit:fl.Fault.fl_bit f)
        | Value.VI i ->
            Value.of_float Ir.I32
              (Fault.flip_value Ir.I32 ~bit:fl.Fault.fl_bit (float_of_int i))
        | Value.VB b -> Value.VB (not b))

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
    (k : C.t) ~(grid : int) ~(block : int) ~(shared_elems : int)
    ~(globals : buffer array) ~(params : Value.t array) : launch_result =
  if arch.Arch.warp_size <> warp_lanes then
    sim_error "architecture warp size %d unsupported (expected 32)"
      arch.Arch.warp_size;
  if grid < 1 then sim_error "%s: empty grid" k.C.ck_name;
  if block < 1 || block > arch.Arch.max_threads_per_block then
    sim_error "%s: block size %d out of range [1, %d]" k.C.ck_name block
      arch.Arch.max_threads_per_block;
  if Array.length globals <> Array.length k.C.ck_arrays then
    sim_error "%s: expected %d array bindings, got %d" k.C.ck_name
      (Array.length k.C.ck_arrays) (Array.length globals);
  if Array.length params <> Array.length k.C.ck_params then
    sim_error "%s: expected %d scalar parameters, got %d" k.C.ck_name
      (Array.length k.C.ck_params) (Array.length params);
  let shared_sizes =
    Array.map
      (fun (d : Ir.shared_decl) ->
        match d.Ir.sh_size with
        | Ir.Static_size n -> n
        | Ir.Dynamic_size -> shared_elems)
      k.C.ck_shared
  in
  let shared_bytes = 4 * Array.fold_left ( + ) 0 shared_sizes in
  if shared_bytes > arch.Arch.shared_mem_per_block then
    sim_error "%s: shared memory footprint %dB exceeds per-block limit %dB"
      k.C.ck_name shared_bytes arch.Arch.shared_mem_per_block;
  let ev = Events.create () in
  let nwarps = (block + warp_lanes - 1) / warp_lanes in
  let ctx =
    {
      arch;
      opts;
      ev;
      k;
      params;
      globals;
      shared = Array.map (fun n -> Array.make (max n 1) 0.0) shared_sizes;
      regs = Array.init block (fun _ -> Array.make (max k.C.ck_nregs 1) Value.zero);
      wcycles = Array.make nwarps 0.0;
      nthreads = block;
      nwarps;
      block_idx = 0;
      grid_dim = grid;
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
  let nstmts = Array.length k.C.ck_body in
  let flip_block, flip_stmt =
    match flip with
    | Some fl when fl.Fault.fl_space <> Fault.Global_mem && nstmts > 0 ->
        (fl.Fault.fl_site mod simulate, fl.Fault.fl_site mod nstmts)
    | _ -> (-1, -1)
  in
  (try
     Array.iteri
       (fun pos b ->
         ctx.block_idx <- b;
         Array.iter (fun sh -> Array.fill sh 0 (Array.length sh) 0.0) ctx.shared;
         Array.iter
           (fun r -> Array.fill r 0 (Array.length r) Value.zero)
           ctx.regs;
         Array.fill ctx.wcycles 0 nwarps 0.0;
         if pos = flip_block then
           Array.iteri
             (fun i s ->
               exec_block_stmt ctx s;
               if i = flip_stmt then apply_flip ctx (Option.get flip))
             k.C.ck_body
         else Array.iter (exec_block_stmt ctx) k.C.ck_body;
         cp_total := !cp_total +. Array.fold_left Float.max 0.0 ctx.wcycles)
       block_ids
   with Value.Trap msg -> sim_error "%s: %s" k.C.ck_name msg);
  ev.Events.launched_blocks <- grid;
  ev.Events.simulated_blocks <- simulate;
  if simulate < grid then
    Events.scale_all ev ~factor:(float_of_int grid /. float_of_int simulate);
  {
    lr_grid = grid;
    lr_block = block;
    lr_shared_bytes = shared_bytes;
    lr_events = ev;
    lr_block_cp = (if simulate = 0 then 0.0 else !cp_total /. float_of_int simulate);
  }
