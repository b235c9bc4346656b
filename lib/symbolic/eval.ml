(* Symbolic execution of device-IR programs.

   This is {!Gpusim.Interp}'s twin: the same warp-synchronous SIMT
   schedule (sync-free statements run warp by warp under lane masks;
   statements containing a barrier run block-wide, statement by
   statement), the same shuffle lane-index arithmetic over the 32-lane
   warp state, the same deterministic lane-order atomic serialisation —
   but input elements are opaque {!Term} symbols instead of floats, and
   every execution is exact (no block sampling, no loop extrapolation).

   Because the data is symbolic, the evaluator also carries the dynamic
   hazard state a proof needs:

   - shared memory tracks, per cell, the warp that last wrote it and in
     which barrier epoch; a read (or conflicting plain write) from a
     different warp in the same epoch is an unsynchronized cross-warp
     hazard (TSYM003). Same-warp traffic is exempt, matching the
     warp-synchronous execution model (and {!Device_ir.Race}'s intra-warp
     exemption);
   - global memory tracks the writing block per launch; a read from a
     different block in the same launch is an inter-block hazard
     (TSYM003) — only a kernel-launch boundary orders blocks;
   - atomics from different warps/blocks to the same cell are allowed
     (they serialise by definition), but mixing them with plain accesses
     in the same epoch is not.

   Aborts are typed by diagnostic code: TSYM002 for shapes outside the
   symbolic fragment (data-dependent control flow or addressing,
   non-monoid operators on symbolic data, divergent barriers, OOB
   accesses), TSYM003 for synchronization hazards, TSYM004 for shuffles
   that source a lane outside the 32-lane warp. *)

module Ir = Device_ir.Ir
module R = Device_ir.Resolve
module Value = Gpusim.Value

exception Abort of { a_code : string; a_message : string }

let abort code fmt =
  Printf.ksprintf (fun s -> raise (Abort { a_code = code; a_message = s })) fmt

let warp_bits = 5
let warp_lanes = 32
let max_threads_per_block = 1024
let loop_iteration_cap = 10_000_000

(* ------------------------------------------------------------------ *)
(* Memory with hazard stamps                                           *)
(* ------------------------------------------------------------------ *)

(* writer stamps: [-1] in the epoch/launch slot means never written; a
   warp/block slot of [-2] means several writers reached the cell through
   atomics (legal until somebody reads it in the same epoch/launch) *)

type gbuffer = {
  g_name : string;
  g_cells : Term.t array;
  g_read_only : bool;
  gw_launch : int array;
  gw_block : int array;
  gw_atomic : bool array;
}

let make_gbuffer ?(read_only = false) ~(name : string) (cells : Term.t array) :
    gbuffer =
  let n = Array.length cells in
  {
    g_name = name;
    g_cells = cells;
    g_read_only = read_only;
    gw_launch = Array.make n (-1);
    gw_block = Array.make n (-1);
    gw_atomic = Array.make n false;
  }

type sbuffer = {
  s_name : string;
  s_ty : Ir.scalar;
  s_cells : Term.t array;
  sw_epoch : int array;
  sw_warp : int array;
  sw_atomic : bool array;
}

type ctx = {
  kname : string;
  params : Term.t array;  (** by slot *)
  globals : gbuffer array;  (** by slot *)
  shared : sbuffer array;  (** by slot *)
  regs : Term.t array array;  (** [slot][thread] *)
  zeros : Term.t array;
      (** by slot: the zero of the register's kind, which a shuffle lane
          past the block publishes *)
  nthreads : int;
  nwarps : int;
  mutable block_idx : int;
  grid_dim : int;
  launch_idx : int;
  mutable epoch : int;  (** barrier epoch within the current block *)
}

let global_buffer (ctx : ctx) (a : R.array_ref) : gbuffer =
  if a.R.a_slot < 0 then abort "TSYM002" "%s: unbound global array %S" ctx.kname a.R.a_name
  else ctx.globals.(a.R.a_slot)

let shared_buffer (ctx : ctx) (a : R.array_ref) : sbuffer =
  if a.R.a_slot < 0 then abort "TSYM002" "%s: unknown shared array %S" ctx.kname a.R.a_name
  else ctx.shared.(a.R.a_slot)

let global_get (ctx : ctx) (b : gbuffer) (i : int) : Term.t =
  if i < 0 || i >= Array.length b.g_cells then
    abort "TSYM002" "%s: global array %s: index %d out of bounds (size %d)"
      ctx.kname b.g_name i (Array.length b.g_cells);
  if
    b.gw_launch.(i) = ctx.launch_idx
    && (b.gw_block.(i) = -2 || b.gw_block.(i) <> ctx.block_idx)
  then
    abort "TSYM003"
      "%s: block %d reads %s[%d] written by another block in the same launch \
       (blocks are only ordered by a kernel-launch boundary)"
      ctx.kname ctx.block_idx b.g_name i;
  b.g_cells.(i)

let note_global_write (ctx : ctx) (b : gbuffer) (i : int) ~(atomic : bool) : unit =
  if b.g_read_only then
    abort "TSYM002" "%s: write to read-only buffer %s" ctx.kname b.g_name;
  if i < 0 || i >= Array.length b.g_cells then
    abort "TSYM002" "%s: global array %s: store index %d out of bounds (size %d)"
      ctx.kname b.g_name i (Array.length b.g_cells);
  if b.gw_launch.(i) <> ctx.launch_idx then begin
    b.gw_launch.(i) <- ctx.launch_idx;
    b.gw_block.(i) <- ctx.block_idx;
    b.gw_atomic.(i) <- atomic
  end
  else if atomic && b.gw_atomic.(i) then begin
    if b.gw_block.(i) <> ctx.block_idx then b.gw_block.(i) <- -2
  end
  else if b.gw_block.(i) = -2 || b.gw_block.(i) <> ctx.block_idx then
    abort "TSYM003"
      "%s: blocks write %s[%d] concurrently without atomics in the same launch"
      ctx.kname b.g_name i
  else b.gw_atomic.(i) <- atomic

let shared_get (ctx : ctx) (s : sbuffer) (w : int) (i : int) : Term.t =
  if i < 0 || i >= Array.length s.s_cells then
    abort "TSYM002" "%s: shared array %s: index %d out of bounds (size %d)"
      ctx.kname s.s_name i (Array.length s.s_cells);
  if s.sw_epoch.(i) = ctx.epoch && (s.sw_warp.(i) = -2 || s.sw_warp.(i) <> w) then
    abort "TSYM003"
      "%s: warp %d reads %s[%d] written by another warp with no intervening \
       __syncthreads()"
      ctx.kname w s.s_name i;
  s.s_cells.(i)

let note_shared_write (ctx : ctx) (s : sbuffer) (w : int) (i : int)
    ~(atomic : bool) : unit =
  if i < 0 || i >= Array.length s.s_cells then
    abort "TSYM002" "%s: shared array %s: store index %d out of bounds (size %d)"
      ctx.kname s.s_name i (Array.length s.s_cells);
  if s.sw_epoch.(i) <> ctx.epoch then begin
    s.sw_epoch.(i) <- ctx.epoch;
    s.sw_warp.(i) <- w;
    s.sw_atomic.(i) <- atomic
  end
  else if atomic && s.sw_atomic.(i) then begin
    if s.sw_warp.(i) <> w then s.sw_warp.(i) <- -2
  end
  else if s.sw_warp.(i) = -2 || s.sw_warp.(i) <> w then
    abort "TSYM003"
      "%s: warps write %s[%d] concurrently with no intervening __syncthreads()"
      ctx.kname s.s_name i
  else s.sw_atomic.(i) <- atomic

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type term_of = ctx -> int -> Term.t

(* a compiled expression: its term for one thread and, for a [<]/[<=]/
   [>]/[>=] comparison, whether its then-side keeps the larger operand,
   and the two operands, by which a branch on symbolic data is joined *)
type eexp = { ev : term_of; cmp : (bool * term_of * term_of) option }

let rec ev (e : R.exp) : term_of =
  match e with
  | R.Int n ->
      let t = Term.Conc (Value.VI n) in
      fun _ _ -> t
  | R.Float f ->
      let t = Term.Conc (Value.VF f) in
      fun _ _ -> t
  | R.Bool b ->
      let t = Term.Conc (Value.VB b) in
      fun _ _ -> t
  | R.Reg (slot, _) -> fun ctx tid -> ctx.regs.(slot).(tid)
  | R.Param (slot, p) ->
      if slot < 0 then fun ctx _ -> abort "TSYM002" "%s: unbound parameter %S" ctx.kname p
      else fun ctx _ -> ctx.params.(slot)
  | R.Special s ->
      fun ctx tid ->
        Term.Conc
          (Value.VI
             (match s with
             | Ir.Thread_idx -> tid
             | Ir.Block_idx -> ctx.block_idx
             | Ir.Block_dim -> ctx.nthreads
             | Ir.Grid_dim -> ctx.grid_dim
             | Ir.Warp_size -> warp_lanes
             | Ir.Lane_id -> tid land (warp_lanes - 1)
             | Ir.Warp_id -> tid lsr warp_bits))
  | R.Unop (op, a) ->
      let a = ev a in
      fun ctx tid -> Term.unop op (a ctx tid)
  | R.Binop (op, a, b) ->
      let a = ev a and b = ev b in
      fun ctx tid ->
        let y = b ctx tid in
        Term.binop op (a ctx tid) y
  | R.Select (c, a, b) -> (
      (* `x < y ? x : y`-shaped ternaries are how the TIR codelets spell
         min/max; recognise the shape so a symbolic comparison still
         normalises instead of aborting. Concrete conditions branch
         normally (and lazily — the untaken arm may be out of bounds). *)
      let minmax =
        match c with
        | R.Binop (cmp, x, y) when (x = a && y = b) || (x = b && y = a) -> (
            let swapped = x = b && y = a && not (x = a && y = b) in
            match cmp with
            | Ir.Lt | Ir.Le -> Some (if swapped then Ir.Max else Ir.Min)
            | Ir.Gt | Ir.Ge -> Some (if swapped then Ir.Min else Ir.Max)
            | _ -> None)
        | _ -> None
      in
      let c = ev c and a = ev a and b = ev b in
      let branch ctx tid =
        if Value.to_bool (Term.to_value ~what:"a select condition" (c ctx tid)) then
          a ctx tid
        else b ctx tid
      in
      match minmax with
      | None -> branch
      | Some op -> (
          (* prefer the concrete branch (bit-exact float semantics) when
             the comparison concretises *)
          fun ctx tid ->
            try branch ctx tid
            with Term.Unsupported _ ->
              let y = b ctx tid in
              Term.binop op (a ctx tid) y))

let compile (e : R.exp) : eexp =
  let cmp =
    match e with
    | R.Binop ((Ir.Lt | Ir.Le), a, b) -> Some (false, ev a, ev b)
    | R.Binop ((Ir.Gt | Ir.Ge), a, b) -> Some (true, ev a, ev b)
    | _ -> None
  in
  { ev = ev e; cmp }

let eval_int (ctx : ctx) (tid : int) ~(what : string) (e : eexp) : int =
  Value.to_int (Term.to_value ~what (e.ev ctx tid))

let eval_bool (ctx : ctx) (tid : int) ~(what : string) (e : eexp) : bool =
  Value.to_bool (Term.to_value ~what (e.ev ctx tid))

(* ------------------------------------------------------------------ *)
(* Per-warp execution (mirrors Interp.exec_warp)                       *)
(* ------------------------------------------------------------------ *)

type estmt = eexp R.stmt

(* branches executed speculatively for a data-dependent condition must
   not touch memory (or communicate across lanes): their effects cannot
   be predicated on a symbolic condition *)
let rec writes_memory (s : estmt) : bool =
  match s with
  | R.Store _ | R.Atomic _ | R.Sync _ | R.Shfl _ -> true
  | R.If { if_then; if_else; _ } ->
      Array.exists writes_memory if_then || Array.exists writes_memory if_else
  | R.For { f_body = body; _ } | R.While { w_body = body; _ } ->
      Array.exists writes_memory body
  | R.Let _ | R.Load _ | R.Vec_load _ -> false

let rec exec_warp (ctx : ctx) (w : int) (mask : bool array) (s : estmt) : unit =
  let lanes = Device_ir.Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  match s with
  | R.Let (r, e) ->
      let a = ctx.regs.(r) in
      for l = 0 to lanes - 1 do
        if mask.(l) then a.(base + l) <- e.ev ctx (base + l)
      done
  | R.Load { l_dst; l_arr; l_idx; _ } -> (
      let dst = ctx.regs.(l_dst) in
      match l_arr.R.a_space with
      | Ir.Global ->
          let b = global_buffer ctx l_arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              let i = eval_int ctx (base + l) ~what:"a load address" l_idx in
              dst.(base + l) <- global_get ctx b i
          done
      | Ir.Shared ->
          let sb = shared_buffer ctx l_arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              let i = eval_int ctx (base + l) ~what:"a load address" l_idx in
              dst.(base + l) <- shared_get ctx sb w i
          done)
  | R.Store { st_arr; st_idx; st_v; _ } -> (
      match st_arr.R.a_space with
      | Ir.Global ->
          let b = global_buffer ctx st_arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let i = eval_int ctx (base + l) ~what:"a store address" st_idx in
              let tv = st_v.ev ctx (base + l) in
              note_global_write ctx b i ~atomic:false;
              b.g_cells.(i) <- tv
            end
          done
      | Ir.Shared ->
          let sb = shared_buffer ctx st_arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let i = eval_int ctx (base + l) ~what:"a store address" st_idx in
              let tv = st_v.ev ctx (base + l) in
              note_shared_write ctx sb w i ~atomic:false;
              sb.s_cells.(i) <- tv
            end
          done)
  | R.Vec_load { vl_dsts; vl_arr; vl_base; _ } ->
      let b = global_buffer ctx vl_arr in
      let width = Array.length vl_dsts in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let base_i = eval_int ctx (base + l) ~what:"a vector-load base" vl_base in
          if width > 0 && base_i mod width <> 0 then
            abort "TSYM002" "%s: misaligned vector load at element %d (width %d)"
              ctx.kname base_i width;
          Array.iteri
            (fun j dst -> ctx.regs.(dst).(base + l) <- global_get ctx b (base_i + j))
            vl_dsts
        end
      done
  | R.Atomic { at_dst; at_arr; at_op; at_idx; at_v; _ } ->
      (* lanes apply in lane order: deterministic serialisation *)
      let idxs = Array.make warp_lanes 0 and vals = Array.make warp_lanes (Term.Conc Value.zero) in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          idxs.(l) <- eval_int ctx (base + l) ~what:"an atomic address" at_idx;
          vals.(l) <- at_v.ev ctx (base + l)
        end
      done;
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let i = idxs.(l) in
          (match at_arr.R.a_space with
          | Ir.Global ->
              let b = global_buffer ctx at_arr in
              if i < 0 || i >= Array.length b.g_cells then
                abort "TSYM002"
                  "%s: global array %s: atomic index %d out of bounds (size %d)"
                  ctx.kname b.g_name i (Array.length b.g_cells);
              note_global_write ctx b i ~atomic:true;
              b.g_cells.(i) <- Term.combine at_op b.g_cells.(i) vals.(l)
          | Ir.Shared ->
              let sb = shared_buffer ctx at_arr in
              if i < 0 || i >= Array.length sb.s_cells then
                abort "TSYM002"
                  "%s: shared array %s: atomic index %d out of bounds (size %d)"
                  ctx.kname sb.s_name i (Array.length sb.s_cells);
              note_shared_write ctx sb w i ~atomic:true;
              sb.s_cells.(i) <- Term.combine at_op sb.s_cells.(i) vals.(l));
          (* the pre-update value is interleaving-dependent on real
             hardware; representing it would let a proof depend on the
             simulator's serialisation order *)
          if at_dst >= 0 then
            ctx.regs.(at_dst).(base + l) <-
              Term.poison "old value returned by an atomic operation"
        end
      done
  | R.Shfl { sh_dst; sh_mode; sh_v; sh_lane; sh_width = width } ->
      if width < 1 || width > warp_lanes then
        abort "TSYM004"
          "%s: shuffle width %d exceeds the %d-lane warp (sub-warp state is \
           undefined beyond the hardware warp)"
          ctx.kname width warp_lanes;
      (* every resident lane publishes v; missing tail lanes publish the
         zero of the destination's kind *)
      let publish =
        Array.init warp_lanes (fun l ->
            if l < lanes then sh_v.ev ctx (base + l) else ctx.zeros.(sh_dst))
      in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let delta = eval_int ctx (base + l) ~what:"a shuffle lane operand" sh_lane in
          let src = Device_ir.Lanes.shfl_src sh_mode ~lane:l ~delta ~width in
          if src = Device_ir.Lanes.out_of_warp then
            abort "TSYM004"
              "%s: lane %d of a %s shuffle (lane operand %d, width %d) \
               sources a lane outside the %d-lane warp"
              ctx.kname l
              (Ir.show_shuffle_mode sh_mode)
              delta width warp_lanes;
          ctx.regs.(sh_dst).(base + l) <- publish.(src)
        end
      done
  | R.Sync _ ->
      abort "TSYM002" "%s: __syncthreads() under divergent control flow"
        ctx.kname
  | R.If { if_cond; if_then; if_else; _ } ->
      let tmask = Array.make warp_lanes false in
      let emask = Array.make warp_lanes false in
      let smask = Array.make warp_lanes false in
      let n_t = ref 0 and n_e = ref 0 and n_s = ref 0 in
      for l = 0 to lanes - 1 do
        if mask.(l) then
          match
            Term.to_value ~what:"a branch condition" (if_cond.ev ctx (base + l))
          with
          | v ->
              if Value.to_bool v then begin
                tmask.(l) <- true;
                incr n_t
              end
              else begin
                emask.(l) <- true;
                incr n_e
              end
          | exception Term.Unsupported _ ->
              smask.(l) <- true;
              incr n_s
      done;
      if !n_t > 0 then Array.iter (exec_warp ctx w tmask) if_then;
      if !n_e > 0 then Array.iter (exec_warp ctx w emask) if_else;
      if !n_s > 0 then join_branches ctx w smask if_cond if_then if_else
  | R.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
      let a = ctx.regs.(f_var) in
      for l = 0 to lanes - 1 do
        if mask.(l) then a.(base + l) <- f_init.ev ctx (base + l)
      done;
      let live = Array.copy mask in
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) ~what:"a loop condition" f_cond then
              incr n_live
            else live.(l) <- false
        done;
        if !n_live = 0 then continue_ := false
        else begin
          Array.iter (exec_warp ctx w live) f_body;
          for l = 0 to lanes - 1 do
            if live.(l) then a.(base + l) <- f_step.ev ctx (base + l)
          done;
          incr iter;
          if !iter > loop_iteration_cap then
            abort "TSYM002" "%s: loop exceeded %d iterations" ctx.kname
              loop_iteration_cap
        end
      done
  | R.While { w_cond; w_body; _ } ->
      let live = Array.copy mask in
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) ~what:"a loop condition" w_cond then
              incr n_live
            else live.(l) <- false
        done;
        if !n_live = 0 then continue_ := false
        else begin
          Array.iter (exec_warp ctx w live) w_body;
          incr iter;
          if !iter > loop_iteration_cap then
            abort "TSYM002" "%s: while loop exceeded %d iterations" ctx.kname
              loop_iteration_cap
        end
      done

(* A branch whose condition depends on symbolic input cannot pick a side,
   but the guarded-comparison idiom the codelets use for min/max
   (`if (x < acc) { acc = x }`-shaped statement lowering of ternaries) is
   still decidable: execute both branches speculatively on register
   snapshots, then join each register that diverged. A join succeeds when
   the two values are exactly the condition's compared operands — the
   result is their min/max — and otherwise leaves {!Term.Poison}, which
   aborts the proof only if the register is ever read again (dead branch
   temporaries are re-assigned before use). Branches that write memory or
   shuffle cannot be speculated and abort. *)
and join_branches (ctx : ctx) (w : int) (smask : bool array) (cond : eexp)
    (then_ : estmt array) (else_ : estmt array) : unit =
  let lanes = Device_ir.Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  if Array.exists writes_memory then_ || Array.exists writes_memory else_ then
    abort "TSYM002"
      "%s: a memory write (or shuffle) under a branch on symbolic input data"
      ctx.kname;
  (* the comparison shape decides which operand wins in the then-branch *)
  let operands =
    match cond.cmp with
    | Some (_, ca, cb) ->
        Array.init warp_lanes (fun l ->
            if smask.(l) then
              try Some (ca ctx (base + l), cb ctx (base + l))
              with Term.Unsupported _ -> None
            else None)
    | None -> Array.make warp_lanes None
  in
  let entry = Array.map Array.copy ctx.regs in
  Array.iter (exec_warp ctx w smask) then_;
  let then_state = Array.map Array.copy ctx.regs in
  Array.iteri (fun r a -> Array.blit a 0 ctx.regs.(r) 0 (Array.length a)) entry;
  Array.iter (exec_warp ctx w smask) else_;
  (* registers now hold the else-state; join against the then-state *)
  Array.iteri
    (fun r now ->
      for l = 0 to lanes - 1 do
        if smask.(l) then begin
          let vt = then_state.(r).(base + l) and ve = now.(base + l) in
          if vt <> ve then
            now.(base + l) <-
              (match (cond.cmp, operands.(l)) with
              | Some (maxi, _, _), Some (ta, tb) when vt = ta && ve = tb ->
                  Term.binop (if maxi then Ir.Max else Ir.Min) ta tb
              | Some (maxi, _, _), Some (ta, tb) when vt = tb && ve = ta ->
                  Term.binop (if maxi then Ir.Min else Ir.Max) ta tb
              | _ ->
                  Term.poison
                    "a register joined across a branch on symbolic input data")
        end
      done)
    ctx.regs

(* ------------------------------------------------------------------ *)
(* Block-wide execution (barrier-aware; mirrors Interp)                *)
(* ------------------------------------------------------------------ *)

let full_mask = Array.make warp_lanes true

let barrier (ctx : ctx) : unit = ctx.epoch <- ctx.epoch + 1

(* a condition guarding a barrier must be block-uniform, or the barrier
   deadlocks; symbolically it must also be concrete *)
let check_uniform_cond (ctx : ctx) (e : eexp) : bool =
  let what = "a barrier-guarding condition" in
  let v0 = eval_bool ctx 0 ~what e in
  for t = 1 to ctx.nthreads - 1 do
    if eval_bool ctx t ~what e <> v0 then
      abort "TSYM002"
        "%s: non-uniform condition guards a barrier (thread %d disagrees): the \
         barrier deadlocks"
        ctx.kname t
  done;
  v0

let rec exec_block_stmt (ctx : ctx) (s : estmt) : unit =
  if not (R.has_sync s) then
    for w = 0 to ctx.nwarps - 1 do
      exec_warp ctx w full_mask s
    done
  else
    match s with
    | R.Sync _ -> barrier ctx
    | R.If { if_cond; if_then; if_else; _ } ->
        if check_uniform_cond ctx if_cond then Array.iter (exec_block_stmt ctx) if_then
        else Array.iter (exec_block_stmt ctx) if_else
    | R.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
        let a = ctx.regs.(f_var) in
        for t = 0 to ctx.nthreads - 1 do
          a.(t) <- f_init.ev ctx t
        done;
        let iter = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx f_cond then begin
            Array.iter (exec_block_stmt ctx) f_body;
            for t = 0 to ctx.nthreads - 1 do
              a.(t) <- f_step.ev ctx t
            done;
            incr iter;
            if !iter > loop_iteration_cap then
              abort "TSYM002" "%s: loop exceeded %d iterations" ctx.kname
                loop_iteration_cap
          end
          else continue_ := false
        done
    | R.While { w_cond; w_body; _ } ->
        let iter = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx w_cond then begin
            Array.iter (exec_block_stmt ctx) w_body;
            incr iter;
            if !iter > loop_iteration_cap then
              abort "TSYM002" "%s: while loop exceeded %d iterations" ctx.kname
                loop_iteration_cap
          end
          else continue_ := false
        done
    | R.Let _ | R.Load _ | R.Store _ | R.Vec_load _ | R.Atomic _ | R.Shfl _ ->
        assert false

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

let run_kernel ((k, zeros) : eexp R.kernel * Term.t array) ~(grid : int) ~(block : int)
    ~(shared_elems : int) ~(globals : gbuffer array) ~(params : Value.t array)
    ~(launch_idx : int) : unit =
  let name = k.R.rk_name in
  if grid < 1 then abort "TSYM002" "%s: empty grid" name;
  if block < 1 || block > max_threads_per_block then
    abort "TSYM002" "%s: block size %d out of range [1, %d]" name block
      max_threads_per_block;
  if Array.length globals <> Array.length k.R.rk_arrays then
    abort "TSYM002" "%s: expected %d array bindings, got %d" name
      (Array.length k.R.rk_arrays) (Array.length globals);
  if Array.length params <> Array.length k.R.rk_params then
    abort "TSYM002" "%s: expected %d scalar parameters, got %d" name
      (Array.length k.R.rk_params) (Array.length params);
  let zero ty = Term.Conc (Value.of_float ty 0.0) in
  let shared =
    Array.map
      (fun (d : Ir.shared_decl) ->
        let n =
          match d.Ir.sh_size with
          | Ir.Static_size n -> n
          | Ir.Dynamic_size -> shared_elems
        in
        let n = max n 1 in
        {
          s_name = d.Ir.sh_name;
          s_ty = d.Ir.sh_ty;
          s_cells = Array.make n (zero d.Ir.sh_ty);
          sw_epoch = Array.make n (-1);
          sw_warp = Array.make n (-1);
          sw_atomic = Array.make n false;
        })
      k.R.rk_shared
  in
  let ctx =
    {
      kname = name;
      params = Array.map (fun v -> Term.Conc v) params;
      globals;
      shared;
      regs = Array.init k.R.rk_nregs (fun _ -> Array.make block (Term.Conc Value.zero));
      zeros;
      nthreads = block;
      nwarps = (block + warp_lanes - 1) / warp_lanes;
      block_idx = 0;
      grid_dim = grid;
      launch_idx;
      epoch = 0;
    }
  in
  for b = 0 to grid - 1 do
    ctx.block_idx <- b;
    ctx.epoch <- 0;
    (* interp zero-initialises registers *)
    Array.iter (fun a -> Array.fill a 0 block (Term.Conc Value.zero)) ctx.regs;
    Array.iter
      (fun (s : sbuffer) ->
        Array.fill s.s_cells 0 (Array.length s.s_cells) (zero s.s_ty);
        Array.fill s.sw_epoch 0 (Array.length s.sw_epoch) (-1);
        Array.fill s.sw_warp 0 (Array.length s.sw_warp) (-1);
        Array.fill s.sw_atomic 0 (Array.length s.sw_atomic) false)
      ctx.shared;
    Array.iter (exec_block_stmt ctx) k.R.rk_body
  done

(* ------------------------------------------------------------------ *)
(* Whole-program execution                                             *)
(* ------------------------------------------------------------------ *)

(* a program whose kernels are resolved once, on their first launch,
   for every geometry it runs at, each with its registers' zeros *)
type program = {
  prog : Ir.program;
  kernels : (string * (eexp R.kernel * Term.t array) Lazy.t) list;
}

let resolve_kernel (k : Ir.kernel) : eexp R.kernel * Term.t array =
  let rk = R.kernel compile k in
  let kinds = fst (Device_ir.Analysis.registers k) in
  let zero r =
    Term.Conc
      (match Device_ir.Analysis.SM.find_opt r kinds with
      | Some Device_ir.Analysis.Float -> Value.VF 0.0
      | Some Device_ir.Analysis.Pred -> Value.VB false
      | Some Device_ir.Analysis.Int | None -> Value.zero)
  in
  (rk, Array.map zero rk.R.rk_reg_names)

let resolve (p : Ir.program) : program =
  { prog = p; kernels = List.map (fun k -> (k.Ir.k_name, lazy (resolve_kernel k))) p.Ir.p_kernels }

(** Symbolically execute [p] on a fully symbolic input of [n] elements
    (element [i] is {!Term.Sym}[ i]) and return the term left in cell 0
    of the result buffer. Geometry is concrete: [tunables] defaults to
    the first candidate of each tunable. Buffers and launches are bound
    by {!Gpusim.Runner.run_host}, as for a simulated run. Execution is
    always exact — every block of every launch runs.
    @raise Abort on any shape, hazard or shuffle violation. *)
let run_program ?(tunables : (string * int) list option) ~(n : int)
    ({ prog = p; kernels } : program) : Term.t =
  if n < 1 then abort "TSYM002" "program %s: empty input" p.Ir.p_name;
  let launch launch_idx kernel ~grid ~block ~shared_elems ~globals ~params =
    let k =
      match List.assoc_opt kernel kernels with
      | Some k -> Lazy.force k
      | None ->
          invalid_arg (Printf.sprintf "program %s: no kernel %S" p.Ir.p_name kernel)
    in
    run_kernel k ~grid ~block ~shared_elems ~globals ~params ~launch_idx
  in
  let temporary (b : Ir.buffer) size =
    let init = Option.value b.Ir.buf_init ~default:0.0 in
    make_gbuffer ~name:b.Ir.buf_name
      (Array.make size (Term.Conc (Value.of_float b.Ir.buf_ty init)))
  in
  match
    Gpusim.Runner.run_host ?tunables ~n
      ~input:(make_gbuffer ~read_only:true ~name:"input" (Array.init n Term.sym))
      ~output:
        (make_gbuffer ~name:"output" [| Term.Conc (Value.of_float p.Ir.p_elem 0.0) |])
      ~temporary ~launch p
  with
  | _, result -> result.g_cells.(0)
  | exception Term.Unsupported msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg
  | exception Value.Trap msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg
  | exception Invalid_argument msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg
