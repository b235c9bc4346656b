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
  params : (string, Value.t) Hashtbl.t;
  globals : (string, gbuffer) Hashtbl.t;
  shared : (string, sbuffer) Hashtbl.t;
  regs : (string, Term.t array) Hashtbl.t;  (** register name -> per-thread *)
  nthreads : int;
  nwarps : int;
  mutable block_idx : int;
  grid_dim : int;
  launch_idx : int;
  mutable epoch : int;  (** barrier epoch within the current block *)
}

let find_global (ctx : ctx) (arr : string) : gbuffer =
  match Hashtbl.find_opt ctx.globals arr with
  | Some b -> b
  | None -> abort "TSYM002" "%s: unbound global array %S" ctx.kname arr

let find_shared (ctx : ctx) (arr : string) : sbuffer =
  match Hashtbl.find_opt ctx.shared arr with
  | Some s -> s
  | None -> abort "TSYM002" "%s: unknown shared array %S" ctx.kname arr

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
(* Registers and expressions                                           *)
(* ------------------------------------------------------------------ *)

let get_reg (ctx : ctx) (tid : int) (r : string) : Term.t =
  match Hashtbl.find_opt ctx.regs r with
  | Some a -> a.(tid)
  | None -> Term.Conc Value.zero  (* interp zero-initialises registers *)

let reg_array (ctx : ctx) (r : string) : Term.t array =
  match Hashtbl.find_opt ctx.regs r with
  | Some a -> a
  | None ->
      let a = Array.make ctx.nthreads (Term.Conc Value.zero) in
      Hashtbl.add ctx.regs r a;
      a

let set_reg (ctx : ctx) (tid : int) (r : string) (v : Term.t) : unit =
  (reg_array ctx r).(tid) <- v

let rec eval (ctx : ctx) (tid : int) (e : Ir.exp) : Term.t =
  match e with
  | Ir.Int n -> Term.Conc (Value.VI n)
  | Ir.Float f -> Term.Conc (Value.VF f)
  | Ir.Bool b -> Term.Conc (Value.VB b)
  | Ir.Reg r -> get_reg ctx tid r
  | Ir.Param p -> (
      match Hashtbl.find_opt ctx.params p with
      | Some v -> Term.Conc v
      | None -> abort "TSYM002" "%s: unbound parameter %S" ctx.kname p)
  | Ir.Special s ->
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
  | Ir.Unop (op, a) -> Term.unop op (eval ctx tid a)
  | Ir.Binop (op, a, b) -> Term.binop op (eval ctx tid a) (eval ctx tid b)
  | Ir.Select (c, a, b) -> (
      (* `x < y ? x : y`-shaped ternaries are how the TIR codelets spell
         min/max; recognise the shape so a symbolic comparison still
         normalises instead of aborting. Concrete conditions branch
         normally (and lazily — the untaken arm may be out of bounds). *)
      let minmax =
        match c with
        | Ir.Binop (cmp, x, y) when (x = a && y = b) || (x = b && y = a) -> (
            let swapped = x = b && y = a && not (x = a && y = b) in
            match cmp with
            | Ir.Lt | Ir.Le -> Some (if swapped then Ir.Max else Ir.Min)
            | Ir.Gt | Ir.Ge -> Some (if swapped then Ir.Min else Ir.Max)
            | _ -> None)
        | _ -> None
      in
      let branch () =
        if
          Value.to_bool
            (Term.to_value ~what:"a select condition" (eval ctx tid c))
        then eval ctx tid a
        else eval ctx tid b
      in
      match minmax with
      | None -> branch ()
      | Some op -> (
          (* prefer the concrete branch (bit-exact float semantics) when
             the comparison concretises *)
          try branch ()
          with Term.Unsupported _ ->
            Term.binop op (eval ctx tid a) (eval ctx tid b)))

let eval_int (ctx : ctx) (tid : int) ~(what : string) (e : Ir.exp) : int =
  Value.to_int (Term.to_value ~what (eval ctx tid e))

let eval_bool (ctx : ctx) (tid : int) ~(what : string) (e : Ir.exp) : bool =
  Value.to_bool (Term.to_value ~what (eval ctx tid e))

(* ------------------------------------------------------------------ *)
(* Per-warp execution (mirrors Interp.exec_warp)                       *)
(* ------------------------------------------------------------------ *)

(* branches executed speculatively for a data-dependent condition must
   not touch memory (or communicate across lanes): their effects cannot
   be predicated on a symbolic condition *)
let rec stmt_writes_memory = function
  | Ir.Store _ | Ir.Atomic _ | Ir.Sync | Ir.Shfl _ -> true
  | Ir.If (_, t, e) ->
      List.exists stmt_writes_memory t || List.exists stmt_writes_memory e
  | Ir.For { body; _ } | Ir.While (_, body) -> List.exists stmt_writes_memory body
  | Ir.Let _ | Ir.Load _ | Ir.Vec_load _ | Ir.Comment _ -> false

let snapshot_regs (ctx : ctx) : (string * Term.t array) list =
  Hashtbl.fold (fun k v acc -> (k, Array.copy v) :: acc) ctx.regs []

(* In place: enclosing statements (the For case, join callers) hold
   references to the live arrays, so the arrays themselves must survive *)
let restore_regs (ctx : ctx) (snap : (string * Term.t array) list) : unit =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace seen k ();
      match Hashtbl.find_opt ctx.regs k with
      | Some cur -> Array.blit v 0 cur 0 (Array.length v)
      | None -> Hashtbl.add ctx.regs k (Array.copy v))
    snap;
  Hashtbl.iter
    (fun k cur ->
      if not (Hashtbl.mem seen k) then
        Array.fill cur 0 (Array.length cur) (Term.Conc Value.zero))
    ctx.regs

let rec exec_warp (ctx : ctx) (w : int) (mask : bool array) (s : Ir.stmt) : unit =
  let lanes = Device_ir.Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  match s with
  | Ir.Comment _ -> ()
  | Ir.Let (r, e) ->
      let a = reg_array ctx r in
      for l = 0 to lanes - 1 do
        if mask.(l) then a.(base + l) <- eval ctx (base + l) e
      done
  | Ir.Load { dst; space; arr; idx } -> (
      match space with
      | Ir.Global ->
          let b = find_global ctx arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              let i = eval_int ctx (base + l) ~what:"a load address" idx in
              set_reg ctx (base + l) dst (global_get ctx b i)
          done
      | Ir.Shared ->
          let sb = find_shared ctx arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then
              let i = eval_int ctx (base + l) ~what:"a load address" idx in
              set_reg ctx (base + l) dst (shared_get ctx sb w i)
          done)
  | Ir.Store { space; arr; idx; v } -> (
      match space with
      | Ir.Global ->
          let b = find_global ctx arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let i = eval_int ctx (base + l) ~what:"a store address" idx in
              let tv = eval ctx (base + l) v in
              note_global_write ctx b i ~atomic:false;
              b.g_cells.(i) <- tv
            end
          done
      | Ir.Shared ->
          let sb = find_shared ctx arr in
          for l = 0 to lanes - 1 do
            if mask.(l) then begin
              let i = eval_int ctx (base + l) ~what:"a store address" idx in
              let tv = eval ctx (base + l) v in
              note_shared_write ctx sb w i ~atomic:false;
              sb.s_cells.(i) <- tv
            end
          done)
  | Ir.Vec_load { dsts; arr; base = vbase } ->
      let b = find_global ctx arr in
      let width = List.length dsts in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let base_i = eval_int ctx (base + l) ~what:"a vector-load base" vbase in
          if width > 0 && base_i mod width <> 0 then
            abort "TSYM002" "%s: misaligned vector load at element %d (width %d)"
              ctx.kname base_i width;
          List.iteri
            (fun j dst -> set_reg ctx (base + l) dst (global_get ctx b (base_i + j)))
            dsts
        end
      done
  | Ir.Atomic { dst; space; op; scope = _; arr; idx; v } ->
      (* lanes apply in lane order: deterministic serialisation *)
      let idxs = Array.make warp_lanes 0 and vals = Array.make warp_lanes (Term.Conc Value.zero) in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          idxs.(l) <- eval_int ctx (base + l) ~what:"an atomic address" idx;
          vals.(l) <- eval ctx (base + l) v
        end
      done;
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let i = idxs.(l) in
          (match space with
          | Ir.Global ->
              let b = find_global ctx arr in
              if i < 0 || i >= Array.length b.g_cells then
                abort "TSYM002"
                  "%s: global array %s: atomic index %d out of bounds (size %d)"
                  ctx.kname b.g_name i (Array.length b.g_cells);
              note_global_write ctx b i ~atomic:true;
              b.g_cells.(i) <- Term.combine op b.g_cells.(i) vals.(l)
          | Ir.Shared ->
              let sb = find_shared ctx arr in
              if i < 0 || i >= Array.length sb.s_cells then
                abort "TSYM002"
                  "%s: shared array %s: atomic index %d out of bounds (size %d)"
                  ctx.kname sb.s_name i (Array.length sb.s_cells);
              note_shared_write ctx sb w i ~atomic:true;
              sb.s_cells.(i) <- Term.combine op sb.s_cells.(i) vals.(l));
          match dst with
          | Some r ->
              (* the pre-update value is interleaving-dependent on real
                 hardware; representing it would let a proof depend on the
                 simulator's serialisation order *)
              set_reg ctx (base + l) r
                (Term.poison "old value returned by an atomic operation")
          | None -> ()
        end
      done
  | Ir.Shfl { dst; mode; v; lane; width } ->
      if width < 1 || width > warp_lanes then
        abort "TSYM004"
          "%s: shuffle width %d exceeds the %d-lane warp (sub-warp state is \
           undefined beyond the hardware warp)"
          ctx.kname width warp_lanes;
      (* every resident lane publishes v; missing tail lanes publish zero *)
      let publish =
        Array.init warp_lanes (fun l ->
            if l < lanes then eval ctx (base + l) v else Term.Conc Value.zero)
      in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          let delta = eval_int ctx (base + l) ~what:"a shuffle lane operand" lane in
          let src = Device_ir.Lanes.shfl_src mode ~lane:l ~delta ~width in
          if src = Device_ir.Lanes.out_of_warp then
            abort "TSYM004"
              "%s: lane %d of a %s shuffle (lane operand %d, width %d) \
               sources a lane outside the %d-lane warp"
              ctx.kname l
              (Ir.show_shuffle_mode mode)
              delta width warp_lanes;
          set_reg ctx (base + l) dst publish.(src)
        end
      done
  | Ir.Sync ->
      abort "TSYM002" "%s: __syncthreads() under divergent control flow"
        ctx.kname
  | Ir.If (cond, then_, else_) ->
      let tmask = Array.make warp_lanes false in
      let emask = Array.make warp_lanes false in
      let smask = Array.make warp_lanes false in
      let n_t = ref 0 and n_e = ref 0 and n_s = ref 0 in
      for l = 0 to lanes - 1 do
        if mask.(l) then
          match
            Term.to_value ~what:"a branch condition"
              (eval ctx (base + l) cond)
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
      if !n_t > 0 then List.iter (exec_warp ctx w tmask) then_;
      if !n_e > 0 then List.iter (exec_warp ctx w emask) else_;
      if !n_s > 0 then join_branches ctx w smask cond then_ else_
  | Ir.For { var; init; cond; step; body } ->
      let a = reg_array ctx var in
      for l = 0 to lanes - 1 do
        if mask.(l) then a.(base + l) <- eval ctx (base + l) init
      done;
      let live = Array.copy mask in
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) ~what:"a loop condition" cond then
              incr n_live
            else live.(l) <- false
        done;
        if !n_live = 0 then continue_ := false
        else begin
          List.iter (exec_warp ctx w live) body;
          for l = 0 to lanes - 1 do
            if live.(l) then a.(base + l) <- eval ctx (base + l) step
          done;
          incr iter;
          if !iter > loop_iteration_cap then
            abort "TSYM002" "%s: loop exceeded %d iterations" ctx.kname
              loop_iteration_cap
        end
      done
  | Ir.While (cond, body) ->
      let live = Array.copy mask in
      let iter = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n_live = ref 0 in
        for l = 0 to lanes - 1 do
          if live.(l) then
            if eval_bool ctx (base + l) ~what:"a loop condition" cond then
              incr n_live
            else live.(l) <- false
        done;
        if !n_live = 0 then continue_ := false
        else begin
          List.iter (exec_warp ctx w live) body;
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
and join_branches (ctx : ctx) (w : int) (smask : bool array) (cond : Ir.exp)
    (then_ : Ir.stmt list) (else_ : Ir.stmt list) : unit =
  let lanes = Device_ir.Lanes.lanes_in_warp ~nthreads:ctx.nthreads w in
  let base = w * warp_lanes in
  if List.exists stmt_writes_memory then_ || List.exists stmt_writes_memory else_
  then
    abort "TSYM002"
      "%s: a memory write (or shuffle) under a branch on symbolic input data"
      ctx.kname;
  (* the comparison shape decides which operand wins in the then-branch *)
  let then_is_max =
    match cond with
    | Ir.Binop ((Ir.Lt | Ir.Le), _, _) -> Some false
    | Ir.Binop ((Ir.Gt | Ir.Ge), _, _) -> Some true
    | _ -> None
  in
  let operands =
    match cond with
    | Ir.Binop (_, ca, cb) ->
        Array.init warp_lanes (fun l ->
            if smask.(l) then
              try Some (eval ctx (base + l) ca, eval ctx (base + l) cb)
              with Term.Unsupported _ -> None
            else None)
    | _ -> Array.make warp_lanes None
  in
  let snap = snapshot_regs ctx in
  List.iter (exec_warp ctx w smask) then_;
  let then_state = snapshot_regs ctx in
  restore_regs ctx snap;
  List.iter (exec_warp ctx w smask) else_;
  (* registers now hold the else-state; join against the then-state *)
  let names =
    List.sort_uniq compare
      (List.map fst then_state
      @ Hashtbl.fold (fun k _ acc -> k :: acc) ctx.regs [])
  in
  List.iter
    (fun name ->
      let then_arr = List.assoc_opt name then_state in
      let now = reg_array ctx name in
      for l = 0 to lanes - 1 do
        if smask.(l) then begin
          let vt =
            match then_arr with
            | Some a -> a.(base + l)
            | None -> Term.Conc Value.zero
          in
          let ve = now.(base + l) in
          if vt <> ve then
            now.(base + l) <-
              (match (then_is_max, operands.(l)) with
              | Some maxi, Some (ta, tb) when vt = ta && ve = tb ->
                  Term.binop (if maxi then Ir.Max else Ir.Min) ta tb
              | Some maxi, Some (ta, tb) when vt = tb && ve = ta ->
                  Term.binop (if maxi then Ir.Min else Ir.Max) ta tb
              | _ ->
                  Term.poison
                    "a register joined across a branch on symbolic input data")
        end
      done)
    names

(* ------------------------------------------------------------------ *)
(* Block-wide execution (barrier-aware; mirrors Interp)                *)
(* ------------------------------------------------------------------ *)

let full_mask = Array.make warp_lanes true

let barrier (ctx : ctx) : unit = ctx.epoch <- ctx.epoch + 1

(* a condition guarding a barrier must be block-uniform, or the barrier
   deadlocks; symbolically it must also be concrete *)
let check_uniform_cond (ctx : ctx) (e : Ir.exp) : bool =
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

let rec exec_block_stmt (ctx : ctx) (s : Ir.stmt) : unit =
  if not (Device_ir.Analysis.contains_sync s) then
    for w = 0 to ctx.nwarps - 1 do
      exec_warp ctx w full_mask s
    done
  else
    match s with
    | Ir.Sync -> barrier ctx
    | Ir.If (cond, then_, else_) ->
        if check_uniform_cond ctx cond then List.iter (exec_block_stmt ctx) then_
        else List.iter (exec_block_stmt ctx) else_
    | Ir.For { var; init; cond; step; body } ->
        let a = reg_array ctx var in
        for t = 0 to ctx.nthreads - 1 do
          a.(t) <- eval ctx t init
        done;
        let iter = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx cond then begin
            List.iter (exec_block_stmt ctx) body;
            for t = 0 to ctx.nthreads - 1 do
              a.(t) <- eval ctx t step
            done;
            incr iter;
            if !iter > loop_iteration_cap then
              abort "TSYM002" "%s: loop exceeded %d iterations" ctx.kname
                loop_iteration_cap
          end
          else continue_ := false
        done
    | Ir.While (cond, body) ->
        let iter = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          if check_uniform_cond ctx cond then begin
            List.iter (exec_block_stmt ctx) body;
            incr iter;
            if !iter > loop_iteration_cap then
              abort "TSYM002" "%s: while loop exceeded %d iterations" ctx.kname
                loop_iteration_cap
          end
          else continue_ := false
        done
    | Ir.Let _ | Ir.Load _ | Ir.Store _ | Ir.Vec_load _ | Ir.Atomic _
    | Ir.Shfl _ | Ir.Comment _ ->
        assert false

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

let run_kernel (k : Ir.kernel) ~(grid : int) ~(block : int)
    ~(shared_elems : int) ~(globals : gbuffer list)
    ~(params : Value.t list) ~(launch_idx : int) : unit =
  if grid < 1 then abort "TSYM002" "%s: empty grid" k.Ir.k_name;
  if block < 1 || block > max_threads_per_block then
    abort "TSYM002" "%s: block size %d out of range [1, %d]" k.Ir.k_name block
      max_threads_per_block;
  if List.length globals <> List.length k.Ir.k_arrays then
    abort "TSYM002" "%s: expected %d array bindings, got %d" k.Ir.k_name
      (List.length k.Ir.k_arrays) (List.length globals);
  if List.length params <> List.length k.Ir.k_params then
    abort "TSYM002" "%s: expected %d scalar parameters, got %d" k.Ir.k_name
      (List.length k.Ir.k_params) (List.length params);
  let globals_tbl = Hashtbl.create 8 in
  List.iter2
    (fun (name, _ty) b -> Hashtbl.replace globals_tbl name b)
    k.Ir.k_arrays globals;
  let params_tbl = Hashtbl.create 8 in
  List.iter2
    (fun (name, _ty) v -> Hashtbl.replace params_tbl name v)
    k.Ir.k_params params;
  let shared_tbl = Hashtbl.create 4 in
  List.iter
    (fun (d : Ir.shared_decl) ->
      let n =
        match d.Ir.sh_size with
        | Ir.Static_size n -> n
        | Ir.Dynamic_size -> shared_elems
      in
      let n = max n 1 in
      Hashtbl.replace shared_tbl d.Ir.sh_name
        {
          s_name = d.Ir.sh_name;
          s_ty = d.Ir.sh_ty;
          s_cells = Array.make n (Term.Conc (Value.of_float d.Ir.sh_ty 0.0));
          sw_epoch = Array.make n (-1);
          sw_warp = Array.make n (-1);
          sw_atomic = Array.make n false;
        })
    k.Ir.k_shared;
  let nwarps = (block + warp_lanes - 1) / warp_lanes in
  let ctx =
    {
      kname = k.Ir.k_name;
      params = params_tbl;
      globals = globals_tbl;
      shared = shared_tbl;
      regs = Hashtbl.create 32;
      nthreads = block;
      nwarps;
      block_idx = 0;
      grid_dim = grid;
      launch_idx;
      epoch = 0;
    }
  in
  for b = 0 to grid - 1 do
    ctx.block_idx <- b;
    ctx.epoch <- 0;
    Hashtbl.reset ctx.regs;
    Hashtbl.iter
      (fun _ (s : sbuffer) ->
        Array.fill s.s_cells 0 (Array.length s.s_cells)
          (Term.Conc (Value.of_float s.s_ty 0.0));
        Array.fill s.sw_epoch 0 (Array.length s.sw_epoch) (-1);
        Array.fill s.sw_warp 0 (Array.length s.sw_warp) (-1);
        Array.fill s.sw_atomic 0 (Array.length s.sw_atomic) false)
      ctx.shared;
    List.iter (exec_block_stmt ctx) k.Ir.k_body
  done

(* ------------------------------------------------------------------ *)
(* Whole-program execution (mirrors Runner.run_compiled_raw)           *)
(* ------------------------------------------------------------------ *)

let first_tunables (p : Ir.program) : (string * int) list =
  List.map
    (fun (name, cands) ->
      match cands with
      | v :: _ -> (name, v)
      | [] -> abort "TSYM002" "program %s: tunable %S has no candidates" p.Ir.p_name name)
    p.Ir.p_tunables

(** Symbolically execute [p] on a fully symbolic input of [n] elements
    (element [i] is {!Term.Sym}[ i]) and return the term left in cell 0
    of the result buffer. Geometry is concrete: [tunables] defaults to
    the first candidate of each tunable. Execution is always exact —
    every block of every launch runs.
    @raise Abort on any shape, hazard or shuffle violation. *)
let run_program ?(tunables : (string * int) list option) ~(n : int)
    (p : Ir.program) : Term.t =
  if n < 1 then abort "TSYM002" "program %s: empty input" p.Ir.p_name;
  let tunables =
    match tunables with Some t -> t | None -> first_tunables p
  in
  let ev_hexp h =
    try Ir.eval_hexp ~n ~tunables h
    with Invalid_argument msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg
  in
  let buffers : (string, gbuffer) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.add buffers "input"
    (make_gbuffer ~read_only:true ~name:"input" (Array.init n Term.sym));
  Hashtbl.add buffers "output"
    (make_gbuffer ~name:"output" [| Term.Conc (Value.of_float p.Ir.p_elem 0.0) |]);
  List.iter
    (fun (b : Ir.buffer) ->
      let size = ev_hexp b.Ir.buf_size in
      if size < 1 then
        abort "TSYM002" "program %s: buffer %S has non-positive size %d"
          p.Ir.p_name b.Ir.buf_name size;
      let init = match b.Ir.buf_init with Some v -> v | None -> 0.0 in
      Hashtbl.add buffers b.Ir.buf_name
        (make_gbuffer ~name:b.Ir.buf_name
           (Array.make size (Term.Conc (Value.of_float b.Ir.buf_ty init)))))
    p.Ir.p_buffers;
  let find_buffer name =
    match Hashtbl.find_opt buffers name with
    | Some b -> b
    | None -> abort "TSYM002" "program %s: unbound buffer %S" p.Ir.p_name name
  in
  (try
     List.iteri
       (fun i (ln : Ir.launch) ->
         let k = Ir.find_kernel p ln.Ir.ln_kernel in
         let grid = ev_hexp ln.Ir.ln_grid in
         let block = ev_hexp ln.Ir.ln_block in
         let shared_elems = ev_hexp ln.Ir.ln_shared_elems in
         let globals = ref [] and params = ref [] in
         List.iter
           (fun (a : Ir.harg) ->
             match a with
             | Ir.Arg_buffer b -> globals := find_buffer b :: !globals
             | Ir.Arg_scalar h -> params := Value.VI (ev_hexp h) :: !params)
           ln.Ir.ln_args;
         run_kernel k ~grid ~block ~shared_elems
           ~globals:(List.rev !globals) ~params:(List.rev !params)
           ~launch_idx:i)
       p.Ir.p_launches
   with
  | Term.Unsupported msg ->
      abort "TSYM002" "program %s: %s" p.Ir.p_name msg
  | Value.Trap msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg
  | Invalid_argument msg -> abort "TSYM002" "program %s: %s" p.Ir.p_name msg);
  let result = find_buffer p.Ir.p_result in
  if Array.length result.g_cells = 0 then
    abort "TSYM002" "program %s: empty result buffer" p.Ir.p_name;
  result.g_cells.(0)
