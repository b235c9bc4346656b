(* Compilation of named device IR into a slot-indexed form.

   The interpreter executes every statement once per warp per block and
   every expression once per lane; name lookups and a tree walk would
   dominate its running time. This pass resolves register, parameter and
   array names to dense integer slots, compiles every expression once
   into a closure, pre-computes which structured statements contain a
   barrier (they must then be executed block-wide rather than
   warp-by-warp), and recognises affine loops whose trip count can be
   extrapolated under sampled execution. *)

module Ir = Device_ir.Ir

(* The state an expression reads: every thread's registers, the scalar
   parameters and the block geometry, boxed once per launch or block,
   and the thread evaluating. A closure of one argument is called
   directly, where one of two would go through caml_apply2. *)
type frame = {
  regs : Value.t array array;  (** [thread][slot] *)
  params : Value.t array;
  block_dim : Value.t;
  grid_dim : Value.t;
  mutable block_idx : Value.t;
  mutable tid : int;
}

type cexp = frame -> Value.t

(* Value.norm32, repeated so that the fast paths below inline it *)
let[@inline] wrap32 (x : int) : int =
  let y = x land 0xFFFFFFFF in
  if y land 0x80000000 <> 0 then y - 0x100000000 else y

(* Thread, lane and warp indices, loop counters and truth values are
   boxed once: results in range share these instead of allocating. *)
let small_ints = Array.init 1024 (fun i -> Value.VI i)

let[@inline] vint (i : int) : Value.t =
  if i >= 0 && i < 1024 then small_ints.(i) else Value.VI i

let vtrue = Value.VB true
let vfalse = Value.VB false
let[@inline] vbool (b : bool) : Value.t = if b then vtrue else vfalse

let truth (v : Value.t) : bool =
  match v with Value.VB b -> b | v -> Value.to_bool v

let special (s : Ir.special) : cexp =
  match s with
  | Ir.Thread_idx -> fun fr -> vint fr.tid
  | Ir.Block_idx -> fun fr -> fr.block_idx
  | Ir.Block_dim -> fun fr -> fr.block_dim
  | Ir.Grid_dim -> fun fr -> fr.grid_dim
  | Ir.Warp_size ->
      let v = Value.VI 32 in
      fun _ -> v
  | Ir.Lane_id -> fun fr -> vint (fr.tid land 31)
  | Ir.Warp_id -> fun fr -> vint (fr.tid lsr 5)

(* The common operators get int and float fast paths; other operators,
   mixed and boolean operands and traps go through Value.binop. The
   right operand is evaluated before the left: when both trap, the
   right one's message is the one reported. *)
let binop (op : Ir.binop) (a : cexp) (b : cexp) : cexp =
  let open Value in
  match op with
  | Ir.Add -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vint (wrap32 (x + y))
        | VF x, VF y -> VF (x +. y)
        | x, y -> Value.binop op x y)
  | Ir.Sub -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vint (wrap32 (x - y))
        | VF x, VF y -> VF (x -. y)
        | x, y -> Value.binop op x y)
  | Ir.Mul -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vint (wrap32 (x * y))
        | VF x, VF y -> VF (x *. y)
        | x, y -> Value.binop op x y)
  | Ir.Div -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y when y <> 0 -> vint (x / y)
        | x, y -> Value.binop op x y)
  | Ir.Rem -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y when y <> 0 -> vint (x mod y)
        | x, y -> Value.binop op x y)
  | Ir.Lt -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x < y)
        | VF x, VF y -> vbool (x < y)
        | x, y -> Value.binop op x y)
  | Ir.Le -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x <= y)
        | VF x, VF y -> vbool (x <= y)
        | x, y -> Value.binop op x y)
  | Ir.Gt -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x > y)
        | VF x, VF y -> vbool (x > y)
        | x, y -> Value.binop op x y)
  | Ir.Ge -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x >= y)
        | VF x, VF y -> vbool (x >= y)
        | x, y -> Value.binop op x y)
  | Ir.Eq -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x = y)
        | x, y -> Value.binop op x y)
  | Ir.Ne -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VI x, VI y -> vbool (x <> y)
        | x, y -> Value.binop op x y)
  | Ir.Land -> (
      fun fr ->
        let y = b fr in
        match (a fr, y) with
        | VB x, VB y -> vbool (x && y)
        | x, y -> Value.binop op x y)
  | Ir.Min | Ir.Max | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr | Ir.Lor ->
      fun fr ->
        let y = b fr in
        Value.binop op (a fr) y

type array_ref = { a_space : Ir.space; a_slot : int }

(** Affine-loop recognition: [for (v = init; v < bound; v = v + stride)]
    with a positive constant stride and a loop-invariant bound. Such loops
    can be cut short under sampling and their remaining iterations
    extrapolated. *)
type affine = { af_bound : cexp; af_stride : int }

type cstmt =
  | CLet of int * cexp
  | CLoad of { l_arr : array_ref; l_dst : int; l_idx : cexp }
  | CStore of { st_arr : array_ref; st_idx : cexp; st_v : cexp }
  | CVec_load of { vl_dsts : int array; vl_arr : int; vl_base : cexp }
  | CAtomic of {
      at_dst : int;  (** -1 when the old value is discarded *)
      at_arr : array_ref;
      at_op : Ir.atomic_op;
      at_scope : Ir.scope;
      at_idx : cexp;
      at_v : cexp;
    }
  | CShfl of {
      sh_dst : int;
      sh_mode : Ir.shuffle_mode;
      sh_v : cexp;
      sh_lane : cexp;
      sh_width : int;
    }
  | CSync
  | CIf of { if_cond : cexp; if_then : cstmt array; if_else : cstmt array; if_sync : bool }
  | CFor of {
      f_var : int;
      f_init : cexp;
      f_cond : cexp;
      f_step : cexp;
      f_body : cstmt array;
      f_sync : bool;
      f_affine : affine option;
    }
  | CWhile of { w_cond : cexp; w_body : cstmt array; w_sync : bool }

type t = {
  ck_name : string;
  ck_nregs : int;
  ck_reg_names : string array;  (** slot -> name, for diagnostics *)
  ck_params : (string * Ir.scalar) array;
  ck_arrays : (string * Ir.scalar) array;
  ck_shared : Ir.shared_decl array;
  ck_body : cstmt array;
}

exception Compile_error of string

let compile (k : Ir.kernel) : t =
  let regs : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let reg_names = ref [] in
  let reg name =
    match Hashtbl.find_opt regs name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length regs in
        Hashtbl.add regs name i;
        reg_names := name :: !reg_names;
        i
  in
  let params = Array.of_list k.Ir.k_params in
  let arrays = Array.of_list k.Ir.k_arrays in
  let shared = Array.of_list k.Ir.k_shared in
  let find_slot what arr name =
    let rec go i =
      if i >= Array.length arr then
        raise (Compile_error (Printf.sprintf "%s: unknown %s %S" k.Ir.k_name what name))
      else if fst arr.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let shared_slot name =
    let rec go i =
      if i >= Array.length shared then
        raise
          (Compile_error (Printf.sprintf "%s: unknown shared array %S" k.Ir.k_name name))
      else if shared.(i).Ir.sh_name = name then i
      else go (i + 1)
    in
    go 0
  in
  let array_ref space name =
    match (space : Ir.space) with
    | Ir.Global -> { a_space = Ir.Global; a_slot = find_slot "global array" arrays name }
    | Ir.Shared -> { a_space = Ir.Shared; a_slot = shared_slot name }
  in
  (* operands compile right to left: registers get their slots in this
     order, and a register bit flip picks its target by slot *)
  let rec cexp (e : Ir.exp) : cexp =
    match e with
    | Ir.Int n ->
        let v = Value.VI n in
        fun _ -> v
    | Ir.Float f ->
        let v = Value.VF f in
        fun _ -> v
    | Ir.Bool b ->
        let v = Value.VB b in
        fun _ -> v
    | Ir.Reg r ->
        let slot = reg r in
        fun fr -> fr.regs.(fr.tid).(slot)
    | Ir.Param p ->
        let slot = find_slot "parameter" params p in
        fun fr -> fr.params.(slot)
    | Ir.Special s -> special s
    | Ir.Unop (op, a) ->
        let a = cexp a in
        fun fr -> Value.unop op (a fr)
    | Ir.Binop (op, a, b) ->
        let b = cexp b in
        let a = cexp a in
        binop op a b
    | Ir.Select (c, a, b) ->
        let b = cexp b in
        let a = cexp a in
        let c = cexp c in
        fun fr -> if truth (c fr) then a fr else b fr
  in
  (* loop-invariance of the bound: no register assigned inside the body
     occurs in it (the iterator itself included) *)
  let affine_of ~var ~body (cond : Ir.exp) (step : Ir.exp) : affine option =
    match (cond, step) with
    | Ir.Binop (Ir.Lt, Ir.Reg v, bound), Ir.Binop (Ir.Add, Ir.Reg v', Ir.Int s)
      when v = var && v' = var && s > 0 ->
        let defs = Device_ir.Analysis.SS.add var (Device_ir.Analysis.all_defs body) in
        let uses = Device_ir.Analysis.exp_uses bound in
        if Device_ir.Analysis.SS.is_empty (Device_ir.Analysis.SS.inter defs uses) then
          Some { af_bound = cexp bound; af_stride = s }
        else None
    | _ -> None
  in
  let rec cstmt (s : Ir.stmt) : cstmt option =
    match s with
    | Ir.Comment _ -> None
    | Ir.Let (r, e) ->
        let e = cexp e in
        Some (CLet (reg r, e))
    | Ir.Load { dst; space; arr; idx } ->
        let idx = cexp idx in
        Some (CLoad { l_arr = array_ref space arr; l_dst = reg dst; l_idx = idx })
    | Ir.Store { space; arr; idx; v } ->
        Some (CStore { st_arr = array_ref space arr; st_idx = cexp idx; st_v = cexp v })
    | Ir.Vec_load { dsts; arr; base } ->
        let base = cexp base in
        Some
          (CVec_load
             {
               vl_dsts = Array.of_list (List.map reg dsts);
               vl_arr = find_slot "global array" arrays arr;
               vl_base = base;
             })
    | Ir.Atomic { dst; space; op; scope; arr; idx; v } ->
        Some
          (CAtomic
             {
               at_dst = (match dst with Some d -> reg d | None -> -1);
               at_arr = array_ref space arr;
               at_op = op;
               at_scope = scope;
               at_idx = cexp idx;
               at_v = cexp v;
             })
    | Ir.Shfl { dst; mode; v; lane; width } ->
        let v = cexp v and lane = cexp lane in
        Some (CShfl { sh_dst = reg dst; sh_mode = mode; sh_v = v; sh_lane = lane; sh_width = width })
    | Ir.Sync -> Some CSync
    | Ir.If (c, t, e) ->
        let if_cond = cexp c in
        let if_then = cstmts t and if_else = cstmts e in
        let if_sync =
          List.exists Device_ir.Analysis.contains_sync t
          || List.exists Device_ir.Analysis.contains_sync e
        in
        Some (CIf { if_cond; if_then; if_else; if_sync })
    | Ir.For { var; init; cond; step; body } ->
        let f_affine = affine_of ~var ~body cond step in
        let f_init = cexp init in
        let f_var = reg var in
        let f_cond = cexp cond and f_step = cexp step in
        let f_body = cstmts body in
        let f_sync = List.exists Device_ir.Analysis.contains_sync body in
        Some (CFor { f_var; f_init; f_cond; f_step; f_body; f_sync; f_affine })
    | Ir.While (c, body) ->
        let w_cond = cexp c in
        let w_body = cstmts body in
        let w_sync = List.exists Device_ir.Analysis.contains_sync body in
        Some (CWhile { w_cond; w_body; w_sync })
  and cstmts (body : Ir.stmt list) : cstmt array =
    Array.of_list (List.filter_map cstmt body)
  in
  let body = cstmts k.Ir.k_body in
  {
    ck_name = k.Ir.k_name;
    ck_nregs = Hashtbl.length regs;
    ck_reg_names = Array.of_list (List.rev !reg_names);
    ck_params = params;
    ck_arrays = arrays;
    ck_shared = shared;
    ck_body = body;
  }
