(* The interpreter's instance of the slot-resolved kernel form.

   The interpreter executes every statement once per warp per block and
   every expression once per lane; name lookups and a tree walk would
   dominate its running time. {!Device_ir.Resolve} turns names into
   dense slots, marks the statements that contain a barrier (they must
   then be executed block-wide rather than warp-by-warp) and the affine
   loops whose trip count can be extrapolated under sampled execution;
   this module compiles every expression once into a closure over the
   interpreter's frame. *)

module Ir = Device_ir.Ir
module R = Device_ir.Resolve

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

type cstmt = cexp R.stmt
type t = cexp R.kernel

exception Compile_error of string

let rec cexp (e : R.exp) : cexp =
  match e with
  | R.Int n ->
      let v = Value.VI n in
      fun _ -> v
  | R.Float f ->
      let v = Value.VF f in
      fun _ -> v
  | R.Bool b ->
      let v = Value.VB b in
      fun _ -> v
  | R.Reg (slot, _) -> fun fr -> fr.regs.(fr.tid).(slot)
  | R.Param (slot, _) -> fun fr -> fr.params.(slot)
  | R.Special s -> special s
  | R.Unop (op, a) ->
      let a = cexp a in
      fun fr -> Value.unop op (a fr)
  | R.Binop (op, a, b) -> binop op (cexp a) (cexp b)
  | R.Select (c, a, b) ->
      let c = cexp c and a = cexp a and b = cexp b in
      fun fr -> if truth (c fr) then a fr else b fr

let compile (k : Ir.kernel) : t =
  R.kernel
    ~unknown:(fun what name ->
      raise
        (Compile_error (Printf.sprintf "%s: unknown %s %S" k.Ir.k_name what name)))
    cexp k
