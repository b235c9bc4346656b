(* The interpreter's instance of the slot-resolved kernel form.

   The interpreter executes every statement once per warp per block and
   every expression once per lane; name lookups and a tree walk would
   dominate its running time. {!Device_ir.Resolve} turns names into
   dense slots, marks the statements that contain a barrier (they must
   then be executed block-wide rather than warp-by-warp) and the affine
   loops whose trip count can be extrapolated under sampled execution;
   this module compiles every expression once into closures over the
   interpreter's frame.

   Typed register slots. The device IR is weakly typed, like PTX virtual
   registers, and {!Value.binop} promotes operands dynamically. But
   nearly every register holds one kind of value for the whole kernel,
   so each slot's kind (int, float or predicate) is inferred once per
   kernel from its definitions, following Value.binop and Value.unop
   exactly, with parameter and array kinds taken from the declarations.
   A typed slot lives unboxed in the frame's float or int bank;
   expressions over typed slots compile to closures returning [float],
   [int] or [bool], and every register write is compiled once, per
   slot, into a writer. A slot stays boxed ([Value.t]) when its
   definitions disagree on the kind, or when a read can reach it before
   its first write in a block (it then reads [Value.zero], an int). So
   every value, trap and simulated time is the one the boxed
   interpreter computes. *)

module Ir = Device_ir.Ir
module R = Device_ir.Resolve

(* The state an expression reads: the register banks of every thread,
   the scalar parameters, the block geometry and the thread evaluating.
   A closure of one argument is called directly, where one of two would
   go through caml_apply2. *)
type frame = {
  fregs : float array;
  iregs : int array;
  vregs : Value.t array;
  nf : int;
  ni : int;
  nv : int;
  params : Value.t array;
  block_dim : int;
  grid_dim : int;
  mutable block_idx : int;
  mutable tid : int;
}

type cexp = {
  ci : frame -> int;
  cf : frame -> float array -> int -> unit;
  cb : frame -> bool;
  cv : frame -> Value.t;
}

type kind = Int | Float | Pred

let kind_of_scalar (ty : Ir.scalar) : kind =
  match ty with Ir.F32 -> Float | Ir.I32 | Ir.U32 -> Int | Ir.Pred -> Pred

let kind_of_value (v : Value.t) : kind =
  match v with Value.VI _ -> Int | Value.VF _ -> Float | Value.VB _ -> Pred

type slot = Float_reg of int | Int_reg of int | Pred_reg of int | Boxed_reg of int

type writer = {
  set : cexp -> frame -> unit;
  load : frame -> Ir.scalar -> float array -> int -> unit;
  publish : cexp -> frame -> int -> unit;
  absent : int -> unit;
  take : frame -> int -> unit;
  get_int : frame -> int;
  jump : frame -> int -> unit;
}

type form = {
  kernel : cexp R.kernel;
  slots : slot array;
  writers : writer array;
  nf : int;
  ni : int;
  nv : int;
}

type t = { typed : form; full_warps : bool; boxed : form Lazy.t }

exception Compile_error of string

(* ------------------------------------------------------------------ *)
(* Kind inference                                                      *)
(* ------------------------------------------------------------------ *)

(* [Bot]: no definition seen yet; [Top]: more than one kind *)
type skind = Bot | K of kind | Top

let join (a : skind) (b : skind) : skind =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | K x, K y when x = y -> a
  | _ -> Top

(* Value.binop: comparisons and Land/Lor give a predicate; int with int
   and predicate with predicate go through int_binop; anything else
   (a float, or a predicate with an int) through float_binop *)
let binop_kind (op : Ir.binop) (a : skind) (b : skind) : skind =
  match op with
  | Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Land | Ir.Lor -> K Pred
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.Min | Ir.Max | Ir.And
  | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr -> (
      match (a, b) with
      | Top, _ | _, Top -> Top
      | Bot, _ | _, Bot -> Bot
      | K Int, K Int | K Pred, K Pred -> K Int
      | K _, K _ -> K Float)

let unop_kind (op : Ir.unop) (a : skind) : skind =
  match (op, a) with
  | Ir.Bnot, _ -> K Int
  | Ir.Lnot, _ -> K Pred
  | Ir.Neg, K Pred -> K Float
  | Ir.Neg, k -> k

let rec exp_kind (rk : R.exp R.kernel) (kinds : skind array) (e : R.exp) : skind =
  match e with
  | R.Int _ -> K Int
  | R.Float _ -> K Float
  | R.Bool _ -> K Pred
  | R.Reg (s, _) -> kinds.(s)
  | R.Param (s, _) -> K (kind_of_scalar (snd rk.R.rk_params.(s)))
  | R.Special _ -> K Int
  | R.Unop (op, a) -> unop_kind op (exp_kind rk kinds a)
  | R.Binop (op, a, b) -> binop_kind op (exp_kind rk kinds a) (exp_kind rk kinds b)
  | R.Select (_, a, b) -> join (exp_kind rk kinds a) (exp_kind rk kinds b)

let array_kind (rk : 'e R.kernel) (a : R.array_ref) : kind =
  match a.R.a_space with
  | Ir.Global -> kind_of_scalar (snd rk.R.rk_arrays.(a.R.a_slot))
  | Ir.Shared -> kind_of_scalar rk.R.rk_shared.(a.R.a_slot).Ir.sh_ty

let rec iter_stmts (f : 'e R.stmt -> unit) (body : 'e R.stmt array) : unit =
  Array.iter
    (fun s ->
      f s;
      match s with
      | R.If { if_then; if_else; _ } ->
          iter_stmts f if_then;
          iter_stmts f if_else
      | R.For { f_body; _ } -> iter_stmts f f_body
      | R.While { w_body; _ } -> iter_stmts f w_body
      | R.Let _ | R.Load _ | R.Store _ | R.Vec_load _ | R.Atomic _ | R.Shfl _
      | R.Sync _ ->
          ())
    body

(* The slots some read can reach before the slot's first write in a
   block, where it reads the per-block reset value. Conservative: both
   arms of a select count as read, and a loop body as run once. A
   shuffle evaluates its source in the warp's inactive lanes too, which
   may be anywhere inside the warp-level statement: its reads must be
   written before that statement starts. *)
let read_before_write (rk : R.exp R.kernel) : bool array =
  let early = Array.make rk.R.rk_nregs false in
  let rec reads (written : bool array) (e : R.exp) =
    match e with
    | R.Reg (s, _) -> if not written.(s) then early.(s) <- true
    | R.Unop (_, a) -> reads written a
    | R.Binop (_, a, b) ->
        reads written a;
        reads written b
    | R.Select (c, a, b) ->
        reads written c;
        reads written a;
        reads written b
    | R.Int _ | R.Float _ | R.Bool _ | R.Param _ | R.Special _ -> ()
  in
  (* [written] is updated in place; a branch or loop body works on a
     copy. [root]: what every thread had written when the warp-level
     statement around [s] started *)
  let rec warp root written (s : R.exp R.stmt) : unit =
    match s with
    | R.Let (d, e) ->
        reads written e;
        written.(d) <- true
    | R.Load { l_dst; l_idx; _ } ->
        reads written l_idx;
        written.(l_dst) <- true
    | R.Store { st_idx; st_v; _ } ->
        reads written st_idx;
        reads written st_v
    | R.Vec_load { vl_dsts; vl_base; _ } ->
        reads written vl_base;
        Array.iter (fun d -> written.(d) <- true) vl_dsts
    | R.Atomic { at_dst; at_idx; at_v; _ } ->
        reads written at_idx;
        reads written at_v;
        if at_dst >= 0 then written.(at_dst) <- true
    | R.Shfl { sh_dst; sh_v; sh_lane; _ } ->
        reads root sh_v;
        reads written sh_lane;
        written.(sh_dst) <- true
    | R.Sync _ -> ()
    | R.If { if_cond; if_then; if_else; _ } ->
        reads written if_cond;
        branches (warp root) written if_then if_else
    | R.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
        reads written f_init;
        written.(f_var) <- true;
        reads written f_cond;
        reads (run (warp root) written f_body) f_step
    | R.While { w_cond; w_body; _ } ->
        reads written w_cond;
        ignore (run (warp root) written w_body)
  (* a body run on a copy: what it writes may not happen *)
  and run step written body =
    let w = Array.copy written in
    Array.iter (step w) body;
    w
  and branches step written t e =
    let wt = run step written t and we = run step written e in
    Array.iteri (fun i x -> written.(i) <- x && we.(i)) wt
  (* block-wide statements run every thread along one path *)
  and block written (s : R.exp R.stmt) : unit =
    if not (R.has_sync s) then warp (Array.copy written) written s
    else
      match s with
      | R.If { if_cond; if_then; if_else; _ } ->
          reads written if_cond;
          branches block written if_then if_else
      | R.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
          reads written f_init;
          written.(f_var) <- true;
          reads written f_cond;
          reads (run block written f_body) f_step
      | R.While { w_cond; w_body; _ } ->
          reads written w_cond;
          ignore (run block written w_body)
      | R.Sync _ | R.Let _ | R.Load _ | R.Store _ | R.Vec_load _ | R.Atomic _
      | R.Shfl _ ->
          ()
  in
  Array.iter (block (Array.make rk.R.rk_nregs false)) rk.R.rk_body;
  early

(* Each slot's kind: the join of its definitions' kinds, to a fixpoint.
   An affine loop's iterator is also an int definition: the sampled
   interpreter's extrapolation jump stores an int into it. *)
let infer (rk : R.exp R.kernel) : skind array =
  let kinds = Array.map (fun early -> if early then Top else Bot) (read_before_write rk) in
  let settle () =
    let changed = ref true in
    while !changed do
      changed := false;
      let def d k =
        let j = join kinds.(d) k in
        if j <> kinds.(d) then begin
          kinds.(d) <- j;
          changed := true
        end
      in
      let exp = exp_kind rk kinds in
      iter_stmts
        (fun s ->
          match s with
          | R.Let (d, e) -> def d (exp e)
          | R.Load { l_dst; l_arr; _ } -> def l_dst (K (array_kind rk l_arr))
          | R.Vec_load { vl_dsts; vl_arr; _ } ->
              Array.iter (fun d -> def d (K (array_kind rk vl_arr))) vl_dsts
          | R.Atomic { at_dst; at_arr; _ } ->
              if at_dst >= 0 then def at_dst (K (array_kind rk at_arr))
          | R.Shfl { sh_dst; sh_v; _ } -> def sh_dst (exp sh_v)
          | R.For { f_var; f_init; f_step; f_affine; _ } ->
              def f_var (exp f_init);
              def f_var (exp f_step);
              if f_affine <> None then def f_var (K Int)
          | R.Store _ | R.Sync _ | R.If _ | R.While _ -> ())
        rk.R.rk_body
    done
  in
  settle ();
  (* a slot no definition typed is boxed, and so is what it feeds *)
  Array.iteri (fun s k -> if k = Bot then kinds.(s) <- Top) kinds;
  settle ();
  kinds

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Value.norm32, repeated so that the fast paths below inline it *)
let[@inline] wrap32 (x : int) : int =
  let y = x land 0xFFFFFFFF in
  if y land 0x80000000 <> 0 then y - 0x100000000 else y

(* An int or float operand: register and constant leaves are read in
   place by the operator that uses them, not through a closure. A float
   operator also comes in a form that stores its result into an array
   cell ([Fop]'s second closure): a float a closure returns is boxed. *)
type iop = Ireg of int | Iconst of int | Itid | Ifun of (frame -> int)

type fop =
  | Freg of int
  | Fconst of float
  | Ffun of (frame -> float)
  | Fop of (frame -> float) * (frame -> float array -> int -> unit)

(* a compiled expression by its kind; [V] is boxed *)
type texp = I of iop | F of fop | B of (frame -> bool) | V of (frame -> Value.t)

let[@inline] iget (fr : frame) (a : iop) : int =
  match a with
  | Ireg i -> fr.iregs.((fr.tid * fr.ni) + i)
  | Iconst c -> c
  | Itid -> fr.tid
  | Ifun f -> f fr

let[@inline] fget (fr : frame) (a : fop) : float =
  match a with
  | Freg i -> fr.fregs.((fr.tid * fr.nf) + i)
  | Fconst c -> c
  | Ffun f | Fop (f, _) -> f fr

let ifun (a : iop) : frame -> int =
  match a with
  | Ireg i -> fun fr -> fr.iregs.((fr.tid * fr.ni) + i)
  | Iconst c -> fun _ -> c
  | Itid -> fun fr -> fr.tid
  | Ifun f -> f

let ffun (a : fop) : frame -> float =
  match a with
  | Freg i -> fun fr -> fr.fregs.((fr.tid * fr.nf) + i)
  | Fconst c -> fun _ -> c
  | Ffun f | Fop (f, _) -> f

let texp_kind (t : texp) : skind =
  match t with I _ -> K Int | F _ -> K Float | B _ -> K Pred | V _ -> Top

let value (t : texp) : frame -> Value.t =
  match t with
  | I (Iconst c) ->
      let v = Value.VI c in
      fun _ -> v
  | I a ->
      let f = ifun a in
      fun fr -> Value.VI (f fr)
  | F (Fconst c) ->
      let v = Value.VF c in
      fun _ -> v
  | F a ->
      let f = ffun a in
      fun fr -> Value.VF (f fr)
  | B b -> fun fr -> Value.VB (b fr)
  | V v -> v

(* a boxed computation whose result has the statically known kind *)
let unbox (k : skind) (v : frame -> Value.t) : texp =
  match k with
  | K Int -> I (Ifun (fun fr -> match v fr with Value.VI i -> i | x -> Value.to_int x))
  | K Float ->
      F (Ffun (fun fr -> match v fr with Value.VF f -> f | x -> Value.to_float x))
  | K Pred -> B (fun fr -> match v fr with Value.VB b -> b | x -> Value.to_bool x)
  | Bot | Top -> V v

let truth (v : Value.t) : bool =
  match v with Value.VB b -> b | v -> Value.to_bool v

(* Boxed operands, or a pair of kinds the typed paths leave out, go
   through Value.binop; the right operand is evaluated before the left,
   so when both trap, the right one's message is the one reported. *)
let generic_binop (op : Ir.binop) (a : texp) (b : texp) : texp =
  let va = value a and vb = value b in
  unbox (binop_kind op (texp_kind a) (texp_kind b)) (fun fr ->
      let y = vb fr in
      Value.binop op (va fr) y)

(* Typed operands: int with int and float with float compute unboxed,
   as Value.int_binop and Value.float_binop do, and so do the logical
   operators on two predicates; any other pair is rare and goes through
   the boxed path. *)
let binop (op : Ir.binop) (a : texp) (b : texp) : texp =
  match (a, b) with
  (* a non-negative dividend and a power-of-two divisor need no
     division instruction; the quotient and remainder are the same *)
  | I a, I (Iconst c) when (op = Ir.Div || op = Ir.Rem) && c > 0 && c land (c - 1) = 0 ->
      let rec log2 c = if c <= 1 then 0 else 1 + log2 (c lsr 1) in
      let k = log2 c in
      if op = Ir.Div then
        I (Ifun (fun fr -> let x = iget fr a in if x >= 0 then x asr k else x / c))
      else I (Ifun (fun fr -> let x = iget fr a in if x >= 0 then x land (c - 1) else x mod c))
  | I a, I b -> (
      let int f = I (Ifun f) in
      match op with
      | Ir.Add -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a + y))
      | Ir.Sub -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a - y))
      | Ir.Mul -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a * y))
      | Ir.Div ->
          int (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              if y = 0 then raise (Value.Trap "integer division by zero") else x / y)
      | Ir.Rem ->
          int (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              if y = 0 then raise (Value.Trap "integer remainder by zero") else x mod y)
      | Ir.Min ->
          int (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              if x <= y then x else y)
      | Ir.Max ->
          int (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              if x >= y then x else y)
      | Ir.And -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a land y))
      | Ir.Or -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a lor y))
      | Ir.Xor -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a lxor y))
      | Ir.Shl -> int (fun fr -> let y = iget fr b in wrap32 (iget fr a lsl (y land 31)))
      | Ir.Shr -> int (fun fr -> let y = iget fr b in iget fr a asr (y land 31))
      | Ir.Eq -> B (fun fr -> let y = iget fr b in iget fr a = y)
      | Ir.Ne -> B (fun fr -> let y = iget fr b in iget fr a <> y)
      | Ir.Lt -> B (fun fr -> let y = iget fr b in iget fr a < y)
      | Ir.Le -> B (fun fr -> let y = iget fr b in iget fr a <= y)
      | Ir.Gt -> B (fun fr -> let y = iget fr b in iget fr a > y)
      | Ir.Ge -> B (fun fr -> let y = iget fr b in iget fr a >= y)
      | Ir.Land ->
          B (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              x <> 0 && y <> 0)
      | Ir.Lor ->
          B (fun fr ->
              let y = iget fr b in
              let x = iget fr a in
              x <> 0 || y <> 0))
  | F fa, F fb -> (
      let flt f into = F (Fop (f, into)) in
      match op with
      | Ir.Add ->
          flt
            (fun fr -> let y = fget fr fb in fget fr fa +. y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- fget fr fa +. y)
      | Ir.Sub ->
          flt
            (fun fr -> let y = fget fr fb in fget fr fa -. y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- fget fr fa -. y)
      | Ir.Mul ->
          flt
            (fun fr -> let y = fget fr fb in fget fr fa *. y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- fget fr fa *. y)
      | Ir.Div ->
          flt
            (fun fr -> let y = fget fr fb in fget fr fa /. y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- fget fr fa /. y)
      | Ir.Rem -> F (Ffun (fun fr -> let y = fget fr fb in Float.rem (fget fr fa) y))
      | Ir.Min ->
          flt
            (fun fr -> let y = fget fr fb in Float.min (fget fr fa) y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- Float.min (fget fr fa) y)
      | Ir.Max ->
          flt
            (fun fr -> let y = fget fr fb in Float.max (fget fr fa) y)
            (fun fr c j -> let y = fget fr fb in c.(j) <- Float.max (fget fr fa) y)
      | Ir.Eq -> B (fun fr -> let y = fget fr fb in fget fr fa = y)
      | Ir.Ne -> B (fun fr -> let y = fget fr fb in fget fr fa <> y)
      | Ir.Lt -> B (fun fr -> let y = fget fr fb in fget fr fa < y)
      | Ir.Le -> B (fun fr -> let y = fget fr fb in fget fr fa <= y)
      | Ir.Gt -> B (fun fr -> let y = fget fr fb in fget fr fa > y)
      | Ir.Ge -> B (fun fr -> let y = fget fr fb in fget fr fa >= y)
      | Ir.Land ->
          B (fun fr ->
              let y = fget fr fb in
              let x = fget fr fa in
              x <> 0.0 && y <> 0.0)
      | Ir.Lor ->
          B (fun fr ->
              let y = fget fr fb in
              let x = fget fr fa in
              x <> 0.0 || y <> 0.0)
      | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr -> generic_binop op a b)
  | B x, B y -> (
      match op with
      | Ir.Land -> B (fun fr -> let q = y fr in let p = x fr in p && q)
      | Ir.Lor -> B (fun fr -> let q = y fr in let p = x fr in p || q)
      | Ir.Eq -> B (fun fr -> let q = y fr in x fr = q)
      | Ir.Ne -> B (fun fr -> let q = y fr in x fr <> q)
      | _ -> generic_binop op a b)
  | _ -> generic_binop op a b

let unop (op : Ir.unop) (a : texp) : texp =
  match (op, a) with
  | Ir.Neg, I x -> I (Ifun (fun fr -> wrap32 (-iget fr x)))
  | Ir.Neg, F x -> F (Ffun (fun fr -> -.fget fr x))
  | Ir.Lnot, B b -> B (fun fr -> not (b fr))
  | _ ->
      let v = value a in
      unbox (unop_kind op (texp_kind a)) (fun fr -> Value.unop op (v fr))

let special (s : Ir.special) : texp =
  match s with
  | Ir.Thread_idx -> I Itid
  | Ir.Block_idx -> I (Ifun (fun fr -> fr.block_idx))
  | Ir.Block_dim -> I (Ifun (fun fr -> fr.block_dim))
  | Ir.Grid_dim -> I (Ifun (fun fr -> fr.grid_dim))
  | Ir.Warp_size -> I (Iconst 32)
  | Ir.Lane_id -> I (Ifun (fun fr -> fr.tid land 31))
  | Ir.Warp_id -> I (Ifun (fun fr -> fr.tid lsr 5))

let rec texp (rk : R.exp R.kernel) (slots : slot array) (e : R.exp) : texp =
  match e with
  | R.Int n -> I (Iconst n)
  | R.Float f -> F (Fconst f)
  | R.Bool b -> B (fun _ -> b)
  | R.Reg (s, _) -> (
      match slots.(s) with
      | Float_reg i -> F (Freg i)
      | Int_reg i -> I (Ireg i)
      | Pred_reg i -> B (fun fr -> fr.iregs.((fr.tid * fr.ni) + i) <> 0)
      | Boxed_reg i -> V (fun fr -> fr.vregs.((fr.tid * fr.nv) + i)))
  | R.Param (s, _) -> (
      match kind_of_scalar (snd rk.R.rk_params.(s)) with
      | Int ->
          I (Ifun (fun fr -> match fr.params.(s) with Value.VI i -> i | v -> Value.to_int v))
      | Float ->
          F (Ffun (fun fr -> match fr.params.(s) with Value.VF f -> f | v -> Value.to_float v))
      | Pred -> B (fun fr -> truth fr.params.(s)))
  | R.Special s -> special s
  | R.Unop (op, a) -> unop op (texp rk slots a)
  | R.Binop (op, a, b) -> binop op (texp rk slots a) (texp rk slots b)
  | R.Select (c, a, b) -> (
      let c = cond (texp rk slots c) in
      match (texp rk slots a, texp rk slots b) with
      | I a, I b -> I (Ifun (fun fr -> if c fr then iget fr a else iget fr b))
      | F a, F b -> F (Ffun (fun fr -> if c fr then fget fr a else fget fr b))
      | B a, B b -> B (fun fr -> if c fr then a fr else b fr)
      | a, b ->
          let a = value a and b = value b in
          V (fun fr -> if c fr then a fr else b fr))

and cond (t : texp) : frame -> bool =
  match t with
  | I a ->
      let f = ifun a in
      fun fr -> f fr <> 0
  | F a ->
      let f = ffun a in
      fun fr -> f fr <> 0.0
  | B b -> b
  | V v -> fun fr -> truth (v fr)

(* Every use a statement makes of an expression, converted as the boxed
   interpreter converts a value there. The float form stores into an
   array cell, so that a register or constant is copied without a float
   crossing a closure boundary, where it would be boxed. *)
let views (t : texp) : cexp =
  let cv = value t and cb = cond t in
  match t with
  | I a ->
      let f = ifun a in
      { ci = f; cf = (fun fr c j -> c.(j) <- float_of_int (f fr)); cb; cv }
  | F a ->
      let f = ffun a in
      let cf =
        match a with
        | Freg i -> fun fr c j -> c.(j) <- fr.fregs.((fr.tid * fr.nf) + i)
        | Fconst x -> fun _ c j -> c.(j) <- x
        | Ffun f -> fun fr c j -> c.(j) <- f fr
        | Fop (_, into) -> into
      in
      { ci = (fun fr -> wrap32 (int_of_float (f fr))); cf; cb; cv }
  | B b ->
      {
        ci = (fun fr -> if b fr then 1 else 0);
        cf = (fun fr c j -> c.(j) <- (if b fr then 1.0 else 0.0));
        cb;
        cv;
      }
  | V v ->
      {
        ci = (fun fr -> match v fr with Value.VI i -> i | x -> Value.to_int x);
        cf =
          (fun fr c j ->
            c.(j) <- (match v fr with Value.VF f -> f | x -> Value.to_float x));
        cb;
        cv;
      }

(* ------------------------------------------------------------------ *)
(* Register writes                                                     *)
(* ------------------------------------------------------------------ *)

(* the value each lane of a warp publishes to a shuffle *)
let shfl_f = Array.make 32 0.0
let shfl_i = Array.make 32 0
let shfl_v = Array.make 32 Value.zero

let no_jump _ _ = invalid_arg "Compiled: affine iterator in a float or predicate slot"

let writer (s : slot) : writer =
  match s with
  | Float_reg i ->
      {
        set = (fun e fr -> e.cf fr fr.fregs ((fr.tid * fr.nf) + i));
        load = (fun fr _ a j -> fr.fregs.((fr.tid * fr.nf) + i) <- a.(j));
        publish = (fun e fr l -> e.cf fr shfl_f l);
        absent = (fun l -> shfl_f.(l) <- 0.0);
        take = (fun fr src -> fr.fregs.((fr.tid * fr.nf) + i) <- shfl_f.(src));
        get_int = (fun fr -> Value.norm32 (int_of_float fr.fregs.((fr.tid * fr.nf) + i)));
        jump = no_jump;
      }
  | Int_reg i ->
      {
        set = (fun e fr -> fr.iregs.((fr.tid * fr.ni) + i) <- e.ci fr);
        load =
          (fun fr _ a j ->
            fr.iregs.((fr.tid * fr.ni) + i) <- Value.norm32 (int_of_float a.(j)));
        publish = (fun e fr l -> shfl_i.(l) <- e.ci fr);
        absent = (fun l -> shfl_i.(l) <- 0);
        take = (fun fr src -> fr.iregs.((fr.tid * fr.ni) + i) <- shfl_i.(src));
        get_int = (fun fr -> fr.iregs.((fr.tid * fr.ni) + i));
        jump =
          (fun fr d ->
            let j = (fr.tid * fr.ni) + i in
            fr.iregs.(j) <- fr.iregs.(j) + d);
      }
  | Pred_reg i ->
      {
        set = (fun e fr -> fr.iregs.((fr.tid * fr.ni) + i) <- Bool.to_int (e.cb fr));
        load =
          (fun fr _ a j -> fr.iregs.((fr.tid * fr.ni) + i) <- Bool.to_int (a.(j) <> 0.0));
        publish = (fun e fr l -> shfl_i.(l) <- Bool.to_int (e.cb fr));
        absent = (fun l -> shfl_i.(l) <- 0);
        take = (fun fr src -> fr.iregs.((fr.tid * fr.ni) + i) <- shfl_i.(src));
        get_int = (fun fr -> fr.iregs.((fr.tid * fr.ni) + i));
        jump = no_jump;
      }
  | Boxed_reg i ->
      {
        set = (fun e fr -> fr.vregs.((fr.tid * fr.nv) + i) <- e.cv fr);
        load =
          (fun fr ty a j -> fr.vregs.((fr.tid * fr.nv) + i) <- Value.of_float ty a.(j));
        publish = (fun e fr l -> shfl_v.(l) <- e.cv fr);
        absent = (fun l -> shfl_v.(l) <- Value.zero);
        take = (fun fr src -> fr.vregs.((fr.tid * fr.nv) + i) <- shfl_v.(src));
        get_int = (fun fr -> Value.to_int fr.vregs.((fr.tid * fr.nv) + i));
        jump =
          (fun fr d ->
            let j = (fr.tid * fr.nv) + i in
            fr.vregs.(j) <- Value.VI (Value.to_int fr.vregs.(j) + d));
      }

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* each slot numbered densely within its bank *)
let form_of (rk : R.exp R.kernel) (kinds : skind array) : form =
  let nf = ref 0 and ni = ref 0 and nv = ref 0 in
  let next r =
    let i = !r in
    incr r;
    i
  in
  let slots =
    Array.map
      (fun kd ->
        match kd with
        | K Float -> Float_reg (next nf)
        | K Int -> Int_reg (next ni)
        | K Pred -> Pred_reg (next ni)
        | Bot | Top -> Boxed_reg (next nv))
      kinds
  in
  {
    kernel = R.map (fun e -> views (texp rk slots e)) rk;
    slots;
    writers = Array.map writer slots;
    nf = !nf;
    ni = !ni;
    nv = !nv;
  }

let compile (k : Ir.kernel) : t =
  let rk =
    R.kernel
      ~unknown:(fun what name ->
        raise
          (Compile_error (Printf.sprintf "%s: unknown %s %S" k.Ir.k_name what name)))
      (fun e -> e) k
  in
  let typed = form_of rk (infer rk) in
  (* lanes past a block's last thread publish the boxed zero, an int *)
  let full_warps = ref false in
  iter_stmts
    (fun s ->
      match s with
      | R.Shfl { sh_dst; _ } -> (
          match typed.slots.(sh_dst) with
          | Float_reg _ | Pred_reg _ -> full_warps := true
          | Int_reg _ | Boxed_reg _ -> ())
      | _ -> ())
    rk.R.rk_body;
  {
    typed;
    full_warps = !full_warps;
    boxed = lazy (form_of rk (Array.make rk.R.rk_nregs Top));
  }
