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
   registers, but every register holds one kind of value (int, float or
   predicate): {!Device_ir.Analysis.registers} gives each its kind, the
   rule the validator and both code emitters follow too, and rejects a
   register defined at two kinds or read where no definition reaches.
   Each slot lives unboxed in the frame's float or int bank; expressions
   compile to closures returning [float], [int] or [bool], and every
   register write is compiled once, per slot, into a writer. Operators
   over two kinds the typed paths leave out compute through
   {!Value.binop}, so every value, trap and simulated time is the one
   {!Value}'s promotion gives. *)

module Ir = Device_ir.Ir
module R = Device_ir.Resolve
module A = Device_ir.Analysis

(* The state an expression reads: the register banks of every thread,
   the scalar parameters, the block geometry and the thread evaluating.
   A closure of one argument is called directly, where one of two would
   go through caml_apply2. *)
type frame = {
  fregs : float array;
  iregs : int array;
  nf : int;
  ni : int;
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
}

let kind_of_value (v : Value.t) : A.kind =
  match v with Value.VI _ -> A.Int | Value.VF _ -> A.Float | Value.VB _ -> A.Pred

type slot = Float_reg of int | Int_reg of int | Pred_reg of int

type writer = {
  set : cexp -> frame -> unit;
  load : frame -> float array -> int -> unit;
  publish : cexp -> frame -> int -> unit;
  absent : int -> unit;
  take : frame -> int -> unit;
}

type t = {
  kernel : cexp R.kernel;
  slots : slot array;
  writers : writer array;
  nf : int;
  ni : int;
}

exception Compile_error of string

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

(* a compiled expression by its kind *)
type texp = I of iop | F of fop | B of (frame -> bool)

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

let texp_kind (t : texp) : A.kind =
  match t with I _ -> A.Int | F _ -> A.Float | B _ -> A.Pred

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

(* a boxed computation whose result has the statically known kind *)
let unbox (k : A.kind) (v : frame -> Value.t) : texp =
  match k with
  | A.Int -> I (Ifun (fun fr -> match v fr with Value.VI i -> i | x -> Value.to_int x))
  | A.Float ->
      F (Ffun (fun fr -> match v fr with Value.VF f -> f | x -> Value.to_float x))
  | A.Pred -> B (fun fr -> match v fr with Value.VB b -> b | x -> Value.to_bool x)

let truth (v : Value.t) : bool =
  match v with Value.VB b -> b | v -> Value.to_bool v

(* A pair of kinds the typed paths leave out goes through Value.binop;
   the right operand is evaluated before the left, so when both trap,
   the right one's message is the one reported. *)
let generic_binop (op : Ir.binop) (a : texp) (b : texp) : texp =
  let va = value a and vb = value b in
  unbox (A.binop_kind op (texp_kind a) (texp_kind b)) (fun fr ->
      let y = vb fr in
      Value.binop op (va fr) y)

(* Int with int and float with float compute unboxed, as
   Value.int_binop and Value.float_binop do, and so do the logical
   operators on two predicates; any other pair is rare and goes through
   Value.binop. *)
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
      unbox (A.unop_kind op (texp_kind a)) (fun fr -> Value.unop op (v fr))

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
      | Pred_reg i -> B (fun fr -> fr.iregs.((fr.tid * fr.ni) + i) <> 0))
  | R.Param (s, _) -> (
      match A.kind_of_scalar (snd rk.R.rk_params.(s)) with
      | A.Int ->
          I (Ifun (fun fr -> match fr.params.(s) with Value.VI i -> i | v -> Value.to_int v))
      | A.Float ->
          F (Ffun (fun fr -> match fr.params.(s) with Value.VF f -> f | v -> Value.to_float v))
      | A.Pred -> B (fun fr -> truth fr.params.(s)))
  | R.Special s -> special s
  | R.Unop (op, a) -> unop op (texp rk slots a)
  | R.Binop (op, a, b) -> binop op (texp rk slots a) (texp rk slots b)
  | R.Select (c, a, b) -> (
      let c = cond (texp rk slots c) in
      match (texp rk slots a, texp rk slots b) with
      | I a, I b -> I (Ifun (fun fr -> if c fr then iget fr a else iget fr b))
      | F a, F b -> F (Ffun (fun fr -> if c fr then fget fr a else fget fr b))
      | B a, B b -> B (fun fr -> if c fr then a fr else b fr)
      | _ -> raise (Compile_error "a select whose arms differ in kind"))

and cond (t : texp) : frame -> bool =
  match t with
  | I a ->
      let f = ifun a in
      fun fr -> f fr <> 0
  | F a ->
      let f = ffun a in
      fun fr -> f fr <> 0.0
  | B b -> b

(* Every use a statement makes of an expression, converted as
   Value.to_int, to_float and to_bool convert a value there. The float
   form stores into an array cell, so that a register or constant is
   copied without a float crossing a closure boundary, where it would be
   boxed. *)
let views (t : texp) : cexp =
  let cb = cond t in
  match t with
  | I a ->
      let f = ifun a in
      { ci = f; cf = (fun fr c j -> c.(j) <- float_of_int (f fr)); cb }
  | F a ->
      let f = ffun a in
      let cf =
        match a with
        | Freg i -> fun fr c j -> c.(j) <- fr.fregs.((fr.tid * fr.nf) + i)
        | Fconst x -> fun _ c j -> c.(j) <- x
        | Ffun f -> fun fr c j -> c.(j) <- f fr
        | Fop (_, into) -> into
      in
      { ci = (fun fr -> wrap32 (int_of_float (f fr))); cf; cb }
  | B b ->
      {
        ci = (fun fr -> if b fr then 1 else 0);
        cf = (fun fr c j -> c.(j) <- (if b fr then 1.0 else 0.0));
        cb;
      }

(* ------------------------------------------------------------------ *)
(* Register writes                                                     *)
(* ------------------------------------------------------------------ *)

(* the value each lane of a warp publishes to a shuffle *)
let shfl_f = Array.make 32 0.0
let shfl_i = Array.make 32 0

let writer (s : slot) : writer =
  match s with
  | Float_reg i ->
      {
        set = (fun e fr -> e.cf fr fr.fregs ((fr.tid * fr.nf) + i));
        load = (fun fr a j -> fr.fregs.((fr.tid * fr.nf) + i) <- a.(j));
        publish = (fun e fr l -> e.cf fr shfl_f l);
        absent = (fun l -> shfl_f.(l) <- 0.0);
        take = (fun fr src -> fr.fregs.((fr.tid * fr.nf) + i) <- shfl_f.(src));
      }
  | Int_reg i ->
      {
        set = (fun e fr -> fr.iregs.((fr.tid * fr.ni) + i) <- e.ci fr);
        load =
          (fun fr a j -> fr.iregs.((fr.tid * fr.ni) + i) <- Value.norm32 (int_of_float a.(j)));
        publish = (fun e fr l -> shfl_i.(l) <- e.ci fr);
        absent = (fun l -> shfl_i.(l) <- 0);
        take = (fun fr src -> fr.iregs.((fr.tid * fr.ni) + i) <- shfl_i.(src));
      }
  | Pred_reg i ->
      {
        set = (fun e fr -> fr.iregs.((fr.tid * fr.ni) + i) <- Bool.to_int (e.cb fr));
        load = (fun fr a j -> fr.iregs.((fr.tid * fr.ni) + i) <- Bool.to_int (a.(j) <> 0.0));
        publish = (fun e fr l -> shfl_i.(l) <- Bool.to_int (e.cb fr));
        absent = (fun l -> shfl_i.(l) <- 0);
        take = (fun fr src -> fr.iregs.((fr.tid * fr.ni) + i) <- shfl_i.(src));
      }

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Check the kernel's registers, then number each slot densely within
   its bank. *)
let compile (k : Ir.kernel) : t =
  let rk =
    R.kernel
      ~unknown:(fun what name ->
        raise
          (Compile_error (Printf.sprintf "%s: unknown %s %S" k.Ir.k_name what name)))
      (fun e -> e) k
  in
  let kinds =
    match A.registers k with
    | kinds, [] -> kinds
    | _, e :: _ -> raise (Compile_error (Printf.sprintf "%s: %s" k.Ir.k_name e))
  in
  let nf = ref 0 and ni = ref 0 in
  let next r =
    let i = !r in
    incr r;
    i
  in
  let slots =
    Array.map
      (fun name ->
        match A.SM.find name kinds with
        | A.Float -> Float_reg (next nf)
        | A.Int -> Int_reg (next ni)
        | A.Pred -> Pred_reg (next ni))
      rk.R.rk_reg_names
  in
  {
    kernel = R.map (fun e -> views (texp rk slots e)) rk;
    slots;
    writers = Array.map writer slots;
    nf = !nf;
    ni = !ni;
  }
