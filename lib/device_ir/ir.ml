(* Low-level, CUDA-like kernel IR.

   This is the common target of the Tangram synthesis pipeline: the
   [Synthesis] library lowers Tangram IR (TIR) codelet compositions to this
   representation, from which two back ends consume it:

   - {!Cuda} renders a [program] as CUDA C source text (the
     "codegen-to-CUDA" path; compare against Listings 1-4 of the paper);
   - [Gpusim] interprets it on a simulated GPU, producing both the actual
     reduction result and a cycle/byte cost estimate.

   The IR is deliberately structured (no goto, no irreducible control flow):
   kernels are statement lists over thread-local virtual registers, global
   and shared arrays, warp shuffles, atomics and barriers. *)

(** Scalar element types. [Pred] is the boolean type of comparisons. *)
type scalar = I32 | U32 | F32 | Pred [@@deriving show { with_path = false }, eq]

type binop =
  | Add | Sub | Mul | Div | Rem
  | Min | Max
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor
[@@deriving show { with_path = false }, eq]

type unop = Neg | Bnot | Lnot [@@deriving show { with_path = false }, eq]

(** Built-in per-thread coordinates, all for the x dimension (the paper's
    reduction kernels are one-dimensional). [Lane_id] and [Warp_id] are the
    usual [threadIdx.x % warpSize] / [threadIdx.x / warpSize] shorthands. *)
type special =
  | Thread_idx
  | Block_idx
  | Block_dim
  | Grid_dim
  | Warp_size
  | Lane_id
  | Warp_id
[@@deriving show { with_path = false }, eq]

type exp =
  | Int of int
  | Float of float
  | Bool of bool
  | Reg of string           (** thread-local virtual register *)
  | Param of string         (** scalar kernel parameter *)
  | Special of special
  | Unop of unop * exp
  | Binop of binop * exp * exp
  | Select of exp * exp * exp  (** [Select (c, a, b)] = [c ? a : b] *)
[@@deriving show { with_path = false }, eq]

(** The four reduction-friendly atomic operations the paper's new APIs
    expose ({i atomicAdd}, {i atomicSub}, {i atomicMax}, {i atomicMin}). *)
type atomic_op = A_add | A_sub | A_min | A_max
[@@deriving show { with_path = false }, eq]

(** Atomic scopes, introduced by the Pascal architecture (Section II-A.2).
    [Scope_block] maps to [atomicAdd_block], [Scope_device] to plain
    [atomicAdd], [Scope_system] to [atomicAdd_system]. On pre-Pascal
    architectures every atomic has device scope; the simulator prices
    narrower scopes more cheaply only when the architecture supports
    them. *)
type scope = Scope_block | Scope_device | Scope_system
[@@deriving show { with_path = false }, eq]

type shuffle_mode = Shfl_down | Shfl_up | Shfl_xor | Shfl_idx
[@@deriving show { with_path = false }, eq]

type space = Global | Shared [@@deriving show { with_path = false }, eq]

type stmt =
  | Let of string * exp
      (** [reg = exp] *)
  | Load of { dst : string; space : space; arr : string; idx : exp }
  | Store of { space : space; arr : string; idx : exp; v : exp }
  | Vec_load of { dsts : string list; arr : string; base : exp }
      (** 64/128-bit vectorized global load: [dsts.(k) <- arr.(base + k)].
          [base] must be a multiple of [List.length dsts] (validated at
          runtime by the simulator). This is the CUB-style bandwidth
          optimisation of Section IV-C.1. *)
  | Atomic of {
      dst : string option;  (** optional register receiving the old value *)
      space : space;
      op : atomic_op;
      scope : scope;
      arr : string;
      idx : exp;
      v : exp;
    }
  | Shfl of { dst : string; mode : shuffle_mode; v : exp; lane : exp; width : int }
      (** warp shuffle: every lane publishes [v]; [dst] receives the value
          published by the source lane derived from [lane] and [mode],
          within sub-warps of [width] lanes. *)
  | Sync
      (** __syncthreads() *)
  | If of exp * stmt list * stmt list
  | For of { var : string; init : exp; cond : exp; step : exp; body : stmt list }
      (** [for (var = init; cond; var = step)]; [cond] and [step] may read
          [var]. [step] is the full next-value expression, not an
          increment. *)
  | While of exp * stmt list
  | Comment of string
[@@deriving show { with_path = false }, eq]

type shared_size = Static_size of int | Dynamic_size
[@@deriving show { with_path = false }, eq]

type shared_decl = { sh_name : string; sh_ty : scalar; sh_size : shared_size }
[@@deriving show { with_path = false }, eq]

type kernel = {
  k_name : string;
  k_params : (string * scalar) list;  (** scalar parameters *)
  k_arrays : (string * scalar) list;  (** global-memory array parameters *)
  k_shared : shared_decl list;
  k_body : stmt list;
}
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Host side                                                           *)
(* ------------------------------------------------------------------ *)

(** Host-side integer expressions. Launch geometry and temporary-buffer
    sizes depend on the input length, which is only known at run time, and
    on tunable parameters (the paper's [__tunable]), which are bound by the
    autotuner; both are symbolic here. *)
type hexp =
  | H_int of int
  | H_input_size            (** [n], the number of input elements *)
  | H_tunable of string
  | H_add of hexp * hexp
  | H_sub of hexp * hexp
  | H_mul of hexp * hexp
  | H_div of hexp * hexp
  | H_ceil_div of hexp * hexp
  | H_min of hexp * hexp
  | H_max of hexp * hexp
[@@deriving show { with_path = false }, eq]

(** Kernel launch argument: either a device buffer (by name) or a scalar
    computed on the host. *)
type harg = Arg_buffer of string | Arg_scalar of hexp
[@@deriving show { with_path = false }, eq]

type buffer = {
  buf_name : string;
  buf_ty : scalar;
  buf_size : hexp;
  buf_init : float option;
      (** atomic accumulators must start at the operation's identity; the
          host initialises them to this value ([None] = uninitialised) *)
}
[@@deriving show { with_path = false }, eq]

type launch = {
  ln_kernel : string;
  ln_grid : hexp;          (** number of blocks *)
  ln_block : hexp;         (** threads per block *)
  ln_shared_elems : hexp;  (** dynamic shared memory, in elements *)
  ln_args : harg list;
}
[@@deriving show { with_path = false }, eq]

(** A complete host program: temporaries, kernels, and the launch
    sequence. The buffers ["input"] and ["output"] are implicitly bound by
    the runner; [p_result] names the buffer whose element 0 holds the final
    reduction value. *)
type program = {
  p_name : string;
  p_elem : scalar;                      (** element type of the reduction *)
  p_kernels : kernel list;
  p_buffers : buffer list;
  p_launches : launch list;
  p_tunables : (string * int list) list; (** tunable name, candidate values *)
  p_result : string;
}
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Smart constructors and small helpers                                *)
(* ------------------------------------------------------------------ *)

let int_ n = Int n
let reg r = Reg r
let param p = Param p
let tid = Special Thread_idx
let bid = Special Block_idx
let bdim = Special Block_dim
let gdim = Special Grid_dim
let warp_size = Special Warp_size
let lane_id = Special Lane_id
let warp_id = Special Warp_id

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Rem, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (Land, a, b)
let ( ||: ) a b = Binop (Lor, a, b)

let select c a b = Select (c, a, b)

let let_ r e = Let (r, e)
let load_global dst arr idx = Load { dst; space = Global; arr; idx }
let load_shared dst arr idx = Load { dst; space = Shared; arr; idx }
let store_global arr idx v = Store { space = Global; arr; idx; v }
let store_shared arr idx v = Store { space = Shared; arr; idx; v }

let atomic ?dst ~space ~op ?(scope = Scope_device) arr idx v =
  Atomic { dst; space; op; scope; arr; idx; v }

let shfl_down dst v offset ~width = Shfl { dst; mode = Shfl_down; v; lane = offset; width }
let shfl_up dst v offset ~width = Shfl { dst; mode = Shfl_up; v; lane = offset; width }
let shfl_xor dst v mask ~width = Shfl { dst; mode = Shfl_xor; v; lane = mask; width }

let if_ c t e = If (c, t, e)
let for_ var ~init ~cond ~step body = For { var; init; cond; step; body }

(** [for_halving var ~from body] builds the canonical tree-reduction loop
    [for (var = from; var > 0; var /= 2)], ubiquitous in the paper's
    codelets. *)
let for_halving var ~from body =
  For
    {
      var;
      init = from;
      cond = Binop (Gt, Reg var, Int 0);
      step = Binop (Div, Reg var, Int 2);
      body;
    }

(** Identity element of an atomic/reduction operation over a scalar type.
    Used for accumulator initialisation; [A_min]/[A_max] use the extreme
    representable values of the 32-bit type. *)
let identity_value (op : atomic_op) (ty : scalar) : float =
  let max32 = 2147483647.0 and min32 = -2147483648.0 in
  match (op, ty) with
  | (A_add | A_sub), _ -> 0.0
  | A_min, F32 -> infinity
  | A_max, F32 -> neg_infinity
  | A_min, (I32 | U32 | Pred) -> max32
  | A_max, (I32 | U32 | Pred) -> min32

(** Fold two scalars with an atomic operation's combining function (used by
    the simulator's atomic units and by reference reductions). *)
let combine (op : atomic_op) (a : float) (b : float) : float =
  match op with
  | A_add -> a +. b
  | A_sub -> a -. b
  | A_min -> Float.min a b
  | A_max -> Float.max a b

let hint n = H_int n
let hsize = H_input_size
let htun s = H_tunable s
let hceil a b = H_ceil_div (a, b)

(** Integer semantics of a binary operator (comparisons and logical
    connectives yield 0/1). [Div] and [Rem] raise [Division_by_zero] on a
    zero divisor. *)
let eval_binop (op : binop) (x : int) (y : int) : int =
  let bool_ p = if p then 1 else 0 in
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> x / y
  | Rem -> x mod y
  | Min -> min x y
  | Max -> max x y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl y
  | Shr -> x asr y
  | Eq -> bool_ (x = y)
  | Ne -> bool_ (x <> y)
  | Lt -> bool_ (x < y)
  | Le -> bool_ (x <= y)
  | Gt -> bool_ (x > y)
  | Ge -> bool_ (x >= y)
  | Land -> bool_ (x <> 0 && y <> 0)
  | Lor -> bool_ (x <> 0 || y <> 0)

(** Evaluate a host expression given the input size and tunable bindings.
    Raises [Invalid_argument] on an unbound tunable. *)
let rec eval_hexp ~n ~tunables : hexp -> int = function
  | H_int k -> k
  | H_input_size -> n
  | H_tunable name -> (
      match List.assoc_opt name tunables with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "unbound tunable %S" name))
  | H_add (a, b) -> eval_hexp ~n ~tunables a + eval_hexp ~n ~tunables b
  | H_sub (a, b) -> eval_hexp ~n ~tunables a - eval_hexp ~n ~tunables b
  | H_mul (a, b) -> eval_hexp ~n ~tunables a * eval_hexp ~n ~tunables b
  | H_div (a, b) -> eval_hexp ~n ~tunables a / eval_hexp ~n ~tunables b
  | H_ceil_div (a, b) ->
      let a = eval_hexp ~n ~tunables a and b = eval_hexp ~n ~tunables b in
      (a + b - 1) / b
  | H_min (a, b) -> min (eval_hexp ~n ~tunables a) (eval_hexp ~n ~tunables b)
  | H_max (a, b) -> max (eval_hexp ~n ~tunables a) (eval_hexp ~n ~tunables b)

(** The first and the last candidate of every tunable with candidates:
    the two geometry extremes the static checkers model. *)
let tunable_extremes (p : program) : (string * int) list * (string * int) list =
  let pick f =
    List.filter_map
      (fun (t, cands) -> match cands with [] -> None | l -> Some (t, f l))
      p.p_tunables
  in
  (pick List.hd, pick (fun l -> List.nth l (List.length l - 1)))

(** A launch's scalar parameter bindings: the i-th scalar argument feeds
    the kernel's i-th parameter (the composer's convention: buffers
    first, then scalars). A parameter whose argument is missing or that
    [eval] cannot evaluate stays unbound. *)
let launch_params (k : kernel) (ln : launch) (eval : hexp -> int option) :
    (string * int) list =
  let scalars =
    List.filter_map
      (function Arg_scalar h -> Some h | Arg_buffer _ -> None)
      ln.ln_args
  in
  List.concat
    (List.mapi
       (fun i (name, _) ->
         match Option.bind (List.nth_opt scalars i) eval with
         | Some v -> [ (name, v) ]
         | None -> [])
       k.k_params)

let find_kernel (p : program) (name : string) : kernel =
  match List.find_opt (fun k -> k.k_name = name) p.p_kernels with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "program %s: no kernel %S" p.p_name name)
