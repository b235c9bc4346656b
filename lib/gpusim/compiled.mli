(** Compilation of named device IR into a slot-indexed form.

    The interpreter executes every statement once per warp per block and
    every expression once per lane; name lookups and a tree walk would
    dominate its running time. This pass resolves register, parameter
    and array names to dense integer slots, compiles every expression
    once into a closure, pre-computes which structured statements contain
    a barrier, and recognises affine loops whose trip count can be
    extrapolated under sampled execution. *)

(** The state an expression reads: every thread's registers, the scalar
    parameters, the block geometry and the thread evaluating. *)
type frame = {
  regs : Value.t array array;  (** [thread][slot] *)
  params : Value.t array;
  block_dim : Value.t;
  grid_dim : Value.t;
  mutable block_idx : Value.t;
  mutable tid : int;  (** the thread an expression is evaluated for *)
}

(** A compiled expression: its value in the frame's thread [tid]. Values
    follow {!Value.binop}/{!Value.unop} exactly; the right operand of a
    binary operator is evaluated before the left, and a select evaluates
    only the arm it takes. *)
type cexp = frame -> Value.t

type array_ref = { a_space : Device_ir.Ir.space; a_slot : int }

(** Affine-loop recognition: [for (v = init; v < bound; v = v + stride)]
    with a positive constant stride and a loop-invariant bound. *)
type affine = { af_bound : cexp; af_stride : int }

type cstmt =
  | CLet of int * cexp
  | CLoad of { l_arr : array_ref; l_dst : int; l_idx : cexp }
  | CStore of { st_arr : array_ref; st_idx : cexp; st_v : cexp }
  | CVec_load of { vl_dsts : int array; vl_arr : int; vl_base : cexp }
  | CAtomic of {
      at_dst : int;  (** -1 when the old value is discarded *)
      at_arr : array_ref;
      at_op : Device_ir.Ir.atomic_op;
      at_scope : Device_ir.Ir.scope;
      at_idx : cexp;
      at_v : cexp;
    }
  | CShfl of {
      sh_dst : int;
      sh_mode : Device_ir.Ir.shuffle_mode;
      sh_v : cexp;
      sh_lane : cexp;
      sh_width : int;
    }
  | CSync
  | CIf of {
      if_cond : cexp;
      if_then : cstmt array;
      if_else : cstmt array;
      if_sync : bool;
    }
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
  ck_params : (string * Device_ir.Ir.scalar) array;
  ck_arrays : (string * Device_ir.Ir.scalar) array;
  ck_shared : Device_ir.Ir.shared_decl array;
  ck_body : cstmt array;
}

exception Compile_error of string

val compile : Device_ir.Ir.kernel -> t
