(** The interpreter's instance of {!Device_ir.Resolve}'s slot-resolved
    kernel form: every expression compiled once into a closure over the
    interpreter's frame. *)

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

(** Statements and kernels in the resolver's slot form over compiled
    expressions. Registers are numbered as {!Device_ir.Resolve.kernel}
    numbers them; a register bit flip picks its target by slot. *)
type cstmt = cexp Device_ir.Resolve.stmt

type t = cexp Device_ir.Resolve.kernel

exception Compile_error of string

(** Resolve a kernel and compile its expressions.
    @raise Compile_error on an undeclared parameter or array. *)
val compile : Device_ir.Ir.kernel -> t
