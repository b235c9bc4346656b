(** The interpreter's instance of {!Device_ir.Resolve}'s slot-resolved
    kernel form: every expression compiled once into closures over the
    interpreter's frame.

    Register slots are typed. Each register's kind (int, float or
    predicate) is the one {!Device_ir.Analysis.registers} gives it, the
    rule the validator and both code emitters follow: it follows
    {!Value.binop} and {!Value.unop}, takes parameter and array kinds
    from the kernel's declarations, and makes a [For] iterator an int
    (the sampled interpreter's extrapolation jump adds to its int slot
    in place). Each slot lives unboxed in the frame's float or int bank.
    A kernel with a register defined at two kinds, or with a read that
    no definition reaches on every path, does not compile. *)

(** The state an expression reads: the register banks of every thread,
    the scalar parameters, the block geometry and the thread
    evaluating. Thread [t]'s slot [i] of a bank of [n] slots per thread
    is element [t * n + i]; predicates are 0 or 1 in the int bank. *)
type frame = {
  fregs : float array;
  iregs : int array;
  nf : int;
  ni : int;
  params : Value.t array;
  block_dim : int;
  grid_dim : int;
  mutable block_idx : int;
  mutable tid : int;  (** the thread an expression is evaluated for *)
}

(** A compiled expression, in each form a statement uses it: as an index
    ({!Value.to_int}), as the float a memory cell holds
    ({!Value.to_float}; [cf fr a i] stores it into [a.(i)], so that a
    register is copied without boxing) and as a condition
    ({!Value.to_bool}). The right operand of a binary operator is
    evaluated before the left, and a select evaluates only the arm it
    takes. *)
type cexp = {
  ci : frame -> int;
  cf : frame -> float array -> int -> unit;
  cb : frame -> bool;
}

val kind_of_value : Value.t -> Device_ir.Analysis.kind

(** Where a register slot lives: its index in the float or int bank (a
    predicate uses the int bank). *)
type slot = Float_reg of int | Int_reg of int | Pred_reg of int

(** The writes to one register slot, compiled once per kernel. Each acts
    on the frame's thread [tid]. *)
type writer = {
  set : cexp -> frame -> unit;  (** evaluate an expression and store it *)
  load : frame -> float array -> int -> unit;
      (** store cell [i] of a memory array whose type has the slot's
          kind, converted as {!Value.of_float} does *)
  publish : cexp -> frame -> int -> unit;
      (** evaluate a shuffle's source as lane [l]'s published value *)
  absent : int -> unit;
      (** lane [l] is outside the shuffle's mask or past the block's
          last thread: it publishes the slot kind's zero *)
  take : frame -> int -> unit;  (** store what lane [src] published *)
}

(** A compiled kernel. Registers are numbered as
    {!Device_ir.Resolve.kernel} numbers them; a register bit flip picks
    its target by slot. *)
type t = {
  kernel : cexp Device_ir.Resolve.kernel;
  slots : slot array;
  writers : writer array;
  nf : int;  (** float slots per thread *)
  ni : int;  (** int and predicate slots per thread *)
}

exception Compile_error of string

(** Resolve a kernel, check its registers and compile its expressions.
    @raise Compile_error on an undeclared parameter or array, and on the
    register errors of {!Device_ir.Analysis.registers}. The divergence
    rules are {!Device_ir.Validate}'s alone: the interpreter re-checks
    barrier conditions as it runs. *)
val compile : Device_ir.Ir.kernel -> t
