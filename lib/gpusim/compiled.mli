(** The interpreter's instance of {!Device_ir.Resolve}'s slot-resolved
    kernel form: every expression compiled once into closures over the
    interpreter's frame.

    Register slots are typed. Each slot's kind (int, float or predicate)
    is inferred once per kernel from its definitions, following
    {!Value.binop} and {!Value.unop} exactly: int with int gives int,
    any float operand gives float, a predicate with an int gives float,
    two predicates give int, and comparisons, [Land] and [Lor] give a
    predicate. Parameter, global-array and shared-array kinds come from
    the kernel's declarations, and an affine loop's iterator is an int
    (the sampled interpreter's extrapolation jump stores one). A slot
    whose definitions disagree, or that a read can reach before its
    first write in a block (it then reads {!Value.zero}), stays boxed.
    Typed slots live unboxed in the frame's float and int banks, so the
    interpreter computes the values, traps and simulated times the boxed
    one does. *)

(** The state an expression reads: the register banks of every thread,
    the scalar parameters, the block geometry and the thread
    evaluating. Thread [t]'s slot [i] of a bank of [n] slots per thread
    is element [t * n + i]; predicates are 0 or 1 in the int bank. *)
type frame = {
  fregs : float array;
  iregs : int array;
  vregs : Value.t array;  (** the boxed slots *)
  nf : int;
  ni : int;
  nv : int;
  params : Value.t array;
  block_dim : int;
  grid_dim : int;
  mutable block_idx : int;
  mutable tid : int;  (** the thread an expression is evaluated for *)
}

(** A compiled expression, in each form a statement uses it: as an index
    ({!Value.to_int}), as the float a memory cell holds
    ({!Value.to_float}; [cf fr a i] stores it into [a.(i)], so that a
    register is copied without boxing), as a condition
    ({!Value.to_bool}) and boxed. The right operand of a binary operator
    is evaluated before the left, and a select evaluates only the arm it
    takes. *)
type cexp = {
  ci : frame -> int;
  cf : frame -> float array -> int -> unit;
  cb : frame -> bool;
  cv : frame -> Value.t;
}

type kind = Int | Float | Pred

val kind_of_scalar : Device_ir.Ir.scalar -> kind
val kind_of_value : Value.t -> kind

(** Where a register slot lives: its index in the float, int or boxed
    bank (a predicate uses the int bank). *)
type slot = Float_reg of int | Int_reg of int | Pred_reg of int | Boxed_reg of int

(** The writes to one register slot, compiled once per kernel. Each acts
    on the frame's thread [tid]. *)
type writer = {
  set : cexp -> frame -> unit;  (** evaluate an expression and store it *)
  load : frame -> Device_ir.Ir.scalar -> float array -> int -> unit;
      (** store cell [i] of a memory array of that scalar type, converted
          as {!Value.of_float} does *)
  publish : cexp -> frame -> int -> unit;
      (** evaluate a shuffle's source as lane [l]'s published value *)
  absent : int -> unit;
      (** lane [l] lies past the block's last thread: it publishes zero *)
  take : frame -> int -> unit;  (** store what lane [src] published *)
  get_int : frame -> int;  (** the value as {!Value.to_int} *)
  jump : frame -> int -> unit;
      (** add to an int slot without wrapping: an affine loop's
          extrapolation jump (iterators are never float or predicate) *)
}

(** A kernel compiled over one assignment of slots to banks. Registers
    are numbered as {!Device_ir.Resolve.kernel} numbers them; a register
    bit flip picks its target by slot. *)
type form = {
  kernel : cexp Device_ir.Resolve.kernel;
  slots : slot array;
  writers : writer array;
  nf : int;  (** float slots per thread *)
  ni : int;  (** int and predicate slots per thread *)
  nv : int;  (** boxed slots per thread *)
}

(** [typed] is the kernel with inferred slot kinds. Lanes past a block's
    last thread publish the boxed zero, an int, to a shuffle; so when a
    shuffle writes a float or predicate slot ([full_warps]), a launch
    whose last warp is partial runs [boxed], every slot boxed. *)
type t = { typed : form; full_warps : bool; boxed : form Lazy.t }

exception Compile_error of string

(** Resolve a kernel, infer its slot kinds and compile its expressions.
    @raise Compile_error on an undeclared parameter or array. *)
val compile : Device_ir.Ir.kernel -> t
