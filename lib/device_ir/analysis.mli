(** Static analyses over the device IR: barrier placement, a
    thread-divergence taint analysis, def/use scans and register kinds.

    The divergence analysis classifies values and control-flow contexts on
    a three-point lattice: block-uniform (identical across the block),
    warp-uniform (identical within each warp, e.g. anything derived from
    [Warp_id]), and divergent. Barriers require block-uniform control;
    warp shuffles tolerate warp-uniform control. *)

module SS : Set.S with type elt = string

(** Whether a statement is (or contains) a [__syncthreads()]. {!Resolve}
    records it on every structured statement: such a statement must
    execute block-wide. *)
val contains_sync : Ir.stmt -> bool

(** The divergence lattice, ordered [Block_uniform < Warp_uniform <
    Divergent]. *)
type level = Block_uniform | Warp_uniform | Divergent

val join_level : level -> level -> level

module SM : Map.S with type key = string

(** Divergence level of an expression, given per-register levels (absent
    registers are block-uniform). *)
val exp_level : tainted:level SM.t -> Ir.exp -> level

(** Propagate divergence levels through a statement list: a register
    assigned from an expression of level L under control of level C gets
    [join L C]; registers loaded from memory are conservatively
    divergent. *)
val level_stmts : level SM.t -> Ir.stmt list -> level SM.t

val exp_uses : Ir.exp -> SS.t

(** All registers defined anywhere in a statement list, including loop
    iterators and nested definitions. *)
val all_defs : Ir.stmt list -> SS.t


(** {1 Register kinds}

    The device IR is weakly typed, like PTX virtual registers, but every
    register holds one kind of value. The validator, the interpreter's
    compiler ([Gpusim.Compiled]) and both code emitters ({!Ptx},
    {!Cuda}) take each register's kind from {!registers}. *)

type kind = Int | Float | Pred

val kind_of_scalar : Ir.scalar -> kind

(** The kind of an operator's result, following the interpreter's
    promotion ([Gpusim.Value.binop] and [unop]): int with int gives int,
    any float operand gives float, a predicate with an int gives float,
    two predicates give int, and comparisons, [Land] and [Lor] give a
    predicate. [Neg] of a predicate is a float, [Bnot] an int and [Lnot]
    a predicate. *)
val binop_kind : Ir.binop -> kind -> kind -> kind

val unop_kind : Ir.unop -> kind -> kind

(** Each register's kind, and the register errors in statement order.
    A register has the kind of its definitions: an expression's kind by
    {!binop_kind} and {!unop_kind}, a load's, vector load's or atomic's
    from the array's declared type, a parameter's from its declaration,
    and a [For] iterator is an int. Two kinds of error:
    - a register defined at two kinds; a select whose arms differ counts
      (named by the register it defines, if any);
    - a read that no definition reaches on every path: a definition in
      one branch of an [If] reaches only when the other branch makes one
      too, and a loop body's definitions reach nothing after the loop.

    Undeclared names are the validator's to report; here they read as
    ints. A register with two kinds keeps its first definition's. *)
val registers : Ir.kernel -> kind SM.t * string list
