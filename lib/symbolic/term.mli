(** Normal forms for symbolic reduction values.

    Symbolic input elements are opaque symbols; the two operator classes a
    reduction monoid admits normalise into canonical shapes — additive
    ([+]/[-]: constant + signed symbol multiset, with the combine-tree
    depth carried as a reassociation certificate) and extremal
    ([min]/[max]: optional constant + symbol set, exact because the
    operators are idempotent). Any operation outside the monoid raises
    {!Unsupported}, which the prover reports as a TSYM002 diagnostic. *)

(** Raised when an operation cannot be represented symbolically. *)
exception Unsupported of string

type add_nf = {
  a_const : float;
  a_coeffs : (int * int) list;
      (** symbol id -> signed multiplicity; sorted by id, no zero entries *)
  a_depth : int;  (** combine-tree depth: the reassociation certificate *)
}

type ext_nf = {
  e_max : bool;  (** [true] = max, [false] = min *)
  e_const : float option;
  e_syms : int list;  (** sorted, deduplicated *)
  e_depth : int;
}

type t =
  | Conc of Gpusim.Value.t  (** fully concrete *)
  | Sym of int  (** input element [x_i] *)
  | Add of add_nf
  | Ext of ext_nf
  | Poison of string  (** unrepresentable; aborts the proof only if used *)

val sym : int -> t
val poison : string -> t

(** Combine-tree depth (0 for leaves). *)
val depth : t -> int

(** Short human-readable rendering for diagnostics. *)
val describe : t -> string

(** Concretise. [what] names the position requiring a concrete value.
    @raise Unsupported if the term is symbolic or poisoned. *)
val to_value : what:string -> t -> Gpusim.Value.t

(** Apply a binary operator. Concrete operands delegate to
    {!Gpusim.Value.binop}; symbolic operands admit only the monoid
    operators ([Add]/[Sub]/[Min]/[Max]).
    @raise Unsupported otherwise. *)
val binop : Device_ir.Ir.binop -> t -> t -> t

(** @raise Unsupported on non-[Neg] symbolic operands. *)
val unop : Device_ir.Ir.unop -> t -> t

(** Fold with an atomic operation's combining function. *)
val combine : Device_ir.Ir.atomic_op -> t -> t -> t

(** Additive canonical form. @raise Unsupported on extremal/poison terms. *)
val canon_add : t -> add_nf

(** Extremal canonical form with identity-constant elision: constants that
    cannot dominate any in-domain element are dropped.
    @raise Unsupported on additive/poison terms. *)
val canon_ext : maxi:bool -> elem:Device_ir.Ir.scalar -> t -> ext_nf

val equal_add : add_nf -> add_nf -> bool
val equal_ext : ext_nf -> ext_nf -> bool
val explain_add_diff : expected:add_nf -> got:add_nf -> string
val explain_ext_diff : expected:ext_nf -> got:ext_nf -> string
