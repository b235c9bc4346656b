(** Machine-checked equivalence proofs for compiled reduction versions.

    A proof symbolically executes the lowered program over a fully
    symbolic input at a small matrix of concrete geometries (input sizes
    x tunable assignments) and compares the resulting normal-form term
    against the tree-loop reference fold. Int add and int/float min/max
    are proved exactly; float add/sub is proved modulo reassociation,
    with a per-geometry {!cert} recording the measured combine-tree depth
    for {!Runtime.Tolerance}'s analytic rounding model to admit. *)

(** Reassociation certificate for one proof geometry. *)
type cert = {
  c_n : int;  (** input size of the geometry *)
  c_tunables : (string * int) list;  (** tunable assignment *)
  c_depth : int;  (** measured combine-tree depth of the version's result *)
  c_ref_depth : int;  (** depth of the reference left-fold (= [c_n]) *)
}

type failure = {
  f_code : string;  (** TSYM001..TSYM004 *)
  f_geometry : string;  (** e.g. ["n=33, bsize=32"] *)
  f_message : string;
}

type verdict =
  | Proved  (** equal to the reference at every geometry, exactly *)
  | Proved_reassoc of cert list
      (** equal modulo reassociation (float add/sub), one certificate per
          geometry *)
  | Refuted of failure list

(** [equiv ~op ~elem p] proves [p] equivalent to the tree-loop reference
    reduction of [op] over [elem] elements — the combining operation
    folded left over the identity and [x_0 .. x_(n-1)] — across the
    geometry matrix (input sizes 1, 33 and 257). Total: any escape of
    the symbolic fragment refutes rather than raising. *)
val equiv :
  op:Device_ir.Ir.atomic_op ->
  elem:Device_ir.Ir.scalar ->
  Device_ir.Ir.program ->
  verdict

val proved : verdict -> bool

(** Distinct failure codes of a refutation, sorted; [[]] for proofs. *)
val codes : verdict -> string list

(** The deepest per-geometry certificate, if any. *)
val worst_cert : verdict -> cert option

(** One-line human-readable summary. *)
val describe : verdict -> string

(** Refutation failures as {!Device_ir.Diag} errors ([program] names the
    program under proof). Proofs yield no diagnostics. *)
val to_diags : program:string -> verdict -> Device_ir.Diag.t list
