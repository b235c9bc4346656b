(** Semantic analysis for Tangram codelets.

    Beyond C-like scoping and typing, the checker validates the
    Tangram-specific rules the paper's passes rely on: partition sequences
    must agree on an access pattern; the Map atomic API applies at most
    once to a declared Map; atomic qualifiers require [__shared]; Vector
    and Array member functions are arity-checked; a spectrum call takes a
    Map or Array. It returns the per-codelet summary the synthesis planner
    consumes. *)

exception Check_error of string

(** One Map declaration's resolved structure; the pass driver reads and
    the checker fills the mutable fields ([mb_atomic] from the atomic API,
    [mb_consumer] from the spectrum call applied to this map). *)
type map_binding = {
  mb_func : string;
  mb_src : string;
  mb_n : Ast.expr;
  mb_pattern : Ast.access_pattern;
  mutable mb_atomic : Ast.atomic_kind option;
  mutable mb_consumer : string option;
}

type info = {
  ci_kind : Ast.codelet_kind;
  ci_maps : (string * map_binding) list;  (** in declaration order *)
  ci_tunables : string list;
  ci_shared : (string * Ast.ty * bool * Ast.atomic_kind option) list;
      (** name, element type, is-array, atomic qualifier *)
  ci_vector : string option;
}

(** Check a whole unit; codelets may reference any spectrum defined in it
    (including their own, for recursive decomposition), and codelets of
    one spectrum must agree on the signature. *)
val check_unit : Ast.unit_ -> (Ast.codelet * info) list
