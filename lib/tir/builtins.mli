(** The paper's codelet library, in the surface syntax of this
    reproduction.

    Each unit defines one spectrum through six codelets, tagged:
    ["scalar"] (Figure 1(a)), ["compound_tiled"] and ["compound_strided"]
    (Figure 1(b)), ["coop_tree"] (Figure 1(c)), ["shared_v1"]
    (Figure 3(a)) and ["shared_v2"] (Figure 3(b)). *)

(** The [sum] reduction spectrum's source. *)
val sum_source : string

(** A [max] reduction spectrum with the same six shapes, exercising the
    atomicMax-generating paths. *)
val max_source : string

(** Memoised parse + check of a source unit.
    @raise Tir.Parser.Parse_error / {!Check.Check_error} on bad input. *)
val load : string -> (Ast.codelet * Check.info) list

val sum_unit : unit -> (Ast.codelet * Check.info) list
val max_unit : unit -> (Ast.codelet * Check.info) list
val int_sum_unit : unit -> (Ast.codelet * Check.info) list
val min_unit : unit -> (Ast.codelet * Check.info) list

(** Find the codelet with the given [__tag] in a checked unit.
    @raise Invalid_argument when absent. *)
val find_tag :
  (Ast.codelet * Check.info) list -> tag:string -> Ast.codelet * Check.info
