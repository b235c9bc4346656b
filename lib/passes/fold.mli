(** Constant folding — one of the "general transformations" in the Figure 5
    pipeline. Runs before the CUDA-specific passes so their pattern
    matchers see normalised expressions. Division by a literal zero is
    left in place (it is a runtime trap, not the folder's business). *)

val fold_expr : Tir.Ast.expr -> Tir.Ast.expr
val fold_codelet : Tir.Ast.codelet -> Tir.Ast.codelet
