(** Warp-aggregated atomics — the extension the paper sketches at the end
    of Section III ("aggregate atomics [25] could be supported through the
    atomic APIs and qualifiers ... with new AST passes").

    An atomic update executed by every lane (the Figure 3(a) pattern)
    becomes a warp shuffle reduction followed by one atomic per warp,
    cutting same-address contention by the warp width. *)

type report = { aggregated : int }

(** Rewrite every qualifying atomic write; [None] when nothing qualifies
    (no Vector handle, or no all-lanes atomic at block-uniform level). *)
val apply :
  Tir.Ast.codelet * Tir.Check.info -> (Tir.Ast.codelet * report) option
