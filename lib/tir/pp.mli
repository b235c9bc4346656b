(** Pretty-printer for the Tangram codelet language.

    Prints the surface syntax back out; [Parser.parse_unit (Pp.unit_ u)]
    round-trips to an AST equal to [u] for parser-producible programs
    (a qcheck property in the test suite). The pass-introduced internal
    statements ({!Ast.Shfl_write}, {!Ast.Atomic_write}) print as the CUDA
    they become. *)

val ty : Ast.ty -> string

(** Print with minimal parenthesisation; [prec] is the surrounding
    precedence context. *)
val expr : ?prec:int -> Ast.expr -> string

val lhs : Ast.lhs -> string
val stmt : indent:int -> Ast.stmt -> string
val stmts : indent:int -> Ast.stmt list -> string
val param : Ast.param -> string
val codelet : Ast.codelet -> string
val unit_ : Ast.unit_ -> string
