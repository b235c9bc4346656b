(** S-expressions: the reader and printer behind the plan cache's
    on-disk format. The reader accepts [;]-comments and quoted atoms. *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

val sexp_to_string : sexp -> string

(** @raise Parse_error on malformed input. *)
val parse_sexp : string -> sexp
