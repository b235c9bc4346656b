(* Hand-written lexer for the Tangram codelet surface syntax.

   Menhir/ocamllex are not available in this environment, and the language
   is small enough that a hand-rolled lexer gives better error positions
   anyway. Tokens carry their source position for diagnostics. *)

type pos = { line : int; col : int }

let pp_pos fmt { line; col } = Format.fprintf fmt "%d:%d" line col

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  (* keywords *)
  | KW_codelet      (* __codelet *)
  | KW_coop         (* __coop *)
  | KW_tag          (* __tag *)
  | KW_shared       (* __shared *)
  | KW_tunable      (* __tunable *)
  | KW_atomic of Ast.atomic_kind  (* _atomicAdd ... qualifier position *)
  | KW_const
  | KW_int
  | KW_unsigned
  | KW_float
  | KW_bool
  | KW_void
  | KW_if
  | KW_else
  | KW_for
  | KW_return
  | KW_true
  | KW_false
  | KW_array        (* Array *)
  | KW_vector       (* Vector *)
  | KW_sequence     (* Sequence *)
  | KW_map          (* Map *)
  | KW_partition    (* partition *)
  | KW_tiled
  | KW_strided
  (* punctuation / operators *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | DOT | QUESTION | COLON
  | LT | GT  (* also used by Array<1,T> *)
  | LE | GE | EQEQ | NE
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMPAMP | PIPEPIPE | BANG
  | AMP | PIPE | CARET | SHL | SHR
  | ASSIGN | PLUSEQ | MINUSEQ | DIVEQ | PLUSPLUS
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT f -> Printf.sprintf "float %g" f
  | KW_codelet -> "__codelet"
  | KW_coop -> "__coop"
  | KW_tag -> "__tag"
  | KW_shared -> "__shared"
  | KW_tunable -> "__tunable"
  | KW_atomic k -> "_" ^ Ast.atomic_kind_name k
  | KW_const -> "const"
  | KW_int -> "int"
  | KW_unsigned -> "unsigned"
  | KW_float -> "float"
  | KW_bool -> "bool"
  | KW_void -> "void"
  | KW_if -> "if"
  | KW_else -> "else"
  | KW_for -> "for"
  | KW_return -> "return"
  | KW_true -> "true"
  | KW_false -> "false"
  | KW_array -> "Array"
  | KW_vector -> "Vector"
  | KW_sequence -> "Sequence"
  | KW_map -> "Map"
  | KW_partition -> "partition"
  | KW_tiled -> "tiled"
  | KW_strided -> "strided"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | COMMA -> "," | SEMI -> ";" | DOT -> "." | QUESTION -> "?" | COLON -> ":"
  | LT -> "<" | GT -> ">" | LE -> "<=" | GE -> ">=" | EQEQ -> "==" | NE -> "!="
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | AMPAMP -> "&&" | PIPEPIPE -> "||" | BANG -> "!"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | SHL -> "<<" | SHR -> ">>"
  | ASSIGN -> "=" | PLUSEQ -> "+=" | MINUSEQ -> "-=" | DIVEQ -> "/="
  | PLUSPLUS -> "++"
  | EOF -> "end of input"

exception Lex_error of pos * string

let token_of_word : string -> token = function
  | "__codelet" -> KW_codelet
  | "__coop" -> KW_coop
  | "__tag" -> KW_tag
  | "__shared" -> KW_shared
  | "__tunable" -> KW_tunable
  | "_atomicAdd" -> KW_atomic Ast.At_add
  | "_atomicSub" -> KW_atomic Ast.At_sub
  | "_atomicMin" -> KW_atomic Ast.At_min
  | "_atomicMax" -> KW_atomic Ast.At_max
  | "const" -> KW_const
  | "int" -> KW_int
  | "unsigned" -> KW_unsigned
  | "float" -> KW_float
  | "bool" -> KW_bool
  | "void" -> KW_void
  | "if" -> KW_if
  | "else" -> KW_else
  | "for" -> KW_for
  | "return" -> KW_return
  | "true" -> KW_true
  | "false" -> KW_false
  | "Array" -> KW_array
  | "Vector" -> KW_vector
  | "Sequence" -> KW_sequence
  | "Map" -> KW_map
  | "partition" -> KW_partition
  | "tiled" -> KW_tiled
  | "strided" -> KW_strided
  | word -> IDENT word

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenise a complete source string. Comments are C-style ([//] and
    [/* .. */]). *)
let tokenize (src : string) : (token * pos) list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let pos i = { line = !line; col = i - !bol + 1 } in
  let emit i t = toks := (t, pos i) :: !toks in
  let rec go i =
    if i >= n then emit i EOF
    else
      let c = src.[i] in
      match c with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          incr line;
          bol := i + 1;
          go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
          let rec skip j =
            if j + 1 >= n then raise (Lex_error (pos i, "unterminated comment"))
            else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
            else begin
              if src.[j] = '\n' then begin incr line; bol := j + 1 end;
              skip (j + 1)
            end
          in
          go (skip (i + 2))
      | c when is_ident_start c ->
          let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
          let j = scan i in
          emit i (token_of_word (String.sub src i (j - i)));
          go j
      | c when is_digit c ->
          let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
          let j = scan i in
          if j < n && (src.[j] = '.' || src.[j] = 'e' || src.[j] = 'E') then begin
            let rec scan_f j =
              if j < n && (is_digit src.[j] || src.[j] = '.' || src.[j] = 'e'
                           || src.[j] = 'E' || src.[j] = '+' || src.[j] = '-')
              then scan_f (j + 1)
              else j
            in
            let k = scan_f j in
            let k = if k < n && src.[k] = 'f' then k + 1 else k in
            let text = String.sub src i (k - i) in
            let text =
              if String.length text > 0 && text.[String.length text - 1] = 'f' then
                String.sub text 0 (String.length text - 1)
              else text
            in
            match float_of_string_opt text with
            | Some f -> emit i (FLOAT f); go k
            | None -> raise (Lex_error (pos i, Printf.sprintf "bad float literal %S" text))
          end
          else begin
            emit i (INT (int_of_string (String.sub src i (j - i))));
            go j
          end
      | '(' -> emit i LPAREN; go (i + 1)
      | ')' -> emit i RPAREN; go (i + 1)
      | '{' -> emit i LBRACE; go (i + 1)
      | '}' -> emit i RBRACE; go (i + 1)
      | '[' -> emit i LBRACKET; go (i + 1)
      | ']' -> emit i RBRACKET; go (i + 1)
      | ',' -> emit i COMMA; go (i + 1)
      | ';' -> emit i SEMI; go (i + 1)
      | '.' -> emit i DOT; go (i + 1)
      | '?' -> emit i QUESTION; go (i + 1)
      | ':' -> emit i COLON; go (i + 1)
      | '+' when i + 1 < n && src.[i + 1] = '=' -> emit i PLUSEQ; go (i + 2)
      | '+' when i + 1 < n && src.[i + 1] = '+' -> emit i PLUSPLUS; go (i + 2)
      | '-' when i + 1 < n && src.[i + 1] = '=' -> emit i MINUSEQ; go (i + 2)
      | '+' -> emit i PLUS; go (i + 1)
      | '-' -> emit i MINUS; go (i + 1)
      | '*' -> emit i STAR; go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '=' -> emit i DIVEQ; go (i + 2)
      | '/' -> emit i SLASH; go (i + 1)
      | '%' -> emit i PERCENT; go (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> emit i LE; go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '<' -> emit i SHL; go (i + 2)
      | '<' -> emit i LT; go (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> emit i GE; go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '>' -> emit i SHR; go (i + 2)
      | '>' -> emit i GT; go (i + 1)
      | '=' when i + 1 < n && src.[i + 1] = '=' -> emit i EQEQ; go (i + 2)
      | '=' -> emit i ASSIGN; go (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' -> emit i NE; go (i + 2)
      | '!' -> emit i BANG; go (i + 1)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> emit i AMPAMP; go (i + 2)
      | '&' -> emit i AMP; go (i + 1)
      | '|' when i + 1 < n && src.[i + 1] = '|' -> emit i PIPEPIPE; go (i + 2)
      | '|' -> emit i PIPE; go (i + 1)
      | '^' -> emit i CARET; go (i + 1)
      | c -> raise (Lex_error (pos i, Printf.sprintf "unexpected character %C" c))
  in
  go 0;
  List.rev !toks
