(* S-expressions: the plan cache's on-disk format.

   The reader/printer is self-contained (sexplib0 ships only the type, not
   a parser): atoms are bare words or quoted strings with the usual
   escapes. *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Reading and printing s-expressions                                  *)
(* ------------------------------------------------------------------ *)

let atom_needs_quotes (s : string) : bool =
  s = ""
  || String.exists
       (fun c -> c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t')
       s

let print_sexp (out : Buffer.t) (s : sexp) : unit =
  let rec go ~depth s =
    match s with
    | Atom a ->
        if atom_needs_quotes a then begin
          Buffer.add_char out '"';
          String.iter
            (fun c ->
              match c with
              | '"' -> Buffer.add_string out "\\\""
              | '\\' -> Buffer.add_string out "\\\\"
              | '\n' -> Buffer.add_string out "\\n"
              | c -> Buffer.add_char out c)
            a;
          Buffer.add_char out '"'
        end
        else Buffer.add_string out a
    | List items ->
        Buffer.add_char out '(';
        List.iteri
          (fun i item ->
            if i > 0 then
              if depth <= 1 then begin
                Buffer.add_char out '\n';
                Buffer.add_string out (String.make ((depth + 1) * 2) ' ')
              end
              else Buffer.add_char out ' ';
            go ~depth:(depth + 1) item)
          items;
        Buffer.add_char out ')'
  in
  go ~depth:0 s

let sexp_to_string (s : sexp) : string =
  let b = Buffer.create 1024 in
  print_sexp b s;
  Buffer.contents b

let parse_sexp (src : string) : sexp =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        (* comment to end of line *)
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let parse_quoted () =
    advance ();
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some c -> Buffer.add_char b c
          | None -> fail "dangling escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Atom (Buffer.contents b)
  in
  let rec parse () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
        advance ();
        let items = ref [] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> fail "unbalanced parenthesis"
          | Some _ ->
              items := parse () :: !items;
              go ()
        in
        go ();
        List (List.rev !items)
    | Some '"' -> parse_quoted ()
    | Some ')' -> fail "unexpected ')'"
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && not
               (match src.[!pos] with
               | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> true
               | _ -> false)
        do
          advance ()
        done;
        Atom (String.sub src start (!pos - start))
  in
  let result = parse () in
  skip_ws ();
  if !pos <> n then fail "trailing input after the s-expression";
  result
