(* Serialization tests: S-expression reader edge cases. *)

module S = Device_ir.Serialize

let sexp_tests =
  let roundtrip name src expected =
    Alcotest.test_case name `Quick (fun () ->
        let parsed = S.parse_sexp src in
        if parsed <> expected then
          Alcotest.failf "parsed %s" (S.sexp_to_string parsed))
  in
  let fails name src =
    Alcotest.test_case name `Quick (fun () ->
        match S.parse_sexp src with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception S.Parse_error _ -> ())
  in
  [
    roundtrip "atom" "hello" (S.Atom "hello");
    roundtrip "empty list" "()" (S.List []);
    roundtrip "nested" "(a (b c) d)"
      (S.List [ S.Atom "a"; S.List [ S.Atom "b"; S.Atom "c" ]; S.Atom "d" ]);
    roundtrip "quoted atom with spaces" {|("a b")|} (S.List [ S.Atom "a b" ]);
    roundtrip "escapes" {|"a\"b\\c\nd"|} (S.Atom "a\"b\\c\nd");
    roundtrip "comments skipped" "(a ; comment\n b)"
      (S.List [ S.Atom "a"; S.Atom "b" ]);
    roundtrip "whitespace tolerated" "  (\n a\tb )  "
      (S.List [ S.Atom "a"; S.Atom "b" ]);
    fails "unbalanced open" "(a (b)";
    fails "unbalanced close" "a)";
    fails "trailing garbage" "(a) b";
    fails "unterminated string" {|("ab|};
    fails "empty input" "   ";
    Alcotest.test_case "printer round-trips structures" `Quick (fun () ->
        let s =
          S.List
            [ S.Atom "x y"; S.List [ S.Atom ""; S.Atom "z\"w" ]; S.Atom "plain" ]
        in
        Alcotest.(check bool) "equal" true (S.parse_sexp (S.sexp_to_string s) = s));
  ]

let () =
  Alcotest.run "serialize"
    [ ("s-expressions", sexp_tests) ]
