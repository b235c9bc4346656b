(* Golden-file regression tests for the code generators.

   Each file under [test/golden/] is the committed output of one
   [tangramc emit] invocation; any codegen change shows up as a readable
   diff here. To regenerate after an intentional change:

   {v
     dune exec bin/tangramc.exe -- emit -v l > test/golden/listing3_version_l.cu
     dune exec bin/tangramc.exe -- emit -v m > test/golden/listing4_version_m.cu
     dune exec bin/tangramc.exe -- emit -v o > test/golden/listing3b_version_o.cu
     dune exec bin/tangramc.exe -- emit -v m -t ptx > test/golden/version_m.ptx
     dune exec bin/tangramc.exe -- emit -v n -t ptx > test/golden/version_n.ptx
     dune exec bin/tangramc.exe -- emit -v a --vectorize > test/golden/version_a_vectorized.cu
   v}

   The two lint goldens pin every sanitizer and perf-lint warning, with
   its code, kernel and location, over the whole search space (the int
   and min spectra print byte-identical copies of them):

   {v
     dune exec bin/tangramc.exe -- lint --all-variants --spectrum sum > test/golden/lint_sum.txt
     dune exec bin/tangramc.exe -- lint --all-variants --spectrum max > test/golden/lint_max.txt
   v} *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let plan = lazy (Synthesis.Planner.sum ())

let cuda label = Synthesis.Planner.cuda_source (Lazy.force plan)
    (Synthesis.Version.of_figure6 label)

let ptx label =
  Device_ir.Ptx.emit_program
    (Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 label))

let vectorized_cuda label =
  let p = Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 label) in
  Device_ir.Cuda.emit_program (fst (Device_ir.Vectorize.program p))

(* [tangramc lint --all-variants]'s text output for one spectrum *)
let lint_all planner =
  let versions = Synthesis.Version.enumerate () in
  let diags =
    List.concat_map
      (fun v ->
        List.map
          (fun (d : Device_ir.Diag.t) ->
            { d with Device_ir.Diag.kernel =
                Synthesis.Version.name v ^ "/" ^ d.Device_ir.Diag.kernel })
          (Synthesis.Planner.lint planner v))
      versions
  in
  (if diags = [] then "" else Device_ir.Diag.render diags ^ "\n")
  ^ Printf.sprintf "%d version(s) linted: %s\n" (List.length versions)
      (Device_ir.Diag.summary diags)

(* show the first diverging line, not a wall of text *)
let check_golden name path generated =
  Alcotest.test_case name `Quick (fun () ->
      let expected = read_file path in
      if String.equal expected generated then ()
      else begin
        let el = String.split_on_char '\n' expected in
        let gl = String.split_on_char '\n' generated in
        let rec first_diff i = function
          | e :: es, g :: gs ->
              if String.equal e g then first_diff (i + 1) (es, gs) else (i, e, g)
          | e :: _, [] -> (i, e, "<end of generated output>")
          | [], g :: _ -> (i, "<end of golden file>", g)
          | [], [] -> (i, "", "")
        in
        let line, e, g = first_diff 1 (el, gl) in
        Alcotest.failf
          "%s: output changed at line %d\n  golden   : %s\n  generated: %s\n\
           (see test/test_golden.ml header for the regeneration commands)"
          path line e g
      end)

let () =
  Alcotest.run "golden"
    [
      ( "codegen",
        [
          check_golden "Listing 3 structure (version l, CUDA)"
            "golden/listing3_version_l.cu" (cuda "l");
          check_golden "Listing 4 structure (version m, CUDA)"
            "golden/listing4_version_m.cu" (cuda "m");
          check_golden "Figure 3(b) structure (version o, CUDA)"
            "golden/listing3b_version_o.cu" (cuda "o");
          check_golden "version m, PTX" "golden/version_m.ptx" (ptx "m");
          check_golden "version n, PTX" "golden/version_n.ptx" (ptx "n");
          check_golden "version a vectorized, CUDA" "golden/version_a_vectorized.cu"
            (vectorized_cuda "a");
        ] );
      ( "lint",
        [
          check_golden "every sum version, lint text" "golden/lint_sum.txt"
            (lint_all (Lazy.force plan));
          check_golden "every max version, lint text" "golden/lint_max.txt"
            (lint_all (Synthesis.Planner.max_reduction ()));
        ] );
    ]
