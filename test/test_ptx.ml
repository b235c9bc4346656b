(* PTX back-end tests: register-class inference, structural well-formedness
   of the emitted text (balanced labels, declared register banks), and the
   instruction mix expected per code version. *)

module Ir = Device_ir.Ir
module Ptx = Device_ir.Ptx

let plan = lazy (Synthesis.Planner.sum ())

let emit label = Ptx.emit_program (Synthesis.Planner.program (Lazy.force plan)
                                     (Synthesis.Version.of_figure6 label))

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_occurrences haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* labels referenced by branches vs labels defined *)
let check_labels (src : string) : unit =
  let lines = String.split_on_char '\n' src in
  let defined = Hashtbl.create 16 and referenced = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 0 && line.[String.length line - 1] = ':' then
        Hashtbl.replace defined (String.sub line 0 (String.length line - 1)) ();
      match String.index_opt line '$' with
      | Some i when string_contains line "bra" ->
          let rest = String.sub line i (String.length line - i) in
          let stop =
            match String.index_opt rest ';' with
            | Some j -> j
            | None -> String.length rest
          in
          referenced := String.sub rest 0 stop :: !referenced
      | _ -> ())
    lines;
  List.iter
    (fun l ->
      if not (Hashtbl.mem defined l) then Alcotest.failf "undefined label %s" l)
    !referenced

let structure_tests =
  [
    Alcotest.test_case "module header" `Quick (fun () ->
        let src = emit "l" in
        List.iter
          (fun s ->
            if not (string_contains src s) then Alcotest.failf "missing %S" s)
          [ ".version 6.2"; ".target sm_60"; ".address_size 64";
            ".visible .entry reduce_block"; "ret;" ]);
    Alcotest.test_case "every branched label is defined" `Quick (fun () ->
        List.iter (fun l -> check_labels (emit l)) [ "a"; "e"; "l"; "m"; "n"; "p" ]);
    Alcotest.test_case "parameters declared for arrays and scalars" `Quick (fun () ->
        let src = emit "l" in
        List.iter
          (fun s ->
            if not (string_contains src s) then Alcotest.failf "missing %S" s)
          [ ".param .u64 reduce_block_param_input_x";
            ".param .u32 reduce_block_param_SourceSize" ]);
    Alcotest.test_case "shared declarations by size class" `Quick (fun () ->
        let src = emit "l" in
        (* version (l): dynamic tree array + static 32-element partials *)
        Alcotest.(check bool) "extern shared" true
          (string_contains src ".extern .shared .align 4 .b8");
        Alcotest.(check bool) "static shared" true
          (string_contains src ".shared .align 4 .b8 csh_partial_base[128]"));
    Alcotest.test_case "register banks cover the used registers" `Quick (fun () ->
        let src = emit "p" in
        (* each class must be declared: %p, %f, %r, %rd *)
        List.iter
          (fun s ->
            if not (string_contains src s) then Alcotest.failf "missing %S" s)
          [ ".reg .pred"; ".reg .f32"; ".reg .b32"; ".reg .b64" ]);
  ]

let instruction_tests =
  [
    Alcotest.test_case "version (m) uses sync shuffles" `Quick (fun () ->
        let src = emit "m" in
        Alcotest.(check bool) "shfl.sync.down.b32" true
          (string_contains src "shfl.sync.down.b32");
        Alcotest.(check bool) "two tree loops" true
          (count_occurrences src "shfl.sync.down.b32" = 2));
    Alcotest.test_case "version (n) uses shared atomics" `Quick (fun () ->
        let src = emit "n" in
        Alcotest.(check bool) "atom/red shared add" true
          (string_contains src "red.shared.add.f32"
          || string_contains src "atom.shared.add.f32"));
    Alcotest.test_case "atomic finish hits global memory" `Quick (fun () ->
        let src = emit "l" in
        Alcotest.(check bool) "global atomic" true
          (string_contains src "red.global.add.f32"
          || string_contains src "atom.global.add.f32"));
    Alcotest.test_case "barriers are bar.sync" `Quick (fun () ->
        Alcotest.(check bool) "bar.sync" true (string_contains (emit "l") "bar.sync \t0;"));
    Alcotest.test_case "block-scope atomics carry .cta" `Quick (fun () ->
        let v =
          { Synthesis.Version.grid_pattern = Tir.Ast.Tiled;
            grid_finish = Synthesis.Version.Atomic;
            block =
              Synthesis.Version.Compound (Tir.Ast.Tiled, Synthesis.Version.F_block_atomic) }
        in
        let src = Ptx.emit_program (Synthesis.Planner.program (Lazy.force plan) v) in
        Alcotest.(check bool) ".cta scope" true
          (string_contains src ".global.cta.add.f32"));
    Alcotest.test_case "integer spectrum emits s32 arithmetic" `Quick (fun () ->
        let p = Synthesis.Planner.int_sum () in
        let src =
          Ptx.emit_program (Synthesis.Planner.program p (Synthesis.Version.of_figure6 "n"))
        in
        Alcotest.(check bool) "ld.global.u32" true (string_contains src "ld.global.u32");
        Alcotest.(check bool) "s32 shared atomic" true
          (string_contains src ".shared.add.s32"
          || string_contains src "red.shared.add.s32"));
    Alcotest.test_case "vectorized programs emit v4 loads" `Quick (fun () ->
        let p = Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 "a") in
        let p', _ = Device_ir.Vectorize.program p in
        let src = Ptx.emit_program p' in
        Alcotest.(check bool) "ld.global.v4.f32" true
          (string_contains src "ld.global.v4.f32"));
    Alcotest.test_case "unrolled programs lose their tree-loop labels" `Quick
      (fun () ->
        let p = Synthesis.Planner.program (Lazy.force plan) (Synthesis.Version.of_figure6 "m") in
        let p', _ = Device_ir.Unroll.program p in
        let rolled = Ptx.emit_program p and unrolled = Ptx.emit_program p' in
        Alcotest.(check bool) "fewer loop labels" true
          (count_occurrences unrolled "$L_loop" < count_occurrences rolled "$L_loop");
        check_labels unrolled);
  ]

(* the emitter declares each register in the class of its kind from
   the analysis the validator and the interpreter share *)
let inference_tests =
  let module A = Device_ir.Analysis in
  let kinds k =
    let kinds, errs = A.registers k in
    Alcotest.(check (list string)) "no register errors" [] errs;
    kinds
  in
  [
    Alcotest.test_case "loads type their destinations" `Quick (fun () ->
        let k =
          { Ir.k_name = "k"; k_params = []; k_arrays = [ ("f", Ir.F32); ("i", Ir.I32) ];
            k_shared = [];
            k_body =
              [ Ir.load_global "a" "f" (Ir.Int 0); Ir.load_global "b" "i" (Ir.Int 0) ];
          }
        in
        let kinds = kinds k in
        Alcotest.(check bool) "a is float" true (A.SM.find "a" kinds = A.Float);
        Alcotest.(check bool) "b is int" true (A.SM.find "b" kinds = A.Int);
        let src = Ptx.emit_kernel k in
        Alcotest.(check bool) "a loads into %f1" true
          (string_contains src "ld.global.f32 \t%f1");
        Alcotest.(check bool) "b loads into %r" true (string_contains src "ld.global.u32 \t%r"));
    Alcotest.test_case "comparisons are predicates" `Quick (fun () ->
        let k =
          { Ir.k_name = "k"; k_params = []; k_arrays = [];
            k_shared = [];
            k_body = [ Ir.let_ "p" Ir.(tid <: Int 3) ];
          }
        in
        Alcotest.(check bool) "pred" true (A.SM.find "p" (kinds k) = A.Pred));
    Alcotest.test_case "float contamination is rejected" `Quick (fun () ->
        (* acc starts as an int zero but accumulates floats inside the
           loop: a register defined at two kinds *)
        let k =
          { Ir.k_name = "k"; k_params = []; k_arrays = [ ("f", Ir.F32) ];
            k_shared = [];
            k_body =
              [
                Ir.let_ "acc" (Ir.Int 0);
                Ir.for_ "i" ~init:(Ir.Int 0)
                  ~cond:Ir.(Reg "i" <: Int 4)
                  ~step:Ir.(Reg "i" +: Int 1)
                  [
                    Ir.load_global "x" "f" (Ir.Reg "i");
                    Ir.let_ "acc" Ir.(Reg "acc" +: Reg "x");
                  ];
              ];
          }
        in
        match A.registers k with
        | _, [ e ] ->
            Alcotest.(check bool) "names acc" true (string_contains e "\"acc\"")
        | _, errs -> Alcotest.failf "expected one error, got %d" (List.length errs));
  ]

let () =
  Alcotest.run "ptx"
    [
      ("structure", structure_tests);
      ("instruction mix", instruction_tests);
      ("type inference", inference_tests);
    ]
