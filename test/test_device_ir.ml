(* Device-IR tests: host expressions, analyses (divergence lattice,
   def/use), the validator's diagnostics, and the CUDA C emitter. *)

module Ir = Device_ir.Ir
module A = Device_ir.Analysis
module V = Device_ir.Validate

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* -------------------------------------------------------------- *)
(* Host expressions                                                *)
(* -------------------------------------------------------------- *)

let hexp_tests =
  let ev ?(n = 100) ?(tunables = [ ("b", 32) ]) h = Ir.eval_hexp ~n ~tunables h in
  [
    Alcotest.test_case "literals and size" `Quick (fun () ->
        Alcotest.(check int) "int" 7 (ev (Ir.H_int 7));
        Alcotest.(check int) "n" 100 (ev Ir.H_input_size));
    Alcotest.test_case "tunables" `Quick (fun () ->
        Alcotest.(check int) "b" 32 (ev (Ir.htun "b")));
    Alcotest.test_case "unbound tunable raises" `Quick (fun () ->
        match ev (Ir.htun "nope") with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.(check int) "add" 107 (ev (Ir.H_add (Ir.hsize, Ir.H_int 7)));
        Alcotest.(check int) "mul" 3200 (ev (Ir.H_mul (Ir.htun "b", Ir.H_int 100)));
        Alcotest.(check int) "min" 32 (ev (Ir.H_min (Ir.htun "b", Ir.hsize)));
        Alcotest.(check int) "max" 100 (ev (Ir.H_max (Ir.htun "b", Ir.hsize))));
    Alcotest.test_case "ceiling division" `Quick (fun () ->
        Alcotest.(check int) "exact" 4 (ev (Ir.hceil (Ir.H_int 128) (Ir.H_int 32)));
        Alcotest.(check int) "round up" 4 (ev (Ir.hceil (Ir.H_int 100) (Ir.H_int 32)));
        Alcotest.(check int) "one" 1 (ev (Ir.hceil (Ir.H_int 1) (Ir.H_int 32))));
    Alcotest.test_case "identity values" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "add" 0.0 (Ir.identity_value Ir.A_add Ir.F32);
        Alcotest.(check bool) "min" true (Ir.identity_value Ir.A_min Ir.F32 = infinity);
        Alcotest.(check bool) "max" true
          (Ir.identity_value Ir.A_max Ir.F32 = neg_infinity);
        Alcotest.(check (float 0.0)) "int max identity" (-2147483648.0)
          (Ir.identity_value Ir.A_max Ir.I32));
    Alcotest.test_case "combine" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "add" 5.0 (Ir.combine Ir.A_add 2.0 3.0);
        Alcotest.(check (float 0.0)) "sub" (-1.0) (Ir.combine Ir.A_sub 2.0 3.0);
        Alcotest.(check (float 0.0)) "min" 2.0 (Ir.combine Ir.A_min 2.0 3.0);
        Alcotest.(check (float 0.0)) "max" 3.0 (Ir.combine Ir.A_max 2.0 3.0));
  ]

(* -------------------------------------------------------------- *)
(* Analyses                                                        *)
(* -------------------------------------------------------------- *)

let analysis_tests =
  [
    Alcotest.test_case "expression divergence levels" `Quick (fun () ->
        let lvl e = A.exp_level ~tainted:A.SM.empty e in
        Alcotest.(check bool) "const" true (lvl (Ir.Int 3) = A.Block_uniform);
        Alcotest.(check bool) "bid" true (lvl Ir.bid = A.Block_uniform);
        Alcotest.(check bool) "warp id" true (lvl Ir.warp_id = A.Warp_uniform);
        Alcotest.(check bool) "tid" true (lvl Ir.tid = A.Divergent);
        Alcotest.(check bool) "lane" true (lvl Ir.lane_id = A.Divergent);
        Alcotest.(check bool) "join" true
          (lvl Ir.(warp_id +: Int 1) = A.Warp_uniform);
        Alcotest.(check bool) "join divergent" true
          (lvl Ir.(warp_id +: lane_id) = A.Divergent));
    Alcotest.test_case "join_level is the lattice max" `Quick (fun () ->
        let levels = [ A.Block_uniform; A.Warp_uniform; A.Divergent ] in
        let rank = function
          | A.Block_uniform -> 0
          | A.Warp_uniform -> 1
          | A.Divergent -> 2
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let j = A.join_level a b in
                Alcotest.(check int)
                  "join rank"
                  (max (rank a) (rank b))
                  (rank j);
                Alcotest.(check bool) "commutative" true (A.join_level b a = j))
              levels)
          levels;
        List.iter
          (fun a ->
            Alcotest.(check bool) "idempotent" true (A.join_level a a = a))
          levels);
    Alcotest.test_case "warp-uniform derivations stay warp-uniform" `Quick
      (fun () ->
        (* anything computed from Warp_id alone is identical within a warp;
           mixing in Lane_id or a load breaks it *)
        let m =
          A.level_stmts A.SM.empty
            [
              Ir.let_ "w" Ir.warp_id;
              Ir.let_ "w2" Ir.(Reg "w" *: Int 2);
              Ir.let_ "mix" Ir.(Reg "w2" +: Ir.lane_id);
            ]
        in
        Alcotest.(check bool) "w warp" true (A.SM.find "w" m = A.Warp_uniform);
        Alcotest.(check bool) "w2 warp" true (A.SM.find "w2" m = A.Warp_uniform);
        Alcotest.(check bool) "mix divergent" true
          (A.SM.find "mix" m = A.Divergent);
        Alcotest.(check bool) "exp over map" true
          (A.exp_level ~tainted:m Ir.(Reg "w2" +: Int 7) = A.Warp_uniform));
    Alcotest.test_case "fixpoint sees defs made later in the loop body" `Quick
      (fun () ->
        (* on the first pass "fwd" is read before the pass has seen its
           divergent definition; only the second fixpoint pass taints the
           consumer — a regression guard for the 2-pass iteration *)
        let m =
          A.level_stmts A.SM.empty
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 4)
                ~step:Ir.(Reg "i" +: Int 1)
                [
                  Ir.let_ "consumer" (Ir.Reg "fwd");
                  Ir.let_ "fwd" Ir.tid;
                ];
            ]
        in
        Alcotest.(check bool) "fwd divergent" true
          (A.SM.find "fwd" m = A.Divergent);
        Alcotest.(check bool) "consumer divergent" true
          (A.SM.find "consumer" m = A.Divergent));
    Alcotest.test_case "uniform loop keeps its iterator uniform" `Quick
      (fun () ->
        let m =
          A.level_stmts A.SM.empty
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Param "Trip")
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.let_ "x" Ir.(Reg "i" *: Int 2) ];
            ]
        in
        Alcotest.(check bool) "i uniform" true
          (A.SM.find "i" m = A.Block_uniform);
        Alcotest.(check bool) "x uniform" true
          (A.SM.find "x" m = A.Block_uniform));
    Alcotest.test_case "taint propagates through Let" `Quick (fun () ->
        let m =
          A.level_stmts A.SM.empty
            [ Ir.let_ "a" Ir.tid; Ir.let_ "b" Ir.(Reg "a" +: Int 1);
              Ir.let_ "c" (Ir.Int 5) ]
        in
        Alcotest.(check bool) "a divergent" true (A.SM.find "a" m = A.Divergent);
        Alcotest.(check bool) "b divergent" true (A.SM.find "b" m = A.Divergent);
        Alcotest.(check bool) "c uniform" true (A.SM.find "c" m = A.Block_uniform));
    Alcotest.test_case "loads taint their destination" `Quick (fun () ->
        let m =
          A.level_stmts A.SM.empty [ Ir.load_global "x" "arr" (Ir.Int 0) ]
        in
        Alcotest.(check bool) "x divergent" true (A.SM.find "x" m = A.Divergent));
    Alcotest.test_case "assignment under divergent control is tainted" `Quick
      (fun () ->
        let m =
          A.level_stmts A.SM.empty
            [ Ir.if_ Ir.(tid =: Int 0) [ Ir.let_ "u" (Ir.Int 1) ] [] ]
        in
        Alcotest.(check bool) "u divergent" true (A.SM.find "u" m = A.Divergent));
    Alcotest.test_case "loop-carried taint reaches fixed point" `Quick (fun () ->
        (* i starts uniform but is bumped by a divergent amount in the body *)
        let m =
          A.level_stmts A.SM.empty
            [
              Ir.let_ "d" Ir.lane_id;
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 10)
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.let_ "i" Ir.(Reg "i" +: Reg "d") ];
            ]
        in
        Alcotest.(check bool) "i divergent" true (A.SM.find "i" m = A.Divergent));
    Alcotest.test_case "contains_sync" `Quick (fun () ->
        Alcotest.(check bool) "plain" false (A.contains_sync (Ir.let_ "a" (Ir.Int 0)));
        Alcotest.(check bool) "sync" true (A.contains_sync Ir.Sync);
        Alcotest.(check bool) "nested" true
          (A.contains_sync (Ir.if_ (Ir.Bool true) [ Ir.Sync ] [])));
    Alcotest.test_case "all_defs" `Quick (fun () ->
        let body =
          [
            Ir.let_ "a" (Ir.Int 1);
            Ir.for_ "i" ~init:(Ir.Int 0)
              ~cond:Ir.(Reg "i" <: Int 4)
              ~step:Ir.(Reg "i" +: Int 1)
              [ Ir.let_ "b" Ir.(Reg "a" +: Reg "i") ];
          ]
        in
        Alcotest.(check bool) "defs" true
          (A.SS.equal (A.all_defs body) (A.SS.of_list [ "a"; "b"; "i" ])));
  ]

(* -------------------------------------------------------------- *)
(* Validator                                                       *)
(* -------------------------------------------------------------- *)

let kernel ?(params = []) ?(arrays = [ ("g", Ir.F32) ]) ?(shared = []) body =
  { Ir.k_name = "k"; k_params = params; k_arrays = arrays; k_shared = shared;
    k_body = body }

let valid name k =
  Alcotest.test_case name `Quick (fun () ->
      match V.check_kernel k with
      | [] -> ()
      | errs ->
          Alcotest.failf "unexpected errors: %s"
            (String.concat "; " (List.map V.error_to_string errs)))

let invalid name ~containing k =
  Alcotest.test_case name `Quick (fun () ->
      match V.check_kernel k with
      | [] -> Alcotest.fail "expected validation errors"
      | errs ->
          let all = String.concat "; " (List.map V.error_to_string errs) in
          if not (string_contains all containing) then
            Alcotest.failf "errors %S do not mention %S" all containing)

let sh name size = { Ir.sh_name = name; sh_ty = Ir.F32; sh_size = size }

(* exactly one diagnostic, a TVAL001 error naming register [reg] *)
let one_register_error name ~reg k =
  Alcotest.test_case name `Quick (fun () ->
      match V.to_diags (V.check_kernel k) with
      | [ d ] ->
          Alcotest.(check string) "code" "TVAL001" d.Device_ir.Diag.code;
          let quoted = Printf.sprintf "%S" reg in
          if not (string_contains d.Device_ir.Diag.message quoted) then
            Alcotest.failf "%S does not name %s" d.Device_ir.Diag.message quoted
      | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds))

let validator_tests =
  [
    valid "well-formed kernel"
      (kernel
         [
           Ir.let_ "i" Ir.tid;
           Ir.load_global "x" "g" (Ir.Reg "i");
           Ir.store_global "g" (Ir.Reg "i") Ir.(Reg "x" +: Int 1);
         ]);
    invalid "undeclared array" ~containing:"undeclared global array"
      (kernel [ Ir.load_global "x" "nope" (Ir.Int 0) ]);
    invalid "undeclared shared array" ~containing:"undeclared shared"
      (kernel [ Ir.load_shared "x" "s" (Ir.Int 0) ]);
    invalid "undeclared parameter" ~containing:"undeclared parameter"
      (kernel [ Ir.let_ "x" (Ir.Param "n") ]);
    invalid "register used before definition" ~containing:"before definition"
      (kernel [ Ir.let_ "x" (Ir.Reg "ghost") ]);
    invalid "branch-local definition does not escape" ~containing:"before definition"
      (kernel
         [
           Ir.if_ Ir.(tid =: Int 0) [ Ir.let_ "x" (Ir.Int 1) ] [];
           Ir.let_ "y" (Ir.Reg "x");
         ]);
    valid "definition in both branches escapes"
      (kernel
         [
           Ir.if_ Ir.(tid =: Int 0) [ Ir.let_ "x" (Ir.Int 1) ] [ Ir.let_ "x" (Ir.Int 2) ];
           Ir.let_ "y" (Ir.Reg "x");
         ]);
    invalid "loop body defs do not escape" ~containing:"before definition"
      (kernel
         [
           Ir.for_ "i" ~init:(Ir.Int 0)
             ~cond:Ir.(Reg "i" <: Int 4)
             ~step:Ir.(Reg "i" +: Int 1)
             [ Ir.let_ "x" (Ir.Int 1) ];
           Ir.let_ "y" (Ir.Reg "x");
         ]);
    one_register_error "a register defined as int and then as float" ~reg:"x"
      (kernel
         [ Ir.let_ "x" (Ir.Int 1); Ir.let_ "x" (Ir.Float 1.0); Ir.store_global "g" Ir.tid (Ir.Reg "x") ]);
    one_register_error "a select whose arms differ in kind" ~reg:"s"
      (kernel
         [
           Ir.let_ "s" Ir.(select (tid <: Int 16) (Int 1) (Float 2.5));
           Ir.store_global "g" Ir.tid (Ir.Reg "s");
         ]);
    one_register_error "a loop iterator that starts at a float" ~reg:"i"
      (kernel
         [
           Ir.for_ "i" ~init:(Ir.Float 0.0) ~cond:Ir.(Reg "i" <: Int 4)
             ~step:Ir.(Reg "i" +: Int 1)
             [ Ir.store_global "g" (Ir.Reg "i") (Ir.Float 1.0) ];
         ]);
    one_register_error "a read before any definition" ~reg:"acc"
      (kernel
         [
           Ir.let_ "acc" Ir.(Reg "acc" +: Float 1.0);
           Ir.store_global "g" Ir.tid (Ir.Reg "acc");
         ]);
    invalid "sync under divergent if" ~containing:"__syncthreads"
      (kernel [ Ir.if_ Ir.(tid =: Int 0) [ Ir.Sync ] [] ]);
    invalid "sync under warp-uniform if still illegal" ~containing:"__syncthreads"
      (kernel [ Ir.if_ Ir.(warp_id =: Int 0) [ Ir.Sync ] [] ]);
    valid "sync under block-uniform if"
      (kernel ~params:[ ("n", Ir.I32) ]
         [ Ir.if_ Ir.(Param "n" >: Int 32) [ Ir.Sync ] [] ]);
    valid "shuffle under warp-uniform if"
      (kernel
         [
           Ir.let_ "a" (Ir.Float 1.0);
           Ir.if_ Ir.(warp_id =: Int 0)
             [ Ir.shfl_down "b" (Ir.Reg "a") (Ir.Int 1) ~width:32 ]
             [];
         ]);
    invalid "shuffle under lane-divergent if" ~containing:"shuffle"
      (kernel
         [
           Ir.let_ "a" (Ir.Float 1.0);
           Ir.if_ Ir.(lane_id =: Int 0)
             [ Ir.shfl_down "b" (Ir.Reg "a") (Ir.Int 1) ~width:32 ]
             [];
         ]);
    invalid "bad shuffle width" ~containing:"width"
      (kernel [ Ir.let_ "a" (Ir.Float 1.0); Ir.shfl_down "b" (Ir.Reg "a") (Ir.Int 1) ~width:7 ]);
    invalid "bad vector arity" ~containing:"arity"
      (kernel [ Ir.Vec_load { dsts = [ "a"; "b"; "c" ]; arr = "g"; base = Ir.Int 0 } ]);
    invalid "two dynamic shared arrays" ~containing:"dynamically-sized"
      (kernel
         ~shared:[ sh "s1" Ir.Dynamic_size; sh "s2" Ir.Dynamic_size ]
         [ Ir.Sync ]);
    valid "one dynamic shared array"
      (kernel ~shared:[ sh "s1" Ir.Dynamic_size ]
         [ Ir.store_shared "s1" Ir.tid (Ir.Float 0.0) ]);
  ]

let program_tests =
  let prog ?(tunables = []) ?(buffers = []) ~launches kernels =
    {
      Ir.p_name = "p";
      p_elem = Ir.F32;
      p_kernels = kernels;
      p_buffers = buffers;
      p_launches = launches;
      p_tunables = tunables;
      p_result = "output";
    }
  in
  let k = kernel ~arrays:[ ("a", Ir.F32) ] [ Ir.store_global "a" (Ir.Int 0) (Ir.Float 1.0) ] in
  let launch ?(args = [ Ir.Arg_buffer "output" ]) name =
    { Ir.ln_kernel = name; ln_grid = Ir.H_int 1; ln_block = Ir.H_int 32;
      ln_shared_elems = Ir.H_int 0; ln_args = args }
  in
  let invalid_p name ~containing p =
    Alcotest.test_case name `Quick (fun () ->
        match V.check_program p with
        | [] -> Alcotest.fail "expected errors"
        | errs ->
            let all = String.concat "; " (List.map V.error_to_string errs) in
            if not (string_contains all containing) then
              Alcotest.failf "errors %S lack %S" all containing)
  in
  [
    Alcotest.test_case "valid program" `Quick (fun () ->
        V.check_program_exn (prog ~launches:[ launch "k" ] [ k ]));
    invalid_p "unknown kernel" ~containing:"unknown kernel"
      (prog ~launches:[ launch "ghost" ] [ k ]);
    invalid_p "argument count mismatch" ~containing:"arguments"
      (prog ~launches:[ launch ~args:[] "k" ] [ k ]);
    invalid_p "undeclared buffer" ~containing:"undeclared buffer"
      (prog ~launches:[ launch ~args:[ Ir.Arg_buffer "ghost" ] "k" ] [ k ]);
    invalid_p "undeclared tunable in launch" ~containing:"tunable"
      (prog
         ~launches:[ { (launch "k") with Ir.ln_grid = Ir.htun "ghost" } ]
         [ k ]);
    invalid_p "tunable without candidates" ~containing:"candidate"
      (prog ~tunables:[ ("b", []) ] ~launches:[ launch "k" ] [ k ]);
    invalid_p "dynamic shared passed to static kernel" ~containing:"dynamic shared"
      (prog
         ~launches:[ { (launch "k") with Ir.ln_shared_elems = Ir.H_int 64 } ]
         [ k ]);
    invalid_p "missing result buffer" ~containing:"result"
      { (prog ~launches:[ launch "k" ] [ k ]) with Ir.p_result = "ghost" };
  ]

(* -------------------------------------------------------------- *)
(* CUDA emission                                                   *)
(* -------------------------------------------------------------- *)

let cuda_tests =
  let emit ?options k = Device_ir.Cuda.emit_kernel ?options k in
  let has name snippet k =
    Alcotest.test_case name `Quick (fun () ->
        let src = emit k in
        if not (string_contains src snippet) then
          Alcotest.failf "missing %S in:\n%s" snippet src)
  in
  [
    has "kernel signature" "__global__"
      (kernel [ Ir.let_ "a" (Ir.Int 0) ]);
    has "atomic device scope" "atomicAdd(&g[0]"
      (kernel
         [ Ir.atomic ~space:Ir.Global ~op:Ir.A_add "g" (Ir.Int 0) (Ir.Float 1.0) ]);
    has "atomic block scope suffix" "atomicAdd_block"
      (kernel
         [
           Ir.atomic ~space:Ir.Global ~op:Ir.A_add ~scope:Ir.Scope_block "g" (Ir.Int 0)
             (Ir.Float 1.0);
         ]);
    has "atomic system scope suffix" "atomicMax_system"
      (kernel
         [
           Ir.atomic ~space:Ir.Global ~op:Ir.A_max ~scope:Ir.Scope_system "g" (Ir.Int 0)
             (Ir.Float 1.0);
         ]);
    has "shared atomics have no scope suffix" "atomicMin(&s[0]"
      (kernel ~shared:[ sh "s" (Ir.Static_size 1) ]
         [ Ir.atomic ~space:Ir.Shared ~op:Ir.A_min "s" (Ir.Int 0) (Ir.Float 1.0) ]);
    has "legacy shuffle" "__shfl_down(a, 1, 32)"
      (kernel [ Ir.let_ "a" (Ir.Float 0.0); Ir.shfl_down "b" (Ir.Reg "a") (Ir.Int 1) ~width:32 ]);
    has "static shared declaration" "__shared__ float s[32];"
      (kernel ~shared:[ sh "s" (Ir.Static_size 32) ]
         [ Ir.store_shared "s" Ir.tid (Ir.Float 0.0) ]);
    has "extern shared declaration" "extern __shared__ float s[];"
      (kernel ~shared:[ sh "s" Ir.Dynamic_size ]
         [ Ir.store_shared "s" Ir.tid (Ir.Float 0.0) ]);
    has "sync" "__syncthreads();" (kernel [ Ir.Sync ]);
    has "vectorized load" "float4"
      (kernel
         [ Ir.Vec_load { dsts = [ "a"; "b"; "c"; "d" ]; arr = "g"; base = Ir.Int 0 } ]);
    has "min emitted as call" "min("
      (kernel [ Ir.let_ "a" (Ir.Binop (Ir.Min, Ir.Int 1, Ir.Int 2)) ]);
    Alcotest.test_case "sync shuffle option" `Quick (fun () ->
        let k =
          kernel
            [ Ir.let_ "a" (Ir.Float 0.0); Ir.shfl_down "b" (Ir.Reg "a") (Ir.Int 1) ~width:32 ]
        in
        let src =
          emit
            ~options:{ Device_ir.Cuda.default_options with Device_ir.Cuda.sync_shuffles = true }
            k
        in
        if not (string_contains src "__shfl_down_sync(0xffffffff") then
          Alcotest.failf "missing sync shuffle in:\n%s" src);
    Alcotest.test_case "program wrapper has malloc and launches" `Quick (fun () ->
        let plan = Synthesis.Planner.sum () in
        let p = Synthesis.Planner.program plan (Synthesis.Version.of_figure6 "l") in
        let src = Device_ir.Cuda.emit_program p in
        List.iter
          (fun s ->
            if not (string_contains src s) then Alcotest.failf "missing %S" s)
          [ "cudaMalloc"; "cudaMemcpy"; "<<<"; "TGM_TUNABLE_BSIZE"; "reduce_block" ]);
  ]

(* -------------------------------------------------------------- *)
(* Loop unrolling                                                  *)
(* -------------------------------------------------------------- *)

let rec count_fors (body : Ir.stmt list) : int =
  List.fold_left
    (fun acc (s : Ir.stmt) ->
      match s with
      | Ir.For { body = b; _ } -> acc + 1 + count_fors b
      | Ir.If (_, t, e) -> acc + count_fors t + count_fors e
      | Ir.While (_, b) -> acc + count_fors b
      | _ -> acc)
    0 body

let unroll_tests =
  let module U = Device_ir.Unroll in
  [
    Alcotest.test_case "halving tree loop fully unrolls" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "acc" (Ir.Float 1.0);
              Ir.for_halving "off" ~from:(Ir.Int 16)
                [ Ir.let_ "acc" Ir.(Reg "acc" +: Reg "off") ];
              Ir.store_global "out" Ir.tid (Ir.Reg "acc");
            ]
        in
        let k', r = U.kernel k in
        Alcotest.(check int) "loops" 1 r.U.unrolled_loops;
        Alcotest.(check int) "iterations 16,8,4,2,1" 5 r.U.emitted_iterations;
        Alcotest.(check int) "no For remains" 0 (count_fors k'.Ir.k_body));
    Alcotest.test_case "parameter-bound loop is untouched" `Quick (fun () ->
        let k =
          kernel ~params:[ ("n", Ir.I32) ] ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Param "n")
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.store_global "out" (Ir.Reg "i") (Ir.Float 0.0) ];
            ]
        in
        let k', r = U.kernel k in
        Alcotest.(check int) "loops" 0 r.U.unrolled_loops;
        Alcotest.(check int) "For remains" 1 (count_fors k'.Ir.k_body));
    Alcotest.test_case "non-terminating constant loop is left alone" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 10)
                ~step:(Ir.Reg "i")  (* no progress *)
                [ Ir.store_global "out" Ir.tid (Ir.Float 0.0) ];
            ]
        in
        let _, r = U.kernel k in
        Alcotest.(check int) "loops" 0 r.U.unrolled_loops);
    Alcotest.test_case "max_trip bounds the expansion" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 1000)
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.store_global "out" Ir.tid (Ir.Float 0.0) ];
            ]
        in
        let _, r = U.kernel ~max_trip:64 k in
        Alcotest.(check int) "not unrolled" 0 r.U.unrolled_loops);
    Alcotest.test_case "nested constant loops multiply out" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 3)
                ~step:Ir.(Reg "i" +: Int 1)
                [
                  Ir.for_ "j" ~init:(Ir.Int 0)
                    ~cond:Ir.(Reg "j" <: Int 2)
                    ~step:Ir.(Reg "j" +: Int 1)
                    [ Ir.store_global "out" Ir.((Reg "i" *: Int 2) +: Reg "j") (Ir.Float 1.0) ];
                ];
            ]
        in
        let k', r = U.kernel k in
        Alcotest.(check int) "both loops" 2 r.U.unrolled_loops;
        Alcotest.(check int) "flat" 0 (count_fors k'.Ir.k_body));
    Alcotest.test_case "unrolling preserves semantics and removes branches" `Quick
      (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "acc" Ir.lane_id;
              Ir.for_halving "off" ~from:(Ir.Int 16)
                [
                  Ir.shfl_down "t" (Ir.Reg "acc") (Ir.Reg "off") ~width:32;
                  Ir.let_ "acc" Ir.(Reg "acc" +: Reg "t");
                ];
              Ir.if_ Ir.(lane_id =: Int 0)
                [ Ir.store_global "out" (Ir.Int 0) (Ir.Reg "acc") ]
                [];
            ]
        in
        let k', _ = U.kernel k in
        V.check_kernel_exn k';
        let run kk =
          let out = Array.make 1 0.0 in
          let lr =
            Gpusim.Interp.run_kernel ~arch:Gpusim.Arch.maxwell_gtx980
              ~opts:Gpusim.Interp.exact (Gpusim.Compiled.compile kk) ~grid:1
              ~block:32 ~shared_elems:0
              ~globals:[| Gpusim.Interp.make_buffer ~ty:Ir.F32 ~id:0 out |]
              ~params:[||]
          in
          (out.(0), lr.Gpusim.Interp.lr_events.Gpusim.Events.counts.t_branches)
        in
        let r0, b0 = run k and r1, b1 = run k' in
        Alcotest.(check (float 0.0)) "same result" r0 r1;
        Alcotest.(check bool) "fewer branches" true (b1 < b0));
    Alcotest.test_case "whole programs unroll" `Quick (fun () ->
        let plan = Synthesis.Planner.sum () in
        let p = Synthesis.Planner.program plan (Synthesis.Version.of_figure6 "m") in
        let p', r = U.program p in
        Alcotest.(check bool) "unrolled something" true (r.U.unrolled_loops >= 1);
        V.check_program_exn p');
  ]

(* -------------------------------------------------------------- *)
(* Vectorization                                                   *)
(* -------------------------------------------------------------- *)

let vectorize_tests =
  let module Vz = Device_ir.Vectorize in
  let fa = Alcotest.(array (float 1e-9)) in
  let serial_loop ~stride =
    (* the canonical guarded serial accumulation the lowering emits *)
    kernel ~params:[ ("n", Ir.I32); ("Trip", Ir.I32) ]
      ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
      [
        Ir.let_ "acc" (Ir.Float 0.0);
        Ir.for_ "i" ~init:(Ir.Int 0)
          ~cond:Ir.(Reg "i" <: Param "Trip")
          ~step:Ir.(Reg "i" +: Int 1)
          [
            Ir.let_ "gi" Ir.((tid *: Param "Trip") +: (Reg "i" *: Int stride));
            Ir.let_ "r" (Ir.Float 0.0);
            Ir.if_ Ir.(Reg "gi" <: Param "n") [ Ir.load_global "r" "a" (Ir.Reg "gi") ] [];
            Ir.let_ "acc" Ir.(Reg "acc" +: Reg "r");
          ];
        Ir.store_global "out" Ir.tid (Ir.Reg "acc");
      ]
  in
  (* the unit-stride shape actually produced by the lowering: BASE + i *)
  let unit_stride_loop =
    kernel ~params:[ ("n", Ir.I32); ("Trip", Ir.I32) ]
      ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
      [
        Ir.let_ "acc" (Ir.Float 0.0);
        Ir.for_ "i" ~init:(Ir.Int 0)
          ~cond:Ir.(Reg "i" <: Param "Trip")
          ~step:Ir.(Reg "i" +: Int 1)
          [
            Ir.let_ "gi" Ir.((tid *: Param "Trip") +: Reg "i");
            Ir.let_ "r" (Ir.Float 0.0);
            Ir.if_ Ir.(Reg "gi" <: Param "n") [ Ir.load_global "r" "a" (Ir.Reg "gi") ] [];
            Ir.let_ "acc" Ir.(Reg "acc" +: Reg "r");
          ];
        Ir.store_global "out" Ir.tid (Ir.Reg "acc");
      ]
  in
  let run_k k ~trip ~n =
    let a = Gpusim.Interp.make_buffer ~read_only:true ~ty:Ir.F32 ~id:0
        (Array.init n (fun i -> float_of_int (i mod 9)))
    in
    let out = Array.make 32 0.0 in
    let _ =
      Gpusim.Interp.run_kernel ~arch:Gpusim.Arch.maxwell_gtx980
        ~opts:Gpusim.Interp.exact (Gpusim.Compiled.compile k) ~grid:1 ~block:32
        ~shared_elems:0
        ~globals:[| a; Gpusim.Interp.make_buffer ~ty:Ir.F32 ~id:1 out |]
        ~params:[| Gpusim.Value.VI n; Gpusim.Value.VI trip |]
    in
    out
  in
  [
    Alcotest.test_case "unit-stride loop vectorizes" `Quick (fun () ->
        let k', r = Vz.kernel unit_stride_loop in
        Alcotest.(check int) "one loop" 1 r.Vz.vectorized_loops;
        V.check_kernel_exn k');
    Alcotest.test_case "non-unit stride is left alone" `Quick (fun () ->
        let _, r = Vz.kernel (serial_loop ~stride:2) in
        Alcotest.(check int) "none" 0 r.Vz.vectorized_loops);
    Alcotest.test_case "vectorization preserves results" `Quick (fun () ->
        (* trips that exercise the tail (non-multiple of 4) and alignment
           fallbacks (tid*trip not always a multiple of 4) *)
        List.iter
          (fun trip ->
            let n = 32 * trip in
            let k', r = Vz.kernel unit_stride_loop in
            Alcotest.(check int) "vectorized" 1 r.Vz.vectorized_loops;
            let reference = run_k unit_stride_loop ~trip ~n in
            let got = run_k k' ~trip ~n in
            Alcotest.check fa (Printf.sprintf "trip=%d" trip) reference got)
          [ 1; 3; 4; 5; 7; 8; 16; 19 ]);
    Alcotest.test_case "vectorized synthesis programs stay correct" `Quick (fun () ->
        let plan = Synthesis.Planner.sum () in
        let p = Synthesis.Planner.program plan (Synthesis.Version.of_figure6 "a") in
        let p', r = Vz.program p in
        Alcotest.(check int) "one loop" 1 r.Vz.vectorized_loops;
        V.check_program_exn p';
        let input = Array.init 5000 (fun i -> float_of_int ((i * 3 mod 11) - 5)) in
        let expected = Synthesis.Planner.reference plan input in
        let o =
          Gpusim.Runner.run ~arch:Gpusim.Arch.kepler_k40c
            ~tunables:[ ("bsize", 256); ("coarsen", 4) ]
            ~input:(Gpusim.Runner.Dense input) p'
        in
        Alcotest.(check (float 1e-3)) "result" expected o.Gpusim.Runner.result);
    Alcotest.test_case "strided-thread versions do not vectorize" `Quick (fun () ->
        let plan = Synthesis.Planner.sum () in
        let p = Synthesis.Planner.program plan (Synthesis.Version.of_figure6 "b") in
        let _, r = Vz.program p in
        Alcotest.(check int) "none" 0 r.Vz.vectorized_loops);
  ]

let () =
  Alcotest.run "device_ir"
    [
      ("host expressions", hexp_tests);
      ("analysis", analysis_tests);
      ("validator: kernels", validator_tests);
      ("validator: programs", program_tests);
      ("cuda emission", cuda_tests);
      ("loop unrolling", unroll_tests);
      ("vectorization", vectorize_tests);
    ]
