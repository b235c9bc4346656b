(* Synthesis tests: search-space enumeration (Section IV-B), the Figure 6
   catalogue, lowering/composition correctness of every code version on
   every architecture, the CUDA of the paper's listings, hierarchical
   second kernels, the max spectrum, and the autotuner. *)

module V = Synthesis.Version
module P = Synthesis.Planner

let archs = Gpusim.Arch.presets

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0


let plan = lazy (P.sum ())
let max_plan = lazy (P.max_reduction ())

let input_n n = Array.init n (fun i -> float_of_int ((i * 7 mod 23) - 11))

let run_version ?(tunables = [ ("bsize", 128); ("coarsen", 4) ]) ~arch p v input =
  P.run ~arch ~tunables p ~input:(Gpusim.Runner.Dense input) v

(* -------------------------------------------------------------- *)
(* Enumeration                                                     *)
(* -------------------------------------------------------------- *)

let enumeration_tests =
  [
    Alcotest.test_case "census matches Section IV-B's structure" `Quick (fun () ->
        let c = V.census () in
        Alcotest.(check int) "total (paper: 89)" 88 c.V.total;
        Alcotest.(check int) "original framework versions" 10 c.V.original;
        Alcotest.(check int) "global-atomic-only versions" 10 c.V.global_atomic_only;
        Alcotest.(check int) "shared-atomic versions" 30 c.V.shared_atomic;
        Alcotest.(check int) "shuffle versions" 30 c.V.shuffle;
        Alcotest.(check int) "pruned survivors" 30 c.V.pruned_survivors);
    Alcotest.test_case "all pruned survivors use global atomics" `Quick (fun () ->
        List.iter
          (fun v ->
            if not (V.uses_global_atomic v) then
              Alcotest.failf "%s survives pruning without global atomics" (V.name v))
          (V.enumerate_pruned ()));
    Alcotest.test_case "no pruned survivor needs a second kernel" `Quick (fun () ->
        Alcotest.(check bool) "none" true
          (List.for_all (fun v -> not (V.needs_second_kernel v)) (V.enumerate_pruned ())));
    Alcotest.test_case "original versions are all hierarchical" `Quick (fun () ->
        List.iter
          (fun v ->
            if V.is_original v && not (V.needs_second_kernel v) then
              Alcotest.failf "original version %s does not need a second kernel"
                (V.name v))
          (V.enumerate ()));
    Alcotest.test_case "version names are unique" `Quick (fun () ->
        let names = List.map V.name (V.enumerate ()) in
        Alcotest.(check int) "unique" (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "direct cooperative schemes require tiled grids" `Quick
      (fun () ->
        List.iter
          (fun (v : V.t) ->
            match v.V.block with
            | V.Direct _ | V.Direct_global_atomic ->
                if v.V.grid_pattern <> Tir.Ast.Tiled then
                  Alcotest.failf "%s: direct scheme on a strided grid" (V.name v)
            | V.Compound _ -> ())
          (V.enumerate ()));
  ]

let figure6_tests =
  [
    Alcotest.test_case "sixteen labelled versions" `Quick (fun () ->
        Alcotest.(check int) "count" 16 (List.length V.figure6));
    Alcotest.test_case "all labels resolve and round-trip" `Quick (fun () ->
        List.iter
          (fun (label, v) ->
            Alcotest.(check (option string)) "label" (Some label) (V.figure6_label v))
          V.figure6);
    Alcotest.test_case "every Figure 6 version survives pruning" `Quick (fun () ->
        let pruned = V.enumerate_pruned () in
        List.iter
          (fun (label, v) ->
            if not (List.mem v pruned) then Alcotest.failf "fig6(%s) was pruned" label)
          V.figure6);
    Alcotest.test_case "the paper's key versions have the right shape" `Quick
      (fun () ->
        Alcotest.(check bool) "(m) = direct Vs" true
          ((V.of_figure6 "m").V.block = V.Direct V.Vs);
        Alcotest.(check bool) "(n) = direct A1" true
          ((V.of_figure6 "n").V.block = V.Direct V.A1);
        Alcotest.(check bool) "(p) = direct A2s" true
          ((V.of_figure6 "p").V.block = V.Direct V.A2s);
        Alcotest.(check bool) "(e) is the strided-grid one" true
          ((V.of_figure6 "e").V.grid_pattern = Tir.Ast.Strided));
    Alcotest.test_case "unknown label raises" `Quick (fun () ->
        match V.of_figure6 "z" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* -------------------------------------------------------------- *)
(* Correctness of all lowered versions                             *)
(* -------------------------------------------------------------- *)

let correctness_tests =
  [
    Alcotest.test_case "all 88 versions validate" `Slow (fun () ->
        (* every spectrum: the int one's finishers must not mix kinds *)
        List.iter
          (fun p ->
            List.iter
              (fun v -> Device_ir.Validate.check_program_exn (P.program p v))
              (V.enumerate ()))
          [ Lazy.force plan; Lazy.force max_plan; P.min_reduction (); P.int_sum () ]);
    Alcotest.test_case "all 88 versions compute the sum (Maxwell)" `Slow (fun () ->
        let p = Lazy.force plan in
        let input = input_n 3000 in
        let expected = P.reference p input in
        List.iter
          (fun v ->
            let o = run_version ~arch:Gpusim.Arch.maxwell_gtx980 p v input in
            if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-3 then
              Alcotest.failf "%s: %g <> %g" (V.name v) o.Gpusim.Runner.result expected)
          (V.enumerate ()));
    Alcotest.test_case "pruned set is correct on every architecture" `Slow (fun () ->
        let p = Lazy.force plan in
        let input = input_n 5000 in
        let expected = P.reference p input in
        List.iter
          (fun arch ->
            List.iter
              (fun v ->
                let o = run_version ~arch p v input in
                if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-3 then
                  Alcotest.failf "%s on %s: %g <> %g" (V.name v)
                    arch.Gpusim.Arch.generation o.Gpusim.Runner.result expected)
              (V.enumerate_pruned ()))
          archs);
    Alcotest.test_case "edge sizes: 1, 31, 32, 33, 1023, 1025" `Slow (fun () ->
        let p = Lazy.force plan in
        List.iter
          (fun n ->
            let input = input_n n in
            let expected = P.reference p input in
            List.iter
              (fun label ->
                let v = V.of_figure6 label in
                let o = run_version ~arch:Gpusim.Arch.kepler_k40c p v input in
                if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-3 then
                  Alcotest.failf "fig6(%s) n=%d: %g <> %g" label n
                    o.Gpusim.Runner.result expected)
              [ "a"; "e"; "l"; "m"; "n"; "p" ])
          [ 1; 31; 32; 33; 1023; 1025 ]);
    Alcotest.test_case "tunable sweep preserves the result" `Slow (fun () ->
        let p = Lazy.force plan in
        let input = input_n 2048 in
        let expected = P.reference p input in
        let v = V.of_figure6 "a" in
        List.iter
          (fun bsize ->
            List.iter
              (fun coarsen ->
                let o =
                  run_version ~tunables:[ ("bsize", bsize); ("coarsen", coarsen) ]
                    ~arch:Gpusim.Arch.pascal_p100 p v input
                in
                if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-3 then
                  Alcotest.failf "bsize=%d coarsen=%d: %g" bsize coarsen
                    o.Gpusim.Runner.result)
              [ 1; 8; 128 ])
          [ 32; 256; 1024 ]);
    Alcotest.test_case "max spectrum reduces correctly" `Slow (fun () ->
        let p = Lazy.force max_plan in
        let input = input_n 3000 in
        let expected = P.reference p input in
        Alcotest.(check (float 0.0)) "reference is the max"
          (Array.fold_left Float.max neg_infinity input)
          expected;
        List.iter
          (fun label ->
            let v = V.of_figure6 label in
            let o = run_version ~arch:Gpusim.Arch.maxwell_gtx980 p v input in
            if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-6 then
              Alcotest.failf "fig6(%s): %g <> %g" label o.Gpusim.Runner.result expected)
          [ "a"; "l"; "m"; "n"; "o"; "p" ]);
    Alcotest.test_case "min spectrum reduces correctly" `Slow (fun () ->
        let p = P.min_reduction () in
        let input = input_n 3000 in
        let expected = Array.fold_left Float.min infinity input in
        List.iter
          (fun label ->
            let v = V.of_figure6 label in
            let o = run_version ~arch:Gpusim.Arch.kepler_k40c p v input in
            if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-6 then
              Alcotest.failf "fig6(%s): %g <> %g" label o.Gpusim.Runner.result expected)
          [ "a"; "l"; "m"; "n"; "p" ]);
    Alcotest.test_case "integer sum spectrum is exact" `Slow (fun () ->
        let p = P.int_sum () in
        (* values large enough that float32 would lose precision *)
        let input = Array.init 4000 (fun i -> float_of_int ((i * 1_000_003) mod 700_001)) in
        let expected = Array.fold_left ( +. ) 0.0 input in
        List.iter
          (fun label ->
            let v = V.of_figure6 label in
            let o = run_version ~arch:Gpusim.Arch.pascal_p100 p v input in
            if o.Gpusim.Runner.result <> expected then
              Alcotest.failf "fig6(%s): %g <> %g" label o.Gpusim.Runner.result expected)
          [ "a"; "e"; "l"; "m"; "n"; "o"; "p" ]);
    Alcotest.test_case "integer CUDA uses int types" `Quick (fun () ->
        let p = P.int_sum () in
        let s = P.cuda_source p (V.of_figure6 "n") in
        Alcotest.(check bool) "int kernel params" true
          (string_contains s "void reduce_block(int *input_x");
        Alcotest.(check bool) "no float literals in init" false
          (string_contains s "= 0.0f"));
    Alcotest.test_case "hierarchical versions run both kernels" `Quick (fun () ->
        let p = Lazy.force plan in
        let v =
          { V.grid_pattern = Tir.Ast.Tiled; grid_finish = V.Hierarchical V.SK_tree;
            block = V.Compound (Tir.Ast.Strided, V.F_coop V.V) }
        in
        let input = input_n 4096 in
        let o = run_version ~arch:Gpusim.Arch.kepler_k40c p v input in
        Alcotest.(check int) "two launches" 2 (List.length o.Gpusim.Runner.launch_costs);
        Alcotest.(check (float 1e-3)) "result" (P.reference p input)
          o.Gpusim.Runner.result);
    Alcotest.test_case "cross-spectrum combiners: sum-of-squares" `Slow (fun () ->
        (* a non-self-combining reduction: sumsq partials must be summed by
           the combiner spectrum (return sum(map)), never squared again *)
        let source =
          {|__codelet __tag(scalar)
            float sumsq(const Array<1,float> in) {
              unsigned len = in.Size();
              float accum = 0.0;
              for (unsigned i = 0; i < len; i++) { accum += in[i] * in[i]; }
              return accum;
            }
            __codelet __tag(compound_tiled)
            float sumsq(const Array<1,float> in) {
              __tunable unsigned p;
              Sequence start(tiled); Sequence inc(tiled); Sequence end(tiled);
              Map map(sumsq, partition(in, p, start, inc, end));
              map.atomicAdd();
              return sum(map);
            }
            __codelet __coop __tag(coop_tree)
            float sumsq(const Array<1,float> in) {
              Vector vthread();
              __shared float tmp[in.Size()];
              __shared float partial[vthread.MaxSize()];
              float val = 0.0;
              val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
              tmp[vthread.ThreadId()] = val;
              for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
                val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0.0;
                tmp[vthread.ThreadId()] = val;
              }
              if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
                if (vthread.LaneId() == 0) { partial[vthread.VectorId()] = val; }
                if (vthread.VectorId() == 0) {
                  val = vthread.ThreadId() <= in.Size() / vthread.MaxSize() ? partial[vthread.LaneId()] : 0.0;
                  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
                    val += vthread.LaneId() + offset < vthread.Size() ? partial[vthread.ThreadId() + offset] : 0.0;
                    partial[vthread.ThreadId()] = val;
                  }
                }
              }
              return val;
            }
            __codelet __coop __tag(shared_v1)
            float sumsq(const Array<1,float> in) {
              Vector vthread();
              __shared _atomicAdd float tmp;
              float val = 0.0;
              val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
              tmp = val;
              return tmp;
            }
            __codelet __coop __tag(shared_v2)
            float sumsq(const Array<1,float> in) {
              Vector vthread();
              __shared _atomicAdd float partial;
              __shared float tmp[in.Size()];
              float val = 0.0;
              val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
              tmp[vthread.ThreadId()] = val;
              for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
                val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0.0;
                tmp[vthread.ThreadId()] = val;
              }
              if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
                if (vthread.LaneId() == 0) { partial = val; }
                if (vthread.VectorId() == 0) { val = partial; }
              }
              return val;
            }
          |}
          ^ Tir.Builtins.sum_source
        in
        let p = P.create (Tir.Check.check_unit (Tir.Parser.parse_unit source)) in
        Alcotest.(check string) "combiner" "sum" p.P.combiner;
        let input = input_n 3000 in
        let expected =
          Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 input
        in
        List.iter
          (fun v ->
            let o = run_version ~arch:Gpusim.Arch.maxwell_gtx980 p v input in
            if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-2 then
              Alcotest.failf "%s: %g <> %g" (V.name v) o.Gpusim.Runner.result
                expected)
          (V.enumerate_pruned ()));
    Alcotest.test_case "forward portability: Volta runs every pruned version"
      `Slow (fun () ->
        let p = Lazy.force plan in
        let input = input_n 3000 in
        let expected = P.reference p input in
        List.iter
          (fun v ->
            let o = run_version ~arch:Gpusim.Arch.volta_v100 p v input in
            if Float.abs (o.Gpusim.Runner.result -. expected) > 1e-3 then
              Alcotest.failf "%s on Volta: %g <> %g" (V.name v)
                o.Gpusim.Runner.result expected)
          (V.enumerate_pruned ()));
    Alcotest.test_case "serial second kernel" `Quick (fun () ->
        let p = Lazy.force plan in
        let v =
          { V.grid_pattern = Tir.Ast.Strided; grid_finish = V.Hierarchical V.SK_serial;
            block = V.Compound (Tir.Ast.Tiled, V.F_block_atomic) }
        in
        let input = input_n 2500 in
        let o = run_version ~arch:Gpusim.Arch.pascal_p100 p v input in
        Alcotest.(check (float 1e-3)) "result" (P.reference p input)
          o.Gpusim.Runner.result);
  ]

(* -------------------------------------------------------------- *)
(* Generated CUDA against the paper's listings                     *)
(* -------------------------------------------------------------- *)

let cuda_tests =
  let src label = P.cuda_source (Lazy.force plan) (V.of_figure6 label) in
  let has name label snippets =
    Alcotest.test_case name `Quick (fun () ->
        let s = src label in
        List.iter
          (fun snip ->
            if not (string_contains s snip) then
              Alcotest.failf "fig6(%s) CUDA lacks %S:\n%s" label snip s)
          snippets)
  in
  let lacks name label snippets =
    Alcotest.test_case name `Quick (fun () ->
        let s = src label in
        List.iter
          (fun snip ->
            if string_contains s snip then
              Alcotest.failf "fig6(%s) CUDA should not contain %S" label snip)
          snippets)
  in
  [
    has "version (l) mirrors Listing 3's structure" "l"
      [ "extern __shared__"; "__syncthreads();"; "atomicAdd(&final_out[0]" ];
    has "version (m) mirrors Listing 4 (shuffles)" "m"
      [ "__shfl_down("; "__shared__ float csh_partial[32]" ];
    lacks "version (m) drops the tmp array" "m" [ "csh_tmp" ];
    has "version (n) is the all-threads shared atomic" "n"
      [ "atomicAdd(&csh_tmp[0]" ];
    has "version (p) combines shuffles and a shared atomic" "p"
      [ "__shfl_down("; "atomicAdd(&csh_partial[0]" ];
    lacks "version (p) has no shared tree array" "p" [ "csh_tmp" ];
    has "compound versions coarsen threads" "a" [ "Coarsen" ];
    has "strided grid distribute indexes by gridDim" "e" [ "gridDim.x" ];
    has "every atomic-finish version ends in a device atomic" "a"
      [ "atomicAdd(&final_out[0]" ];
    Alcotest.test_case "block-atomic finisher uses atomicAdd_block" `Quick (fun () ->
        let v =
          { V.grid_pattern = Tir.Ast.Tiled; grid_finish = V.Atomic;
            block = V.Compound (Tir.Ast.Tiled, V.F_block_atomic) }
        in
        let s = P.cuda_source (Lazy.force plan) v in
        if not (string_contains s "atomicAdd_block(&block_accum[blockIdx.x]") then
          Alcotest.failf "missing block-scoped atomic:\n%s" s);
    Alcotest.test_case "max spectrum emits atomicMax" `Quick (fun () ->
        let s = P.cuda_source (Lazy.force max_plan) (V.of_figure6 "n") in
        Alcotest.(check bool) "atomicMax" true (string_contains s "atomicMax("));
  ]

(* -------------------------------------------------------------- *)
(* Tuner                                                           *)
(* -------------------------------------------------------------- *)

let tuner_tests =
  [
    Alcotest.test_case "tuner returns a candidate assignment" `Slow (fun () ->
        let p = Lazy.force plan in
        let cp = P.compiled p (V.of_figure6 "a") in
        let o = Synthesis.Tuner.tune ~arch:Gpusim.Arch.maxwell_gtx980 ~n:(1 lsl 20) cp in
        let bsize = List.assoc "bsize" o.Synthesis.Tuner.best in
        let coarsen = List.assoc "coarsen" o.Synthesis.Tuner.best in
        Alcotest.(check bool) "bsize candidate" true
          (List.mem bsize Synthesis.Compose.bsize_candidates);
        Alcotest.(check bool) "coarsen candidate" true
          (List.mem coarsen Synthesis.Compose.coarsen_candidates);
        Alcotest.(check bool) "best is min of sweep" true
          (List.for_all
             (fun (_, t) -> t >= o.Synthesis.Tuner.best_time_us)
             o.Synthesis.Tuner.sweep));
    Alcotest.test_case "tuner prunes oversized tiles" `Slow (fun () ->
        let p = Lazy.force plan in
        let cp = P.compiled p (V.of_figure6 "a") in
        let o = Synthesis.Tuner.tune ~arch:Gpusim.Arch.maxwell_gtx980 ~n:1024 cp in
        Alcotest.(check bool) "fewer than the full product" true
          (o.Synthesis.Tuner.evaluated
          < List.length Synthesis.Compose.bsize_candidates
            * List.length Synthesis.Compose.coarsen_candidates));
    Alcotest.test_case "direct versions only tune bsize" `Quick (fun () ->
        let p = Lazy.force plan in
        let prog = P.program p (V.of_figure6 "m") in
        Alcotest.(check (list string)) "tunables" [ "bsize" ]
          (List.map fst prog.Device_ir.Ir.p_tunables));
  ]

let () =
  Alcotest.run "synthesis"
    [
      ("enumeration (IV-B)", enumeration_tests);
      ("figure 6", figure6_tests);
      ("correctness", correctness_tests);
      ("generated CUDA", cuda_tests);
      ("tuner", tuner_tests);
    ]
