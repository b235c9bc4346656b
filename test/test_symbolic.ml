(* Symbolic shuffle engine tests: every enumerated version of every
   built-in spectrum machine-checks against the tree-loop reference,
   seeded mutations (widened shuffle, dropped barrier, de-atomicized
   update, divergent barrier) each refute with the expected TSYM code,
   the proof verdicts agree with the interpreter's ground truth, and
   proof-guided synthesis registers versions that flow through the
   planner, the service and the plan cache end to end. *)

module Ir = Device_ir.Ir
module Diag = Device_ir.Diag
module P = Synthesis.Planner
module Version = Synthesis.Version
module Prove = Symbolic.Prove
module Tolerance = Runtime.Tolerance

let sum_plan = lazy (P.sum ())
let max_plan = lazy (P.max_reduction ())
let min_plan = lazy (P.min_reduction ())
let int_plan = lazy (P.int_sum ())

let spectra =
  [ ("sum", sum_plan); ("max", max_plan); ("min", min_plan); ("int", int_plan) ]

(* ------------------------------------------------------------------ *)
(* Full proof sweep: 88 versions x 4 spectra                           *)
(* ------------------------------------------------------------------ *)

let sweep_tests =
  List.map
    (fun (name, plan) ->
      Alcotest.test_case
        (Printf.sprintf "all 88 %s versions prove" name)
        `Quick
        (fun () ->
          let plan = Lazy.force plan in
          List.iter
            (fun v ->
              match P.prove plan v with
              | Prove.Proved when name <> "sum" -> ()
              | Prove.Proved ->
                  Alcotest.failf "%s: float add proved exactly (expected \
                                  modulo reassociation)"
                    (Version.name v)
              | Prove.Proved_reassoc certs when name = "sum" ->
                  (* every certificate's measured depth must be admitted
                     by the runtime's analytic rounding model *)
                  List.iter
                    (fun (c : Prove.cert) ->
                      if not (Tolerance.admits_certificate ~version:v c) then
                        Alcotest.failf
                          "%s: certificate n=%d depth=%d not admitted"
                          (Version.name v) c.Prove.c_n c.Prove.c_depth)
                    certs
              | Prove.Proved_reassoc _ ->
                  Alcotest.failf
                    "%s: order-independent spectrum proved only modulo \
                     reassociation"
                    (Version.name v)
              | Prove.Refuted _ as verdict ->
                  Alcotest.failf "%s: %s" (Version.name v)
                    (Prove.describe verdict))
            (Version.enumerate ())))
    spectra

(* ------------------------------------------------------------------ *)
(* Seeded mutations must refute with the expected TSYM code            *)
(* ------------------------------------------------------------------ *)

let find_version (pred : Ir.program -> bool) : Ir.program =
  let p = Lazy.force sum_plan in
  let rec go = function
    | [] -> Alcotest.fail "no version matches the predicate"
    | v :: rest -> (
        match P.program p v with
        | prog when pred prog -> prog
        | _ -> go rest
        | exception _ -> go rest)
  in
  go (Version.enumerate ())

let prove_sum prog = Prove.equiv ~op:Ir.A_add ~elem:Ir.F32 prog

let mutation_tests =
  [
    Alcotest.test_case "widened shuffle refutes with TSYM004" `Quick (fun () ->
        let prog =
          find_version (fun prog ->
              Mutate.stmt_exists prog (function Ir.Shfl _ -> true | _ -> false))
        in
        let verdict = prove_sum (Mutate.widen_shuffles prog) in
        if Prove.proved verdict then
          Alcotest.fail "out-of-warp shuffle proved";
        Alcotest.(check bool) "TSYM004" true
          (List.mem "TSYM004" (Prove.codes verdict)));
    Alcotest.test_case "dropped load-bearing barrier refutes with TSYM003"
      `Quick (fun () ->
        let prog =
          find_version (fun prog ->
              Mutate.count_syncs prog >= 2
              && Mutate.stmt_exists prog (function
                   | Ir.Store { space = Ir.Shared; _ } -> true
                   | _ -> false))
        in
        let fired = ref [] in
        for i = 0 to Mutate.count_syncs prog - 1 do
          fired := Prove.codes (prove_sum (Mutate.drop_sync i prog)) @ !fired
        done;
        if not (List.mem "TSYM003" !fired) then
          Alcotest.failf "no dropped barrier tripped TSYM003 (codes: %s)"
            (String.concat ", " (List.sort_uniq compare !fired)));
    Alcotest.test_case "de-atomicized shared update is refuted" `Quick
      (fun () ->
        let prog =
          find_version (fun prog ->
              Mutate.stmt_exists prog (function
                | Ir.Atomic { space = Ir.Shared; _ } -> true
                | _ -> false))
        in
        let verdict = prove_sum (Mutate.de_atomicize prog) in
        if Prove.proved verdict then
          Alcotest.fail "lost shared update proved";
        let codes = Prove.codes verdict in
        Alcotest.(check bool) "TSYM001 or TSYM003" true
          (List.mem "TSYM001" codes || List.mem "TSYM003" codes));
    Alcotest.test_case "divergent barrier refutes with TSYM002" `Quick
      (fun () ->
        let prog = find_version (fun prog -> Mutate.count_syncs prog >= 1) in
        let verdict = prove_sum (Mutate.divergent_barrier prog) in
        if Prove.proved verdict then Alcotest.fail "divergent barrier proved";
        Alcotest.(check bool) "TSYM002" true
          (List.mem "TSYM002" (Prove.codes verdict)));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: proof verdicts vs interpreter ground truth            *)
(* ------------------------------------------------------------------ *)

(* Any proved version, run concretely, must land within the analytic
   rounding tolerance of the host reference — if the prover certified a
   version the interpreter disagrees with, one of the two is wrong. *)
let differential =
  let all = Version.enumerate () in
  let arch = Gpusim.Arch.pascal_p100 in
  QCheck.Test.make ~count:24 ~name:"proved versions match the interpreter"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 200))
    (fun (seed, n) ->
      let sname, plan = List.nth spectra (seed mod List.length spectra) in
      let plan = Lazy.force plan in
      let v = List.nth all (seed mod List.length all) in
      let input =
        Array.init n (fun i -> float_of_int (((seed / 7) + (i * 3)) land 15))
      in
      if not (Prove.proved (P.prove plan v)) then
        QCheck.Test.fail_reportf "%s/%s not proved" sname (Version.name v);
      match P.run ~arch plan ~input:(Gpusim.Runner.Dense input) v with
      | exception Gpusim.Interp.Sim_error _ -> true
      | o ->
          let expected = P.reference plan input in
          let tol =
            Tolerance.bound ~op:plan.P.op ~elem:plan.P.elem ~version:v ~n
              ~sum_abs:(Array.fold_left (fun a x -> a +. Float.abs x) 0.0 input)
              ()
          in
          Tolerance.acceptable tol ~expected ~got:o.Gpusim.Runner.result
          || QCheck.Test.fail_reportf "%s/%s: proved but got %g, expected %g"
               sname (Version.name v) o.Gpusim.Runner.result expected)

let differential_tests = [ QCheck_alcotest.to_alcotest differential ]

(* ------------------------------------------------------------------ *)
(* Proof-guided synthesis end to end                                   *)
(* ------------------------------------------------------------------ *)

let with_synthesized (f : P.synth_result -> unit) : unit =
  Version.clear_synthesized ();
  let r = P.synthesize (Lazy.force sum_plan) in
  Fun.protect ~finally:Version.clear_synthesized (fun () -> f r)

let synth_tests =
  [
    Alcotest.test_case "sweep registers >= 8 proof-checked versions" `Quick
      (fun () ->
        with_synthesized (fun r ->
            if r.P.sr_summary.Symbolic.Synth.sy_registered < 8 then
              Alcotest.failf "only %d registered (%s)"
                r.P.sr_summary.Symbolic.Synth.sy_registered
                (Symbolic.Synth.describe_summary r.P.sr_summary);
            Alcotest.(check int) "registry agrees"
              (List.length r.P.sr_registered)
              (List.length (Version.synthesized ()));
            (* the deliberately broken enumeration seeds must be refuted,
               never registered: short networks by result mismatch,
               the 64-wide network by lane geometry *)
            let refuted_codes =
              List.concat_map
                (fun (_, verdict) -> Prove.codes verdict)
                r.P.sr_verdicts
            in
            Alcotest.(check bool) "TSYM001 among refutations" true
              (List.mem "TSYM001" refuted_codes);
            Alcotest.(check bool) "TSYM004 among refutations" true
              (List.mem "TSYM004" refuted_codes)));
    Alcotest.test_case "stock enumeration is untouched by registration" `Quick
      (fun () ->
        with_synthesized (fun _ ->
            Alcotest.(check int) "88 stock versions" 88
              (List.length (Version.enumerate ()));
            Alcotest.(check int) "30 pruned survivors" 30
              (List.length (Version.enumerate_pruned ()))));
    Alcotest.test_case "a synthesized version runs and matches the reference"
      `Quick (fun () ->
        with_synthesized (fun r ->
            let plan = Lazy.force sum_plan in
            let v = List.hd r.P.sr_registered in
            let input = Array.init 999 (fun i -> float_of_int (i land 7)) in
            let o =
              P.run ~arch:Gpusim.Arch.pascal_p100 plan
                ~input:(Gpusim.Runner.Dense input) v
            in
            let expected = P.reference plan input in
            let tol =
              Tolerance.bound ~op:plan.P.op ~elem:plan.P.elem ~version:v
                ~n:(Array.length input)
                ~sum_abs:
                  (Array.fold_left (fun a x -> a +. Float.abs x) 0.0 input)
                ()
            in
            if
              not
                (Tolerance.acceptable tol ~expected
                   ~got:o.Gpusim.Runner.result)
            then
              Alcotest.failf "%s: got %g, expected %g" (Version.name v)
                o.Gpusim.Runner.result expected));
    Alcotest.test_case "service serves synthesized candidates; cache persists"
      `Quick (fun () ->
        with_synthesized (fun r ->
            let plan = Lazy.force sum_plan in
            let svc =
              Runtime.Service.create ~candidates:r.P.sr_registered plan
            in
            let input = Array.init 512 (fun i -> float_of_int (i land 7)) in
            let resp =
              Runtime.Service.submit svc
                {
                  Runtime.Service.req_arch = Gpusim.Arch.pascal_p100;
                  req_input = Gpusim.Runner.Dense input;
                }
            in
            Alcotest.(check bool) "served by a synthesized version" true
              (List.mem resp.Runtime.Service.resp_version r.P.sr_registered);
            let expected = P.reference plan input in
            let tol =
              Tolerance.bound ~op:plan.P.op ~elem:plan.P.elem
                ~version:resp.Runtime.Service.resp_version
                ~n:(Array.length input)
                ~sum_abs:
                  (Array.fold_left (fun a x -> a +. Float.abs x) 0.0 input)
                ()
            in
            Alcotest.(check bool) "value within tolerance" true
              (Tolerance.acceptable tol ~expected
                 ~got:resp.Runtime.Service.resp_value);
            (* a cache naming a synthesized version round-trips while the
               registry holds it... *)
            let tmp = Filename.temp_file "tangram_symcache" ".plan" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
              (fun () ->
                Runtime.Plan_cache.save (Runtime.Service.cache svc) tmp;
                (match Runtime.Plan_cache.load_result tmp with
                | Ok c ->
                    Alcotest.(check bool) "entries survive" true
                      (Runtime.Plan_cache.length c > 0)
                | Error msg -> Alcotest.failf "reload failed: %s" msg);
                (* ...and fails cleanly once the registry is cleared: the
                   stock name table cannot resolve an X version *)
                Version.clear_synthesized ();
                match Runtime.Plan_cache.load_result tmp with
                | Ok _ ->
                    Alcotest.fail
                      "cache with unregistered synthesized versions loaded"
                | Error _ -> ())));
  ]

(* ------------------------------------------------------------------ *)
(* Certificates and diagnostics                                        *)
(* ------------------------------------------------------------------ *)

let cert_and_diag_tests =
  [
    Alcotest.test_case "worst certificate of every sum version is admitted"
      `Quick (fun () ->
        let plan = Lazy.force sum_plan in
        List.iter
          (fun v ->
            match Prove.worst_cert (P.prove plan v) with
            | None -> Alcotest.failf "%s: no certificate" (Version.name v)
            | Some c ->
                Alcotest.(check bool) (Version.name v) true
                  (Tolerance.admits_certificate ~version:v c))
          (Version.enumerate_pruned ()));
    Alcotest.test_case "absurdly deep certificates are rejected" `Quick
      (fun () ->
        let c =
          { Prove.c_n = 33; c_tunables = []; c_depth = 1_000_000;
            c_ref_depth = 33 }
        in
        Alcotest.(check bool) "not admitted" false
          (Tolerance.admits_certificate c));
    Alcotest.test_case "refutations render as stable TSYM diagnostics" `Quick
      (fun () ->
        let verdict =
          Prove.Refuted
            [
              { Prove.f_code = "TSYM001"; f_geometry = "n=33, bsize=32";
                f_message = "boom" };
            ]
        in
        let ds = Prove.to_diags ~program:"reduce" verdict in
        Alcotest.(check string) "json"
          {|[{"code":"TSYM001","severity":"error","kernel":"reduce","loc":"n=33, bsize=32","message":"boom"}]|}
          (Diag.list_to_json ds);
        Alcotest.(check bool) "proofs yield no diagnostics" true
          (Prove.to_diags ~program:"reduce" Prove.Proved = []));
  ]

let () =
  Alcotest.run "symbolic"
    [
      ("proof sweep", sweep_tests);
      ("seeded mutations", mutation_tests);
      ("differential", differential_tests);
      ("synthesis", synth_tests);
      ("certificates and diagnostics", cert_and_diag_tests);
    ]
