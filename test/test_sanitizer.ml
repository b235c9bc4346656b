(* Race-sanitizer tests: every enumerated variant is clean, and seeded
   mutations (dropped barrier, de-atomicized accumulation, divergent
   barrier, out-of-warp shuffle) each trip the expected diagnostic. *)

module Ir = Device_ir.Ir
module Diag = Device_ir.Diag
module Race = Device_ir.Race
module P = Synthesis.Planner
module Version = Synthesis.Version

let plan = lazy (P.sum ())

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let error_codes ds = codes (Diag.errors ds)
let has_code c ds = List.mem c (codes ds)

let check_errors name ds =
  match Diag.errors ds with
  | [] -> ()
  | errs -> Alcotest.failf "%s:\n%s" name (Diag.render errs)

let find_version (pred : Ir.program -> bool) : Version.t * Ir.program =
  let p = Lazy.force plan in
  let rec go = function
    | [] -> Alcotest.fail "no version matches the predicate"
    | v :: rest -> (
        match P.program p v with
        | prog when pred prog -> (v, prog)
        | _ -> go rest
        | exception _ -> go rest)
  in
  go (Version.enumerate ())

(* ------------------------------------------------------------------ *)
(* Every enumerated variant is race-free                               *)
(* ------------------------------------------------------------------ *)

let clean_tests =
  [
    Alcotest.test_case "all enumerated sum variants are clean" `Quick (fun () ->
        List.iter
          (fun v -> check_errors (Version.name v) (P.lint (Lazy.force plan) v))
          (Version.enumerate ()));
    Alcotest.test_case "integer spectrum variants are clean too" `Quick
      (fun () ->
        let p = P.int_sum () in
        List.iter
          (fun v -> check_errors (Version.name v) (P.lint p v))
          (Version.enumerate_pruned ()));
    Alcotest.test_case "baselines pass the sanitizer" `Quick (fun () ->
        List.iter
          (fun prog -> check_errors prog.Ir.p_name (Race.check_program prog))
          [
            Baselines.Cub.program Gpusim.Arch.pascal_p100;
            Baselines.Kokkos.program Gpusim.Arch.pascal_p100;
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Seeded mutations must fire                                          *)
(* ------------------------------------------------------------------ *)

let mutation_tests =
  [
    Alcotest.test_case "dropping a load-bearing barrier is caught" `Quick
      (fun () ->
        (* a version with a shared-memory tree: at least one of its
           barriers must be load-bearing (not every barrier is — e.g. the
           one trailing the last tree iteration) *)
        let _, prog =
          find_version (fun prog ->
            Mutate.count_syncs prog >= 2
            && Mutate.stmt_exists prog (function
                 | Ir.Store { space = Ir.Shared; _ } -> true
                 | _ -> false))
        in
        let fired = ref [] in
        for i = 0 to Mutate.count_syncs prog - 1 do
          fired := error_codes (Race.check_program (Mutate.drop_sync i prog)) @ !fired
        done;
        if
          not
            (List.exists
               (fun c -> List.mem c [ "TSAN001"; "TSAN002"; "TSAN003" ])
               !fired)
        then
          Alcotest.failf "no dropped barrier raced (codes: %s)"
            (String.concat ", " (List.sort_uniq compare !fired));
        (* the classic bug — reading the other half of the tree before the
           producers stored it — is specifically a read-write race *)
        Alcotest.(check bool) "TSAN002 among them" true
          (List.mem "TSAN002" !fired));
    Alcotest.test_case "de-atomicized shared accumulation is a lost update"
      `Quick (fun () ->
        let _, prog =
          find_version
            (fun prog ->
              Mutate.stmt_exists prog (function
                | Ir.Atomic { space = Ir.Shared; _ } -> true
                | _ -> false))
        in
        let ds = Race.check_program (Mutate.de_atomicize prog) in
        if not (has_code "TSAN003" (Diag.errors ds)) then
          Alcotest.failf "expected TSAN003, got: %s"
            (String.concat ", " (error_codes ds)));
    Alcotest.test_case "divergent barrier is explained, not just rejected"
      `Quick (fun () ->
        let _, prog = find_version (fun prog -> Mutate.count_syncs prog >= 1) in
        let ds = Race.check_program (Mutate.divergent_barrier prog) in
        match
          List.find_opt
            (fun (d : Diag.t) -> d.Diag.code = "TSAN004")
            (Diag.errors ds)
        with
        | None ->
            Alcotest.failf "expected TSAN004, got: %s"
              (String.concat ", " (error_codes ds))
        | Some d ->
            Alcotest.(check bool) "mentions the deadlock" true
              (let msg = String.lowercase_ascii d.Diag.message in
               let contains n =
                 let nl = String.length n and hl = String.length msg in
                 let rec go i =
                   i + nl <= hl && (String.sub msg i nl = n || go (i + 1))
                 in
                 go 0
               in
               contains "deadlock"))
    ;
    Alcotest.test_case "out-of-warp shuffle is caught" `Quick (fun () ->
        let _, prog =
          find_version
            (fun prog ->
              Mutate.stmt_exists prog (function Ir.Shfl _ -> true | _ -> false))
        in
        let ds = Race.check_program (Mutate.widen_shuffles prog) in
        if not (has_code "TSAN005" (Diag.errors ds)) then
          Alcotest.failf "expected TSAN005, got: %s"
            (String.concat ", " (error_codes ds)));
  ]

(* ------------------------------------------------------------------ *)
(* Direct kernel-level checks                                          *)
(* ------------------------------------------------------------------ *)

let kernel ?(shared = []) body =
  { Ir.k_name = "k"; k_params = []; k_arrays = [ ("out", Ir.F32) ];
    k_shared = shared; k_body = body }

let sh n = { Ir.sh_name = "sh"; sh_ty = Ir.F32; sh_size = Ir.Static_size n }

let kernel_tests =
  [
    Alcotest.test_case "cross-warp read of fresh store races without a barrier"
      `Quick (fun () ->
        let k =
          kernel ~shared:[ sh 128 ]
            [
              Ir.store_shared "sh" Ir.tid (Ir.Float 1.0);
              Ir.load_shared "x" "sh" Ir.(tid +: Int 1);
            ]
        in
        Alcotest.(check bool) "TSAN002" true
          (has_code "TSAN002" (Race.check_kernel k)));
    Alcotest.test_case "the same exchange behind a barrier is clean" `Quick
      (fun () ->
        let k =
          kernel ~shared:[ sh 128 ]
            [
              Ir.store_shared "sh" Ir.tid (Ir.Float 1.0);
              Ir.Sync;
              Ir.load_shared "x" "sh" Ir.(tid +: Int 1);
            ]
        in
        check_errors "barriered exchange" (Race.check_kernel k));
    Alcotest.test_case "intra-warp exchange is exempt (warp-synchronous)"
      `Quick (fun () ->
        (* producer and consumer always share a warp: lockstep execution
           orders them, per the paper's Listing-4 argument *)
        let k =
          kernel ~shared:[ sh 128 ]
            [
              Ir.store_shared "sh" Ir.tid (Ir.Float 1.0);
              Ir.if_
                Ir.(lane_id <: Int 16)
                [ Ir.load_shared "x" "sh" Ir.(tid +: Int 16) ]
                [];
            ]
        in
        check_errors "intra-warp" (Race.check_kernel k));
    Alcotest.test_case "single-thread kernels cannot race" `Quick (fun () ->
        let k =
          kernel
            [
              Ir.load_global "x" "out" (Ir.Int 0);
              Ir.store_global "out" (Ir.Int 0) Ir.(Reg "x" +: Float 1.0);
            ]
        in
        check_errors "1x1" (Race.check_kernel ~block:1 ~grid:1 k);
        (* the same body with many threads is the classic lost update *)
        Alcotest.(check bool) "TSAN003 at scale" true
          (has_code "TSAN003" (Race.check_kernel k)));
    Alcotest.test_case "a store to a cell its thread loaded is a lost update"
      `Quick (fun () ->
        (* the stored constant does not come from the load, but the load
           and the store of one cell in one phase still read-modify-write
           it *)
        let k =
          kernel
            [
              Ir.load_global "x" "out" (Ir.Int 0);
              Ir.store_global "out" (Ir.Int 0) (Ir.Float 1.0);
            ]
        in
        Alcotest.(check (list string)) "error codes" [ "TSAN003" ]
          (List.sort_uniq compare (error_codes (Race.check_kernel k))));
    Alcotest.test_case "back-to-back barriers get TLINT001" `Quick (fun () ->
        let k =
          kernel ~shared:[ sh 128 ]
            [ Ir.store_shared "sh" Ir.tid (Ir.Float 0.0); Ir.Sync; Ir.Sync ]
        in
        Alcotest.(check bool) "TLINT001" true
          (has_code "TLINT001" (Race.check_kernel k));
        Alcotest.(check bool) "warning only" true
          (Diag.errors (Race.check_kernel k) = []));
    Alcotest.test_case "barrier with only intra-warp consumers gets TLINT002"
      `Quick (fun () ->
        let k =
          kernel ~shared:[ sh 128 ]
            [
              Ir.store_shared "sh" Ir.tid (Ir.Float 0.0);
              Ir.Sync;
              Ir.if_
                Ir.(tid <: Int 16)
                [ Ir.load_shared "x" "sh" Ir.tid ]
                [];
            ]
        in
        Alcotest.(check bool) "TLINT002" true
          (has_code "TLINT002" (Race.check_kernel k)));
    Alcotest.test_case "single-writer atomic gets TLINT003" `Quick (fun () ->
        let k =
          kernel
            [
              Ir.if_
                Ir.(tid =: Int 0)
                [ Ir.atomic ~space:Ir.Global ~op:Ir.A_add "out" Ir.bid (Ir.Float 1.0) ]
                [];
            ]
        in
        Alcotest.(check bool) "TLINT003" true
          (has_code "TLINT003" (Race.check_kernel k));
        (* contended accumulators must not be flagged *)
        let k2 =
          kernel
            [ Ir.atomic ~space:Ir.Global ~op:Ir.A_add "out" (Ir.Int 0) (Ir.Float 1.0) ]
        in
        Alcotest.(check bool) "contended is fine" false
          (has_code "TLINT003" (Race.check_kernel k2)));
    Alcotest.test_case "diagnostics render stably" `Quick (fun () ->
        let d =
          Diag.make ~loc:"body[3]" ~code:"TSAN001" ~severity:Diag.Error
            ~kernel:"reduce_block" "boom"
        in
        Alcotest.(check string) "text"
          "error[TSAN001] reduce_block @ body[3]: boom" (Diag.to_string d);
        Alcotest.(check string) "json"
          {|{"code":"TSAN001","severity":"error","kernel":"reduce_block","loc":"body[3]","message":"boom"}|}
          (Diag.to_json d);
        Alcotest.(check string) "summary one" "1 error" (Diag.summary [ d ]);
        Alcotest.(check string) "summary none" "clean" (Diag.summary []));
  ]

let () =
  Alcotest.run "sanitizer"
    [
      ("variants are clean", clean_tests);
      ("seeded mutations", mutation_tests);
      ("kernel-level checks", kernel_tests);
    ]
