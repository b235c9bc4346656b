(* Static memory-access analyzer tests: coalescing classification and
   per-stride bank-conflict degrees on hand-built kernels, seeded
   mutations on the enumerated corpus (strided global load -> TPERF010,
   transposed shared index -> TPERF011, data-dependent index ->
   TPERF012), a QCheck differential property comparing static per-lane
   address predictions against interpreter-observed addresses, registry
   completeness, and a small static-vs-observed calibration check. *)

module Ir = Device_ir.Ir
module Diag = Device_ir.Diag
module Access = Device_ir.Access
module I = Gpusim.Interp
module P = Synthesis.Planner
module Version = Synthesis.Version

let arch = Gpusim.Arch.maxwell_gtx980
let plan = lazy (P.sum ())

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code c ds = List.mem c (codes ds)

(* ------------------------------------------------------------------ *)
(* Hand-built single-kernel programs                                   *)
(* ------------------------------------------------------------------ *)

let kernel ?(params = []) ?(arrays = []) ?(shared = []) body =
  { Ir.k_name = "k"; k_params = params; k_arrays = arrays; k_shared = shared;
    k_body = body }

(* wrap a kernel into a one-launch program so [Access.analyze] sees it;
   launch arguments follow [k_arrays] positionally *)
let program_of ?(grid = 1) ?(block = 64) (k : Ir.kernel) : Ir.program =
  let buffers =
    List.map
      (fun (name, ty) ->
        { Ir.buf_name = name; buf_ty = ty; buf_size = Ir.hint 4096;
          buf_init = None })
      k.Ir.k_arrays
  in
  {
    Ir.p_name = "access-test";
    p_elem = Ir.F32;
    p_kernels = [ k ];
    p_buffers = buffers;
    p_launches =
      [
        {
          Ir.ln_kernel = k.Ir.k_name;
          ln_grid = Ir.hint grid;
          ln_block = Ir.hint block;
          ln_shared_elems = Ir.hint 0;
          ln_args = List.map (fun (n, _) -> Ir.Arg_buffer n) k.Ir.k_arrays;
        };
      ];
    p_tunables = [];
    p_result =
      (match List.rev k.Ir.k_arrays with (n, _) :: _ -> n | [] -> "out");
  }

let site_of (an : Access.analysis) ~arr ~kind : Access.site =
  match
    List.find_opt
      (fun (s : Access.site) -> s.Access.s_arr = arr && s.Access.s_kind = kind)
      an.Access.an_sites
  with
  | Some s -> s
  | None ->
      Alcotest.failf "no %s site on %s (sites: %s)" (Access.kind_name kind) arr
        (String.concat ", "
           (List.map (fun (s : Access.site) -> s.Access.s_arr)
              an.Access.an_sites))

let class_name (s : Access.site) = Access.coalescing_name s.Access.s_class

(* ------------------------------------------------------------------ *)
(* Global coalescing classification                                    *)
(* ------------------------------------------------------------------ *)

let io_arrays = [ ("in", Ir.F32); ("out", Ir.F32) ]

let classify_tests =
  [
    Alcotest.test_case "in[tid] is fully coalesced, 1 transaction" `Quick
      (fun () ->
        let k =
          kernel ~arrays:io_arrays
            [
              Ir.load_global "v" "in" Ir.tid;
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let an = Access.analyze (program_of ~block:32 k) in
        let s = site_of an ~arr:"in" ~kind:Access.Ld in
        Alcotest.(check string) "class" "coalesced" (class_name s);
        Alcotest.(check int) "worst trans" 1 s.Access.s_worst_trans;
        Alcotest.(check (list string)) "no diagnostics" [] (codes an.Access.an_diags));
    Alcotest.test_case "in[2*tid] is strided(2), 2 transactions, TPERF010"
      `Quick (fun () ->
        let k =
          kernel ~arrays:io_arrays
            [
              Ir.load_global "v" "in" Ir.(tid *: Int 2);
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let an = Access.analyze (program_of ~block:32 k) in
        let s = site_of an ~arr:"in" ~kind:Access.Ld in
        Alcotest.(check string) "class" "strided(2)" (class_name s);
        Alcotest.(check int) "worst trans" 2 s.Access.s_worst_trans;
        Alcotest.(check bool) "TPERF010" true
          (has_code "TPERF010" an.Access.an_diags));
    Alcotest.test_case "in[0] is a uniform broadcast, 1 transaction" `Quick
      (fun () ->
        let k =
          kernel ~arrays:io_arrays
            [
              Ir.load_global "v" "in" (Ir.Int 0);
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let an = Access.analyze (program_of ~block:32 k) in
        let s = site_of an ~arr:"in" ~kind:Access.Ld in
        Alcotest.(check string) "class" "broadcast" (class_name s);
        Alcotest.(check int) "worst trans" 1 s.Access.s_worst_trans;
        Alcotest.(check bool) "no TPERF010" false
          (has_code "TPERF010" an.Access.an_diags));
    Alcotest.test_case "in[(17*tid) mod 64] is scattered, affine fit fails"
      `Quick (fun () ->
        let k =
          kernel ~arrays:io_arrays
            [
              Ir.load_global "v" "in" Ir.(tid *: Int 17 %: Int 64);
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let an = Access.analyze (program_of ~block:32 k) in
        let s = site_of an ~arr:"in" ~kind:Access.Ld in
        Alcotest.(check string) "class" "scattered" (class_name s);
        (* all 32 addresses land in [0, 64): exactly two 128-byte segments *)
        Alcotest.(check int) "worst trans" 2 s.Access.s_worst_trans;
        Alcotest.(check bool) "TPERF010" true
          (has_code "TPERF010" an.Access.an_diags));
    Alcotest.test_case "data-dependent index escapes to non-affine, TPERF012"
      `Quick (fun () ->
        let k =
          kernel ~arrays:io_arrays
            [
              Ir.load_global "a" "in" Ir.tid;
              Ir.load_global "v" "in" (Ir.Reg "a");
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let an = Access.analyze (program_of ~block:32 k) in
        let scattered =
          List.find
            (fun (s : Access.site) -> s.Access.s_non_affine)
            an.Access.an_sites
        in
        Alcotest.(check string) "class" "non-affine" (class_name scattered);
        Alcotest.(check bool) "TPERF012" true
          (has_code "TPERF012" an.Access.an_diags);
        Alcotest.(check bool) "analysis flagged approximate" true
          an.Access.an_approx);
  ]

(* ------------------------------------------------------------------ *)
(* Shared-memory bank conflicts, per power-of-two stride               *)
(* ------------------------------------------------------------------ *)

let bank_tests =
  List.map
    (fun stride ->
      Alcotest.test_case
        (Printf.sprintf "shared stride %d is a %d-way conflict" stride stride)
        `Quick
        (fun () ->
          let k =
            kernel ~arrays:[ ("out", Ir.F32) ]
              ~shared:
                [ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 1024 } ]
              [
                Ir.store_shared "s" Ir.(tid *: Int stride) Ir.tid;
                Ir.Sync;
                Ir.load_shared "v" "s" Ir.tid;
                Ir.store_global "out" Ir.tid (Ir.Reg "v");
              ]
          in
          let an = Access.analyze (program_of ~block:32 k) in
          let st = site_of an ~arr:"s" ~kind:Access.St in
          Alcotest.(check int) "store degree" stride st.Access.s_worst_degree;
          let ld = site_of an ~arr:"s" ~kind:Access.Ld in
          Alcotest.(check int) "load degree" 1 ld.Access.s_worst_degree;
          Alcotest.(check bool)
            (Printf.sprintf "TPERF011 iff stride %d >= 2" stride)
            (stride >= 2)
            (has_code "TPERF011" an.Access.an_diags)))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Seeded mutations on the enumerated corpus                           *)
(* ------------------------------------------------------------------ *)

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

(* transpose the first shared store's index: stride 1 becomes stride 2 *)
let transpose_shared (p : Ir.program) : Ir.program =
  let done_ = ref false in
  Mutate.map_first_kernel p (function
    | Ir.Store { space = Ir.Shared; arr; idx; v } when not !done_ ->
        done_ := true;
        Some [ Ir.Store { space = Ir.Shared; arr; idx = Ir.(idx *: Int 2); v } ]
    | _ -> None)

(* double the first global load's index: breaks coalescing *)
let stride_global (p : Ir.program) : Ir.program =
  let done_ = ref false in
  Mutate.map_first_kernel p (function
    | Ir.Load { dst; space = Ir.Global; arr; idx } when not !done_ ->
        done_ := true;
        Some [ Ir.Load { dst; space = Ir.Global; arr; idx = Ir.(idx *: Int 2) } ]
    | _ -> None)

(* route the first global load through a freshly-loaded register: the
   index becomes data-dependent *)
let data_dependent_index (p : Ir.program) : Ir.program =
  let done_ = ref false in
  Mutate.map_first_kernel p (function
    | Ir.Load { dst; space = Ir.Global; arr; idx } when not !done_ ->
        done_ := true;
        Some
          [
            Ir.load_global "mut_dd" arr idx;
            Ir.Load { dst; space = Ir.Global; arr; idx = Ir.Reg "mut_dd" };
          ]
    | _ -> None)

let mutation_tests =
  [
    Alcotest.test_case "transposed shared tree index trips TPERF011" `Quick
      (fun () ->
        let _, prog =
          find_version (fun prog ->
              Mutate.stmt_exists prog (function
                | Ir.Store { space = Ir.Shared; _ } -> true
                | _ -> false)
              && not (has_code "TPERF011" (Access.check_program prog)))
        in
        Alcotest.(check bool) "mutant warns" true
          (has_code "TPERF011" (Access.check_program (transpose_shared prog))));
    Alcotest.test_case "strided global load trips TPERF010" `Quick (fun () ->
        let _, prog =
          find_version (fun prog ->
              Mutate.stmt_exists prog (function
                | Ir.Load { space = Ir.Global; _ } -> true
                | _ -> false)
              && not (has_code "TPERF010" (Access.check_program prog)))
        in
        Alcotest.(check bool) "mutant warns" true
          (has_code "TPERF010" (Access.check_program (stride_global prog))));
    Alcotest.test_case "data-dependent index trips TPERF012" `Quick (fun () ->
        let _, prog =
          find_version (fun prog ->
              Mutate.stmt_exists prog (function
                | Ir.Load { space = Ir.Global; _ } -> true
                | _ -> false)
              && not (has_code "TPERF012" (Access.check_program prog)))
        in
        Alcotest.(check bool) "mutant warns" true
          (has_code "TPERF012"
             (Access.check_program (data_dependent_index prog))));
  ]

(* ------------------------------------------------------------------ *)
(* Corpus sweep: every variant analyzes warn-only, shuffles conflict-  *)
(* free                                                                *)
(* ------------------------------------------------------------------ *)

let corpus_tests =
  [
    Alcotest.test_case "all enumerated variants analyze without errors" `Quick
      (fun () ->
        List.iter
          (fun v ->
            let an = P.access (Lazy.force plan) v in
            List.iter
              (fun (d : Diag.t) ->
                if d.Diag.severity = Diag.Error then
                  Alcotest.failf "%s: %s is an error" (Version.name v)
                    d.Diag.code)
              an.Access.an_diags)
          (Version.enumerate ()));
    Alcotest.test_case "no enumerated variant bank-conflicts or escapes"
      `Quick (fun () ->
        (* the planner's shared trees use sequential addressing and its
           shuffle codelets never touch shared memory with a lane-scaled
           stride, so TPERF011/TPERF012 must not fire anywhere *)
        List.iter
          (fun v ->
            let ds = P.lint (Lazy.force plan) v in
            if has_code "TPERF011" ds then
              Alcotest.failf "%s: unexpected bank conflict" (Version.name v);
            if has_code "TPERF012" ds then
              Alcotest.failf "%s: unexpected non-affine index" (Version.name v))
          (Version.enumerate ()));
    Alcotest.test_case "shuffle-codelet variants are conflict-free" `Quick
      (fun () ->
        let shuffle_versions =
          List.filter
            (fun v ->
              let prog = P.program (Lazy.force plan) v in
              Mutate.stmt_exists prog (function Ir.Shfl _ -> true | _ -> false))
            (Version.enumerate ())
        in
        Alcotest.(check bool) "some variants shuffle" true
          (shuffle_versions <> []);
        List.iter
          (fun v ->
            let an = P.access (Lazy.force plan) v in
            List.iter
              (fun (s : Access.site) ->
                if s.Access.s_space = Ir.Shared && s.Access.s_worst_degree > 1
                then
                  Alcotest.failf "%s: %s has a %d-way conflict" (Version.name v)
                    s.Access.s_arr s.Access.s_worst_degree)
              an.Access.an_sites)
          shuffle_versions);
  ]

(* ------------------------------------------------------------------ *)
(* Diagnostic-code registry                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    Alcotest.test_case "registry codes are unique" `Quick (fun () ->
        let cs = List.map (fun (i : Diag.info) -> i.Diag.r_code) Diag.registry in
        Alcotest.(check int) "no duplicates"
          (List.length cs)
          (List.length (List.sort_uniq compare cs)));
    Alcotest.test_case "every emitted code is registered" `Quick (fun () ->
        List.iter
          (fun v ->
            List.iter
              (fun (d : Diag.t) ->
                if not (Diag.registered d.Diag.code) then
                  Alcotest.failf "%s emits unregistered code %s"
                    (Version.name v) d.Diag.code)
              (P.lint (Lazy.force plan) v))
          (Version.enumerate ()));
    Alcotest.test_case "registry severity matches emission" `Quick (fun () ->
        List.iter
          (fun v ->
            List.iter
              (fun (d : Diag.t) ->
                match Diag.lookup d.Diag.code with
                | Some i ->
                    Alcotest.(check string)
                      (d.Diag.code ^ " severity")
                      (Diag.severity_name i.Diag.r_severity)
                      (Diag.severity_name d.Diag.severity)
                | None -> ())
              (P.lint (Lazy.force plan) v))
          (Version.enumerate ()));
    Alcotest.test_case "TPERF codes registered as warnings from access" `Quick
      (fun () ->
        List.iter
          (fun c ->
            match Diag.lookup c with
            | Some i ->
                Alcotest.(check string) (c ^ " severity") "warning"
                  (Diag.severity_name i.Diag.r_severity);
                Alcotest.(check string) (c ^ " source") "access" i.Diag.r_source
            | None -> Alcotest.failf "%s not registered" c)
          [ "TPERF010"; "TPERF011"; "TPERF012" ]);
    Alcotest.test_case "every fleet event code registered as fleet warning"
      `Quick (fun () ->
        Alcotest.(check bool) "fleet emits codes" true
          (Runtime.Fleet.event_codes <> []);
        List.iter
          (fun (c, _) ->
            match Diag.lookup c with
            | Some i ->
                Alcotest.(check string) (c ^ " severity") "warning"
                  (Diag.severity_name i.Diag.r_severity);
                Alcotest.(check string) (c ^ " source") "fleet" i.Diag.r_source
            | None -> Alcotest.failf "%s not registered" c)
          Runtime.Fleet.event_codes);
    Alcotest.test_case "TOBS codes registered as warnings from obs" `Quick
      (fun () ->
        List.iter
          (fun c ->
            match Diag.lookup c with
            | Some i ->
                Alcotest.(check string) (c ^ " severity") "warning"
                  (Diag.severity_name i.Diag.r_severity);
                Alcotest.(check string) (c ^ " source") "obs" i.Diag.r_source
            | None -> Alcotest.failf "%s not registered" c)
          [ "TOBS001"; "TOBS002"; "TOBS003"; "TOBS004" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Differential property: static per-lane addresses vs the interpreter *)
(* ------------------------------------------------------------------ *)

(* random affine-ish index expressions over the geometry specials; the
   grammar includes enough arithmetic to stress the abstract domain
   (sub can leave the affine fragment via the final mod) *)
let gen_index : Ir.exp QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Ir.tid;
        return Ir.lane_id;
        return Ir.warp_id;
        map (fun c -> Ir.Int c) (int_range 0 64);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map2 (fun a b -> Ir.(a +: b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Ir.(a -: b)) (self (n / 2)) (self (n / 2));
               map2
                 (fun c e -> Ir.(Int c *: e))
                 (int_range 0 8) (self (n / 2));
             ])

let arb_index = QCheck.make ~print:Ir.show_exp gen_index

(* out[tid] := in[idx] with an identity input buffer, so the observed
   output values ARE the per-lane addresses the interpreter computed *)
let static_matches_interp (e : Ir.exp) : bool =
  let idx = Ir.(((e %: Int 256) +: Int 256) %: Int 256) in
  let k =
    kernel ~arrays:io_arrays
      [
        Ir.let_ "i" idx;
        Ir.load_global "v" "in" (Ir.Reg "i");
        Ir.store_global "out" Ir.tid (Ir.Reg "v");
      ]
  in
  let inp =
    I.make_buffer ~read_only:true ~ty:Ir.F32 ~id:0
      (Array.init 256 float_of_int)
  in
  let out = Array.make 64 0.0 in
  let outb = I.make_buffer ~ty:Ir.F32 ~id:1 out in
  ignore
    (I.run_kernel ~arch ~opts:I.exact
       (Gpusim.Compiled.compile k)
       ~grid:1 ~block:64 ~shared_elems:0
       ~globals:[| inp; outb |]
       ~params:[||]);
  let an = Access.analyze (program_of ~block:64 k) in
  let s = site_of an ~arr:"in" ~kind:Access.Ld in
  match s.Access.s_lanes with
  | None -> false
  | Some lanes ->
      Array.length lanes = 32
      && Array.for_all
           (fun l -> lanes.(l) = int_of_float out.(l))
           (Array.init 32 (fun l -> l))

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"static per-lane addresses match the interpreter" arb_index
         static_matches_interp);
  ]

(* ------------------------------------------------------------------ *)
(* Calibration: the static predictions are exact on one architecture   *)
(* ------------------------------------------------------------------ *)

let calibration_tests =
  [
    Alcotest.test_case "static transaction/replay counts are exact" `Slow
      (fun () ->
        let r =
          Synthesis.Calibrate.calibrate ~n:4096 ~arch (Lazy.force plan)
            (Version.enumerate ())
        in
        Alcotest.(check (list string)) "nothing skipped" [] r.Synthesis.Calibrate.cr_skipped;
        Alcotest.(check (float 1e-9)) "max transaction error" 0.0
          r.Synthesis.Calibrate.cr_max_trans_err;
        Alcotest.(check (float 1e-9)) "max replay error" 0.0
          r.Synthesis.Calibrate.cr_max_serial_err;
        Alcotest.(check int) "no ranking flips" 0
          (List.length r.Synthesis.Calibrate.cr_flips));
  ]

let () =
  Alcotest.run "access"
    [
      ("classify", classify_tests);
      ("banks", bank_tests);
      ("mutations", mutation_tests);
      ("corpus", corpus_tests);
      ("registry", registry_tests);
      ("differential", differential_tests);
      ("calibration", calibration_tests);
    ]
