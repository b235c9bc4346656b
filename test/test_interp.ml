(* SIMT interpreter tests: hand-built kernels probing execution semantics
   (shuffles, atomics, divergence, barriers), event counting (coalescing,
   bank conflicts, atomic contention), failure injection (traps), and the
   sampled/extrapolated execution modes. *)

module Ir = Device_ir.Ir
module I = Gpusim.Interp

let arch = Gpusim.Arch.maxwell_gtx980
let kepler = Gpusim.Arch.kepler_k40c

let kernel ?(params = []) ?(arrays = []) ?(shared = []) body =
  { Ir.k_name = "k"; k_params = params; k_arrays = arrays; k_shared = shared;
    k_body = body }

let buf ?(read_only = false) data =
  I.make_buffer ~read_only ~ty:Ir.F32 ~id:0 data

(* run a kernel with an output buffer of [out_size]; returns the buffer and
   the launch result *)
let run ?(opts = I.exact) ?(grid = 1) ?(block = 32) ?(shared_elems = 0)
    ?(params = [||]) ?(inputs = []) ~out_size k =
  let out = Array.make out_size 0.0 in
  let out_buf = I.make_buffer ~ty:Ir.F32 ~id:99 out in
  let globals = Array.of_list (inputs @ [ out_buf ]) in
  let lr =
    I.run_kernel ~arch ~opts (Gpusim.Compiled.compile k) ~grid ~block ~shared_elems
      ~globals ~params
  in
  (out, lr)

let fa = Alcotest.(array (float 1e-9))

(* -------------------------------------------------------------- *)
(* Basic execution                                                 *)
(* -------------------------------------------------------------- *)

let exec_tests =
  [
    Alcotest.test_case "threads write their id" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ] [ Ir.store_global "out" Ir.tid Ir.tid ]
        in
        let out, _ = run ~block:8 ~out_size:8 k in
        Alcotest.check fa "ids" [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |] out);
    Alcotest.test_case "block and grid specials" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.if_ Ir.(tid =: Int 0)
                [ Ir.store_global "out" Ir.bid Ir.((gdim *: Int 100) +: bdim) ]
                [];
            ]
        in
        let out, _ = run ~grid:3 ~block:64 ~out_size:3 k in
        Alcotest.check fa "3 blocks of 64" [| 364.; 364.; 364. |] out);
    Alcotest.test_case "lane and warp ids" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [ Ir.store_global "out" Ir.tid Ir.((warp_id *: Int 100) +: lane_id) ]
        in
        let out, _ = run ~block:64 ~out_size:64 k in
        Alcotest.(check (float 0.0)) "t33" 101.0 out.(33);
        Alcotest.(check (float 0.0)) "t31" 31.0 out.(31));
    Alcotest.test_case "for loop accumulates" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "acc" (Ir.Float 0.0);
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: Int 10)
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.let_ "acc" Ir.(Reg "acc" +: Reg "i") ];
              Ir.store_global "out" Ir.tid (Ir.Reg "acc");
            ]
        in
        let out, _ = run ~block:2 ~out_size:2 k in
        Alcotest.check fa "sums" [| 45.; 45. |] out);
    Alcotest.test_case "divergent loop trip counts" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "acc" (Ir.Float 0.0);
              Ir.for_ "i" ~init:(Ir.Int 0)
                ~cond:Ir.(Reg "i" <: tid)
                ~step:Ir.(Reg "i" +: Int 1)
                [ Ir.let_ "acc" Ir.(Reg "acc" +: Float 1.0) ];
              Ir.store_global "out" Ir.tid (Ir.Reg "acc");
            ]
        in
        let out, _ = run ~block:5 ~out_size:5 k in
        Alcotest.check fa "trips" [| 0.; 1.; 2.; 3.; 4. |] out);
    Alcotest.test_case "while loop" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "x" (Ir.Int 1);
              Ir.While (Ir.(Reg "x" <: Int 100), [ Ir.let_ "x" Ir.(Reg "x" *: Int 2) ]);
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let out, _ = run ~block:1 ~out_size:1 k in
        Alcotest.check fa "doubling" [| 128. |] out);
    Alcotest.test_case "select is per lane" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "v" (Ir.select Ir.(tid <: Int 2) (Ir.Float 1.0) (Ir.Float 2.0));
              Ir.store_global "out" Ir.tid (Ir.Reg "v");
            ]
        in
        let out, _ = run ~block:4 ~out_size:4 k in
        Alcotest.check fa "select" [| 1.; 1.; 2.; 2. |] out);
    Alcotest.test_case "integer ops wrap at 32 bits" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.let_ "x" (Ir.Int 2147483647);
              Ir.let_ "y" Ir.(Reg "x" +: Int 1);
              Ir.store_global "out" Ir.tid (Ir.Reg "y");
            ]
        in
        let out, _ = run ~block:1 ~out_size:1 k in
        Alcotest.(check (float 0.0)) "wrap" (-2147483648.0) out.(0));
    Alcotest.test_case "last warp of a partial block" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ] [ Ir.store_global "out" Ir.tid (Ir.Float 1.0) ]
        in
        let out, _ = run ~block:40 ~out_size:40 k in
        Alcotest.(check (float 0.0)) "sum" 40.0 (Array.fold_left ( +. ) 0.0 out));
  ]

(* -------------------------------------------------------------- *)
(* Shuffles                                                        *)
(* -------------------------------------------------------------- *)

let shfl_kernel mode ~width ~delta =
  kernel ~arrays:[ ("out", Ir.F32) ]
    [
      Ir.let_ "v" Ir.lane_id;
      Ir.Shfl { dst = "r"; mode; v = Ir.Reg "v"; lane = Ir.Int delta; width };
      Ir.store_global "out" Ir.tid (Ir.Reg "r");
    ]

let shuffle_tests =
  [
    Alcotest.test_case "shfl_down shifts and clamps" `Quick (fun () ->
        let out, _ = run ~block:32 ~out_size:32 (shfl_kernel Ir.Shfl_down ~width:32 ~delta:4) in
        Alcotest.(check (float 0.0)) "lane0" 4.0 out.(0);
        Alcotest.(check (float 0.0)) "lane27" 31.0 out.(27);
        Alcotest.(check (float 0.0)) "lane28 keeps" 28.0 out.(28);
        Alcotest.(check (float 0.0)) "lane31 keeps" 31.0 out.(31));
    Alcotest.test_case "shfl_up shifts the other way" `Quick (fun () ->
        let out, _ = run ~block:32 ~out_size:32 (shfl_kernel Ir.Shfl_up ~width:32 ~delta:4) in
        Alcotest.(check (float 0.0)) "lane0 keeps" 0.0 out.(0);
        Alcotest.(check (float 0.0)) "lane3 keeps" 3.0 out.(3);
        Alcotest.(check (float 0.0)) "lane4" 0.0 out.(4);
        Alcotest.(check (float 0.0)) "lane31" 27.0 out.(31));
    Alcotest.test_case "shfl_xor butterflies" `Quick (fun () ->
        let out, _ = run ~block:32 ~out_size:32 (shfl_kernel Ir.Shfl_xor ~width:32 ~delta:1) in
        Alcotest.(check (float 0.0)) "lane0" 1.0 out.(0);
        Alcotest.(check (float 0.0)) "lane1" 0.0 out.(1);
        Alcotest.(check (float 0.0)) "lane30" 31.0 out.(30));
    Alcotest.test_case "sub-warp width partitions" `Quick (fun () ->
        let out, _ = run ~block:32 ~out_size:32 (shfl_kernel Ir.Shfl_down ~width:8 ~delta:2) in
        Alcotest.(check (float 0.0)) "lane0" 2.0 out.(0);
        Alcotest.(check (float 0.0)) "lane5" 7.0 out.(5);
        Alcotest.(check (float 0.0)) "lane6 clamps" 6.0 out.(6);
        Alcotest.(check (float 0.0)) "lane8" 10.0 out.(8));
    Alcotest.test_case "shfl idx broadcasts" `Quick (fun () ->
        let out, _ = run ~block:32 ~out_size:32 (shfl_kernel Ir.Shfl_idx ~width:32 ~delta:7) in
        Array.iter (fun v -> Alcotest.(check (float 0.0)) "bcast" 7.0 v) out);
    Alcotest.test_case "a source lane outside the warp is a Sim_error" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            let k = shfl_kernel mode ~width:32 ~delta:(-1) in
            Alcotest.(check int) "validates" 0
              (List.length (Device_ir.Validate.check_kernel k));
            match run ~block:32 ~out_size:32 k with
            | _ -> Alcotest.failf "%s: expected Sim_error" (Ir.show_shuffle_mode mode)
            | exception I.Sim_error _ -> ())
          [ Ir.Shfl_down; Ir.Shfl_up; Ir.Shfl_xor; Ir.Shfl_idx ]);
    Alcotest.test_case "warp shuffle tree reduces" `Quick (fun () ->
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
                [ Ir.store_global "out" Ir.warp_id (Ir.Reg "acc") ]
                [];
            ]
        in
        let out, lr = run ~block:64 ~out_size:2 k in
        Alcotest.check fa "warp sums" [| 496.; 496. |] out;
        Alcotest.(check (float 0.0)) "shuffles counted" 10.0
          lr.I.lr_events.Gpusim.Events.shfl_insts);
  ]

(* -------------------------------------------------------------- *)
(* Atomics                                                         *)
(* -------------------------------------------------------------- *)

let atomic_tests =
  [
    Alcotest.test_case "global atomic add accumulates across blocks" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [ Ir.atomic ~space:Ir.Global ~op:Ir.A_add "out" (Ir.Int 0) (Ir.Float 1.0) ]
        in
        let out, lr = run ~grid:4 ~block:32 ~out_size:1 k in
        Alcotest.(check (float 0.0)) "count" 128.0 out.(0);
        Alcotest.(check (float 0.0)) "heat tracks the hot address" 128.0
          (Gpusim.Events.max_heat lr.I.lr_events));
    Alcotest.test_case "block-scoped atomics do not heat the L2 on Pascal" `Quick
      (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.atomic ~space:Ir.Global ~op:Ir.A_add ~scope:Ir.Scope_block "out"
                (Ir.Int 0) (Ir.Float 1.0);
            ]
        in
        let out = Array.make 1 0.0 in
        let lr =
          I.run_kernel ~arch:Gpusim.Arch.pascal_p100 ~opts:I.exact
            (Gpusim.Compiled.compile k) ~grid:2 ~block:32 ~shared_elems:0
            ~globals:[| I.make_buffer ~ty:Ir.F32 ~id:0 out |]
            ~params:[||]
        in
        Alcotest.(check (float 0.0)) "count" 64.0 out.(0);
        Alcotest.(check (float 0.0)) "no heat" 0.0 (Gpusim.Events.max_heat lr.I.lr_events));
    Alcotest.test_case "block scope still heats pre-Pascal" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.atomic ~space:Ir.Global ~op:Ir.A_add ~scope:Ir.Scope_block "out"
                (Ir.Int 0) (Ir.Float 1.0);
            ]
        in
        let _, lr = run ~grid:2 ~block:32 ~out_size:1 k in
        Alcotest.(check (float 0.0)) "heat" 64.0 (Gpusim.Events.max_heat lr.I.lr_events));
    Alcotest.test_case "atomic max" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [ Ir.atomic ~space:Ir.Global ~op:Ir.A_max "out" (Ir.Int 0) Ir.tid ]
        in
        let out, _ = run ~block:32 ~out_size:1 k in
        Alcotest.(check (float 0.0)) "max" 31.0 out.(0));
    Alcotest.test_case "atomic returns the old value" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("cnt", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.Atomic
                { dst = Some "old"; space = Ir.Global; op = Ir.A_add;
                  scope = Ir.Scope_device; arr = "cnt"; idx = Ir.Int 0;
                  v = Ir.Float 1.0 };
              Ir.store_global "out" Ir.tid (Ir.Reg "old");
            ]
        in
        let cnt = buf (Array.make 1 0.0) in
        let out, _ = run ~block:8 ~out_size:8 ~inputs:[ cnt ] k in
        Alcotest.check fa "old values" [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |] out);
    Alcotest.test_case "shared atomics with conflicts" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 1 } ]
            [
              Ir.if_ Ir.(tid <: Int 1) [ Ir.store_shared "s" (Ir.Int 0) (Ir.Float 0.0) ] [];
              Ir.Sync;
              Ir.atomic ~space:Ir.Shared ~op:Ir.A_add "s" (Ir.Int 0) (Ir.Float 1.0);
              Ir.Sync;
              Ir.if_ Ir.(tid =: Int 0)
                [ Ir.load_shared "v" "s" (Ir.Int 0);
                  Ir.store_global "out" (Ir.Int 0) (Ir.Reg "v") ]
                [];
            ]
        in
        let out, lr = run ~block:64 ~out_size:1 k in
        Alcotest.(check (float 0.0)) "count" 64.0 out.(0);
        Alcotest.(check (float 0.0)) "serialisation" 64.0
          lr.I.lr_events.Gpusim.Events.atomic_shared_serial);
    Alcotest.test_case "lock-update-unlock costs more on Kepler" `Quick (fun () ->
        let k =
          kernel
            ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 1 } ]
            ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.atomic ~space:Ir.Shared ~op:Ir.A_add "s" (Ir.Int 0) (Ir.Float 1.0);
              Ir.store_global "out" Ir.tid (Ir.Float 0.0);
            ]
        in
        let run_on a =
          let out = Array.make 64 0.0 in
          I.run_kernel ~arch:a ~opts:I.exact (Gpusim.Compiled.compile k) ~grid:1
            ~block:64 ~shared_elems:0
            ~globals:[| I.make_buffer ~ty:Ir.F32 ~id:0 out |]
            ~params:[||]
        in
        let lr_k = run_on kepler and lr_m = run_on arch in
        Alcotest.(check bool) "kepler pays more cycles" true
          (lr_k.I.lr_block_cp > lr_m.I.lr_block_cp);
        Alcotest.(check bool) "kepler diverges" true
          (lr_k.I.lr_events.Gpusim.Events.divergent_branches
          > lr_m.I.lr_events.Gpusim.Events.divergent_branches));
  ]

(* -------------------------------------------------------------- *)
(* Memory events                                                   *)
(* -------------------------------------------------------------- *)

let event_tests =
  [
    Alcotest.test_case "coalesced warp load = 1 transaction" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [ Ir.load_global "x" "a" Ir.tid; Ir.store_global "out" Ir.tid (Ir.Reg "x") ]
        in
        let a = buf ~read_only:true (Array.init 32 float_of_int) in
        let _, lr = run ~block:32 ~out_size:32 ~inputs:[ a ] k in
        Alcotest.(check (float 0.0)) "1 transaction" 1.0
          lr.I.lr_events.Gpusim.Events.gld_trans);
    Alcotest.test_case "strided warp load = 32 transactions" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.load_global "x" "a" Ir.(tid *: Int 32);
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let a = buf ~read_only:true (Array.make 1024 1.0) in
        let _, lr = run ~block:32 ~out_size:32 ~inputs:[ a ] k in
        Alcotest.(check (float 0.0)) "32 transactions" 32.0
          lr.I.lr_events.Gpusim.Events.gld_trans);
    Alcotest.test_case "same-address warp load broadcasts" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.load_global "x" "a" (Ir.Int 0);
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let a = buf ~read_only:true (Array.make 32 3.0) in
        let _, lr = run ~block:32 ~out_size:32 ~inputs:[ a ] k in
        Alcotest.(check (float 0.0)) "1 transaction" 1.0
          lr.I.lr_events.Gpusim.Events.gld_trans);
    Alcotest.test_case "conflict-free shared access" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 32 } ]
            [
              Ir.store_shared "s" Ir.tid Ir.tid;
              Ir.load_shared "x" "s" Ir.tid;
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let _, lr = run ~block:32 ~out_size:32 k in
        Alcotest.(check (float 0.0)) "ops" 2.0 lr.I.lr_events.Gpusim.Events.shared_ops;
        Alcotest.(check (float 0.0)) "serial" 2.0
          lr.I.lr_events.Gpusim.Events.shared_serial);
    Alcotest.test_case "stride-2 shared store has 2-way conflicts" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 64 } ]
            [
              Ir.store_shared "s" Ir.(tid *: Int 2) Ir.tid;
              Ir.store_global "out" Ir.tid (Ir.Float 0.0);
            ]
        in
        let _, lr = run ~block:32 ~out_size:32 k in
        Alcotest.(check (float 0.0)) "degree 2" 2.0
          lr.I.lr_events.Gpusim.Events.shared_serial);
    Alcotest.test_case "vectorized load events" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.Vec_load { dsts = [ "v0"; "v1"; "v2"; "v3" ]; arr = "a";
                            base = Ir.(tid *: Int 4) };
              Ir.store_global "out" Ir.tid
                Ir.(Reg "v0" +: Reg "v1" +: Reg "v2" +: Reg "v3");
            ]
        in
        let a = buf ~read_only:true (Array.init 128 float_of_int) in
        let out, lr = run ~block:32 ~out_size:32 ~inputs:[ a ] k in
        Alcotest.(check (float 0.0)) "t0 sum" 6.0 out.(0);
        Alcotest.(check (float 0.0)) "one vec op" 1.0
          lr.I.lr_events.Gpusim.Events.vec_load_ops;
        Alcotest.(check (float 0.0)) "4 transactions" 4.0
          lr.I.lr_events.Gpusim.Events.gld_trans);
    Alcotest.test_case "divergent branches are counted" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.if_ Ir.(lane_id <: Int 16)
                [ Ir.store_global "out" Ir.tid (Ir.Float 1.0) ]
                [ Ir.store_global "out" Ir.tid (Ir.Float 2.0) ];
            ]
        in
        let _, lr = run ~block:32 ~out_size:32 k in
        Alcotest.(check (float 0.0)) "one divergent branch" 1.0
          lr.I.lr_events.Gpusim.Events.divergent_branches);
    Alcotest.test_case "uniform branch is not divergent" `Quick (fun () ->
        let k =
          kernel ~params:[ ("n", Ir.I32) ] ~arrays:[ ("out", Ir.F32) ]
            [
              Ir.if_ Ir.(Param "n" >: Int 0)
                [ Ir.store_global "out" Ir.tid (Ir.Float 1.0) ]
                [ Ir.store_global "out" Ir.tid (Ir.Float 2.0) ];
            ]
        in
        let _, lr = run ~block:32 ~out_size:32 ~params:[| Gpusim.Value.VI 5 |] k in
        Alcotest.(check (float 0.0)) "no divergence" 0.0
          lr.I.lr_events.Gpusim.Events.divergent_branches);
  ]

(* -------------------------------------------------------------- *)
(* Barriers and failure injection                                  *)
(* -------------------------------------------------------------- *)

let expect_trap name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected Sim_error"
      | exception I.Sim_error _ -> ())

let sync_tests =
  [
    Alcotest.test_case "barrier orders cross-warp communication" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("out", Ir.F32) ]
            ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 64 } ]
            [
              Ir.store_shared "s" Ir.tid Ir.(tid *: Int 10);
              Ir.Sync;
              Ir.load_shared "x" "s" Ir.(Int 63 -: tid);
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let out, lr = run ~block:64 ~out_size:64 k in
        Alcotest.(check (float 0.0)) "cross warp" 630.0 out.(0);
        Alcotest.(check (float 0.0)) "t63" 0.0 out.(63);
        Alcotest.(check bool) "syncs counted" true
          (lr.I.lr_events.Gpusim.Events.syncs > 0.0));
    expect_trap "barrier under divergent control traps" (fun () ->
        run ~block:32 ~out_size:1
          (kernel ~arrays:[ ("out", Ir.F32) ]
             [ Ir.if_ Ir.(tid =: Int 0) [ Ir.Sync ] [] ]));
    expect_trap "non-uniform block-wide condition traps in check mode" (fun () ->
        run ~block:32 ~out_size:1
          (kernel ~arrays:[ ("out", Ir.F32) ]
             [
               Ir.if_ Ir.(tid <: Int 16)
                 [ Ir.Sync; Ir.store_global "out" (Ir.Int 0) (Ir.Float 1.0) ]
                 [];
             ]));
    expect_trap "global out-of-bounds load traps" (fun () ->
        let a = buf ~read_only:true (Array.make 8 0.0) in
        run ~block:1 ~out_size:1 ~inputs:[ a ]
          (kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
             [
               Ir.load_global "x" "a" (Ir.Int 99);
               Ir.store_global "out" Ir.tid (Ir.Reg "x");
             ]));
    expect_trap "shared out-of-bounds store traps" (fun () ->
        run ~block:1 ~out_size:1
          (kernel ~arrays:[ ("out", Ir.F32) ]
             ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Static_size 4 } ]
             [ Ir.store_shared "s" (Ir.Int 10) (Ir.Float 1.0) ]));
    expect_trap "write to read-only buffer traps" (fun () ->
        let a = buf ~read_only:true (Array.make 8 0.0) in
        run ~block:1 ~out_size:1 ~inputs:[ a ]
          (kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
             [ Ir.store_global "a" (Ir.Int 0) (Ir.Float 1.0) ]));
    expect_trap "misaligned vector load traps" (fun () ->
        let a = buf ~read_only:true (Array.make 16 0.0) in
        run ~block:1 ~out_size:1 ~inputs:[ a ]
          (kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
             [
               Ir.Vec_load
                 { dsts = [ "a0"; "a1"; "a2"; "a3" ]; arr = "a"; base = Ir.Int 2 };
             ]));
    expect_trap "block size bounds are enforced" (fun () ->
        run ~block:2048 ~out_size:1 (kernel ~arrays:[ ("out", Ir.F32) ] []));
    expect_trap "shared footprint bound is enforced" (fun () ->
        run ~block:32 ~shared_elems:100_000 ~out_size:1
          (kernel ~arrays:[ ("out", Ir.F32) ]
             ~shared:[ { Ir.sh_name = "s"; sh_ty = Ir.F32; sh_size = Ir.Dynamic_size } ]
             [ Ir.store_shared "s" (Ir.Int 0) (Ir.Float 0.0) ]));
    expect_trap "integer division by zero traps" (fun () ->
        run ~block:1 ~out_size:1
          (kernel ~arrays:[ ("out", Ir.F32) ]
             [ Ir.let_ "x" Ir.(Int 1 /: Int 0);
               Ir.store_global "out" Ir.tid (Ir.Reg "x") ]));
  ]

(* -------------------------------------------------------------- *)
(* Sampling / extrapolation                                        *)
(* -------------------------------------------------------------- *)

let sampling_tests =
  [
    Alcotest.test_case "block sampling scales events" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.load_global "x" "a" Ir.((bid *: bdim) +: tid);
              Ir.atomic ~space:Ir.Global ~op:Ir.A_add "out" (Ir.Int 0) (Ir.Reg "x");
            ]
        in
        let a =
          I.make_virtual_buffer ~read_only:true ~ty:Ir.F32 ~id:0 ~n:(1 lsl 16)
            (Array.make 1024 1.0)
        in
        let run_with opts =
          let out = Array.make 1 0.0 in
          I.run_kernel ~arch ~opts (Gpusim.Compiled.compile k) ~grid:2048 ~block:32
            ~shared_elems:0
            ~globals:[| a; I.make_buffer ~ty:Ir.F32 ~id:1 out |]
            ~params:[||]
        in
        let e = (run_with I.exact).I.lr_events in
        let s =
          (run_with { I.max_blocks = Some 16; loop_cap = None; check_uniform = false })
            .I.lr_events
        in
        let ratio = s.Gpusim.Events.gld_trans /. e.Gpusim.Events.gld_trans in
        Alcotest.(check bool) "within 2%" true (ratio > 0.98 && ratio < 1.02);
        Alcotest.(check int) "simulated a subset" 16 s.Gpusim.Events.simulated_blocks);
    Alcotest.test_case "affine loop extrapolation matches exact cycles" `Quick
      (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ] ~params:[ ("n", Ir.I32) ]
            [
              Ir.let_ "acc" (Ir.Float 0.0);
              Ir.for_ "i" ~init:Ir.tid
                ~cond:Ir.(Reg "i" <: Param "n")
                ~step:Ir.(Reg "i" +: Int 32)
                [
                  Ir.load_global "x" "a" (Ir.Reg "i");
                  Ir.let_ "acc" Ir.(Reg "acc" +: Reg "x");
                ];
              Ir.store_global "out" Ir.tid (Ir.Reg "acc");
            ]
        in
        let n = 32 * 4096 in
        let a =
          I.make_virtual_buffer ~read_only:true ~ty:Ir.F32 ~id:0 ~n
            (Array.make 1024 1.0)
        in
        let run_with opts =
          let out = Array.make 32 0.0 in
          I.run_kernel ~arch ~opts (Gpusim.Compiled.compile k) ~grid:1 ~block:32
            ~shared_elems:0
            ~globals:[| a; I.make_buffer ~ty:Ir.F32 ~id:1 out |]
            ~params:[| Gpusim.Value.VI n |]
        in
        let e = run_with I.exact in
        let s =
          run_with { I.max_blocks = None; loop_cap = Some 32; check_uniform = false }
        in
        let ratio = s.I.lr_block_cp /. e.I.lr_block_cp in
        Alcotest.(check bool) "cycles within 5%" true (ratio > 0.95 && ratio < 1.05);
        let er =
          s.I.lr_events.Gpusim.Events.gld_trans /. e.I.lr_events.Gpusim.Events.gld_trans
        in
        Alcotest.(check bool) "transactions within 5%" true (er > 0.95 && er < 1.05));
    Alcotest.test_case "virtual buffers wrap their pattern" `Quick (fun () ->
        let k =
          kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
            [
              Ir.load_global "x" "a" (Ir.Int 1030);
              Ir.store_global "out" Ir.tid (Ir.Reg "x");
            ]
        in
        let pattern = Array.init 1024 float_of_int in
        let a = I.make_virtual_buffer ~read_only:true ~ty:Ir.F32 ~id:0 ~n:4096 pattern in
        let out, _ = run ~block:1 ~out_size:1 ~inputs:[ a ] k in
        Alcotest.(check (float 0.0)) "wrapped" 6.0 out.(0));
    expect_trap "virtual buffers keep logical bounds" (fun () ->
        let a =
          I.make_virtual_buffer ~read_only:true ~ty:Ir.F32 ~id:0 ~n:100
            (Array.make 16 0.0)
        in
        run ~block:1 ~out_size:1 ~inputs:[ a ]
          (kernel ~arrays:[ ("a", Ir.F32); ("out", Ir.F32) ]
             [ Ir.load_global "x" "a" (Ir.Int 100);
               Ir.store_global "out" Ir.tid (Ir.Reg "x") ]));
    Alcotest.test_case "non-power-of-two pattern rejected" `Quick (fun () ->
        match I.make_virtual_buffer ~ty:Ir.F32 ~id:0 ~n:100 (Array.make 10 0.0) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let () =
  Alcotest.run "interp"
    [
      ("execution", exec_tests);
      ("shuffles", shuffle_tests);
      ("atomics", atomic_tests);
      ("events", event_tests);
      ("barriers and traps", sync_tests);
      ("sampling", sampling_tests);
    ]
