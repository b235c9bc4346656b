(* Baseline tests: the CUB-like, Kokkos-like and OpenMP baselines compute
   correct results and exhibit the structural properties the paper
   describes (two-pass CUB with vector loads, three-launch staged Kokkos,
   low-overhead CPU). *)

module R = Gpusim.Runner

let arch = Gpusim.Arch.kepler_k40c

let input_n n = Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8))
let expected a = Array.fold_left ( +. ) 0.0 a

let cub_tests =
  [
    Alcotest.test_case "cub computes the sum" `Quick (fun () ->
        let a = input_n 100_000 in
        let o = Baselines.Cub.run ~arch (R.Dense a) in
        Alcotest.(check (float 1e-3)) "sum" (expected a) o.R.result);
    Alcotest.test_case "cub handles non-multiple-of-4 tails" `Quick (fun () ->
        List.iter
          (fun n ->
            let a = input_n n in
            let o = Baselines.Cub.run ~arch (R.Dense a) in
            Alcotest.(check (float 1e-3))
              (Printf.sprintf "n=%d" n) (expected a) o.R.result)
          [ 1; 2; 3; 5; 1021; 1022; 1023; 4097 ]);
    Alcotest.test_case "cub is a two-pass scheme" `Quick (fun () ->
        let o = Baselines.Cub.run ~arch (R.Dense (input_n 4096)) in
        Alcotest.(check int) "launches" 2 (List.length o.R.launch_costs));
    Alcotest.test_case "cub uses vectorized loads on large inputs" `Quick (fun () ->
        let o = Baselines.Cub.run ~arch (R.Dense (input_n 100_000)) in
        let lr = List.hd o.R.launch_results in
        Alcotest.(check bool) "vec ops" true
          (lr.Gpusim.Interp.lr_events.Gpusim.Events.counts.t_vec_load_ops > 0.0));
    Alcotest.test_case "cub pays the two-phase API overhead" `Quick (fun () ->
        let o = Baselines.Cub.run ~arch (R.Dense (input_n 64)) in
        let launches =
          List.fold_left (fun acc c -> acc +. c.Gpusim.Cost.time_us) 0.0
            o.R.launch_costs
        in
        Alcotest.(check bool) "total exceeds launch sum" true
          (o.R.time_us > launches +. arch.Gpusim.Arch.kernel_gap_us));
    Alcotest.test_case "cub works on all architectures" `Quick (fun () ->
        let a = input_n 10_000 in
        List.iter
          (fun arch ->
            let o = Baselines.Cub.run ~arch (R.Dense a) in
            Alcotest.(check (float 1e-3)) arch.Gpusim.Arch.generation (expected a)
              o.R.result)
          Gpusim.Arch.presets);
  ]

let kokkos_tests =
  [
    Alcotest.test_case "kokkos computes the sum" `Quick (fun () ->
        let a = input_n 50_000 in
        let o = Baselines.Kokkos.run ~arch (R.Dense a) in
        Alcotest.(check (float 1e-3)) "sum" (expected a) o.R.result);
    Alcotest.test_case "kokkos launches three kernels" `Quick (fun () ->
        let o = Baselines.Kokkos.run ~arch (R.Dense (input_n 4096)) in
        Alcotest.(check int) "launches" 3 (List.length o.R.launch_costs));
    Alcotest.test_case "kokkos edge sizes" `Quick (fun () ->
        List.iter
          (fun n ->
            let a = input_n n in
            let o = Baselines.Kokkos.run ~arch (R.Dense a) in
            Alcotest.(check (float 1e-3))
              (Printf.sprintf "n=%d" n) (expected a) o.R.result)
          [ 1; 255; 256; 257; 8191 ]);
    Alcotest.test_case "kokkos beats cub on very large inputs" `Quick (fun () ->
        (* the paper's Section IV-C: staged, compute-bound main kernel *)
        let n = 1 lsl 26 in
        let input = R.Synthetic { n; pattern = Array.make 1024 1.0 } in
        let opts =
          { Gpusim.Interp.max_blocks = Some 16; loop_cap = Some 16;
            check_uniform = false }
        in
        let kk = Baselines.Kokkos.run ~opts ~arch input in
        let cub = Baselines.Cub.run ~opts ~arch input in
        Alcotest.(check bool) "kokkos faster" true (kk.R.time_us < cub.R.time_us));
    Alcotest.test_case "kokkos loses on small inputs" `Quick (fun () ->
        let a = input_n 1024 in
        let kk = Baselines.Kokkos.run ~arch (R.Dense a) in
        let cub = Baselines.Cub.run ~arch (R.Dense a) in
        Alcotest.(check bool) "cub faster small" true (cub.R.time_us < kk.R.time_us));
  ]

let openmp_tests =
  [
    Alcotest.test_case "openmp computes the sum" `Quick (fun () ->
        let a = input_n 10_000 in
        let o = Baselines.Openmp.run (R.Dense a) in
        Alcotest.(check (float 1e-6)) "sum" (expected a) o.Baselines.Openmp.result);
    Alcotest.test_case "openmp sums synthetic inputs exactly" `Quick (fun () ->
        let pattern = Array.init 16 float_of_int in
        (* 16 elements sum to 120; n = 40 = 2 full patterns + 8 tail *)
        let o = Baselines.Openmp.run (R.Synthetic { n = 40; pattern }) in
        Alcotest.(check (float 1e-9)) "wrapped sum" (240.0 +. 28.0)
          o.Baselines.Openmp.result);
    Alcotest.test_case "openmp time grows with n" `Quick (fun () ->
        let t n = Baselines.Openmp.time_us Baselines.Openmp.power8_minsky ~n in
        Alcotest.(check bool) "monotone" true
          (t 100 <= t 100_000 && t 100_000 <= t 100_000_000));
    Alcotest.test_case "openmp beats cub below 4K (Figure 7)" `Quick (fun () ->
        let a = input_n 1024 in
        let omp = Baselines.Openmp.run (R.Dense a) in
        let cub = Baselines.Cub.run ~arch (R.Dense a) in
        Alcotest.(check bool) "cpu wins tiny" true
          (omp.Baselines.Openmp.time_us < cub.Gpusim.Runner.time_us));
    Alcotest.test_case "cub beats openmp on huge inputs (Figure 7)" `Quick (fun () ->
        let n = 1 lsl 27 in
        let input = R.Synthetic { n; pattern = Array.make 1024 1.0 } in
        let opts =
          { Gpusim.Interp.max_blocks = Some 16; loop_cap = Some 16;
            check_uniform = false }
        in
        let omp = Baselines.Openmp.run input in
        let cub = Baselines.Cub.run ~opts ~arch input in
        Alcotest.(check bool) "gpu wins large" true
          (cub.Gpusim.Runner.time_us < omp.Baselines.Openmp.time_us));
  ]

let () =
  Alcotest.run "baselines"
    [ ("cub", cub_tests); ("kokkos", kokkos_tests); ("openmp", openmp_tests) ]
