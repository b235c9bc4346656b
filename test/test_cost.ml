(* Cost-model tests: occupancy, the resource-maximum rule, stream-style
   selection, program-level aggregation, and architecture sanity. *)

module Ir = Device_ir.Ir
module I = Gpusim.Interp
module C = Gpusim.Cost

let arch = Gpusim.Arch.kepler_k40c

let occupancy_tests =
  [
    Alcotest.test_case "thread-limited occupancy" `Quick (fun () ->
        (* 1024-thread blocks: 2048 threads/SM allow 2 resident blocks *)
        Alcotest.(check int) "blocks"
          2
          (C.occupancy arch ~block:1024 ~shared_bytes:0));
    Alcotest.test_case "block-slot-limited occupancy" `Quick (fun () ->
        (* tiny blocks: capped by the per-SM block slots (16 on Kepler) *)
        Alcotest.(check int) "blocks" 16 (C.occupancy arch ~block:32 ~shared_bytes:0));
    Alcotest.test_case "shared-memory-limited occupancy" `Quick (fun () ->
        (* 16 KiB per block on a 48 KiB SM: 3 resident blocks *)
        Alcotest.(check int) "blocks" 3
          (C.occupancy arch ~block:128 ~shared_bytes:(16 * 1024)));
    Alcotest.test_case "warp-limited occupancy" `Quick (fun () ->
        (* 256-thread blocks = 8 warps; 64 warps/SM allow 8 blocks *)
        Alcotest.(check int) "blocks" 8 (C.occupancy arch ~block:256 ~shared_bytes:0));
    Alcotest.test_case "occupancy is at least one" `Quick (fun () ->
        Alcotest.(check int) "blocks" 1
          (C.occupancy arch ~block:1024 ~shared_bytes:(48 * 1024)));
  ]

(* a synthetic launch result with chosen counter values *)
let launch_result ?(grid = 64) ?(block = 256) ?(shared_bytes = 0) ?(cp = 1000.0)
    ~patch () : I.launch_result =
  let ev = Gpusim.Events.create () in
  patch ev.Gpusim.Events.counts;
  {
    I.lr_grid = grid;
    lr_block = block;
    lr_shared_bytes = shared_bytes;
    lr_events = ev;
    lr_block_cp = cp;
  }

let term_tests =
  [
    Alcotest.test_case "small launch is launch-bound" `Quick (fun () ->
        let lr = launch_result ~grid:1 ~cp:100.0 ~patch:(fun _ -> ()) () in
        let c = C.of_launch arch lr in
        Alcotest.(check string) "bound" "launch" c.C.bound;
        Alcotest.(check bool) "time close to overhead" true
          (c.C.time_us < arch.Gpusim.Arch.launch_overhead_us +. 1.0));
    Alcotest.test_case "huge traffic is dram-bound" `Quick (fun () ->
        let lr =
          launch_result ~grid:4096
            ~patch:(fun c -> c.Gpusim.Events.t_bytes_dram <- 1e9)
            ()
        in
        let c = C.of_launch arch lr in
        Alcotest.(check string) "bound" "dram" c.C.bound;
        (* 1 GB over 288 GB/s x 0.42 = ~8.3 ms *)
        Alcotest.(check bool) "time in range" true
          (c.C.time_us > 8000.0 && c.C.time_us < 9000.0));
    Alcotest.test_case "hot atomics are atomic-bound" `Quick (fun () ->
        let lr =
          launch_result ~grid:4096
            ~patch:(fun c -> c.Gpusim.Events.t_max_heat <- 1_000_000.0)
            ()
        in
        let c = C.of_launch arch lr in
        Alcotest.(check string) "bound" "atomic" c.C.bound);
    Alcotest.test_case "long per-block chains are cp-bound" `Quick (fun () ->
        let lr = launch_result ~grid:4096 ~cp:500_000.0 ~patch:(fun _ -> ()) () in
        let c = C.of_launch arch lr in
        Alcotest.(check string) "bound" "cp" c.C.bound;
        Alcotest.(check bool) "waves multiply" true (c.C.waves > 1));
    Alcotest.test_case "vector loads select the vector efficiency" `Quick (fun () ->
        let mk vec =
          launch_result ~grid:4096
            ~patch:(fun c ->
              c.Gpusim.Events.t_bytes_dram <- 1e9;
              if vec then c.Gpusim.Events.t_vec_load_ops <- 10.0)
            ()
        in
        let scalar = C.of_launch arch (mk false) in
        let vector = C.of_launch arch (mk true) in
        Alcotest.(check bool) "vector faster" true (vector.C.time_us < scalar.C.time_us);
        let expected = arch.Gpusim.Arch.scalar_stream_efficiency
                       /. arch.Gpusim.Arch.vector_stream_efficiency in
        let got = vector.C.detail.C.dram_us /. scalar.C.detail.C.dram_us in
        Alcotest.(check (float 0.01)) "efficiency ratio" expected got);
    Alcotest.test_case "staged style overrides the heuristic" `Quick (fun () ->
        let lr =
          launch_result ~grid:4096
            ~patch:(fun c -> c.Gpusim.Events.t_bytes_dram <- 1e9)
            ()
        in
        let staged = C.of_launch ~style:C.Staged_loads arch lr in
        let scalar = C.of_launch arch lr in
        Alcotest.(check bool) "staged faster" true
          (staged.C.time_us < scalar.C.time_us));
    Alcotest.test_case "dram time is monotone in traffic" `Quick (fun () ->
        let t bytes =
          let lr =
            launch_result ~grid:4096
              ~patch:(fun c -> c.Gpusim.Events.t_bytes_dram <- bytes)
              ()
          in
          (C.of_launch arch lr).C.time_us
        in
        Alcotest.(check bool) "monotone" true (t 1e6 <= t 1e7 && t 1e7 <= t 1e9));
  ]

let program_tests =
  [
    Alcotest.test_case "kernel gap charged between launches" `Quick (fun () ->
        let lr = launch_result ~grid:1 ~cp:10.0 ~patch:(fun _ -> ()) () in
        let c = C.of_launch arch lr in
        let one = C.of_program arch ~n_inits:0 [ c ] in
        let two = C.of_program arch ~n_inits:0 [ c; c ] in
        Alcotest.(check (float 0.001)) "gap"
          (c.C.time_us +. arch.Gpusim.Arch.kernel_gap_us)
          (two -. one));
    Alcotest.test_case "init overhead charged per buffer" `Quick (fun () ->
        let lr = launch_result ~grid:1 ~cp:10.0 ~patch:(fun _ -> ()) () in
        let c = C.of_launch arch lr in
        let base = C.of_program arch ~n_inits:0 [ c ] in
        let with_init = C.of_program arch ~n_inits:2 [ c ] in
        Alcotest.(check (float 0.001)) "inits"
          (2.0 *. arch.Gpusim.Arch.init_overhead_us)
          (with_init -. base));
  ]

let arch_tests =
  [
    Alcotest.test_case "presets resolve by generation name" `Quick (fun () ->
        List.iter
          (fun name ->
            match Gpusim.Arch.by_name name with
            | Some _ -> ()
            | None -> Alcotest.failf "missing preset %s" name)
          [ "kepler"; "maxwell"; "pascal"; "Tesla K40c" ]);
    Alcotest.test_case "unknown arch is None" `Quick (fun () ->
        Alcotest.(check bool) "none" true (Gpusim.Arch.by_name "turing" = None));
    Alcotest.test_case "volta resolves as a forward-portability preset" `Quick
      (fun () ->
        Alcotest.(check bool) "volta" true (Gpusim.Arch.by_name "volta" <> None);
        Alcotest.(check bool) "not in the paper's testbeds" true
          (not (List.mem Gpusim.Arch.volta_v100 Gpusim.Arch.presets)));
    Alcotest.test_case "paper-relevant preset properties" `Quick (fun () ->
        let k = Gpusim.Arch.kepler_k40c
        and m = Gpusim.Arch.maxwell_gtx980
        and p = Gpusim.Arch.pascal_p100 in
        Alcotest.(check bool) "kepler locks" true
          (k.Gpusim.Arch.shared_atomic = Gpusim.Arch.Lock_update_unlock);
        Alcotest.(check bool) "maxwell native" true
          (m.Gpusim.Arch.shared_atomic = Gpusim.Arch.Native);
        Alcotest.(check bool) "only pascal has scopes" true
          ((not k.Gpusim.Arch.has_scoped_atomics)
          && (not m.Gpusim.Arch.has_scoped_atomics)
          && p.Gpusim.Arch.has_scoped_atomics);
        Alcotest.(check bool) "vector beats scalar everywhere" true
          (List.for_all
             (fun a ->
               a.Gpusim.Arch.vector_stream_efficiency
               > a.Gpusim.Arch.scalar_stream_efficiency)
             Gpusim.Arch.presets));
  ]

(* every counter, in [totals_fields] order: the profile table, the
   Prometheus exposition and [Stats.to_json] all take these names *)
let counter_names =
  [
    "launches"; "warp_insts"; "alu_insts"; "gld_warp_ops"; "gld_trans";
    "gst_trans"; "bytes_dram"; "shared_ops"; "shared_serial"; "shfl_insts";
    "syncs"; "branches"; "divergent_branches"; "atomic_global_ops";
    "atomic_global_trans"; "atomic_shared_ops"; "atomic_shared_serial";
    "vec_load_ops"; "max_heat";
  ]

(* a record whose counters all differ: the [i]th name reads [f i] *)
let counters f =
  Gpusim.Events.totals_of_fields (fun name ->
      let rec index i = function
        | [] -> Alcotest.failf "unknown counter %s" name
        | n :: rest -> if n = name then i else index (i + 1) rest
      in
      f (index 0 counter_names))

(* check every counter of [c] by name against [expected i] *)
let check_counters label expected c =
  List.iteri
    (fun i (name, v) ->
      Alcotest.(check string) (label ^ " order") (List.nth counter_names i) name;
      Alcotest.(check (float 0.0)) (label ^ " " ^ name) (expected i) v)
    (Gpusim.Events.totals_fields c);
  Alcotest.(check int) (label ^ " count") (List.length counter_names)
    (List.length (Gpusim.Events.totals_fields c))

let events_tests =
  let module E = Gpusim.Events in
  let module N = Device_ir.Counters in
  [
    Alcotest.test_case "scale_from multiplies only the delta" `Quick (fun () ->
        let c = N.zero () in
        c.E.t_gld_trans <- 10.0;
        let snap = N.copy c in
        c.E.t_gld_trans <- 14.0;
        N.scale_from c snap ~factor:5.0;
        (* 10 + 5 * (14 - 10) *)
        Alcotest.(check (float 1e-9)) "scaled" 30.0 c.E.t_gld_trans);
    Alcotest.test_case "scale_from touches every scalar counter" `Quick (fun () ->
        let snap = counters (fun i -> float_of_int i) in
        let c = counters (fun i -> float_of_int (3 * i + 1)) in
        N.scale_from c snap ~factor:2.0;
        (* x + (2 - 1)(x - s) with x = 3i + 1, s = i *)
        check_counters "scaled" (fun i -> float_of_int (5 * i + 2)) c);
    Alcotest.test_case "add sums every counter and keeps the hotter launch"
      `Quick (fun () ->
        let hot = List.length counter_names - 1 in
        let a = counters (fun i -> float_of_int (i + 1)) in
        let b = counters (fun i -> if i = hot then 40.0 else float_of_int (10 * i)) in
        N.add ~scale:3.0 a b;
        check_counters "a + 3b"
          (fun i -> if i = hot then 40.0 else float_of_int (i + 1 + (30 * i)))
          a;
        (* max_heat does not sum: the aggregate keeps the worst launch *)
        let cool = counters (fun _ -> 1.0) in
        N.add cool (counters (fun i -> if i = hot then 7.0 else 0.0));
        Alcotest.(check (float 0.0)) "hotter source wins" 7.0 cool.E.t_max_heat;
        N.add cool (counters (fun i -> if i = hot then 2.0 else 0.0));
        Alcotest.(check (float 0.0)) "cooler source loses" 7.0 cool.E.t_max_heat);
    Alcotest.test_case "totals_of_fields inverts totals_fields" `Quick (fun () ->
        let c = counters (fun i -> float_of_int (i * i) +. 0.5) in
        let fields = E.totals_fields c in
        check_counters "round trip"
          (fun i -> float_of_int (i * i) +. 0.5)
          (E.totals_of_fields (fun name -> List.assoc name fields)));
    Alcotest.test_case "scale_all scales address heat too" `Quick (fun () ->
        let ev = E.create () in
        E.heat ev ~buffer:0 ~index:0 ~by:4.0;
        E.heat ev ~buffer:0 ~index:1 ~by:1.0;
        ev.E.counts.E.t_bytes_dram <- 100.0;
        E.scale_all ev ~factor:3.0;
        Alcotest.(check (float 1e-9)) "heat" 12.0 (E.max_heat ev);
        Alcotest.(check (float 1e-9)) "bytes" 300.0 ev.E.counts.E.t_bytes_dram);
    Alcotest.test_case "max_heat of no atomics is zero" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "zero" 0.0 (E.max_heat (E.create ())));
    Alcotest.test_case "heat accumulates per address" `Quick (fun () ->
        let ev = E.create () in
        E.heat ev ~buffer:1 ~index:5 ~by:2.0;
        E.heat ev ~buffer:1 ~index:5 ~by:3.0;
        E.heat ev ~buffer:2 ~index:5 ~by:4.0;
        Alcotest.(check (float 1e-9)) "hottest" 5.0 (E.max_heat ev));
  ]

let () =
  Alcotest.run "cost"
    [
      ("occupancy", occupancy_tests);
      ("resource terms", term_tests);
      ("program aggregation", program_tests);
      ("architectures", arch_tests);
      ("events", events_tests);
    ]
