(* Device-fleet tests: failure-profile parsing and semantics, seeded
   fail-stop draws, health-aware routing and lifecycle (drain, spare
   promotion, eject/readmit hysteresis), fail-stop rerouting that never
   loses a request, the hedge accounting property (a hedge-won request
   charges exactly one response to Stats), retry-backoff jitter bounds
   and jitter-stream independence from the fault stream, and the
   env-parameterized chaos replay the CI fleet-chaos job sweeps
   (FLEET_SEED x FLEET_PROFILE). *)

module V = Synthesis.Version
module P = Synthesis.Planner
module Service = Runtime.Service
module Stats = Runtime.Stats
module F = Runtime.Fleet
module R = Gpusim.Runner
module Fault = Gpusim.Fault

let plan = lazy (P.sum ())
let arch = Gpusim.Arch.kepler_k40c
let candidates = lazy (List.map V.of_figure6 [ "a"; "m"; "o" ])

let service ?resilience ?guard ?fault ?jitter_seed ?cands () =
  let candidates =
    match cands with Some cs -> cs | None -> Lazy.force candidates
  in
  Service.create ~candidates ?resilience ?guard ?fault ?jitter_seed
    (Lazy.force plan)

let dense n = R.Dense (Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8)))
let request input = { Service.req_arch = arch; req_input = input }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* submit [sizes] one by one; returns (ok, lost) *)
let replay svc sizes =
  List.fold_left
    (fun (ok, lost) n ->
      match Service.submit_result svc (request (dense n)) with
      | Ok _ -> (ok + 1, lost)
      | Error _ -> (ok, lost + 1))
    (0, 0) sizes

(* -------------------------------------------------------------- *)
(* Failure profiles                                                *)
(* -------------------------------------------------------------- *)

let profile_tests =
  [
    Alcotest.test_case "profile names round-trip through the parser" `Quick
      (fun () ->
        List.iter
          (fun p ->
            let name = Fault.profile_name p in
            match Fault.profile_of_string name with
            | Ok p' ->
                Alcotest.(check string) name name (Fault.profile_name p');
                Alcotest.(check bool) (name ^ " equal") true (p = p')
            | Error e -> Alcotest.failf "%s did not parse back: %s" name e)
          [
            Fault.Healthy;
            Fault.Fail_stop 17;
            Fault.Fail_slow { sl_onset = 5; sl_ramp = 1; sl_factor = 10.0 };
            Fault.Fail_slow { sl_onset = 8; sl_ramp = 16; sl_factor = 2.5 };
            Fault.Flaky 0.25;
            Fault.Recovering { rc_until = 30; rc_factor = 4.0 };
          ]);
    Alcotest.test_case "malformed profile specs are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Fault.profile_of_string s with
            | Ok p ->
                Alcotest.failf "%S parsed as %s" s (Fault.profile_name p)
            | Error _ -> ())
          [
            "bogus";
            "fail-stop@0";
            "fail-stop@";
            "fail-slow@5";
            "fail-slow@0x10";
            "fail-slow@5x0.5";
            "flaky@1.5";
            "flaky@-0.1";
            "recovering@5";
          ]);
    Alcotest.test_case "fail-slow ramps linearly from onset to factor" `Quick
      (fun () ->
        let p =
          Fault.Fail_slow { sl_onset = 10; sl_ramp = 4; sl_factor = 9.0 }
        in
        let at d = Fault.profile_slowdown p ~dispatch:d in
        Alcotest.(check (float 1e-9)) "before onset" 1.0 (at 9);
        Alcotest.(check (float 1e-9)) "first quarter" 3.0 (at 10);
        Alcotest.(check (float 1e-9)) "half" 5.0 (at 11);
        Alcotest.(check (float 1e-9)) "full" 9.0 (at 13);
        Alcotest.(check (float 1e-9)) "stays full" 9.0 (at 1000));
    Alcotest.test_case "recovering is slow until rc_until, then nominal" `Quick
      (fun () ->
        let p = Fault.Recovering { rc_until = 6; rc_factor = 20.0 } in
        Alcotest.(check (float 1e-9)) "during" 20.0
          (Fault.profile_slowdown p ~dispatch:6);
        Alcotest.(check (float 1e-9)) "after" 1.0
          (Fault.profile_slowdown p ~dispatch:7));
    Alcotest.test_case "fail-stop kills at and after its dispatch" `Quick
      (fun () ->
        let p = Fault.Fail_stop 5 in
        Alcotest.(check bool) "alive before" false
          (Fault.profile_dead p ~dispatch:4);
        Alcotest.(check bool) "dead at" true (Fault.profile_dead p ~dispatch:5);
        Alcotest.(check bool) "dead after" true
          (Fault.profile_dead p ~dispatch:6);
        Alcotest.(check bool) "others never die" false
          (Fault.profile_dead Fault.Healthy ~dispatch:1000));
    Alcotest.test_case "seeded fail-stop is deterministic and in-horizon"
      `Quick (fun () ->
        let draws =
          List.map
            (fun seed -> Fault.seeded_fail_stop ~seed ~horizon:50)
            [ 1; 2; 3; 1 ]
        in
        (match draws with
        | [ a; b; c; a' ] ->
            Alcotest.(check bool) "same seed, same death" true (a = a');
            Alcotest.(check bool) "seeds decorrelate" true
              (not (a = b && b = c));
            List.iter
              (fun p ->
                match p with
                | Fault.Fail_stop at ->
                    Alcotest.(check bool) "within horizon" true
                      (at >= 1 && at <= 50)
                | _ -> Alcotest.fail "expected Fail_stop")
              draws
        | _ -> assert false));
  ]

(* -------------------------------------------------------------- *)
(* Routing and lifecycle (fleet driven directly)                    *)
(* -------------------------------------------------------------- *)

let fleet_of ?config ?(seed = 1) specs = F.create ?config ~seed specs

let active_spec ?profile () = F.spec ?profile arch
let spare_spec () = F.spec ~spare:true arch

let dispatch_once fl =
  match F.route fl with
  | None -> Alcotest.fail "expected a routable device"
  | Some d ->
      F.begin_dispatch fl d;
      F.end_dispatch fl d;
      d

let routing_tests =
  [
    Alcotest.test_case "creation validates the device list" `Quick (fun () ->
        expect_invalid_arg "empty" (fun () -> fleet_of []);
        expect_invalid_arg "all spare" (fun () ->
            fleet_of [ spare_spec (); spare_spec () ]);
        expect_invalid_arg "bad profile" (fun () ->
            fleet_of [ active_spec ~profile:(Fault.Fail_stop 0) () ]);
        expect_invalid_arg "bad thresholds" (fun () ->
            F.create
              ~config:
                { F.default_config with F.fl_readmit_above = 0.1 }
              [ active_spec () ]));
    Alcotest.test_case "routing is least-loaded round-robin when healthy"
      `Quick (fun () ->
        let fl = fleet_of [ active_spec (); active_spec (); active_spec () ] in
        for _ = 1 to 9 do
          ignore (dispatch_once fl)
        done;
        List.iter
          (fun d ->
            Alcotest.(check int)
              (F.label d ^ " dispatches")
              3 (F.dispatches d))
          (F.devices fl));
    Alcotest.test_case "excluding removes the hedge primary" `Quick (fun () ->
        let fl = fleet_of [ active_spec (); active_spec () ] in
        match F.route fl with
        | None -> Alcotest.fail "no device"
        | Some d -> (
            match F.route ~excluding:d ~probe:false fl with
            | None -> Alcotest.fail "no second device"
            | Some d2 ->
                Alcotest.(check bool) "different device" true
                  (F.id d <> F.id d2);
                (match
                   F.route ~excluding:d ~probe:false
                     (fleet_of [ active_spec () ])
                 with
                | Some _ -> ()
                | None -> ());
                (* a 1-device fleet has nothing besides the primary *)
                let solo = fleet_of [ active_spec () ] in
                let p =
                  match F.route solo with Some p -> p | None -> assert false
                in
                Alcotest.(check bool) "nothing to hedge to" true
                  (F.route ~excluding:p ~probe:false solo = None)));
    Alcotest.test_case "spares serve nothing until promoted" `Quick (fun () ->
        let fl = fleet_of [ active_spec (); spare_spec () ] in
        for _ = 1 to 6 do
          ignore (dispatch_once fl)
        done;
        let spare = List.nth (F.devices fl) 1 in
        Alcotest.(check int) "spare untouched" 0 (F.dispatches spare);
        Alcotest.(check string) "spare state" "spare"
          (F.state_name (F.dev_state spare)));
    Alcotest.test_case "mark_dead promotes a spare and stops routing" `Quick
      (fun () ->
        let fl = fleet_of [ active_spec (); spare_spec () ] in
        let d0 = List.hd (F.devices fl) in
        F.mark_dead fl d0;
        Alcotest.(check string) "dead" "dead" (F.state_name (F.dev_state d0));
        let spare = List.nth (F.devices fl) 1 in
        Alcotest.(check string) "spare promoted" "active"
          (F.state_name (F.dev_state spare));
        for _ = 1 to 4 do
          let d = dispatch_once fl in
          Alcotest.(check int) "only the promoted spare routes" (F.id spare)
            (F.id d)
        done);
    Alcotest.test_case "drain finishes in-flight work, takes no new traffic"
      `Quick (fun () ->
        let fl = fleet_of [ active_spec (); active_spec (); spare_spec () ] in
        let d0 = List.hd (F.devices fl) in
        (* drain with one dispatch in flight: Draining until it lands *)
        F.begin_dispatch fl d0;
        F.drain fl (F.id d0);
        Alcotest.(check string) "draining" "draining"
          (F.state_name (F.dev_state d0));
        F.end_dispatch fl d0;
        Alcotest.(check string) "drained" "drained"
          (F.state_name (F.dev_state d0));
        for _ = 1 to 6 do
          let d = dispatch_once fl in
          Alcotest.(check bool) "drained device not routed" true
            (F.id d <> F.id d0)
        done;
        (* operator readmission returns it to the pool *)
        F.activate fl (F.id d0);
        Alcotest.(check string) "reactivated" "active"
          (F.state_name (F.dev_state d0));
        expect_invalid_arg "unknown id" (fun () -> F.drain fl 99));
    Alcotest.test_case "health ejects below threshold, readmits with hysteresis"
      `Quick (fun () ->
        let fl =
          F.create ~seed:1
            ~config:{ F.default_config with F.fl_probe_period = 4 }
            [ active_spec (); active_spec () ]
        in
        let d0 = List.hd (F.devices fl) in
        (* feed bad ratios until ejection *)
        let guard = ref 0 in
        while F.dev_state d0 <> F.Ejected && !guard < 100 do
          incr guard;
          F.observe fl d0 ~ratio:0.05
        done;
        Alcotest.(check string) "ejected" "ejected"
          (F.state_name (F.dev_state d0));
        (* one good sample is not enough to readmit (hysteresis)... *)
        F.observe fl d0 ~ratio:1.0;
        Alcotest.(check string) "still ejected" "ejected"
          (F.state_name (F.dev_state d0));
        (* ...a run of good samples is *)
        let guard = ref 0 in
        while F.dev_state d0 <> F.Active && !guard < 100 do
          incr guard;
          F.observe fl d0 ~ratio:1.0
        done;
        Alcotest.(check string) "readmitted" "active"
          (F.state_name (F.dev_state d0)));
  ]

(* -------------------------------------------------------------- *)
(* Service integration: reroute, eject, readmit, report            *)
(* -------------------------------------------------------------- *)

let attach ?config ?(seed = 1) ?(hedging = false) svc specs =
  let fl = F.create ?config ~seed specs in
  F.set_hedging fl hedging;
  Service.attach_fleet svc fl;
  fl

let sizes n = List.init n (fun i -> [| 512; 1024; 2048 |].(i mod 3))

let integration_tests =
  [
    Alcotest.test_case "fail-stop death reroutes; no request is lost" `Quick
      (fun () ->
        let svc = service () in
        let fl =
          attach svc
            [
              active_spec ();
              active_spec ();
              active_spec ~profile:(Fault.Fail_stop 4) ();
              spare_spec ();
            ]
        in
        let ok, lost = replay svc (sizes 30) in
        Alcotest.(check int) "all served" 30 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let stats = Service.stats svc in
        Alcotest.(check int) "one death" 1 (Stats.fleet_deaths stats);
        Alcotest.(check int) "spare promoted" 1 (Stats.fleet_promotions stats);
        Alcotest.(check bool) "reroutes counted" true
          (Stats.fleet_reroutes stats >= 1);
        let dead = List.nth (F.devices fl) 2 in
        Alcotest.(check string) "device dead" "dead"
          (F.state_name (F.dev_state dead));
        Alcotest.(check int) "died before its death dispatch" 3
          (F.dispatches dead);
        Alcotest.(check bool) "no undetected faulty" true
          (F.undetected_faulty fl = []));
    Alcotest.test_case "fail-slow drift is detected and ejected" `Quick
      (fun () ->
        let svc = service () in
        let fl =
          attach svc
            ~config:{ F.default_config with F.fl_probe_period = 4 }
            [
              active_spec
                ~profile:
                  (Fault.Fail_slow
                     { sl_onset = 1; sl_ramp = 1; sl_factor = 20.0 })
                ();
              active_spec ();
            ]
        in
        let ok, lost = replay svc (sizes 40) in
        Alcotest.(check int) "all served" 40 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let slow = List.hd (F.devices fl) in
        Alcotest.(check string) "ejected" "ejected"
          (F.state_name (F.dev_state slow));
        Alcotest.(check int) "one ejection" 1
          (Stats.fleet_ejects (Service.stats svc));
        Alcotest.(check bool) "no undetected faulty" true
          (F.undetected_faulty fl = []));
    Alcotest.test_case "recovering device is ejected, then readmitted by probes"
      `Quick (fun () ->
        let svc = service () in
        let fl =
          attach svc
            ~config:{ F.default_config with F.fl_probe_period = 4 }
            [
              active_spec
                ~profile:
                  (Fault.Recovering { rc_until = 6; rc_factor = 20.0 })
                ();
              active_spec ();
            ]
        in
        let ok, lost = replay svc (sizes 60) in
        Alcotest.(check int) "all served" 60 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let stats = Service.stats svc in
        Alcotest.(check int) "ejected once" 1 (Stats.fleet_ejects stats);
        Alcotest.(check int) "readmitted once" 1 (Stats.fleet_readmits stats);
        let d0 = List.hd (F.devices fl) in
        Alcotest.(check string) "back in the pool" "active"
          (F.state_name (F.dev_state d0)));
    Alcotest.test_case "a fully dead fleet degrades; zero requests lost" `Quick
      (fun () ->
        let svc = service () in
        ignore
          (attach svc [ active_spec ~profile:(Fault.Fail_stop 1) () ]);
        let ok, lost = replay svc (sizes 5) in
        Alcotest.(check int) "all answered" 5 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let stats = Service.stats svc in
        Alcotest.(check int) "all degraded" 5 (Stats.degraded stats);
        Alcotest.(check bool) "winner is the fleet-down host path" true
          (List.mem_assoc "host-reference (fleet-down)"
             (Stats.winner_histogram stats)));
    Alcotest.test_case "fleet section appears only when a fleet fired" `Quick
      (fun () ->
        let quiet = service () in
        ignore (replay quiet (sizes 3));
        Alcotest.(check bool) "no fleet section" false
          (contains ~needle:"device fleet" (Service.report quiet));
        Alcotest.(check bool) "gate closed" false
          (Stats.fleet_fired (Service.stats quiet));
        let svc = service () in
        ignore (attach svc [ active_spec (); active_spec () ]);
        ignore (replay svc (sizes 3));
        Alcotest.(check bool) "fleet section present" true
          (contains ~needle:"device fleet" (Service.report svc));
        Alcotest.(check bool) "prometheus families present" true
          (contains ~needle:"tangram_fleet_dispatches_total"
             (Stats.to_prometheus (Service.stats svc))));
    Alcotest.test_case "detach restores the single-device path" `Quick
      (fun () ->
        let svc = service () in
        ignore (attach svc [ active_spec (); active_spec () ]);
        ignore (replay svc (sizes 2));
        let before = Stats.fleet_dispatches (Service.stats svc) in
        Service.detach_fleet svc;
        ignore (replay svc (sizes 4));
        Alcotest.(check int) "no fleet dispatches after detach" before
          (Stats.fleet_dispatches (Service.stats svc)));
  ]

(* -------------------------------------------------------------- *)
(* Hedge accounting: exactly one response charged per request       *)
(* -------------------------------------------------------------- *)

(* A 2-device fleet where device 0 is 10x slow from its first dispatch
   and hedging is forced (deadline = half the observed p95, armed after
   one sample): roughly every second request fires a hedge, and hedges
   off the slow primary win. Whatever mix of wins and losses a run
   produces, the response-level counters — winner histogram, SDC witness
   checks, kernel-counter request totals — must each equal the request
   count exactly: the cancelled loser charges nothing. *)
let hedge_accounting =
  QCheck.Test.make ~count:20 ~name:"hedge-won request charges one response"
    QCheck.(
      pair (int_range 5 16) (list_of_size (Gen.return 3) (int_range 0 3)))
    (fun (n_requests, size_picks) ->
      let svc = service () in
      Service.set_profiling svc true;
      let fl =
        attach svc ~hedging:true
          ~config:
            {
              F.default_config with
              F.fl_hedge_min_samples = 1;
              fl_hedge_mult = 0.5;
              (* health thresholds at zero: nothing ejects, so routing
                 keeps alternating onto the slow primary *)
              fl_suspect_below = 0.0;
              fl_eject_below = 0.0;
              fl_readmit_above = 0.1;
            }
          [
            active_spec
              ~profile:
                (Fault.Fail_slow { sl_onset = 1; sl_ramp = 1; sl_factor = 10.0 })
              ();
            active_spec ();
          ]
      in
      let all_sizes = [| 512; 1024; 2048; 4096 |] in
      let reqs =
        List.init n_requests (fun i ->
            all_sizes.(List.nth size_picks (i mod 3) mod 4))
      in
      let ok, lost = replay svc reqs in
      let stats = Service.stats svc in
      let winner_total =
        List.fold_left (fun a (_, c) -> a + c) 0 (Stats.winner_histogram stats)
      in
      let kernel_total =
        List.fold_left
          (fun a (_, (reqs, _)) -> a + reqs)
          0
          (Stats.kernel_rows stats)
      in
      ignore fl;
      ok = n_requests && lost = 0
      && winner_total = n_requests
      && Stats.sdc_checks stats = n_requests
      && kernel_total = n_requests
      && Stats.faults stats = 0
      && Stats.quarantines stats = 0
      && Stats.fleet_hedges_won stats <= Stats.fleet_hedges_fired stats)

let hedge_tests =
  [
    QCheck_alcotest.to_alcotest hedge_accounting;
    Alcotest.test_case "forced hedging fires and wins off a slow primary"
      `Quick (fun () ->
        let svc = service () in
        ignore
          (attach svc ~hedging:true
             ~config:
               {
                 F.default_config with
                 F.fl_hedge_min_samples = 1;
                 fl_hedge_mult = 0.5;
                 fl_suspect_below = 0.0;
                 fl_eject_below = 0.0;
                 fl_readmit_above = 0.1;
               }
             [
               active_spec
                 ~profile:
                   (Fault.Fail_slow
                      { sl_onset = 1; sl_ramp = 1; sl_factor = 10.0 })
                 ();
               active_spec ();
             ]);
        let ok, lost = replay svc (List.init 12 (fun _ -> 1024)) in
        Alcotest.(check int) "all served" 12 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let stats = Service.stats svc in
        Alcotest.(check bool) "hedges fired" true
          (Stats.fleet_hedges_fired stats > 0);
        Alcotest.(check bool) "hedges won off the slow primary" true
          (Stats.fleet_hedges_won stats > 0));
    (* d0 turns 10x slow at its 17th dispatch, so hedges start firing
       just as d1 reaches the dispatch that kills it: the hedge must
       bounce off the dying device exactly like a primary does *)
    Alcotest.test_case "a hedge never lands on a device at its fail-stop"
      `Quick (fun () ->
        let svc = service () in
        let fl =
          attach svc ~hedging:true
            [
              active_spec
                ~profile:
                  (Fault.Fail_slow
                     { sl_onset = 17; sl_ramp = 1; sl_factor = 10.0 })
                ();
              active_spec ~profile:(Fault.Fail_stop 17) ();
            ]
        in
        let ok, lost = replay svc (List.init 40 (fun _ -> 4096)) in
        Alcotest.(check int) "all served" 40 ok;
        Alcotest.(check int) "none lost" 0 lost;
        let d1 = List.nth (F.devices fl) 1 in
        Alcotest.(check bool)
          (Printf.sprintf "d1 stopped short of its death (%d dispatches)"
             (F.dispatches d1))
          true
          (F.dispatches d1 < 17);
        Alcotest.(check string) "d1 dead" "dead"
          (F.state_name (F.dev_state d1)));
  ]

(* -------------------------------------------------------------- *)
(* Retry-backoff jitter: bounds and fault-stream independence       *)
(* -------------------------------------------------------------- *)

(* every attempt raises a transient, so each request burns exactly
   [r_retry_max] retries (single-candidate ladder) before degrading *)
let always_transient seed =
  Fault.create (Fault.plan ~rate:1.0 ~mix:[ (Fault.Transient, 1.0) ] ~seed ())

let backoff_service ~jitter_seed ~fault_seed () =
  service
    ~cands:[ V.of_figure6 "m" ]
      (* the breaker must never open: every request walks the full retry
         ladder, so the retry/backoff counts are exact multiples *)
    ~resilience:
      { Service.default_resilience with Service.r_quarantine_threshold = 1000 }
    ~fault:(always_transient fault_seed) ~jitter_seed
    ~guard:(Runtime.Guard.config ~enabled:false ())
    ()

let backoff_tests =
  [
    Alcotest.test_case "jittered backoff stays inside its configured bounds"
      `Quick (fun () ->
        let svc = backoff_service ~jitter_seed:11 ~fault_seed:3 () in
        let requests = 5 in
        let ok, lost = replay svc (List.init requests (fun _ -> 1024)) in
        Alcotest.(check int) "all answered (degraded)" requests ok;
        Alcotest.(check int) "none lost" 0 lost;
        let stats = Service.stats svc in
        let rz = Service.default_resilience in
        Alcotest.(check int) "retry-max retries per request"
          (requests * rz.Service.r_retry_max)
          (Stats.retries stats);
        (* per request: base * (1 + mult + mult^2), each draw jittered
           within +/- r_jitter *)
        let nominal =
          rz.Service.r_backoff_base_us
          *. (1.0 +. rz.Service.r_backoff_mult
            +. (rz.Service.r_backoff_mult *. rz.Service.r_backoff_mult))
          *. float_of_int requests
        in
        let total = Stats.backoff_total_us stats in
        Alcotest.(check bool)
          (Printf.sprintf "total %.1f within [%.1f, %.1f]" total
             (nominal *. (1.0 -. rz.Service.r_jitter))
             (nominal *. (1.0 +. rz.Service.r_jitter)))
          true
          (total >= nominal *. (1.0 -. rz.Service.r_jitter)
          && total <= nominal *. (1.0 +. rz.Service.r_jitter));
        (* the stream is actually jittered, not nominal *)
        Alcotest.(check bool) "jitter moved the delays" true
          (Float.abs (total -. nominal) > 1e-6));
    Alcotest.test_case "jitter stream is independent of the fault stream"
      `Quick (fun () ->
        let total ~jitter_seed ~fault_seed =
          let svc = backoff_service ~jitter_seed ~fault_seed () in
          ignore (replay svc (List.init 5 (fun _ -> 1024)));
          Stats.backoff_total_us (Service.stats svc)
        in
        let a = total ~jitter_seed:11 ~fault_seed:3 in
        let b = total ~jitter_seed:11 ~fault_seed:77 in
        let c = total ~jitter_seed:12 ~fault_seed:3 in
        (* same jitter seed + different fault seed: identical delays — a
           reseeded fault plan must never perturb the jitter draws *)
        Alcotest.(check (float 1e-9)) "fault seed does not move jitter" a b;
        (* different jitter seed: genuinely different stream *)
        Alcotest.(check bool) "jitter seed does" true
          (Float.abs (a -. c) > 1e-6));
  ]

(* -------------------------------------------------------------- *)
(* Chaos replay (CI sweeps FLEET_SEED x FLEET_PROFILE)              *)
(* -------------------------------------------------------------- *)

let chaos_tests =
  [
    Alcotest.test_case "seeded chaos replay holds goodput, loses nothing"
      `Slow (fun () ->
        let seed =
          match Sys.getenv_opt "FLEET_SEED" with
          | Some s -> int_of_string s
          | None -> 1
        in
        let profile =
          match Sys.getenv_opt "FLEET_PROFILE" with
          | Some p -> p
          | None -> "mixed"
        in
        let requests = 300 and n_active = 6 in
        let injected i =
          match profile with
          | "fail-stop" ->
              if i < 2 then Fault.seeded_fail_stop ~seed:(seed + i) ~horizon:20
              else Fault.Healthy
          | "fail-slow" ->
              if i < 2 then
                Fault.Fail_slow { sl_onset = 5; sl_ramp = 4; sl_factor = 5.0 }
              else Fault.Healthy
          | "mixed" ->
              if i = 0 then
                Fault.Fail_slow { sl_onset = 5; sl_ramp = 4; sl_factor = 5.0 }
              else if i = 1 then
                Fault.seeded_fail_stop ~seed:(seed + 1) ~horizon:20
              else if i = 2 then Fault.Flaky 0.3
              else Fault.Healthy
          | other -> Alcotest.failf "unknown FLEET_PROFILE %S" other
        in
        (* deterministic mixed-size request list from the seed *)
        let sizes =
          let state = ref (Int64.of_int (seed * 7919)) in
          List.init requests (fun _ ->
              state :=
                Int64.add
                  (Int64.mul !state 6364136223846793005L)
                  1442695040888963407L;
              [| 256; 512; 1024; 2048; 4096 |].(Int64.to_int
                                                  (Int64.logand
                                                     (Int64.shift_right_logical
                                                        !state 33)
                                                     7L)
                                                mod 5))
        in
        let run mk_profile =
          let svc = service () in
          let fl =
            attach svc ~seed ~hedging:true
              ~config:{ F.default_config with F.fl_probe_period = 16 }
              (List.init n_active (fun i -> active_spec ~profile:(mk_profile i) ())
              @ [ spare_spec (); spare_spec () ])
          in
          let ok, lost = replay svc sizes in
          let busy =
            List.fold_left (fun a d -> a +. F.busy_us d) 0.0 (F.devices fl)
          in
          let goodput =
            float_of_int ok /. Float.max (busy /. float_of_int n_active) 1e-9
          in
          (fl, ok, lost, goodput)
        in
        let _, ok_h, lost_h, goodput_h = run (fun _ -> Fault.Healthy) in
        let fl, ok_c, lost_c, goodput_c = run injected in
        Alcotest.(check int) "healthy run lost nothing" 0 lost_h;
        Alcotest.(check int) "healthy run served all" requests ok_h;
        Alcotest.(check int) "chaos run lost nothing" 0 lost_c;
        Alcotest.(check int) "chaos run served all" requests ok_c;
        Alcotest.(check bool)
          (Printf.sprintf "goodput held: %.0f vs healthy %.0f" goodput_c
             goodput_h)
          true
          (goodput_c >= 0.6 *. goodput_h);
        (* flaky devices are the retry layer's job, not the scorer's —
           only the single-failure-mode profiles assert full detection *)
        if profile <> "mixed" then
          Alcotest.(check bool) "every injected device detected" true
            (F.undetected_faulty fl = []));
  ]

let () =
  Alcotest.run "fleet"
    [
      ("profiles", profile_tests);
      ("routing", routing_tests);
      ("integration", integration_tests);
      ("hedging", hedge_tests);
      ("backoff", backoff_tests);
      ("chaos", chaos_tests);
    ]
