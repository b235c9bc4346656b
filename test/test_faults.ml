(* Fault-tolerance tests: deterministic seeded injection, transient-fault
   retry, circuit-breaker quarantine with half-open re-probe, the
   fallback ladder's ranking order, the degraded host-reference path,
   corrupt-cache recovery, malformed-request rejection, and a chaos
   replay (1000 mixed requests at a 5% fault rate) asserting zero
   crashes and fully correct answers.

   The chaos seed honours the CHAOS_SEED environment variable (default
   1), which is how CI sweeps several schedules. *)

module V = Synthesis.Version
module P = Synthesis.Planner
module PC = Runtime.Plan_cache
module Service = Runtime.Service
module Stats = Runtime.Stats
module R = Gpusim.Runner
module Fault = Gpusim.Fault

let plan = lazy (P.sum ())

(* a small candidate pool keeps the cold path fast in tests *)
let candidates = lazy (List.map V.of_figure6 [ "a"; "m"; "o" ])

let service ?cache ?resilience ?fault () =
  Service.create ?cache ~candidates:(Lazy.force candidates) ?resilience ?fault
    (Lazy.force plan)

let arch = Gpusim.Arch.kepler_k40c

let dense n = R.Dense (Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8)))

let reference (input : R.input) : float =
  P.reference_input (Lazy.force plan) input

let request input = { Service.req_arch = arch; req_input = input }

let check_close = Alcotest.(check (float 1e-6))

(* -------------------------------------------------------------- *)
(* Seeded determinism                                              *)
(* -------------------------------------------------------------- *)

let verdict_trace ~seed ~rate n =
  let f = Fault.create (Fault.plan ~rate ~seed ()) in
  List.init n (fun i ->
      let version = if i mod 2 = 0 then "even-version" else "odd-version" in
      match Fault.roll f ~version with
      | Fault.Pass -> "pass"
      | Fault.Fault k -> Fault.kind_name k)

let determinism_tests =
  [
    Alcotest.test_case "same seed replays the same fault schedule" `Quick
      (fun () ->
        let a = verdict_trace ~seed:11 ~rate:0.4 300 in
        let b = verdict_trace ~seed:11 ~rate:0.4 300 in
        Alcotest.(check (list string)) "identical schedules" a b;
        Alcotest.(check bool) "some faults injected" true
          (List.exists (fun v -> v <> "pass") a);
        Alcotest.(check bool) "some passes" true (List.mem "pass" a));
    Alcotest.test_case "different seeds draw different schedules" `Quick
      (fun () ->
        let a = verdict_trace ~seed:11 ~rate:0.4 300 in
        let b = verdict_trace ~seed:12 ~rate:0.4 300 in
        Alcotest.(check bool) "schedules differ" true (a <> b));
    Alcotest.test_case "injection counters add up" `Quick (fun () ->
        let f = Fault.create (Fault.plan ~rate:0.5 ~seed:3 ()) in
        for i = 1 to 200 do
          ignore (Fault.roll f ~version:(string_of_int (i mod 4)))
        done;
        Alcotest.(check int) "rolls" 200 (Fault.rolls f);
        Alcotest.(check int) "per-kind sums to total" (Fault.injected f)
          (List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault.injected_by_kind f)));
    Alcotest.test_case "invalid plans are refused" `Quick (fun () ->
        Alcotest.check_raises "rate > 1" (Invalid_argument "Fault.plan: rate 1.5 outside [0, 1]")
          (fun () -> ignore (Fault.plan ~rate:1.5 ~seed:1 ())));
  ]

(* -------------------------------------------------------------- *)
(* Retry with backoff                                              *)
(* -------------------------------------------------------------- *)

let retry_tests =
  [
    Alcotest.test_case "transient faults are retried to success" `Quick
      (fun () ->
        (* 100% transient mix: every fault is retryable, so a generous
           retry budget always lands on a correct answer *)
        let fault =
          Fault.create
            (Fault.plan ~rate:0.6 ~mix:[ (Fault.Transient, 1.0) ] ~seed:5 ())
        in
        let resilience =
          { Service.default_resilience with r_retry_max = 12 }
        in
        let svc = service ~resilience ~fault () in
        let input = dense 1024 in
        for _ = 1 to 20 do
          match Service.submit_result svc (request input) with
          | Error e -> Alcotest.fail (Service.error_message e)
          | Ok r ->
              Alcotest.(check bool) "not degraded" false r.Service.resp_degraded;
              check_close "correct under retries" (reference input)
                r.Service.resp_value
        done;
        let stats = Service.stats svc in
        Alcotest.(check bool) "retries happened" true (Stats.retries stats > 0);
        Alcotest.(check bool) "backoff was charged" true
          (Stats.backoff_total_us stats > 0.0));
    Alcotest.test_case "no faults means no retries and no backoff" `Quick
      (fun () ->
        let svc = service () in
        let input = dense 512 in
        (match Service.submit_result svc (request input) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r ->
            Alcotest.(check int) "zero retries" 0 r.Service.resp_retries;
            Alcotest.(check int) "winner served" 0 r.Service.resp_fallback);
        let stats = Service.stats svc in
        Alcotest.(check int) "no retries recorded" 0 (Stats.retries stats);
        check_close "no backoff" 0.0 (Stats.backoff_total_us stats));
  ]

(* -------------------------------------------------------------- *)
(* Quarantine: breaker opens, cools down, half-open probes          *)
(* -------------------------------------------------------------- *)

(* only [name] ever faults, with hard (timeout) faults *)
let target_fault name =
  Some
    (Fault.create
       (Fault.plan ~version_rates:[ (name, 1.0) ]
          ~mix:[ (Fault.Timeout, 1.0) ] ~seed:1 ()))

let quarantine_tests =
  [
    Alcotest.test_case "breaker opens at the threshold, probe closes it" `Quick
      (fun () ->
        let resilience =
          { Service.default_resilience with
            r_quarantine_threshold = 3;
            r_cooldown_requests = 2 }
        in
        let svc = service ~resilience () in
        let input = dense 4096 in
        (* learn the bucket fault-free to fix the ranking *)
        let winner =
          match Service.submit_result svc (request input) with
          | Ok r -> r.Service.resp_version
          | Error e -> Alcotest.fail (Service.error_message e)
        in
        let wname = V.name winner in
        let submit () =
          match Service.submit_result svc (request input) with
          | Ok r -> r
          | Error e -> Alcotest.fail (Service.error_message e)
        in
        Service.set_fault svc (target_fault wname);
        (* faults 1 and 2: winner fails, the next rung serves *)
        for _ = 1 to 2 do
          let r = submit () in
          Alcotest.(check bool) "fallback rung serves" true
            (V.name r.Service.resp_version <> wname);
          Alcotest.(check bool) "fallback counted" true
            (r.Service.resp_fallback > 0);
          check_close "fallback is correct" (reference input)
            r.Service.resp_value
        done;
        Alcotest.(check bool) "not yet quarantined" false
          (Service.quarantined svc ~arch:arch.Gpusim.Arch.name ~version:wname);
        (* fault 3 opens the breaker *)
        ignore (submit ());
        Alcotest.(check bool) "breaker open" true
          (Service.quarantined svc ~arch:arch.Gpusim.Arch.name ~version:wname);
        Alcotest.(check bool) "quarantine recorded" true
          (Stats.quarantines (Service.stats svc) > 0);
        let faults_when_opened = Stats.faults (Service.stats svc) in
        (* while open, the winner is skipped without being attempted *)
        let r = submit () in
        Alcotest.(check bool) "quarantined winner skipped" true
          (V.name r.Service.resp_version <> wname);
        Alcotest.(check int) "no attempt charged while open" faults_when_opened
          (Stats.faults (Service.stats svc));
        (* cooldown expires -> half-open probe, still faulty -> re-opens *)
        ignore (submit ());
        Alcotest.(check bool) "failed probe re-opens" true
          (Service.quarantined svc ~arch:arch.Gpusim.Arch.name ~version:wname);
        Alcotest.(check bool) "probe charged a fault" true
          (Stats.faults (Service.stats svc) > faults_when_opened);
        (* the version recovers: the next probe closes the breaker *)
        Service.set_fault svc None;
        ignore (submit ());
        let r = submit () in
        Alcotest.(check string) "winner serves again" wname
          (V.name r.Service.resp_version);
        Alcotest.(check int) "no fallback" 0 r.Service.resp_fallback;
        Alcotest.(check bool) "breaker closed" false
          (Service.quarantined svc ~arch:arch.Gpusim.Arch.name ~version:wname));
    Alcotest.test_case "fallback follows the tuner ranking order" `Quick
      (fun () ->
        let svc = service () in
        let input = dense 4096 in
        (match Service.submit_result svc (request input) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok _ -> ());
        let _, entry =
          match PC.entries (Service.cache svc) with
          | [ ke ] -> ke
          | other ->
              Alcotest.failf "expected one cache entry, found %d"
                (List.length other)
        in
        let ladder = PC.ladder entry in
        Alcotest.(check int) "every candidate survives into the ladder"
          (List.length (Lazy.force candidates))
          (List.length ladder);
        Alcotest.(check string) "ladder head is the winner"
          (V.name entry.PC.e_version)
          (V.name (List.hd ladder).PC.r_version);
        let times = List.map (fun r -> r.PC.r_time_us) ladder in
        Alcotest.(check bool) "ladder is sorted fastest-first" true
          (List.sort compare times = times);
        (* knock out the winner: the second rung must serve *)
        let second = V.name (List.nth ladder 1).PC.r_version in
        Service.set_fault svc (target_fault (V.name entry.PC.e_version));
        match Service.submit_result svc (request input) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r ->
            Alcotest.(check string) "next-fastest rung serves" second
              (V.name r.Service.resp_version));
  ]

(* -------------------------------------------------------------- *)
(* Degraded mode                                                   *)
(* -------------------------------------------------------------- *)

let all_timeout seed =
  Fault.create (Fault.plan ~rate:1.0 ~mix:[ (Fault.Timeout, 1.0) ] ~seed ())

let degraded_tests =
  [
    Alcotest.test_case "every rung down degrades to the host reference" `Quick
      (fun () ->
        let svc = service ~fault:(all_timeout 2) () in
        let input = dense 2048 in
        match Service.submit_result svc (request input) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r ->
            Alcotest.(check bool) "degraded flag" true r.Service.resp_degraded;
            Alcotest.(check bool) "degraded answers are exact" true
              r.Service.resp_exact;
            check_close "host reference value" (reference input)
              r.Service.resp_value;
            Alcotest.(check bool) "degradation recorded" true
              (Stats.degraded (Service.stats svc) > 0));
    Alcotest.test_case "degraded serving also covers synthetic inputs" `Quick
      (fun () ->
        let svc = service ~fault:(all_timeout 2) () in
        let pattern = Array.init 64 (fun i -> float_of_int (i land 7)) in
        let input = R.Synthetic { n = 1 lsl 20; pattern } in
        match Service.submit_result svc (request input) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r ->
            Alcotest.(check bool) "degraded flag" true r.Service.resp_degraded;
            check_close "closed-form reference" (reference input)
              r.Service.resp_value);
    Alcotest.test_case "raising submit does not raise when degraded" `Quick
      (fun () ->
        let svc = service ~fault:(all_timeout 2) () in
        let r = Service.submit svc (request (dense 256)) in
        Alcotest.(check bool) "degraded" true r.Service.resp_degraded);
    Alcotest.test_case "disabling degraded mode surfaces the fault" `Quick
      (fun () ->
        let resilience =
          { Service.default_resilience with r_allow_degraded = false }
        in
        let svc = service ~resilience ~fault:(all_timeout 2) () in
        (match Service.submit_result svc (request (dense 256)) with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error (Service.Version_fault _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Service.error_message e));
        match Service.submit svc (request (dense 256)) with
        | _ -> Alcotest.fail "expected Service_error"
        | exception Service.Service_error (Service.Version_fault _) -> ());
  ]

(* -------------------------------------------------------------- *)
(* Corrupt caches                                                  *)
(* -------------------------------------------------------------- *)

let corrupt_cache_tests =
  [
    Alcotest.test_case "garbage cache text comes back as Error" `Quick
      (fun () ->
        (match PC.of_string_result "(((((" with
        | Ok _ -> Alcotest.fail "parsed garbage"
        | Error _ -> ());
        match PC.of_string_result "(plan-cache (capacity 8)" with
        | Ok _ -> Alcotest.fail "parsed a truncated cache"
        | Error _ -> ());
    Alcotest.test_case "corrupt cache file maps to Cache_corrupt" `Quick
      (fun () ->
        let path = Filename.temp_file "plan_cache" ".sexp" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "(plan-cache (capacity";
            close_out oc;
            (match PC.load_result path with
            | Ok _ -> Alcotest.fail "loaded a truncated file"
            | Error _ -> ());
            match Service.load_cache path with
            | Ok _ -> Alcotest.fail "loaded a truncated file"
            | Error (Service.Cache_corrupt _) -> ()
            | Error e ->
                Alcotest.failf "wrong error: %s" (Service.error_message e)));
    Alcotest.test_case "fallback ladders survive a save/load round-trip" `Quick
      (fun () ->
        let svc = service () in
        (match Service.submit_result svc (request (dense 4096)) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok _ -> ());
        let path = Filename.temp_file "plan_cache" ".sexp" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            PC.save (Service.cache svc) path;
            let c =
              match Service.load_cache path with
              | Ok c -> c
              | Error e -> Alcotest.fail (Service.error_message e)
            in
            List.iter2
              (fun (_, e) (_, e') ->
                let names e =
                  List.map (fun r -> V.name r.PC.r_version) (PC.ladder e)
                in
                Alcotest.(check (list string)) "rung order preserved" (names e)
                  (names e');
                List.iter2
                  (fun r r' ->
                    check_close "rung time preserved" r.PC.r_time_us
                      r'.PC.r_time_us)
                  (PC.ladder e) (PC.ladder e'))
              (PC.entries (Service.cache svc))
              (PC.entries c)));
  ]

(* -------------------------------------------------------------- *)
(* Malformed requests                                              *)
(* -------------------------------------------------------------- *)

let bad_request_tests =
  [
    Alcotest.test_case "empty reduction returns the identity" `Quick (fun () ->
        let svc = service () in
        (match Service.submit_result svc (request (R.Dense [||])) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r ->
            check_close "sum identity" 0.0 r.Service.resp_value;
            Alcotest.(check bool) "exact" true r.Service.resp_exact);
        match
          Service.submit_result svc
            (request (R.Synthetic { n = 0; pattern = [| 1.0 |] }))
        with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok r -> check_close "sum identity" 0.0 r.Service.resp_value);
    Alcotest.test_case "negative sizes are Bad_request, not a crash" `Quick
      (fun () ->
        let svc = service () in
        (match
           Service.submit_result svc
             (request (R.Synthetic { n = -5; pattern = [| 1.0 |] }))
         with
        | Ok _ -> Alcotest.fail "accepted a negative size"
        | Error (Service.Bad_request _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Service.error_message e));
        Alcotest.(check bool) "bad request recorded" true
          (Stats.bad_requests (Service.stats svc) > 0);
        match
          Service.submit svc
            (request (R.Synthetic { n = -5; pattern = [| 1.0 |] }))
        with
        | _ -> Alcotest.fail "expected Service_error"
        | exception Service.Service_error (Service.Bad_request _) -> ());
    Alcotest.test_case "empty synthetic patterns are Bad_request" `Quick
      (fun () ->
        let svc = service () in
        match
          Service.submit_result svc
            (request (R.Synthetic { n = 64; pattern = [||] }))
        with
        | Ok _ -> Alcotest.fail "accepted an empty pattern"
        | Error (Service.Bad_request _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Service.error_message e));
  ]

(* -------------------------------------------------------------- *)
(* Chaos: 1000 mixed requests at a 5% fault rate                   *)
(* -------------------------------------------------------------- *)

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

let chaos_tests =
  [
    Alcotest.test_case
      (Printf.sprintf "1000-request chaos replay (seed %d)" chaos_seed)
      `Slow
      (fun () ->
        let sizes = [| 64; 256; 1024; 4096 |] in
        let inputs = Hashtbl.create 8 in
        let input_for n =
          match Hashtbl.find_opt inputs n with
          | Some i -> i
          | None ->
              let i = dense n in
              Hashtbl.add inputs n i;
              i
        in
        (* the request mix is itself seeded so CI sweeps whole scenarios *)
        let state =
          ref
            (Int64.add
               (Int64.mul (Int64.of_int chaos_seed) 6364136223846793005L)
               1442695040888963407L)
        in
        let next_size () =
          state :=
            Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
          sizes.(Int64.to_int (Int64.shift_right_logical !state 35)
                 mod Array.length sizes)
        in
        let fault = Fault.create (Fault.plan ~rate:0.05 ~seed:chaos_seed ()) in
        let svc = service ~fault () in
        let requests =
          List.init 1000 (fun _ -> request (input_for (next_size ())))
        in
        let batches =
          let rec go acc = function
            | [] -> List.rev acc
            | l ->
                let rec take n taken = function
                  | rest when n = 0 -> (List.rev taken, rest)
                  | [] -> (List.rev taken, [])
                  | x :: rest -> take (n - 1) (x :: taken) rest
                in
                let batch, rest = take 8 [] l in
                go (batch :: acc) rest
          in
          go [] requests
        in
        let served = ref 0 and degraded = ref 0 in
        List.iter
          (fun batch ->
            List.iter2
              (fun req result ->
                match result with
                | Error e ->
                    Alcotest.failf "chaos request failed: %s"
                      (Service.error_message e)
                | Ok r ->
                    incr served;
                    if r.Service.resp_degraded then incr degraded;
                    (* degraded or not, the answer must be right *)
                    check_close "chaos answer correct"
                      (reference req.Service.req_input)
                      r.Service.resp_value)
              batch
              (Service.submit_batch_result svc batch))
          batches;
        Alcotest.(check int) "every request answered" 1000 !served;
        let stats = Service.stats svc in
        Alcotest.(check bool) "retries exercised" true (Stats.retries stats > 0);
        Alcotest.(check bool) "faults observed" true (Stats.faults stats > 0));
  ]

(* -------------------------------------------------------------- *)
(* Report gating                                                   *)
(* -------------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let report_tests =
  [
    Alcotest.test_case "fault-free reports omit the fault section" `Quick
      (fun () ->
        let svc = service () in
        (match Service.submit_result svc (request (dense 1024)) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok _ -> ());
        Alcotest.(check bool) "no fault section" false
          (contains ~needle:"fault tolerance" (Service.report svc)));
    Alcotest.test_case "faulty runs surface in the report" `Quick (fun () ->
        let svc = service ~fault:(all_timeout 4) () in
        (match Service.submit_result svc (request (dense 1024)) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok _ -> ());
        let report = Service.report svc in
        Alcotest.(check bool) "fault section present" true
          (contains ~needle:"fault tolerance" report);
        Alcotest.(check bool) "per-version histogram present" true
          (contains ~needle:"faults by version" report));
  ]

let () =
  Alcotest.run "faults"
    [
      ("determinism", determinism_tests);
      ("retry", retry_tests);
      ("quarantine", quarantine_tests);
      ("degraded", degraded_tests);
      ("corrupt-cache", corrupt_cache_tests);
      ("bad-request", bad_request_tests);
      ("chaos", chaos_tests);
      ("report", report_tests);
    ]
