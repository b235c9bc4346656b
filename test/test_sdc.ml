(* Silent-data-corruption tests: the FP-tolerance model (no false alarms
   on true results, across code versions, sizes and element types), the
   witness guard, redundant-execution voting in the service, the
   crash-safe checksummed plan cache, and a seeded chaos replay under
   bit-flip injection asserting every returned answer is within
   tolerance — every injected flip is masked, caught, or voted out.

   The chaos seed honours CHAOS_SEED (default 1) and the flip rate
   BITFLIP_RATE (default 0.01), which is how CI sweeps schedules. *)

module V = Synthesis.Version
module P = Synthesis.Planner
module PC = Runtime.Plan_cache
module Service = Runtime.Service
module Stats = Runtime.Stats
module Tolerance = Runtime.Tolerance
module Guard = Runtime.Guard
module R = Gpusim.Runner
module Fault = Gpusim.Fault
module Ir = Device_ir.Ir

let plan = lazy (P.sum ())
let int_plan = lazy (P.create ~elem:Ir.I32 (Tir.Builtins.sum_unit ()))
let arch = Gpusim.Arch.kepler_k40c

let candidates = lazy (List.map V.of_figure6 [ "a"; "m"; "o" ])

let service ?guard ?fault () =
  Service.create ~candidates:(Lazy.force candidates) ?guard ?fault
    (Lazy.force plan)

let dense n = R.Dense (Array.init n (fun i -> float_of_int ((i * 5 mod 17) - 8)))

let reference (input : R.input) : float =
  P.reference_input (Lazy.force plan) input

let request input = { Service.req_arch = arch; req_input = input }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let paper_sizes =
  [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576; 4194304; 16777216;
    67108864; 268435456 ]

(* -------------------------------------------------------------- *)
(* Tolerance: true results must always be admitted                 *)
(* -------------------------------------------------------------- *)

let tolerance_tests =
  [
    Alcotest.test_case "every version's true result is admitted (F32, exact)"
      `Slow (fun () ->
        let p = Lazy.force plan in
        let ran = ref 0 in
        List.iter
          (fun n ->
            let input = dense n in
            List.iter
              (fun v ->
                match
                  P.run ~opts:Gpusim.Interp.exact ~arch p ~input v
                with
                | o ->
                    incr ran;
                    let ck = Guard.make ~planner:p ~version:v ~input ~sample:4 () in
                    if not (Guard.acceptable ck ~got:o.R.result) then
                      Alcotest.failf
                        "false alarm: %s at n=%d returned %.17g, witness %.17g \
                         (margin %.3f)"
                        (V.name v) n o.R.result (Guard.expected ck)
                        (Guard.margin ck ~got:o.R.result)
                | exception Gpusim.Interp.Sim_error _ -> ())
              (V.enumerate ()))
          [ 64; 1024 ];
        Alcotest.(check bool) "most versions ran" true (!ran > 150));
    Alcotest.test_case "closed form is admitted across the 64..268M sweep"
      `Quick (fun () ->
        let p = Lazy.force plan in
        let pattern = Array.init 64 (fun i -> float_of_int (i land 7)) in
        List.iter
          (fun n ->
            let input = R.Synthetic { n; pattern } in
            let expected = P.reference_input p input in
            List.iter
              (fun v ->
                let tol =
                  Tolerance.bound ~op:p.P.op ~elem:p.P.elem ~version:v ~n
                    ~sum_abs:(Tolerance.sum_abs_of_input input)
                    ()
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s admits its own reference at n=%d"
                     (V.name v) n)
                  true
                  (Tolerance.acceptable tol ~expected ~got:expected))
              (V.enumerate ()))
          paper_sizes);
    Alcotest.test_case "gross corruption is rejected at every size" `Quick
      (fun () ->
        let p = Lazy.force plan in
        let pattern = Array.init 64 (fun i -> float_of_int (i land 7)) in
        List.iter
          (fun n ->
            let input = R.Synthetic { n; pattern } in
            let expected = P.reference_input p input in
            let tol =
              Tolerance.bound ~op:p.P.op ~elem:p.P.elem ~n
                ~sum_abs:(Tolerance.sum_abs_of_input input)
                ()
            in
            (* a high-bit flip moves the sum by orders of magnitude *)
            Alcotest.(check bool) "doubled sum rejected" false
              (Tolerance.acceptable tol ~expected
                 ~got:((2.0 *. expected) +. 1.0));
            Alcotest.(check bool) "NaN rejected" false
              (Tolerance.acceptable tol ~expected ~got:Float.nan);
            Alcotest.(check bool) "infinity rejected" false
              (Tolerance.acceptable tol ~expected ~got:Float.infinity))
          paper_sizes);
    Alcotest.test_case "integer reductions demand exact equality" `Quick
      (fun () ->
        let p = Lazy.force int_plan in
        let input = dense 1024 in
        let expected = P.reference_input p input in
        let tol =
          Tolerance.bound ~op:p.P.op ~elem:p.P.elem ~n:1024
            ~sum_abs:(Tolerance.sum_abs_of_input input)
            ()
        in
        Alcotest.(check bool) "Exact bound" true (tol = Tolerance.Exact);
        Alcotest.(check bool) "true value admitted" true
          (Tolerance.acceptable tol ~expected ~got:expected);
        Alcotest.(check bool) "off-by-one rejected" false
          (Tolerance.acceptable tol ~expected ~got:(expected +. 1.0)));
    Alcotest.test_case "int versions pass their own exact witness" `Quick
      (fun () ->
        let p = Lazy.force int_plan in
        let input = dense 1024 in
        List.iter
          (fun name ->
            let v = V.of_figure6 name in
            match P.run ~opts:Gpusim.Interp.exact ~arch p ~input v with
            | o ->
                let ck = Guard.make ~planner:p ~version:v ~input ~sample:4 () in
                Alcotest.(check bool)
                  (Printf.sprintf "%s exact" name)
                  true
                  (Guard.acceptable ck ~got:o.R.result)
            | exception Gpusim.Interp.Sim_error _ -> ())
          [ "a"; "m"; "o" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"random dense inputs raise no false alarms at rate 0"
         QCheck.(
           pair (int_range 1 2048)
             (pair (int_range 0 28) (int_range (-8) 8)))
         (fun (n, (vidx, salt)) ->
           let p = Lazy.force plan in
           let versions = Array.of_list (V.enumerate_pruned ()) in
           let v = versions.(vidx mod Array.length versions) in
           let input =
             R.Dense
               (Array.init n (fun i ->
                    float_of_int (((i * 7) + salt) mod 19 - 9)))
           in
           match P.run ~opts:Gpusim.Interp.exact ~arch p ~input v with
           | o ->
               let ck = Guard.make ~planner:p ~version:v ~input ~sample:4 () in
               Guard.acceptable ck ~got:o.R.result
           | exception Gpusim.Interp.Sim_error _ -> true));
  ]

(* -------------------------------------------------------------- *)
(* The guard                                                       *)
(* -------------------------------------------------------------- *)

let guard_tests =
  [
    Alcotest.test_case "config validation" `Quick (fun () ->
        Alcotest.check_raises "sample must be positive"
          (Invalid_argument "Guard.config: sample must be positive") (fun () ->
            ignore (Guard.config ~sample:0 ()));
        Alcotest.check_raises "votes must be positive"
          (Invalid_argument "Guard.config: votes must be positive") (fun () ->
            ignore (Guard.config ~votes:0 ())));
    Alcotest.test_case "dense witness agrees with the plain reference" `Quick
      (fun () ->
        let p = Lazy.force plan in
        List.iter
          (fun n ->
            let (R.Dense a | R.Synthetic { pattern = a; _ }) = dense n in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "witness at n=%d" n)
              (P.reference p a)
              (Guard.witness ~planner:p ~sample:4 (R.Dense a)))
          [ 1; 2; 3; 64; 1000 ]);
    Alcotest.test_case "dense witness is correct for every op" `Quick
      (fun () ->
        (* regression: subtraction is not associative, so refolding the
           negated stripe partials with subtract would return +sum — the
           sign flip of the true answer *)
        let base = Lazy.force plan in
        List.iter
          (fun op ->
            let p = { base with P.op } in
            List.iter
              (fun n ->
                let (R.Dense a | R.Synthetic { pattern = a; _ }) = dense n in
                Alcotest.(check (float 1e-9))
                  (Printf.sprintf "%s witness at n=%d"
                     (Tir.Ast.atomic_kind_name op) n)
                  (P.reference p a)
                  (Guard.witness ~planner:p ~sample:4 (R.Dense a)))
              [ 1; 2; 3; 64; 1000 ])
          [ Tir.Ast.At_add; Tir.Ast.At_sub; Tir.Ast.At_min; Tir.Ast.At_max ]);
    Alcotest.test_case "agreement is bitwise for exact reductions" `Quick
      (fun () ->
        let p = Lazy.force int_plan in
        let input = dense 256 in
        let ck = Guard.make ~planner:p ~input ~sample:4 () in
        Alcotest.(check bool) "same value agrees" true
          (Guard.agree ck 17.0 17.0);
        Alcotest.(check bool) "off-by-one disagrees" false
          (Guard.agree ck 17.0 18.0));
  ]

(* -------------------------------------------------------------- *)
(* Injection accounting                                            *)
(* -------------------------------------------------------------- *)

let injection_tests =
  [
    Alcotest.test_case "aborted runs never log their drawn flip" `Quick
      (fun () ->
        (* every run times out before its certain flip can land, so the
           flip log must stay empty — else detection-rate metrics divide
           by flips that never reached memory *)
        let fault =
          Fault.create
            (Fault.plan ~rate:1.0 ~mix:[ (Fault.Timeout, 1.0) ]
               ~bitflip_rate:1.0 ~seed:7 ())
        in
        let p = Lazy.force plan in
        let cp = P.compiled p (V.of_figure6 "a") in
        for _ = 1 to 10 do
          match R.run_compiled ~fault ~arch ~input:(dense 256) cp with
          | _ -> Alcotest.fail "expected injected timeout"
          | exception Fault.Injected (Fault.Timeout, _) -> ()
        done;
        Alcotest.(check int) "no flips recorded" 0
          (List.length (Fault.flips fault));
        Alcotest.(check int) "bit-flip counter untouched" 0
          (List.assoc Fault.Bit_flip (Fault.injected_by_kind fault)));
    Alcotest.test_case "loud faults do not perturb the flip schedule" `Quick
      (fun () ->
        (* the flip stream is drawn on every run whether or not a loud
           verdict aborts it: landed flips under a loud-fault mix must be
           a subset (at identical rolls) of the loud-free schedule *)
        let run_schedule ~rate =
          let mix = [ (Fault.Timeout, 1.0) ] in
          let fault =
            Fault.create
              (Fault.plan ~rate ~mix ~bitflip_rate:0.5 ~seed:11 ())
          in
          let p = Lazy.force plan in
          let cp = P.compiled p (V.of_figure6 "a") in
          for _ = 1 to 30 do
            match R.run_compiled ~fault ~arch ~input:(dense 64) cp with
            | _ -> ()
            | exception Fault.Injected _ -> ()
          done;
          Fault.flips fault
        in
        let quiet = run_schedule ~rate:0.0 in
        let loud = run_schedule ~rate:0.5 in
        Alcotest.(check bool) "quiet schedule fires" true
          (List.length quiet > 0);
        Alcotest.(check bool) "loud schedule is a strict filter" true
          (List.length loud < List.length quiet);
        List.iter
          (fun (r : Fault.flip_record) ->
            Alcotest.(check bool)
              (Printf.sprintf "flip at roll %d matches quiet schedule"
                 r.Fault.fr_roll)
              true
              (List.exists
                 (fun (q : Fault.flip_record) ->
                   q.Fault.fr_roll = r.Fault.fr_roll
                   && q.Fault.fr_flip = r.Fault.fr_flip)
                 quiet))
          loud);
  ]

(* -------------------------------------------------------------- *)
(* Service: verification and voting                                *)
(* -------------------------------------------------------------- *)

let voting_tests =
  [
    Alcotest.test_case "certain bit flips never corrupt a served answer" `Quick
      (fun () ->
        (* every kernel run suffers a flip; the witness plus voting (or
           the degraded host path) must still serve the true value *)
        let fault =
          Fault.create (Fault.plan ~rate:0.0 ~bitflip_rate:1.0 ~seed:5 ())
        in
        let svc = service ~fault () in
        let input = dense 2048 in
        (match Service.submit_result svc (request input) with
        | Error e -> Alcotest.failf "request failed: %s" (Service.error_message e)
        | Ok r ->
            let ck =
              Guard.make ~planner:(Lazy.force plan) ~input ~sample:4 ()
            in
            Alcotest.(check bool) "served value within tolerance" true
              (Guard.acceptable ck ~got:r.Service.resp_value));
        let stats = Service.stats svc in
        Alcotest.(check bool) "guard checked" true (Stats.sdc_checks stats > 0));
    Alcotest.test_case "rate-0 service: checks run, nothing trips" `Quick
      (fun () ->
        let svc = service () in
        List.iter
          (fun n ->
            match Service.submit_result svc (request (dense n)) with
            | Error e -> Alcotest.fail (Service.error_message e)
            | Ok r ->
                Alcotest.(check (float 1e-6))
                  "answer correct" (reference (dense n)) r.Service.resp_value)
          [ 64; 512; 2048 ];
        let stats = Service.stats svc in
        Alcotest.(check bool) "checks ran" true (Stats.sdc_checks stats > 0);
        Alcotest.(check int) "no catches" 0 (Stats.sdc_catches stats);
        Alcotest.(check int) "no false alarms" 0 (Stats.sdc_false_alarms stats);
        Alcotest.(check int) "no re-executions" 0 (Stats.sdc_reexecs stats));
    Alcotest.test_case "rate-0 report is byte-identical with the guard off"
      `Quick (fun () ->
        let serve_all svc =
          List.iter
            (fun n -> ignore (Service.submit_result svc (request (dense n))))
            [ 64; 512; 2048 ]
        in
        let on = service () in
        let off = service ~guard:(Guard.config ~enabled:false ()) () in
        serve_all on;
        serve_all off;
        (* host wall-clock samples differ run to run; masking numbers
           leaves the report's shape — sections, lines, labels. Each
           number collapses to one '#' together with the padding before
           it: under load a sample can gain a digit ("   9.8" vs
           "  10.2"), which must not change the shape *)
        let mask s =
          let b = Buffer.create (String.length s) in
          let in_num = ref false in
          String.iter
            (fun c ->
              if (c >= '0' && c <= '9') || ((c = '.' || c = ',') && !in_num)
              then (
                if not !in_num then begin
                  let pad = ref (Buffer.length b) in
                  while !pad > 0 && Buffer.nth b (!pad - 1) = ' ' do
                    decr pad
                  done;
                  if !pad < Buffer.length b then begin
                    Buffer.truncate b !pad;
                    Buffer.add_char b ' '
                  end;
                  Buffer.add_char b '#'
                end;
                in_num := true)
              else (
                in_num := false;
                Buffer.add_char b c))
            s;
          Buffer.contents b
        in
        Alcotest.(check string) "identical reports" (mask (Service.report off))
          (mask (Service.report on));
        Alcotest.(check bool) "no guard section" false
          (contains ~needle:"silent-data-corruption guard" (Service.report on)));
    Alcotest.test_case "disabled guard never checks" `Quick (fun () ->
        let svc = service ~guard:(Guard.config ~enabled:false ()) () in
        (match Service.submit_result svc (request (dense 1024)) with
        | Error e -> Alcotest.fail (Service.error_message e)
        | Ok _ -> ());
        Alcotest.(check int) "no checks" 0
          (Stats.sdc_checks (Service.stats svc)));
    Alcotest.test_case "confirmed corruption surfaces in the report" `Quick
      (fun () ->
        let fault =
          Fault.create (Fault.plan ~rate:0.0 ~bitflip_rate:1.0 ~seed:5 ())
        in
        let svc = service ~fault () in
        ignore (Service.submit_result svc (request (dense 2048)));
        let report = Service.report svc in
        if Stats.sdc_catches (Service.stats svc) > 0 then
          Alcotest.(check bool) "guard section present" true
            (contains ~needle:"silent-data-corruption guard" report));
  ]

(* -------------------------------------------------------------- *)
(* Crash-safe plan cache                                           *)
(* -------------------------------------------------------------- *)

let entry_for (name : string) : PC.entry =
  {
    PC.e_version = V.of_figure6 name;
    e_tunables = [ ("bsize", 128) ];
    e_compiled = None;
    e_tuned_n = 1024;
    e_tune_time_us = 5.0;
    e_ranking = [];
  }

let key_for (b : int) : PC.key =
  { PC.k_arch = "A"; k_op = "atomicAdd"; k_elem = "F32"; k_bucket = b }

let with_temp (f : string -> unit) : unit =
  let path = Filename.temp_file "sdc_cache" ".sexp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; PC.journal_file path; path ^ ".tmp" ])
    (fun () -> f path)

let durability_tests =
  [
    Alcotest.test_case "snapshots carry a verified CRC header" `Quick (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:4 () in
            PC.add c (key_for 10) (entry_for "m");
            PC.save c path;
            let ic = open_in path in
            let first = input_line ic in
            close_in ic;
            Alcotest.(check bool) "header present" true
              (contains ~needle:"plan-cache crc32" first);
            let c' = PC.load path in
            Alcotest.(check int) "entry survives" 1 (PC.length c')));
    Alcotest.test_case "a corrupted snapshot is rejected, not parsed" `Quick
      (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:4 () in
            PC.add c (key_for 10) (entry_for "m");
            PC.save c path;
            let ic = open_in path in
            let len = in_channel_length ic in
            let src = Bytes.of_string (really_input_string ic len) in
            close_in ic;
            (* flip one byte deep in the body *)
            let i = len - 10 in
            Bytes.set src i (if Bytes.get src i = 'a' then 'b' else 'a');
            let oc = open_out path in
            output_bytes oc src;
            close_out oc;
            match PC.load_result path with
            | Ok _ -> Alcotest.fail "corrupt snapshot accepted"
            | Error msg ->
                Alcotest.(check bool) "checksum named" true
                  (contains ~needle:"checksum" msg)));
    Alcotest.test_case "a stale temp file is cleaned up on load" `Quick
      (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:4 () in
            PC.add c (key_for 10) (entry_for "m");
            PC.save c path;
            let oc = open_out (path ^ ".tmp") in
            output_string oc "half-written snapshot from a crashed save";
            close_out oc;
            ignore (PC.load path);
            Alcotest.(check bool) "temp removed" false
              (Sys.file_exists (path ^ ".tmp"))));
    Alcotest.test_case "journaled verdicts survive a crash without a save"
      `Quick (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:8 () in
            PC.add c (key_for 10) (entry_for "m");
            PC.save c path;
            (* post-snapshot verdicts go to the journal only *)
            PC.attach_journal c path;
            PC.add c (key_for 11) (entry_for "a");
            PC.add c (key_for 12) (entry_for "o");
            PC.detach_journal c;
            (* no save: the process "crashed" here *)
            let c' = PC.load path in
            Alcotest.(check int) "snapshot + journal entries" 3 (PC.length c');
            Alcotest.(check bool) "journaled verdict present" true
              (PC.find c' (key_for 12) <> None)));
    Alcotest.test_case "a corrupt journal record is skipped, not fatal" `Quick
      (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:8 () in
            PC.add c (key_for 10) (entry_for "m");
            PC.save c path;
            PC.attach_journal c path;
            PC.add c (key_for 11) (entry_for "a");
            PC.detach_journal c;
            (* corrupt the first journal record's body, then append a
               fresh valid record after it *)
            let j = PC.journal_file path in
            let ic = open_in j in
            let len = in_channel_length ic in
            let src = Bytes.of_string (really_input_string ic len) in
            close_in ic;
            let nl = Bytes.index src '\n' in
            Bytes.set src (nl + 2)
              (if Bytes.get src (nl + 2) = 'e' then 'x' else 'e');
            let oc = open_out j in
            output_bytes oc src;
            close_out oc;
            PC.attach_journal c path;
            PC.add c (key_for 12) (entry_for "o");
            PC.detach_journal c;
            let c' = PC.load path in
            Alcotest.(check bool) "corrupt record dropped" true
              (PC.find c' (key_for 11) = None);
            Alcotest.(check bool) "later record still replayed" true
              (PC.find c' (key_for 12) <> None);
            Alcotest.(check int) "snapshot + surviving record" 2
              (PC.length c')));
    Alcotest.test_case "save folds the journal into the snapshot" `Quick
      (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:8 () in
            PC.attach_journal c path;
            PC.add c (key_for 10) (entry_for "m");
            PC.add c (key_for 11) (entry_for "a");
            PC.save c path;
            let j = PC.journal_file path in
            Alcotest.(check bool) "journal truncated" true
              ((not (Sys.file_exists j))
              || (let ic = open_in j in
                  let n = in_channel_length ic in
                  close_in ic;
                  n = 0));
            PC.detach_journal c;
            Alcotest.(check int) "snapshot holds both" 2
              (PC.length (PC.load path))));
    Alcotest.test_case "legacy headerless snapshots still load" `Quick
      (fun () ->
        with_temp (fun path ->
            let c = PC.create ~capacity:4 () in
            PC.add c (key_for 10) (entry_for "m");
            let oc = open_out path in
            output_string oc (PC.to_string c);
            close_out oc;
            Alcotest.(check int) "loaded" 1 (PC.length (PC.load path))));
  ]

(* -------------------------------------------------------------- *)
(* Chaos: bit flips over a 1000-request mixed replay               *)
(* -------------------------------------------------------------- *)

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

let bitflip_rate =
  match Sys.getenv_opt "BITFLIP_RATE" with
  | Some s -> ( match float_of_string_opt s with Some r -> r | None -> 0.01)
  | None -> 0.01

let chaos_tests =
  [
    Alcotest.test_case
      (Printf.sprintf "1000-request bit-flip chaos (seed %d, rate %g)"
         chaos_seed bitflip_rate)
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
        let fault =
          Fault.create
            (Fault.plan ~rate:0.0 ~bitflip_rate ~seed:chaos_seed ())
        in
        let svc = service ~fault () in
        let p = Lazy.force plan in
        let served = ref 0 in
        List.iter
          (fun req ->
            match Service.submit_result svc req with
            | Error e ->
                Alcotest.failf "chaos request failed: %s"
                  (Service.error_message e)
            | Ok r ->
                incr served;
                (* within tolerance — flipped results must never escape *)
                let ck =
                  Guard.make ~planner:p ~input:req.Service.req_input ~sample:4 ()
                in
                if not (Guard.acceptable ck ~got:r.Service.resp_value) then
                  Alcotest.failf
                    "out-of-tolerance answer escaped: got %.17g, witness %.17g"
                    r.Service.resp_value (Guard.expected ck))
          (List.init 1000 (fun _ -> request (input_for (next_size ()))));
        Alcotest.(check int) "every request answered" 1000 !served;
        let stats = Service.stats svc in
        let flips = List.length (Fault.flips fault) in
        Alcotest.(check bool) "every check accounted" true
          (Stats.sdc_checks stats >= !served);
        (* every flip was masked (no effect on the answer), caught by the
           witness, or voted out — proven by the per-answer tolerance
           assertions above; catches can never exceed re-executions run *)
        if flips = 0 then
          Alcotest.(check int) "no flips, no catches" 0
            (Stats.sdc_catches stats));
  ]

let () =
  Alcotest.run "sdc"
    [
      ("tolerance", tolerance_tests);
      ("guard", guard_tests);
      ("injection", injection_tests);
      ("voting", voting_tests);
      ("durability", durability_tests);
      ("chaos", chaos_tests);
    ]
