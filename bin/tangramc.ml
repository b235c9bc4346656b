(* tangramc: the command-line front end of the synthesis pipeline.

   Sub-commands:

   - [emit]     print the CUDA C source of a code version (the paper's
                output path; compare Listings 1-4);
   - [variants] run the Figure 5 pass pipeline on a codelet unit and list
                (or print) the discovered codelet variants;
   - [versions] enumerate the code-version search space and its census
                (Section IV-B: 10 original -> 88 -> 30 after pruning);
   - [check]    parse and semantically check a codelet source file;
   - [lint]     run the device-IR race sanitizer and perf lints over the
                synthesized code versions and print the diagnostics;
   - [prove]    machine-check code versions against the tree-loop
                reference with the symbolic prover;
   - [synth]    sweep the shuffle exchange space and register the
                proof-checked survivors;
   - [serve]    run the reduction service against a synthetic request
                trace and print the plan-cache metrics report;
   - [profile]  rank the versions for one shape with their kernel
                counters, optionally beside the CUB, Kokkos and OpenMP
                baselines. *)

open Cmdliner

let spectrum_arg =
  let doc = "Codelet unit: the built-in 'sum', 'max', 'min' or 'int' spectrum." in
  Arg.(
    value
    & opt (enum [ ("sum", `Sum); ("max", `Max); ("min", `Min); ("int", `Int) ]) `Sum
    & info [ "spectrum" ] ~doc)

let source_arg =
  let doc = "Read the codelet unit from $(docv) instead of a built-in." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc ~docv:"FILE")

let load_unit spectrum source =
  match source with
  | Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      Tangram.Check.check_unit (Tangram.Parser.parse_unit src)
  | None -> (
      match spectrum with
      | `Sum -> Tangram.Builtins.sum_unit ()
      | `Max -> Tangram.Builtins.max_unit ()
      | `Min -> Tangram.Builtins.min_unit ()
      | `Int -> Tangram.Builtins.int_sum_unit ())

(* the codelet unit, planned over the spectrum's element type *)
let load_planner spectrum source = Tangram.Planner.create (load_unit spectrum source)

let handle_frontend_errors f =
  try f () with
  | Tangram.Lexer.Lex_error (pos, msg) ->
      Printf.eprintf "lex error at %s: %s\n"
        (Format.asprintf "%a" Tangram.Lexer.pp_pos pos) msg;
      exit 1
  | Tangram.Parser.Parse_error (pos, msg) ->
      Printf.eprintf "parse error at %s: %s\n"
        (Format.asprintf "%a" Tangram.Lexer.pp_pos pos) msg;
      exit 1
  | Tangram.Check.Check_error msg ->
      Printf.eprintf "semantic error: %s\n" msg;
      exit 1

(* the one architecture lookup every subcommand shares *)
let lookup_arch (name : string) : Tangram.Arch.t =
  match Tangram.Arch.by_name name with
  | Some a -> a
  | None ->
      Printf.eprintf "unknown architecture %S (kepler|maxwell|pascal|volta)\n"
        name;
      exit 1

(* ------------------------------------------------------------------ *)
(* emit                                                                *)
(* ------------------------------------------------------------------ *)

let version_arg =
  let doc =
    "Code version to emit: a Figure 6 label (a-p) or a full version name as \
     printed by 'tangramc versions'."
  in
  Arg.(value & opt string "p" & info [ "code-version"; "v" ] ~doc ~docv:"VERSION")

let sync_shuffles_arg =
  let doc = "Emit CUDA 9+ __shfl_*_sync intrinsics instead of the legacy API." in
  Arg.(value & flag & info [ "sync-shuffles" ] ~doc)

let unroll_arg =
  let doc = "Fully unroll constant-trip loops before emitting (future-work pass)." in
  Arg.(value & flag & info [ "unroll" ] ~doc)

let vectorize_arg =
  let doc = "Vectorize unit-stride serial loads before emitting (CUB's optimization)." in
  Arg.(value & flag & info [ "vectorize" ] ~doc)

let target_arg =
  let doc = "Output language: 'cuda' (default) or 'ptx'." in
  Arg.(
    value
    & opt (enum [ ("cuda", `Cuda); ("ptx", `Ptx) ]) `Cuda
    & info [ "target"; "t" ] ~doc)

let resolve_version (spec : string) : Tangram.Version.t =
  if String.length spec = 1 then Tangram.Version.of_figure6 spec
  else
    match
      List.find_opt
        (fun v -> Tangram.Version.name v = spec)
        (Tangram.all_versions ())
    with
    | Some v -> v
    | None ->
        Printf.eprintf "unknown version %S (try 'tangramc versions')\n" spec;
        exit 1

let emit_cmd =
  let run spectrum source version sync_shuffles unroll vectorize target =
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let options =
          { Tangram.Cuda.default_options with Tangram.Cuda.sync_shuffles } in
        let program = Tangram.Planner.program plan (resolve_version version) in
        let program =
          if unroll then fst (Tangram.Unroll.program program) else program
        in
        let program =
          if vectorize then fst (Tangram.Vectorize.program program) else program
        in
        match target with
        | `Cuda -> print_string (Tangram.Cuda.emit_program ~options program)
        | `Ptx -> print_string (Tangram.Ptx.emit_program program))
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the CUDA C or PTX source of a synthesized code version")
    Term.(
      const run $ spectrum_arg $ source_arg $ version_arg $ sync_shuffles_arg
      $ unroll_arg $ vectorize_arg $ target_arg)

(* ------------------------------------------------------------------ *)
(* variants                                                            *)
(* ------------------------------------------------------------------ *)

let print_bodies_arg =
  let doc = "Also print each variant's transformed codelet source." in
  Arg.(value & flag & info [ "print" ; "p" ] ~doc)

let variants_cmd =
  let run spectrum source print_bodies =
    handle_frontend_errors (fun () ->
        let unit_info = load_unit spectrum source in
        let variants = Tangram.Driver.all_variants unit_info in
        List.iter
          (fun (v : Tangram.Driver.variant) ->
            Printf.printf "%-28s kind=%-11s features=[%s]\n" v.Tangram.Driver.v_name
              (match v.v_kind with
              | Tangram.Ast.Autonomous -> "autonomous"
              | Tangram.Ast.Compound -> "compound"
              | Tangram.Ast.Cooperative -> "cooperative")
              (String.concat "; " (List.map Tangram.Driver.feature_name v.v_features));
            if print_bodies then begin
              print_endline (Tangram.Pp.codelet v.v_codelet);
              print_newline ()
            end)
          variants)
  in
  Cmd.v
    (Cmd.info "variants"
       ~doc:"List the codelet variants produced by the AST passes (Figure 5)")
    Term.(const run $ spectrum_arg $ source_arg $ print_bodies_arg)

(* ------------------------------------------------------------------ *)
(* versions                                                            *)
(* ------------------------------------------------------------------ *)

let pruned_arg =
  let doc = "Only list the 30 pruned survivors (Section IV-B)." in
  Arg.(value & flag & info [ "pruned" ] ~doc)

let versions_cmd =
  let run pruned =
    let versions =
      if pruned then Tangram.pruned_versions () else Tangram.all_versions ()
    in
    List.iter
      (fun v ->
        let label =
          match Tangram.Version.figure6_label v with
          | Some l -> Printf.sprintf "fig6(%s) " l
          | None -> ""
        in
        Printf.printf "%s%s\n" label (Tangram.Version.name v))
      versions;
    let c = Synthesis.Version.census () in
    Printf.printf
      "\ncensus: %d total | %d original | %d global-atomic-only | %d shared-atomic \
       | %d shuffle | %d survive pruning\n"
      c.Synthesis.Version.total c.original c.global_atomic_only c.shared_atomic
      c.shuffle c.pruned_survivors
  in
  Cmd.v
    (Cmd.info "versions" ~doc:"Enumerate the code-version search space")
    Term.(const run $ pruned_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path =
    handle_frontend_errors (fun () ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        close_in ic;
        let checked = Tangram.Check.check_unit (Tangram.Parser.parse_unit src) in
        List.iter
          (fun ((c : Tangram.Ast.codelet), (i : Tangram.Check.info)) ->
            Printf.printf "%s%s: %s\n" c.Tangram.Ast.c_name
              (match c.c_tag with Some t -> " [" ^ t ^ "]" | None -> "")
              (match i.Tangram.Check.ci_kind with
              | Tangram.Ast.Autonomous -> "atomic autonomous"
              | Tangram.Ast.Compound -> "compound"
              | Tangram.Ast.Cooperative -> "atomic cooperative"))
          checked;
        Printf.printf "%d codelet(s) OK\n" (List.length checked))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and semantically check a codelet source file")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let json_arg =
    let doc = "Print the diagnostics as a JSON array instead of text lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let all_variants_arg =
    let doc =
      "Lint every code version in the search space (88 for sum), not just \
       the pruned survivors."
    in
    Arg.(value & flag & info [ "all-variants" ] ~doc)
  in
  let run spectrum source json all_variants =
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let versions =
          if all_variants then Tangram.all_versions ()
          else Tangram.pruned_versions ()
        in
        (* qualify each diagnostic's kernel with the code version it came
           from, so one flat list stays attributable *)
        let diags =
          List.concat_map
            (fun v ->
              List.map
                (fun (d : Tangram.Diag.t) ->
                  { d with Tangram.Diag.kernel =
                      Tangram.Version.name v ^ "/" ^ d.Tangram.Diag.kernel })
                (Tangram.Planner.lint plan v))
            versions
        in
        if json then print_endline (Tangram.Diag.list_to_json diags)
        else begin
          if diags <> [] then print_string (Tangram.Diag.render diags ^ "\n");
          Printf.printf "%d version(s) linted: %s\n" (List.length versions)
            (Tangram.Diag.summary diags)
        end;
        if Tangram.Diag.has_errors diags then exit 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the barrier-phase race sanitizer and performance lints over \
          the synthesized code versions (exit 1 on any error diagnostic)")
    Term.(const run $ spectrum_arg $ source_arg $ json_arg $ all_variants_arg)

(* ------------------------------------------------------------------ *)
(* prove                                                               *)
(* ------------------------------------------------------------------ *)

let prove_cmd =
  let json_arg =
    let doc = "Print the verdicts as a JSON array instead of text lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let all_variants_arg =
    let doc =
      "Prove every code version in the search space (88 for sum), not just \
       the pruned survivors."
    in
    Arg.(value & flag & info [ "all-variants" ] ~doc)
  in
  let run spectrum source json all_variants =
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let versions =
          if all_variants then Tangram.all_versions ()
          else Tangram.pruned_versions ()
        in
        let verdicts =
          List.map (fun v -> (v, Tangram.Planner.prove plan v)) versions
        in
        let refuted =
          List.filter
            (fun (_, verdict) -> not (Tangram.Symbolic.Prove.proved verdict))
            verdicts
        in
        if json then begin
          let row (v, verdict) =
            Tangram.Obs.Json.Obj
              [
                ("version", Tangram.Obs.Json.Str (Tangram.Version.name v));
                ( "verdict",
                  Tangram.Obs.Json.Str
                    (match verdict with
                    | Tangram.Symbolic.Prove.Proved -> "proved"
                    | Tangram.Symbolic.Prove.Proved_reassoc _ ->
                        "proved-reassoc"
                    | Tangram.Symbolic.Prove.Refuted _ -> "refuted") );
                ( "codes",
                  Tangram.Obs.Json.Arr
                    (List.map
                       (fun c -> Tangram.Obs.Json.Str c)
                       (Tangram.Symbolic.Prove.codes verdict)) );
                ( "detail",
                  Tangram.Obs.Json.Str (Tangram.Symbolic.Prove.describe verdict)
                );
              ]
          in
          print_endline
            (Tangram.Obs.Json.to_string
               (Tangram.Obs.Json.Arr (List.map row verdicts)))
        end
        else begin
          List.iter
            (fun (v, verdict) ->
              Printf.printf "%-34s %s\n" (Tangram.Version.name v)
                (Tangram.Symbolic.Prove.describe verdict))
            verdicts;
          let exact, reassoc =
            List.fold_left
              (fun (e, r) (_, verdict) ->
                match verdict with
                | Tangram.Symbolic.Prove.Proved -> (e + 1, r)
                | Tangram.Symbolic.Prove.Proved_reassoc _ -> (e, r + 1)
                | Tangram.Symbolic.Prove.Refuted _ -> (e, r))
              (0, 0) verdicts
          in
          Printf.printf
            "\n%d version(s) proved: %d exact, %d modulo reassociation, %d \
             refuted\n"
            (List.length verdicts) exact reassoc (List.length refuted)
        end;
        if refuted <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Machine-check every synthesized code version against the tree-loop \
          reference with the symbolic prover (exit 1 on any refutation)")
    Term.(const run $ spectrum_arg $ source_arg $ json_arg $ all_variants_arg)

(* ------------------------------------------------------------------ *)
(* synth                                                               *)
(* ------------------------------------------------------------------ *)

let synth_cmd =
  let run spectrum source =
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let r = Tangram.Planner.synthesize plan in
        List.iter
          (fun (v, verdict) ->
            Printf.printf "%-34s %s\n" (Tangram.Version.name v)
              (Tangram.Symbolic.Prove.describe verdict))
          r.Tangram.Planner.sr_verdicts;
        Printf.printf "\n%s\n"
          (Tangram.Symbolic.Synth.describe_summary
             r.Tangram.Planner.sr_summary);
        if r.Tangram.Planner.sr_registered <> [] then begin
          Printf.printf "registered:\n";
          List.iter
            (fun v -> Printf.printf "  %s\n" (Tangram.Version.name v))
            r.Tangram.Planner.sr_registered
        end)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Enumerate the shuffle exchange space, prove each composed version \
          and register the proof-checked survivors")
    Term.(const run $ spectrum_arg $ source_arg)

(* ------------------------------------------------------------------ *)
(* The trace and fault flags serve and monitor share                   *)
(* ------------------------------------------------------------------ *)

type replay = {
  requests : int;
  trace_seed : int;
  arch_name : string option;
  fault_rate : float;
  fault_seed : int;
  bitflip_rate : float;
}

let replay_term : replay Term.t =
  let requests_arg =
    let doc = "Number of requests in the synthetic trace." in
    Arg.(value & opt int 1000 & info [ "requests" ] ~doc)
  in
  let seed_arg =
    let doc = "Deterministic trace seed." in
    Arg.(value & opt int 42 & info [ "trace-seed" ] ~doc)
  in
  let arch_arg =
    let doc =
      "Serve only this architecture (kepler|maxwell|pascal|volta); default: \
       the three paper testbeds, mixed."
    in
    Arg.(value & opt (some string) None & info [ "arch"; "a" ] ~doc)
  in
  let fault_rate_arg =
    let doc =
      "Fault-injection rate (probability in [0,1] that a kernel run faults; \
       0 disables injection)."
    in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~doc)
  in
  let fault_seed_arg =
    let doc = "Deterministic seed of the fault injector." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc)
  in
  let bitflip_rate_arg =
    let doc =
      "Silent bit-flip injection rate (probability in [0,1] that a kernel run \
       suffers one memory/register bit flip; 0 disables injection)."
    in
    Arg.(value & opt float 0.0 & info [ "bitflip-rate" ] ~doc)
  in
  let mk requests trace_seed arch_name fault_rate fault_seed bitflip_rate =
    { requests; trace_seed; arch_name; fault_rate; fault_seed; bitflip_rate }
  in
  Term.(
    const mk $ requests_arg $ seed_arg $ arch_arg $ fault_rate_arg
    $ fault_seed_arg $ bitflip_rate_arg)

let usage_error = Obs_cli.usage_error

let check_replay ~exe (rp : replay) : unit =
  let probability x = x >= 0.0 && x <= 1.0 in
  if rp.requests < 1 then usage_error ~exe "--requests must be at least 1";
  if not (probability rp.fault_rate) then
    usage_error ~exe "--fault-rate must be within [0,1]";
  if not (probability rp.bitflip_rate) then
    usage_error ~exe "--bitflip-rate must be within [0,1]"

let replay_archs (rp : replay) : Tangram.Arch.t list =
  match rp.arch_name with
  | None -> Tangram.Arch.presets
  | Some name -> [ lookup_arch name ]

(* The service both commands replay through: the fault injector armed
   from the shared flags, kernel profiling from --kernel-counters. *)
let replay_service ?cache ?resilience ?guard (rp : replay) (obs : Obs_cli.t)
    plan : Tangram.Service.t =
  let fault =
    if rp.fault_rate > 0.0 || rp.bitflip_rate > 0.0 then
      Some
        (Tangram.Fault.create
           (Tangram.Fault.plan ~rate:rp.fault_rate
              ~bitflip_rate:rp.bitflip_rate ~seed:rp.fault_seed ()))
    else None
  in
  let svc = Tangram.Service.create ?cache ?fault ?resilience ?guard plan in
  Tangram.Service.set_profiling svc obs.Obs_cli.kernel_counters;
  svc

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let batch_arg =
    let doc = "Replay batch size (1 disables same-shape coalescing)." in
    Arg.(value & opt int 64 & info [ "batch" ] ~doc)
  in
  let cache_file_arg =
    let doc =
      "Plan-cache file: loaded before the replay when it exists (warm start) \
       and saved back afterwards, so a warmed cache persists across runs."
    in
    Arg.(value & opt (some string) None & info [ "cache-file" ] ~doc ~docv:"FILE")
  in
  let retry_max_arg =
    let doc = "Transient-fault retries per version before falling back." in
    Arg.(value & opt int Tangram.Service.default_resilience.r_retry_max
         & info [ "retry-max" ] ~doc)
  in
  let verify_sample_arg =
    let doc = "Stripes of the dense-input witness recomputation." in
    Arg.(value & opt int Tangram.Guard.default.g_sample
         & info [ "verify-sample" ] ~doc)
  in
  let no_verify_arg =
    let doc = "Disable witness verification of exact responses." in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let run spectrum source rp batch cache_file retry_max verify_sample no_verify
      obs overload fleet =
    let exe = "tangramc serve" in
    Obs_cli.setup ~exe obs;
    check_replay ~exe rp;
    if batch < 1 then usage_error ~exe "--batch must be at least 1";
    if retry_max < 0 then usage_error ~exe "--retry-max must be non-negative";
    if verify_sample < 1 then
      usage_error ~exe "--verify-sample must be at least 1";
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let archs = replay_archs rp in
        (* a corrupt cache file warns and starts cold (it is overwritten
           on save) rather than killing the server *)
        let cache =
          match cache_file with
          | Some path when Sys.file_exists path -> (
              match Tangram.Service.load_cache path with
              | Ok c ->
                  Printf.printf "loaded %d cached plans from %s\n"
                    (Tangram.Plan_cache.length c) path;
                  Some c
              | Error e ->
                  Tangram.Obs.Log.warn
                    ~fields:[ ("path", path) ]
                    "%s; starting with a cold cache"
                    (Tangram.Service.error_message e);
                  None)
          | _ -> None
        in
        let resilience =
          { Tangram.Service.default_resilience with r_retry_max = retry_max }
        in
        let guard =
          Tangram.Guard.config ~enabled:(not no_verify) ~sample:verify_sample ()
        in
        let svc = replay_service ?cache ~resilience ~guard rp obs plan in
        (* tuner verdicts journal to FILE.journal between saves, so a
           crash mid-replay loses no tuning work *)
        (match cache_file with
        | Some path ->
            Tangram.Plan_cache.attach_journal (Tangram.Service.cache svc) path
        | None -> ());
        if rp.fault_rate > 0.0 then
          Printf.printf "fault injection armed: rate %.3f, seed %d, retry-max %d\n"
            rp.fault_rate rp.fault_seed retry_max;
        if rp.bitflip_rate > 0.0 then
          Printf.printf
            "bit-flip injection armed: rate %g, seed %d, verification %s\n"
            rp.bitflip_rate rp.fault_seed
            (if no_verify then "OFF" else "on");
        (* the fleet is homogeneous on the first requested arch; a
           multi-arch serve keeps per-request arch routing instead *)
        Fleet_cli.attach ~exe fleet ~arch:(List.hd archs) svc;
        let spec =
          Tangram.Trace.default ~requests:rp.requests ~seed:rp.trace_seed ~archs
            ()
        in
        (match overload.Overload_cli.rate_rps with
        | Some rate_rps ->
            (* open-loop: timestamped Poisson arrivals through the
               admission queue, deadline budgets and (optionally) the
               brownout ladder *)
            Printf.printf
              "replaying %d mixed-size requests open-loop over %d \
               architecture(s)...\n"
              rp.requests (List.length archs);
            ignore
              (Overload_cli.run_open_loop ~exe overload
                 ~rate_rps ~dense_upto:4096 svc spec)
        | None ->
            let trace = Tangram.Trace.generate spec in
            Printf.printf
              "replaying %d mixed-size requests over %d architecture(s)...\n"
              rp.requests (List.length archs);
            (* sizes <= 4096 replay as dense inputs: they run exact, so
               the SDC guard witness-checks them *)
            let summary =
              Tangram.Trace.replay ~batch_size:batch ~dense_upto:4096 svc trace
            in
            Format.printf "%a@.@." Tangram.Trace.pp_summary summary);
        print_string (Obs_cli.render_report obs (Tangram.Service.stats svc));
        Obs_cli.save_trace obs;
        Obs_cli.write_metrics obs (Tangram.Service.stats svc);
        match cache_file with
        | Some path ->
            Tangram.Plan_cache.save (Tangram.Service.cache svc) path;
            Printf.printf "\nsaved %d cached plans to %s\n"
              (Tangram.Plan_cache.length (Tangram.Service.cache svc))
              path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the reduction service: replay a synthetic mixed-size request \
          trace through the plan cache and report service metrics")
    Term.(
      const run $ spectrum_arg $ source_arg $ replay_term $ batch_arg
      $ cache_file_arg $ retry_max_arg $ verify_sample_arg $ no_verify_arg
      $ Obs_cli.term $ Overload_cli.term $ Fleet_cli.term)

(* ------------------------------------------------------------------ *)
(* monitor                                                             *)
(* ------------------------------------------------------------------ *)

let monitor_cmd =
  let incident_dir_arg =
    let doc = "Write every retained incident bundle into $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "incident-dir" ] ~doc ~docv:"DIR")
  in
  let snapshot_every_arg =
    let doc = "Metric-snapshot cadence, in requests." in
    Arg.(value & opt int 32 & info [ "snapshot-every" ] ~doc)
  in
  let windows_arg =
    let doc = "How many trailing windows the time-series table shows." in
    Arg.(value & opt int 5 & info [ "windows" ] ~doc ~docv:"K")
  in
  let latency_mult_arg =
    let doc =
      "A request is latency-bad when it overruns MULT x the static-cost \
       prediction (lower = stricter latency SLO)."
    in
    Arg.(value & opt float 3.0 & info [ "latency-mult" ] ~doc ~docv:"MULT")
  in
  let latency_target_arg =
    let doc = "Good fraction the latency SLO demands (error budget 1-T)." in
    Arg.(value & opt float 0.97 & info [ "latency-target" ] ~doc ~docv:"T")
  in
  let run spectrum source rp incident_dir snapshot_every windows_n
      latency_mult latency_target obs fleet =
    let exe = "tangramc monitor" in
    Obs_cli.setup ~exe obs;
    check_replay ~exe rp;
    if snapshot_every < 1 then
      usage_error ~exe "--snapshot-every must be at least 1";
    if windows_n < 1 then usage_error ~exe "--windows must be at least 1";
    if latency_mult <= 0.0 || Float.is_nan latency_mult then
      usage_error ~exe "--latency-mult must be positive";
    if latency_target <= 0.0 || latency_target > 1.0 || Float.is_nan latency_target
    then usage_error ~exe "--latency-target must be within (0,1]";
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let archs = replay_archs rp in
        let svc = replay_service rp obs plan in
        Fleet_cli.attach ~exe fleet ~arch:(List.hd archs) svc;
        let mon =
          Tangram.Monitor.create ~snapshot_every ~latency_mult ~latency_target
            (Tangram.Service.stats svc)
        in
        Tangram.Service.set_monitor svc (Some mon);
        let spec =
          Tangram.Trace.default ~requests:rp.requests ~seed:rp.trace_seed ~archs
            ()
        in
        let trace = Tangram.Trace.generate spec in
        Printf.printf
          "replaying %d mixed-size requests under the monitor over %d \
           architecture(s)...\n"
          rp.requests (List.length archs);
        (* batch size 1: one request = one monitoring step, so the
           dashboard's request counts match --requests *)
        ignore (Tangram.Trace.replay ~batch_size:1 ~dense_upto:4096 svc trace);
        Tangram.Monitor.snapshot mon;
        let now = Tangram.Monitor.now_us mon in
        Printf.printf "\nvirtual clock: %.0f us over %d requests\n" now
          rp.requests;
        (* --- windowed time series --- *)
        let all =
          Tangram.Obs.Metrics.windows
            (Tangram.Stats.metrics (Tangram.Service.stats svc))
        in
        let total = List.length all in
        let ws =
          (* keep the trailing [windows_n] windows *)
          let rec drop k l =
            if k <= 0 then l
            else match l with [] -> [] | _ :: r -> drop (k - 1) r
          in
          drop (total - windows_n) all
        in
        Printf.printf "\n=== windowed series (last %d of %d windows) ===\n"
          (List.length ws) total;
        List.iter
          (fun (w : Tangram.Obs.Metrics.window) ->
            Printf.printf "window [%.0f .. %.0f] us\n"
              w.Tangram.Obs.Metrics.w_from_us w.Tangram.Obs.Metrics.w_to_us;
            List.iter
              (fun (r : Tangram.Obs.Metrics.window_row) ->
                let name =
                  r.wr_name
                  ^
                  match r.wr_labels with
                  | [] -> ""
                  | ls ->
                      "{"
                      ^ String.concat ","
                          (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                      ^ "}"
                in
                match r.wr_kind with
                | Tangram.Obs.Metrics.Histogram ->
                    if r.wr_value > 0.0 then
                      Printf.printf
                        "  %-48s %9.0f samples   p50 %10.1f   p95 %10.1f\n"
                        name r.wr_value r.wr_p50 r.wr_p95
                | Tangram.Obs.Metrics.Counter ->
                    if r.wr_value > 0.0 then
                      Printf.printf "  %-48s %9.0f\n" name r.wr_value
                | Tangram.Obs.Metrics.Gauge ->
                    Printf.printf "  %-48s %9.1f\n" name r.wr_value)
              w.Tangram.Obs.Metrics.w_rows)
          ws;
        (* --- SLO states --- *)
        let burn v =
          if Float.is_finite v then Printf.sprintf "%8.2f" v else "     inf"
        in
        Printf.printf "\n=== SLOs (multi-window burn rates) ===\n";
        List.iter
          (fun (name, slo) ->
            let o = Tangram.Obs.Slo.objective_of slo in
            let b = Tangram.Obs.Slo.burn_rates slo ~now_us:now in
            Printf.printf
              "  %-10s target %.3f   burn fast %s  slow %s   %-6s (fired %d)\n"
              name o.Tangram.Obs.Slo.o_target
              (burn b.Tangram.Obs.Slo.br_fast)
              (burn b.Tangram.Obs.Slo.br_slow)
              (if Tangram.Obs.Slo.firing slo then "FIRING" else "ok")
              (Tangram.Obs.Slo.fired_count slo))
          (Tangram.Monitor.slos mon);
        (* --- incidents --- *)
        let recorder = Tangram.Monitor.recorder mon in
        let incs = Tangram.Recorder.incidents recorder in
        Printf.printf "\n=== incidents (%d dumped, %d retained) ===\n"
          (Tangram.Recorder.incidents_dumped recorder)
          (List.length incs);
        List.iter
          (fun (inc : Tangram.Recorder.incident) ->
            Printf.printf "  #%04d at %12.0f us   trigger %s\n"
              inc.Tangram.Recorder.in_seq inc.Tangram.Recorder.in_now_us
              (Tangram.Recorder.trigger_kind inc.Tangram.Recorder.in_trigger))
          incs;
        (match incident_dir with
        | Some dir ->
            List.iter
              (fun p -> Printf.printf "wrote %s\n" p)
              (Tangram.Recorder.save_all recorder dir)
        | None -> ());
        print_newline ();
        print_string (Obs_cli.render_report obs (Tangram.Service.stats svc));
        Obs_cli.save_trace obs;
        Obs_cli.write_metrics obs (Tangram.Service.stats svc))
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a synthetic trace under the service monitor and render a \
          text dashboard: windowed time series, SLO burn rates and the \
          flight recorder's incident bundles")
    Term.(
      const run $ spectrum_arg $ source_arg $ replay_term $ incident_dir_arg
      $ snapshot_every_arg $ windows_arg $ latency_mult_arg $ latency_target_arg
      $ Obs_cli.term $ Fleet_cli.term)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* The nvprof-table analogue: run versions for one shape and print each
   one's aggregated simulator counters (the same [Gpusim.Events] totals
   the service aggregates under --kernel-counters), fastest first; with
   --baselines the paper's CUB, Kokkos and OpenMP rows follow. *)
let profile_cmd =
  let arch_arg =
    let doc = "Simulated architecture: kepler, maxwell, pascal or volta." in
    Arg.(value & opt string "kepler" & info [ "arch"; "a" ] ~doc)
  in
  let n_arg =
    let doc = "Input size (number of 32-bit elements)." in
    Arg.(value & opt int 65536 & info [ "size"; "n" ] ~doc)
  in
  let tune_arg =
    let doc = "Sweep tunables per version at this size before profiling." in
    Arg.(value & flag & info [ "tune" ] ~doc)
  in
  let all_variants_arg =
    let doc = "Profile every code version, not just the pruned survivors." in
    Arg.(value & flag & info [ "all-variants" ] ~doc)
  in
  let json_arg =
    let doc = "Print the table as a JSON array instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let baselines_arg =
    let doc = "Also run the CUB, Kokkos and OpenMP baselines on the same input." in
    Arg.(value & flag & info [ "baselines" ] ~doc)
  in
  let run spectrum source arch_name n tune all_variants json baselines =
    let arch = lookup_arch arch_name in
    if n < 1 then usage_error ~exe:"tangramc profile" "--size must be at least 1";
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let versions =
          if all_variants then Tangram.all_versions ()
          else Tangram.pruned_versions ()
        in
        let opts =
          if n <= 1 lsl 17 then Tangram.Interp.exact
          else
            { Tangram.Interp.max_blocks = Some 24; loop_cap = Some 48;
              check_uniform = false }
        in
        let input =
          if n <= 1 lsl 17 then
            Tangram.Runner.Dense (Array.init n (fun i -> float_of_int (i land 7)))
          else
            Tangram.Runner.Synthetic
              { n; pattern = Array.init 1024 (fun i -> float_of_int (i land 7)) }
        in
        (* a row: label, simulated time, kernel counters (none for the
           CPU baseline) *)
        let gpu_row label (o : Tangram.Runner.outcome) =
          ( label,
            o.Tangram.Runner.time_us,
            Some
              (Tangram.Events.totals_of_list
                 (List.map
                    (fun (lr : Tangram.Interp.launch_result) ->
                      lr.Tangram.Interp.lr_events)
                    o.Tangram.Runner.launch_results)) )
        in
        let rows =
          List.filter_map
            (fun v ->
              match
                let cp = Tangram.Planner.compiled plan v in
                let tunables =
                  if tune then
                    Some (Tangram.Tuner.tune ~arch ~n cp).Tangram.Tuner.best
                  else None
                in
                Tangram.Runner.run_compiled ~opts ~arch ?tunables ~input cp
              with
              | o -> Some (gpu_row (Tangram.Version.name v) o)
              | exception Tangram.Interp.Sim_error _ -> None
              | exception Tangram.Validate.Invalid _ -> None
              | exception Tangram.Race.Racy _ -> None
              | exception Invalid_argument _ -> None)
            versions
        in
        let rows = List.sort (fun (_, a, _) (_, b, _) -> compare a b) rows in
        let baseline_rows =
          if not baselines then []
          else
            [
              gpu_row "CUB 1.8.0 (hand-written)" (Tangram.Cub.run ~opts ~arch input);
              gpu_row "Kokkos (GPU backend)" (Tangram.Kokkos.run ~opts ~arch input);
              ( "OpenMP (2x POWER8+)",
                (Tangram.Openmp.run input).Tangram.Openmp.time_us,
                None );
            ]
        in
        if json then begin
          let row_json key (label, time_us, totals) =
            Tangram.Obs.Json.Obj
              ((key, Tangram.Obs.Json.Str label)
              :: ("time_us", Tangram.Obs.Json.Num time_us)
              ::
              (match totals with
              | Some t ->
                  List.map
                    (fun (k, x) -> (k, Tangram.Obs.Json.Num x))
                    (Tangram.Events.totals_fields t)
              | None -> []))
          in
          print_endline
            (Tangram.Obs.Json.to_string
               (Tangram.Obs.Json.Arr
                  (List.map (row_json "version") rows
                  @ List.map (row_json "baseline") baseline_rows)))
        end
        else begin
          Printf.printf "profiling %d version(s) on %s, n = %d%s\n\n"
            (List.length rows) arch.Tangram.Arch.name n
            (if tune then " (tuned)" else "");
          Printf.printf "%-34s %12s %12s %10s %12s %12s %10s %14s\n" "version"
            "time us" "warp insts" "shfl" "shared ser" "glb atomics" "max heat"
            "dram bytes";
          let print_row (label, time_us, totals) =
            match totals with
            | Some t ->
                Printf.printf
                  "%-34s %12.2f %12.0f %10.0f %12.0f %12.0f %10.0f %14.0f\n"
                  label time_us t.Tangram.Events.t_warp_insts
                  t.Tangram.Events.t_shfl_insts t.Tangram.Events.t_shared_serial
                  t.Tangram.Events.t_atomic_global_ops
                  t.Tangram.Events.t_max_heat t.Tangram.Events.t_bytes_dram
            | None ->
                Printf.printf "%-34s %12.2f %12s %10s %12s %12s %10s %14s\n"
                  label time_us "-" "-" "-" "-" "-" "-"
          in
          List.iter print_row rows;
          if baseline_rows <> [] then begin
            print_newline ();
            List.iter print_row baseline_rows
          end
        end)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run code versions for one shape and print their per-version \
          simulator kernel counters (the nvprof-table analogue), optionally \
          next to the CUB, Kokkos and OpenMP baselines")
    Term.(
      const run $ spectrum_arg $ source_arg $ arch_arg $ n_arg $ tune_arg
      $ all_variants_arg $ json_arg $ baselines_arg)

(* ------------------------------------------------------------------ *)
(* access                                                              *)
(* ------------------------------------------------------------------ *)

(* Static memory-access calibration: per version, the analyzer's
   transaction/replay predictions against the interpreter's observed
   Events totals, plus the static-vs-observed cost ranking flips — the
   exact failure mode of a tuner trusting the static model. *)
let access_cmd =
  let arch_arg =
    let doc =
      "Calibrate on $(docv): kepler, maxwell, pascal, volta, or 'all' \
       (every descriptor)."
    in
    Arg.(value & opt string "all" & info [ "arch"; "a" ] ~doc ~docv:"ARCH")
  in
  let n_arg =
    let doc = "Input size (number of 32-bit elements; keep it a power of two)." in
    Arg.(value & opt int 16384 & info [ "size"; "n" ] ~doc)
  in
  let margin_arg =
    let doc =
      "Relative cost gap both pricings must exceed before a disagreement \
       counts as a ranking flip."
    in
    Arg.(value & opt float 0.1 & info [ "margin" ] ~doc)
  in
  let all_variants_arg =
    let doc = "Calibrate every code version, not just the pruned survivors." in
    Arg.(value & flag & info [ "all-variants" ] ~doc)
  in
  let json_arg =
    let doc = "Print the calibration report as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let max_flips_arg =
    let doc =
      "Exit 1 when the total ranking-flip count across architectures \
       exceeds $(docv) (the CI ratchet); negative disables the gate."
    in
    Arg.(value & opt int (-1) & info [ "max-flips" ] ~doc ~docv:"N")
  in
  let tol_arg =
    let doc =
      "Exit 1 when any version's transaction or replay relative error \
       exceeds $(docv)."
    in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~doc ~docv:"E")
  in
  let run spectrum source arch_name n margin all_variants json max_flips tol =
    let archs =
      if String.lowercase_ascii arch_name = "all" then
        Tangram.Arch.presets @ [ Tangram.Arch.volta_v100 ]
      else [ lookup_arch arch_name ]
    in
    if n < 1 then usage_error ~exe:"tangramc access" "--size must be at least 1";
    handle_frontend_errors (fun () ->
        let plan = load_planner spectrum source in
        let versions =
          if all_variants then Tangram.all_versions ()
          else Tangram.pruned_versions ()
        in
        let reports =
          Tangram.Calibrate.calibrate_all ~n ~margin ~archs plan versions
        in
        if json then
          print_endline
            (Tangram.Obs.Json.to_string (Tangram.Calibrate.reports_json reports))
        else begin
          Printf.printf
            "calibrating %d version(s) x %d arch(es), n = %d, flip margin %.0f%%\n"
            (List.length versions) (List.length archs) n (margin *. 100.0);
          List.iter
            (fun (r : Tangram.Calibrate.report) ->
              Printf.printf "\n-- %s --\n" r.Tangram.Calibrate.cr_arch.Tangram.Arch.name;
              Printf.printf "%-34s %10s %10s %6s %9s %9s %6s %10s %10s %s\n"
                "version" "pred trn" "obs trn" "err%" "pred rpl" "obs rpl"
                "err%" "static us" "obs us" "notes";
              List.iter
                (fun (row : Tangram.Calibrate.row) ->
                  let notes =
                    String.concat ","
                      ((if row.Tangram.Calibrate.r_approx then [ "approx" ] else [])
                      @ List.sort_uniq compare
                          (List.map
                             (fun (d : Tangram.Diag.t) -> d.Tangram.Diag.code)
                             row.Tangram.Calibrate.r_diags))
                  in
                  Printf.printf
                    "%-34s %10.0f %10.0f %6.2f %9.0f %9.0f %6.2f %10.2f %10.2f %s\n"
                    (Tangram.Version.name row.Tangram.Calibrate.r_version)
                    (Tangram.Calibrate.global_trans row.Tangram.Calibrate.r_pred)
                    (Tangram.Calibrate.global_trans row.Tangram.Calibrate.r_obs)
                    (row.Tangram.Calibrate.r_trans_err *. 100.0)
                    row.Tangram.Calibrate.r_pred.Tangram.Events.t_shared_serial
                    row.Tangram.Calibrate.r_obs.Tangram.Events.t_shared_serial
                    (row.Tangram.Calibrate.r_serial_err *. 100.0)
                    row.Tangram.Calibrate.r_static_us
                    row.Tangram.Calibrate.r_obs_us notes)
                r.Tangram.Calibrate.cr_rows;
              if r.Tangram.Calibrate.cr_skipped <> [] then
                Printf.printf "skipped (simulator rejected): %s\n"
                  (String.concat ", " r.Tangram.Calibrate.cr_skipped);
              Printf.printf
                "trans err mean %.2f%% max %.2f%%; replay err mean %.2f%% max \
                 %.2f%%; ranking flips: %d\n"
                (r.Tangram.Calibrate.cr_mean_trans_err *. 100.0)
                (r.Tangram.Calibrate.cr_max_trans_err *. 100.0)
                (r.Tangram.Calibrate.cr_mean_serial_err *. 100.0)
                (r.Tangram.Calibrate.cr_max_serial_err *. 100.0)
                (List.length r.Tangram.Calibrate.cr_flips);
              List.iter
                (fun (f : Tangram.Calibrate.flip) ->
                  Printf.printf
                    "  FLIP: static prefers %s over %s (+%.0f%%) but observed \
                     disagrees (+%.0f%%)\n"
                    f.Tangram.Calibrate.fl_fast f.Tangram.Calibrate.fl_slow
                    (f.Tangram.Calibrate.fl_static_gap *. 100.0)
                    (f.Tangram.Calibrate.fl_obs_gap *. 100.0))
                r.Tangram.Calibrate.cr_flips)
            reports
        end;
        (* gates: error-severity TPERF diagnostics never pass; the flip
           count and the per-version error tolerance are ratchets *)
        let tperf_errors =
          List.concat_map
            (fun (r : Tangram.Calibrate.report) ->
              List.concat_map
                (fun (row : Tangram.Calibrate.row) ->
                  Tangram.Diag.errors row.Tangram.Calibrate.r_diags)
                r.Tangram.Calibrate.cr_rows)
            reports
        in
        let total_flips =
          List.fold_left
            (fun acc (r : Tangram.Calibrate.report) ->
              acc + List.length r.Tangram.Calibrate.cr_flips)
            0 reports
        in
        let worst_err =
          List.fold_left
            (fun acc (r : Tangram.Calibrate.report) ->
              Float.max acc
                (Float.max r.Tangram.Calibrate.cr_max_trans_err
                   r.Tangram.Calibrate.cr_max_serial_err))
            0.0 reports
        in
        if tperf_errors <> [] then begin
          Printf.eprintf "error-severity TPERF diagnostics:\n%s\n"
            (Tangram.Diag.render tperf_errors);
          exit 1
        end;
        if worst_err > tol then begin
          Printf.eprintf
            "calibration error %.2f%% exceeds tolerance %.2f%%\n"
            (worst_err *. 100.0) (tol *. 100.0);
          exit 1
        end;
        if max_flips >= 0 && total_flips > max_flips then begin
          Printf.eprintf "ranking flips %d exceed --max-flips %d\n" total_flips
            max_flips;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "access"
       ~doc:
         "Calibrate the static memory-access analyzer: per-version \
          static-vs-observed transaction/replay error and cost ranking \
          flips across simulated architectures")
    Term.(
      const run $ spectrum_arg $ source_arg $ arch_arg $ n_arg $ margin_arg
      $ all_variants_arg $ json_arg $ max_flips_arg $ tol_arg)

(* ------------------------------------------------------------------ *)
(* codes                                                               *)
(* ------------------------------------------------------------------ *)

let codes_cmd =
  let json_arg =
    let doc = "Print the registry as a JSON array instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run json =
    if json then
      print_endline (Tangram.Obs.Json.to_string (Tangram.Diag.registry_json ()))
    else begin
      Printf.printf "%-10s %-8s %-9s %s\n" "code" "severity" "source" "meaning";
      List.iter
        (fun (r : Tangram.Diag.info) ->
          Printf.printf "%-10s %-8s %-9s %s\n" r.Tangram.Diag.r_code
            (Tangram.Diag.severity_name r.Tangram.Diag.r_severity)
            r.Tangram.Diag.r_source r.Tangram.Diag.r_meaning)
        Tangram.Diag.registry
    end
  in
  Cmd.v
    (Cmd.info "codes"
       ~doc:
         "List every registered diagnostic code (TVAL/TSAN/TLINT/TSYM/TPERF) \
          with its severity and one-line meaning")
    Term.(const run $ json_arg)

(* ------------------------------------------------------------------ *)
(* trace-check                                                         *)
(* ------------------------------------------------------------------ *)

let trace_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path =
    match Tangram.Obs.Trace.validate_chrome_file path with
    | Ok n ->
        (* a droppedEvents marker means the ring overwrote events before
           export: the document is valid but known-incomplete (TOBS003) *)
        let dropped = Tangram.Obs.Trace.chrome_dropped_file path in
        if dropped > 0 then
          Printf.printf "%s: OK (%d events, INCOMPLETE: %d dropped by the ring)\n"
            path n dropped
        else Printf.printf "%s: OK (%d events)\n" path n
    | Error msg ->
        Printf.eprintf "%s: INVALID: %s\n" path msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace_event JSON file (--trace-out output): \
          well-formed, monotone timestamps, balanced B/E spans; reports the \
          droppedEvents marker of a ring-truncated trace")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "tangramc" ~version:"1.0.0"
      ~doc:"Tangram-style kernel synthesis for GPU parallel reduction (CGO 2019)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            emit_cmd; variants_cmd; versions_cmd; check_cmd; lint_cmd;
            prove_cmd; synth_cmd; serve_cmd; monitor_cmd; profile_cmd;
            access_cmd; codes_cmd; trace_check_cmd;
          ]))
