(* reduce-explorer: run synthesized versions and baselines on a simulated
   GPU, with timing, cost breakdown and profiling events.

   Examples:

   {v
     reduce-explorer --arch kepler --n 65536                # best version
     reduce-explorer --arch maxwell --n 1048576 --all       # all 30 pruned
     reduce-explorer --arch pascal --n 4096 --version p --events
     reduce-explorer --arch kepler --n 262144 --baselines
   v} *)

open Cmdliner

let arch_arg =
  let doc = "Simulated architecture: kepler, maxwell or pascal." in
  Arg.(value & opt string "kepler" & info [ "arch"; "a" ] ~doc)

let n_arg =
  let doc = "Input size (number of 32-bit elements)." in
  Arg.(value & opt int 65536 & info [ "size"; "n" ] ~doc)

let version_arg =
  let doc = "Run one specific code version (Figure 6 label or full name)." in
  Arg.(value & opt (some string) None & info [ "code-version"; "v" ] ~doc)

let all_arg =
  let doc = "Run all 30 pruned versions and rank them." in
  Arg.(value & flag & info [ "all" ] ~doc)

let baselines_arg =
  let doc = "Also run the CUB, Kokkos and OpenMP baselines." in
  Arg.(value & flag & info [ "baselines"; "b" ] ~doc)

let events_arg =
  let doc = "Print the profiling events of every launch." in
  Arg.(value & flag & info [ "events"; "e" ] ~doc)

let program_arg =
  let doc = "Run a saved device-IR program (s-expression from 'tangramc emit -t ir')." in
  Arg.(value & opt (some file) None & info [ "program" ] ~doc ~docv:"FILE")

let tune_arg =
  let doc = "Sweep tunables for each version at this size (default: tuned at 16M)." in
  Arg.(value & flag & info [ "tune" ] ~doc)

let lookup_arch (s : string) : Tangram.Arch.t =
  match Tangram.Arch.by_name s with
  | Some a -> a
  | None ->
      Printf.eprintf "unknown architecture %S (kepler|maxwell|pascal|volta)\n" s;
      exit 1

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
        Printf.eprintf "unknown version %S\n" spec;
        exit 1

let opts_for (n : int) : Tangram.Interp.options =
  if n <= 1 lsl 17 then Tangram.Interp.exact
  else { Tangram.Interp.max_blocks = Some 24; loop_cap = Some 48; check_uniform = false }

let input_for (n : int) : Tangram.Runner.input =
  if n <= 1 lsl 17 then
    Tangram.Runner.Dense (Array.init n (fun i -> float_of_int (i land 7)))
  else
    Tangram.Runner.Synthetic
      { n; pattern = Array.init 1024 (fun i -> float_of_int (i land 7)) }

let version_label (v : Tangram.Version.t) : string =
  match Tangram.Version.figure6_label v with
  | Some l -> Printf.sprintf "(%s) %s" l (Tangram.Version.name v)
  | None -> Tangram.Version.name v

let print_outcome ~events label (o : Tangram.Runner.outcome) =
  Printf.printf "%-34s %10.2f us%s\n" label o.Tangram.Runner.time_us
    (if o.Tangram.Runner.exact then Printf.sprintf "  (result %g)" o.result else "");
  List.iteri
    (fun i (c : Tangram.Cost.t) ->
      Printf.printf "    launch %d: %s\n" i (Format.asprintf "%a" Tangram.Cost.pp c))
    o.launch_costs;
  if events then
    List.iteri
      (fun i (lr : Tangram.Interp.launch_result) ->
        Printf.printf "    events of launch %d <<<%d, %d>>>:\n%s\n" i
          lr.Tangram.Interp.lr_grid lr.lr_block
          (Format.asprintf "      @[<v>%a@]" Tangram.Events.pp lr.lr_events))
      o.launch_results

let run_saved_program ~arch ~n ~events path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  match Tangram.Serialize.program_of_string src with
  | exception Tangram.Serialize.Parse_error msg ->
      Printf.eprintf "cannot parse %s: %s\n" path msg;
      exit 1
  | program ->
      let o =
        Tangram.Runner.run ~opts:(opts_for n) ~arch ~input:(input_for n) program
      in
      print_outcome ~events (Printf.sprintf "%s (saved program)" path) o

let run arch_name n version all baselines events tune program_file =
  let arch = lookup_arch arch_name in
  let ctx = Tangram.create () in
  let plan = Tangram.plan ctx in
  let opts = opts_for n and input = input_for n in
  Printf.printf "architecture: %s\ninput: %d elements\n\n"
    (Format.asprintf "%a" Tangram.Arch.pp arch)
    n;
  let tunables_for v =
    if tune then
      (Tangram.Tuner.tune ~arch ~n (Tangram.Planner.compiled plan v)).Tangram.Tuner.best
    else Tangram.tuned_parameters ctx ~arch v
  in
  let run_version v =
    let tunables = tunables_for v in
    let o = Tangram.Planner.run ~opts ~arch ~tunables plan ~input v in
    (v, tunables, o)
  in
  (match program_file with
  | Some path -> run_saved_program ~arch ~n ~events path
  | None ->
  match (version, all) with
  | Some spec, _ ->
      let v, tunables, o = run_version (resolve_version spec) in
      Printf.printf "tunables: %s\n"
        (String.concat ", "
           (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) tunables));
      print_outcome ~events (version_label v) o
  | None, true ->
      let results = List.map run_version (Tangram.pruned_versions ()) in
      let results =
        List.sort
          (fun (_, _, a) (_, _, b) ->
            compare a.Tangram.Runner.time_us b.Tangram.Runner.time_us)
          results
      in
      List.iter
        (fun (v, tunables, (o : Tangram.Runner.outcome)) ->
          Printf.printf "%-34s %10.2f us   [%s]\n" (version_label v) o.time_us
            (String.concat ", "
               (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) tunables)))
        results
  | None, false ->
      let v, tunables = Tangram.select ctx ~arch ~n in
      Printf.printf "selected: %s  [%s]\n" (version_label v)
        (String.concat ", "
           (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) tunables));
      let o = Tangram.Planner.run ~opts ~arch ~tunables plan ~input v in
      print_outcome ~events (version_label v) o);
  if baselines then begin
    print_newline ();
    print_outcome ~events "CUB 1.8.0 (hand-written)" (Tangram.Cub.run ~opts ~arch input);
    print_outcome ~events "Kokkos (GPU backend)" (Tangram.Kokkos.run ~opts ~arch input);
    let omp = Tangram.Openmp.run input in
    Printf.printf "%-34s %10.2f us  (result %g)\n" "OpenMP (2x POWER8+)"
      omp.Tangram.Openmp.time_us omp.result
  end

let () =
  let info =
    Cmd.info "reduce-explorer" ~version:"1.0.0"
      ~doc:"Explore synthesized reductions on simulated GPU architectures"
  in
  let term =
    Term.(
      const run $ arch_arg $ n_arg $ version_arg $ all_arg $ baselines_arg
      $ events_arg $ tune_arg $ program_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
