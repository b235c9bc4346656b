(* The planner: from a checked codelet unit to runnable code versions.

   The planner is the entry point the public [Tangram] library wraps:

   {[
     let plan = Planner.create (Tir.Builtins.sum_unit ()) in
     let program = Planner.program plan (Version.of_figure6 "p") in
     ...
   ]}

   It runs the Figure 5 pass pipeline once ({!Passes.Driver.all_variants}),
   infers the spectrum's combining operation from its autonomous codelet
   (used by the atomic finishes), and instantiates {!Version.t}
   compositions on demand, caching compiled programs. *)

module Ir = Device_ir.Ir
open Tir

type t = {
  unit_info : (Ast.codelet * Check.info) list;
  variants : Passes.Driver.variant list;
  spectrum : string;  (** the primary spectrum (the first codelet's) *)
  combiner : string;
      (** the spectrum combining partial results: the consumer named by the
          primary spectrum's compound codelets ([return sum(map)]), falling
          back to the primary itself *)
  op : Ast.atomic_kind;
  elem : Ir.scalar;
  cache : (Version.t, Gpusim.Runner.compiled_program) Hashtbl.t;
  prove_cache : (Version.t, Symbolic.Prove.verdict) Hashtbl.t;
}

exception Plan_error of string

(** Build a planner for a checked unit. The element type is the primary
    codelet's return type; the combining operation is inferred from the
    unit's autonomous codelet (addition if inference fails, which matches
    CUDA's default atomic). *)
let create (unit_info : (Ast.codelet * Check.info) list) : t =
  let primary =
    match unit_info with
    | [] -> raise (Plan_error "empty codelet unit")
    | (c, _) :: _ -> c
  in
  let spectrum = primary.Ast.c_name in
  let elem =
    match primary.Ast.c_ret with
    | Ast.TFloat -> Ir.F32
    | Ast.TInt -> Ir.I32
    | Ast.TUnsigned -> Ir.U32
    | Ast.TBool | Ast.TVoid | Ast.TArray _ ->
        raise
          (Plan_error
             (Printf.sprintf "spectrum %S returns %s, not a scalar to reduce" spectrum
                (Ast.show_ty primary.Ast.c_ret)))
  in
  let variants = Passes.Driver.all_variants unit_info in
  (* the combiner is whatever spectrum the primary's compound codelets call
     on their Map's partial results *)
  let combiner =
    let consumers =
      List.filter_map
        (fun ((c : Ast.codelet), (i : Check.info)) ->
          if c.Ast.c_name = spectrum then
            List.find_map (fun (_, mb) -> mb.Check.mb_consumer) i.Check.ci_maps
          else None)
        unit_info
    in
    match List.sort_uniq compare consumers with
    | [ one ] -> one
    | [] -> spectrum
    | several ->
        raise
          (Plan_error
             (Printf.sprintf "spectrum %S combines through several spectra (%s)"
                spectrum (String.concat ", " several)))
  in
  let op =
    match Passes.Atomic_global.infer_spectrum_op unit_info combiner with
    | Some op -> op
    | None -> Ast.At_add
  in
  {
    unit_info;
    variants;
    spectrum;
    combiner;
    op;
    elem;
    cache = Hashtbl.create 32;
    prove_cache = Hashtbl.create 32;
  }

let sum () = create (Builtins.sum_unit ())
let max_reduction () = create (Builtins.max_unit ())
let min_reduction () = create (Builtins.min_unit ())
let int_sum () = create (Builtins.int_sum_unit ())

(** The device-IR program implementing [v] (uncompiled). *)
let program (t : t) (v : Version.t) : Ir.program =
  Compose.program ~variants:t.variants ~primary:t.spectrum ~combiner:t.combiner
    ~op:t.op ~elem:t.elem v

(** Validated and compiled, ready for {!Gpusim.Runner.run_compiled}; cached
    per version. *)
let compiled (t : t) (v : Version.t) : Gpusim.Runner.compiled_program =
  match Hashtbl.find_opt t.cache v with
  | Some cp -> cp
  | None ->
      let cp =
        Obs.Trace.span
          ~attrs:[ ("version", Version.name v) ]
          ~name:"compile"
          (fun () -> Gpusim.Runner.compile (program t v))
      in
      Hashtbl.add t.cache v cp;
      cp

(** Machine-check [v] against the tree-loop reference with the symbolic
    prover; cached per version. Total like {!lint}: a version whose
    composition itself fails refutes with [TSYM002] instead of raising. *)
let prove (t : t) (v : Version.t) : Symbolic.Prove.verdict =
  match Hashtbl.find_opt t.prove_cache v with
  | Some verdict -> verdict
  | None ->
      let verdict =
        Obs.Trace.span
          ~attrs:[ ("version", Version.name v) ]
          ~name:"prove"
          (fun () ->
            match program t v with
            | p -> Symbolic.Prove.equiv ~op:(Lower.ir_atomic_op t.op) ~elem:t.elem p
            | exception e ->
                Symbolic.Prove.Refuted
                  [
                    {
                      Symbolic.Prove.f_code = "TSYM002";
                      f_geometry = "";
                      f_message =
                        Printf.sprintf "composition failed: %s" (Printexc.to_string e);
                    };
                  ])
      in
      Hashtbl.add t.prove_cache v verdict;
      verdict

(** All sanitizer diagnostics for one version: well-formedness errors
    (via {!Device_ir.Validate}, rendered as [TVAL001] diagnostics), the
    {!Device_ir.Race} barrier-phase race report, the static memory-access
    lints ({!Device_ir.Access}, [TPERF...] warnings), and the symbolic
    prover's verdict ([TSYM...] refutations via {!prove}). Unlike
    {!compiled} this never raises on a bad variant — it is the reporting
    path of [tangramc lint]. *)
let lint (t : t) (v : Version.t) : Device_ir.Diag.t list =
  let p = program t v in
  Device_ir.Diag.sort
    (Device_ir.Validate.to_diags (Device_ir.Validate.check_program p)
    @ Device_ir.Race.check_program p
    @ Device_ir.Access.check_program p
    @ Symbolic.Prove.to_diags ~program:p.Ir.p_name (prove t v))

(** Static memory-access analysis of one version at a concrete geometry
    ([n] and the tunable binding, both defaulting as in
    {!Device_ir.Access.analyze}). *)
let access ?n ?tunables (t : t) (v : Version.t) : Device_ir.Access.analysis =
  Device_ir.Access.analyze ?n ?tunables (program t v)

(** Predicted wall-clock of one version on [arch] from the static
    analysis alone — no simulation. Prices {!access} through
    {!Gpusim.Cost.of_static_program} with the same per-buffer
    initialisation charge the runner applies. *)
let static_cost ?n ?tunables (arch : Gpusim.Arch.t) (t : t) (v : Version.t) :
    float =
  let p = program t v in
  let n_inits =
    List.length
      (List.filter (fun b -> b.Ir.buf_init <> None) p.Ir.p_buffers)
  in
  Gpusim.Cost.of_static_program arch ~n_inits (access ?n ?tunables t v)

(** Stable string renderings of the planner's operation and element type,
    used by the runtime layer as plan-cache key components. *)
let op_name (t : t) : string = Ast.atomic_kind_name t.op

let elem_name (t : t) : string =
  match t.elem with Ir.I32 -> "I32" | Ir.U32 -> "U32" | Ir.F32 -> "F32" | Ir.Pred -> "Pred"

(** The CUDA C rendering of a version (the paper's actual output path). *)
let cuda_source ?(options = Device_ir.Cuda.default_options) (t : t) (v : Version.t) :
    string =
  Device_ir.Cuda.emit_program ~options (program t v)

(** Reference result computed on the host, for checking simulated runs. *)
let reference ?(lo = 0) ?hi (t : t) (input : float array) : float =
  let hi = Option.value hi ~default:(Array.length input) in
  let op = Lower.ir_atomic_op t.op in
  let acc = ref (Ir.identity_value op t.elem) in
  for i = lo to hi - 1 do
    acc := Ir.combine op !acc input.(i)
  done;
  !acc

(** Host reference over a synthetic input of logical size [n] repeating
    [pattern], in closed form (no multi-hundred-megabyte fold): sums scale
    by the cycle count, min/max saturate after one pattern period. *)
let reference_synthetic (t : t) ~(n : int) ~(pattern : float array) : float =
  let op = Lower.ir_atomic_op t.op in
  let identity = Ir.identity_value op t.elem in
  let plen = Array.length pattern in
  if n <= 0 || plen = 0 then identity
  else
    let prefix m =
      let s = ref 0.0 in
      for i = 0 to m - 1 do
        s := !s +. pattern.(i)
      done;
      !s
    in
    match t.op with
    | Ast.At_add | Ast.At_sub ->
        let cycles = n / plen and rem = n mod plen in
        let total = (float_of_int cycles *. prefix plen) +. prefix rem in
        if t.op = Ast.At_add then total else -.total
    | Ast.At_min | Ast.At_max ->
        let m = min n plen in
        let acc = ref identity in
        for i = 0 to m - 1 do
          acc := Ir.combine op !acc pattern.(i)
        done;
        !acc

(** Host reference for any runner input (the service's degraded path). *)
let reference_input (t : t) (input : Gpusim.Runner.input) : float =
  match input with
  | Gpusim.Runner.Dense a -> reference t a
  | Gpusim.Runner.Synthetic { n; pattern } -> reference_synthetic t ~n ~pattern

(** Run one version end to end on a simulated architecture. *)
let run ?(opts = Gpusim.Interp.exact) ~(arch : Gpusim.Arch.t)
    ?(tunables : (string * int) list option) (t : t)
    ~(input : Gpusim.Runner.input) (v : Version.t) : Gpusim.Runner.outcome =
  Gpusim.Runner.run_compiled ~opts ~arch ?tunables ~input (compiled t v)

(* ------------------------------------------------------------------ *)
(* Proof-guided synthesis                                              *)
(* ------------------------------------------------------------------ *)

type synth_result = {
  sr_summary : Symbolic.Synth.summary;
  sr_registered : Version.t list;
  sr_verdicts : (Version.t * Symbolic.Prove.verdict) list;
}

(** Sweep the {!Symbolic.Synth} exchange space: compose each candidate
    exchange as a direct block scheme (plus, for the first two proven
    exchanges, as tiled/strided compound finishers), prove every composed
    version, and {!Version.register_synthesized} the survivors that also
    compile. Refuted candidates — the enumeration seeds some on purpose —
    are reported in [sr_verdicts], never registered. *)
let synthesize (t : t) : synth_result =
  let exchanges = Symbolic.Synth.candidates () in
  let ga block = { Version.grid_pattern = Ast.Tiled; grid_finish = Version.Atomic; block } in
  let direct e = ga (Version.Direct (Version.X e)) in
  let compound pat e = ga (Version.Compound (pat, Version.F_coop (Version.X e))) in
  let judged_direct =
    List.map (fun e -> (e, direct e, prove t (direct e))) exchanges
  in
  let proven_exchanges =
    List.filter_map
      (fun (e, _, verdict) -> if Symbolic.Prove.proved verdict then Some e else None)
      judged_direct
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let compounds =
    List.concat_map
      (fun e -> [ compound Ast.Tiled e; compound Ast.Strided e ])
      (take 2 proven_exchanges)
  in
  let verdicts =
    List.map (fun (_, v, verdict) -> (v, verdict)) judged_direct
    @ List.map (fun v -> (v, prove t v)) compounds
  in
  let registered =
    List.filter_map
      (fun (v, verdict) ->
        if Symbolic.Prove.proved verdict then
          match compiled t v with
          | _ ->
              Version.register_synthesized v;
              Some v
          | exception _ -> None
        else None)
      verdicts
  in
  let proven =
    List.length (List.filter (fun (_, verdict) -> Symbolic.Prove.proved verdict) verdicts)
  in
  {
    sr_summary =
      {
        Symbolic.Synth.sy_enumerated = List.length exchanges;
        sy_proven = proven;
        sy_refuted = List.length verdicts - proven;
        sy_registered = List.length registered;
      };
    sr_registered = registered;
    sr_verdicts = verdicts;
  }
