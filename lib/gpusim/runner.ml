(* Program runner: executes a device-IR host program (buffers + launch
   sequence) on a simulated architecture and aggregates per-launch costs
   into a wall-clock estimate.

   The runner is the single entry point benches and tests go through:

   {[
     let outcome =
       Runner.run ~arch:Arch.kepler_k40c ~tunables:[ ("p", 256) ]
         ~input program
   ]}

   In {!Interp.exact} mode the returned [result] is the true value computed
   by the simulated kernels and can be checked against a reference; in
   {!Interp.approximate} mode only [time_us] is meaningful. *)

module Ir = Device_ir.Ir

type outcome = {
  result : float;
  time_us : float;
  exact : bool;  (** whether [result] is trustworthy (no sampling) *)
  launch_costs : Cost.t list;
  launch_results : Interp.launch_result list;
}

(** Program input: a dense array, or a synthetic buffer of logical size [n]
    that repeats [pattern] (power-of-two length) — the latter drives timing
    runs at paper-scale sizes without allocating gigabytes. *)
type input = Dense of float array | Synthetic of { n : int; pattern : float array }

let input_size = function Dense a -> Array.length a | Synthetic { n; _ } -> n

type compiled_program = {
  cp_program : Ir.program;
  cp_kernels : (string * Compiled.t) list;
}

(** Validate, sanitize and compile all kernels of a program once; the
    result can be run many times with different inputs, tunables and
    architectures. The race sanitizer runs right next to the
    well-formedness check: a variant that validates but races (a buggy
    rewrite pass) must never reach the tuner or the plan cache. *)
let compile (p : Ir.program) : compiled_program =
  Device_ir.Validate.check_program_exn p;
  Device_ir.Race.check_program_exn p;
  {
    cp_program = p;
    cp_kernels = List.map (fun k -> (k.Ir.k_name, Compiled.compile k)) p.Ir.p_kernels;
  }

let default_tunables (p : Ir.program) : (string * int) list =
  List.map
    (fun (name, candidates) ->
      match candidates with
      | v :: _ -> (name, v)
      | [] -> invalid_arg (Printf.sprintf "tunable %S has no candidates" name))
    p.Ir.p_tunables

let run_compiled_raw ?(opts = Interp.exact) ?(flip : Fault.flip option)
    ~(arch : Arch.t) ?(tunables : (string * int) list option) ~(input : input)
    (cp : compiled_program) : outcome =
  let p = cp.cp_program in
  let tunables =
    match tunables with Some t -> t | None -> default_tunables p
  in
  let n = input_size input in
  if n = 0 then invalid_arg "Runner.run: empty input";
  let ev_hexp h = Ir.eval_hexp ~n ~tunables h in
  (* Bind buffers: "input" is the caller's (read-only) array, "output" is a
     single cell, temporaries follow their declarations. *)
  let next_id = ref 0 in
  let fresh_id () = let i = !next_id in incr next_id; i in
  let buffers : (string, Interp.buffer) Hashtbl.t = Hashtbl.create 8 in
  (match input with
  | Dense data ->
      Hashtbl.add buffers "input"
        (Interp.make_buffer ~read_only:true ~ty:p.Ir.p_elem ~id:(fresh_id ()) data)
  | Synthetic { n; pattern } ->
      Hashtbl.add buffers "input"
        (Interp.make_virtual_buffer ~read_only:true ~ty:p.Ir.p_elem ~id:(fresh_id ())
           ~n pattern));
  Hashtbl.add buffers "output"
    (Interp.make_buffer ~ty:p.Ir.p_elem ~id:(fresh_id ()) (Array.make 1 0.0));
  let n_inits = ref 0 in
  List.iter
    (fun (b : Ir.buffer) ->
      let size = ev_hexp b.Ir.buf_size in
      if size < 1 then
        invalid_arg
          (Printf.sprintf "buffer %S has non-positive size %d" b.Ir.buf_name size);
      let init =
        match b.Ir.buf_init with
        | Some v -> incr n_inits; v
        | None -> 0.0
      in
      Hashtbl.add buffers b.Ir.buf_name
        (Interp.make_buffer ~ty:b.Ir.buf_ty ~id:(fresh_id ()) (Array.make size init)))
    p.Ir.p_buffers;
  let find_buffer name =
    match Hashtbl.find_opt buffers name with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "unbound buffer %S" name)
  in
  (* A global-memory flip lands in one cell of a writable buffer (the
     output cell or a temporary), applied after the flip's launch — a
     corrupted partial that downstream launches consume, or a corrupted
     final result if it lands after the last launch. Buffer order is the
     declaration order, so the target cell is deterministic. *)
  let apply_global_flip (fl : Fault.flip) : unit =
    let bufs =
      List.map find_buffer
        ("output" :: List.map (fun (b : Ir.buffer) -> b.Ir.buf_name) p.Ir.p_buffers)
    in
    let total = List.fold_left (fun acc b -> acc + b.Interp.b_size) 0 bufs in
    if total > 0 then begin
      let rec go idx = function
        | [] -> ()
        | (b : Interp.buffer) :: rest ->
            if idx < b.Interp.b_size then
              b.Interp.data.(idx) <-
                Fault.flip_value b.Interp.b_ty ~bit:fl.Fault.fl_bit
                  b.Interp.data.(idx)
            else go (idx - b.Interp.b_size) rest
      in
      go (fl.Fault.fl_target mod total) bufs
    end
  in
  let n_launches = List.length p.Ir.p_launches in
  let launch_results =
    List.mapi
      (fun i (ln : Ir.launch) ->
        let k = List.assoc ln.Ir.ln_kernel cp.cp_kernels in
        let grid = ev_hexp ln.Ir.ln_grid in
        let block = ev_hexp ln.Ir.ln_block in
        let shared_elems = ev_hexp ln.Ir.ln_shared_elems in
        let globals = ref [] and params = ref [] in
        List.iter
          (fun (a : Ir.harg) ->
            match a with
            | Ir.Arg_buffer b -> globals := find_buffer b :: !globals
            | Ir.Arg_scalar h -> params := Value.VI (ev_hexp h) :: !params)
          ln.Ir.ln_args;
        let flip_here =
          match flip with
          | Some fl when fl.Fault.fl_launch mod n_launches = i -> Some fl
          | _ -> None
        in
        let kernel_flip =
          match flip_here with
          | Some fl when fl.Fault.fl_space <> Fault.Global_mem -> Some fl
          | _ -> None
        in
        let r =
          Interp.run_kernel ?flip:kernel_flip ~arch ~opts k ~grid ~block
            ~shared_elems
            ~globals:(Array.of_list (List.rev !globals))
            ~params:(Array.of_list (List.rev !params))
        in
        (match flip_here with
        | Some fl when fl.Fault.fl_space = Fault.Global_mem ->
            apply_global_flip fl
        | _ -> ());
        r)
      p.Ir.p_launches
  in
  let launch_costs = List.map (Cost.of_launch arch) launch_results in
  let time_us = Cost.of_program arch ~n_inits:!n_inits launch_costs in
  let result_buffer = find_buffer p.Ir.p_result in
  {
    result = result_buffer.Interp.data.(0);
    time_us;
    exact = opts.Interp.max_blocks = None && opts.Interp.loop_cap = None;
    launch_costs;
    launch_results;
  }

(* Fault injection wraps the raw runner: a roll per run decides between
   passing through, aborting (timeout raises Fault.Injected, transient
   raises Interp.Sim_error so it travels the organic error path), or
   post-processing a completed run (stall inflates the simulated time,
   corrupt replaces the result with NaN). A second, independent roll may
   additionally arm a silent bit flip that the raw runner lands
   mid-execution; flipped runs keep [exact = true] — the caller cannot
   tell, which is the failure mode the runtime guard exists to catch. *)
let run_compiled ?opts ?(fault : Fault.t option)
    ?(fault_version : string option) ~(arch : Arch.t)
    ?(tunables : (string * int) list option) ~(input : input)
    (cp : compiled_program) : outcome =
  let version =
    match fault_version with
    | Some v -> v
    | None -> ( match cp.cp_kernels with (name, _) :: _ -> name | [] -> "?")
  in
  let body () =
  let verdict =
    match fault with
    | None -> Fault.Pass
    | Some f -> Fault.roll f ~version
  in
  (* Always drawn, even for runs a loud verdict will abort, so the flip
     stream position stays independent of the loud-fault rates. *)
  let flip =
    match fault with None -> None | Some f -> Fault.roll_flip f
  in
  let label () = Printf.sprintf "(%s, %s)" arch.Arch.name version in
  match verdict with
  | Fault.Fault Fault.Transient ->
      raise (Interp.Sim_error ("injected transient fault " ^ label ()))
  | Fault.Fault Fault.Timeout ->
      raise (Fault.Injected (Fault.Timeout, "injected kernel timeout " ^ label ()))
  | Fault.Fault Fault.Bit_flip ->
      (* unreachable: Fault.plan rejects Bit_flip in the kind mix *)
      assert false
  | Fault.Pass | Fault.Fault (Fault.Stall | Fault.Corrupt) -> (
      (match (fault, flip) with
      | Some f, Some fl -> Fault.record_flip f ~arch:arch.Arch.name ~version fl
      | _ -> ());
      let o = run_compiled_raw ?opts ?flip ~arch ?tunables ~input cp in
      match (verdict, fault) with
      | Fault.Fault Fault.Stall, Some _ ->
          { o with time_us = o.time_us *. Fault.stall_factor }
      | Fault.Fault Fault.Corrupt, _ -> { o with result = nan; exact = false }
      | _ -> o)
  in
  (* faulted runs that abort still record their span: the E is emitted by
     Fun.protect, so a trace accounts for every attempt, not just the
     successful ones *)
  if not (Obs.Trace.enabled ()) then body ()
  else
    Obs.Trace.span
      ~attrs:
        [
          ("arch", arch.Arch.name);
          ("version", version);
          ("n", string_of_int (input_size input));
        ]
      ~name:"run" body

(** One-shot convenience wrapper around {!compile} and {!run_compiled}. *)
let run ?opts ?fault ?fault_version ~arch ?tunables ~input (p : Ir.program) :
    outcome =
  run_compiled ?opts ?fault ?fault_version ~arch ?tunables ~input (compile p)
