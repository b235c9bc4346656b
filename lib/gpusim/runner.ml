(* Program runner: executes a device-IR host program (buffers + launch
   sequence) on a simulated architecture and aggregates per-launch costs
   into a wall-clock estimate.

   The runner is the single entry point benches and tests go through:

   {[
     let outcome =
       Runner.run ~arch:Arch.kepler_k40c ~tunables:[ ("p", 256) ]
         ~input program
   ]} *)

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

(* The host side of a run, shared with the symbolic evaluator: bind the
   buffers — the given input and one-cell output, then each temporary
   [temporary decl size] in declaration order — and run every launch
   through [launch], its geometry and arguments evaluated just before it
   runs. Tunables default to each one's first candidate. Returns the
   launches' results and the result buffer. *)
let run_host ?(tunables : (string * int) list option) ~(n : int) ~(input : 'b)
    ~(output : 'b) ~(temporary : Ir.buffer -> int -> 'b)
    ~(launch :
       int ->
       string ->
       grid:int ->
       block:int ->
       shared_elems:int ->
       globals:'b array ->
       params:Value.t array ->
       'r) (p : Ir.program) : 'r list * 'b =
  let tunables =
    match tunables with
    | Some t -> t
    | None ->
        List.map
          (fun (name, candidates) ->
            match candidates with
            | v :: _ -> (name, v)
            | [] -> invalid_arg (Printf.sprintf "tunable %S has no candidates" name))
          p.Ir.p_tunables
  in
  let ev_hexp h = Ir.eval_hexp ~n ~tunables h in
  let temporaries =
    List.map
      (fun (b : Ir.buffer) ->
        let size = ev_hexp b.Ir.buf_size in
        if size < 1 then
          invalid_arg
            (Printf.sprintf "buffer %S has non-positive size %d" b.Ir.buf_name size);
        (b.Ir.buf_name, temporary b size))
      p.Ir.p_buffers
  in
  (* a later binding shadows an earlier one of the same name *)
  let buffers =
    List.rev_append temporaries [ ("output", output); ("input", input) ]
  in
  let find_buffer name =
    match List.assoc_opt name buffers with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "unbound buffer %S" name)
  in
  let results =
    List.mapi
      (fun i (ln : Ir.launch) ->
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
        launch i ln.Ir.ln_kernel ~grid ~block ~shared_elems
          ~globals:(Array.of_list (List.rev !globals))
          ~params:(Array.of_list (List.rev !params)))
      p.Ir.p_launches
  in
  (results, find_buffer p.Ir.p_result)

let run_compiled_raw ?(opts = Interp.exact) ?(flip : Fault.flip option)
    ~(arch : Arch.t) ?(tunables : (string * int) list option) ~(input : input)
    (cp : compiled_program) : outcome =
  let p = cp.cp_program in
  let n = input_size input in
  if n = 0 then invalid_arg "Runner.run: empty input";
  (* "input" is the caller's (read-only) array; buffer ids follow the
     binding order *)
  let input =
    match input with
    | Dense data -> Interp.make_buffer ~read_only:true ~ty:p.Ir.p_elem ~id:0 data
    | Synthetic { n; pattern } ->
        Interp.make_virtual_buffer ~read_only:true ~ty:p.Ir.p_elem ~id:0 ~n pattern
  in
  let output = Interp.make_buffer ~ty:p.Ir.p_elem ~id:1 (Array.make 1 0.0) in
  (* the buffers a kernel can write, in binding order *)
  let writable = ref [ output ] in
  let temporary (b : Ir.buffer) size =
    let init = Option.value b.Ir.buf_init ~default:0.0 in
    let buf =
      Interp.make_buffer ~ty:b.Ir.buf_ty ~id:(1 + List.length !writable)
        (Array.make size init)
    in
    writable := !writable @ [ buf ];
    buf
  in
  (* A global-memory flip lands in one cell of a writable buffer (the
     output cell or a temporary), applied after the flip's launch — a
     corrupted partial that downstream launches consume, or a corrupted
     final result if it lands after the last launch. Buffer order is the
     declaration order, so the target cell is deterministic. *)
  let apply_global_flip (fl : Fault.flip) : unit =
    let bufs = !writable in
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
  let launch i kernel ~grid ~block ~shared_elems ~globals ~params =
    let k = List.assoc kernel cp.cp_kernels in
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
      Interp.run_kernel ?flip:kernel_flip ~arch ~opts k ~grid ~block ~shared_elems
        ~globals ~params
    in
    (match flip_here with
    | Some fl when fl.Fault.fl_space = Fault.Global_mem -> apply_global_flip fl
    | _ -> ());
    r
  in
  let launch_results, result_buffer =
    run_host ?tunables ~n ~input ~output ~temporary ~launch p
  in
  let launch_costs = List.map (Cost.of_launch arch) launch_results in
  let n_inits =
    List.length (List.filter (fun b -> b.Ir.buf_init <> None) p.Ir.p_buffers)
  in
  let time_us = Cost.of_program arch ~n_inits launch_costs in
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
