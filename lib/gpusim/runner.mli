(** Program runner: executes a device-IR host program (buffers + launch
    sequence) on a simulated architecture and aggregates per-launch costs
    into a wall-clock estimate.

    In {!Interp.exact} mode the returned [result] is the true value the
    simulated kernels computed; under sampling only [time_us] is
    meaningful. *)

type outcome = {
  result : float;  (** element 0 of the program's result buffer *)
  time_us : float;
  exact : bool;  (** whether [result] is trustworthy (no sampling) *)
  launch_costs : Cost.t list;
  launch_results : Interp.launch_result list;
}

(** Program input: a dense array, or a synthetic buffer of logical size
    [n] repeating [pattern] (power-of-two length) for paper-scale timing
    runs. *)
type input = Dense of float array | Synthetic of { n : int; pattern : float array }

val input_size : input -> int

type compiled_program = {
  cp_program : Device_ir.Ir.program;
  cp_kernels : (string * Compiled.t) list;
}

(** Validate (raising {!Device_ir.Validate.Invalid} on failure) and compile
    all kernels once; the result can be run many times with different
    inputs, tunables and architectures. *)
val compile : Device_ir.Ir.program -> compiled_program

(** The host side of one run of a program, generic in the buffer
    representation (the symbolic evaluator binds terms): bind the
    buffers — [input], the one-cell [output], then each temporary
    [temporary decl size] in declaration order — and run every launch in
    order through [launch i kernel], its geometry and arguments evaluated
    just before it runs. [tunables] defaults to each tunable's first
    candidate. Returns the launches' results and the program's result
    buffer.
    @raise Invalid_argument on an unbound tunable or buffer, a tunable
    without candidates or a temporary of non-positive size. *)
val run_host :
  ?tunables:(string * int) list ->
  n:int ->
  input:'b ->
  output:'b ->
  temporary:(Device_ir.Ir.buffer -> int -> 'b) ->
  launch:
    (int ->
    string ->
    grid:int ->
    block:int ->
    shared_elems:int ->
    globals:'b array ->
    params:Value.t array ->
    'r) ->
  Device_ir.Ir.program ->
  'r list * 'b

(** [fault] injects deterministic faults into this run (see {!Fault}):
    an injected transient fault raises {!Interp.Sim_error}, an injected
    timeout raises {!Fault.Injected}, a stall multiplies [time_us] by the
    plan's stall factor and a corrupt outcome carries a NaN [result].
    Independently, the plan's per-space bit-flip rates may arm a silent
    {!Fault.flip} that lands mid-run in global, shared or register state;
    a flipped outcome is indistinguishable from a clean one ([exact] is
    unchanged) — detecting it is the runtime guard's job.
    [fault_version] labels the roll (per-version fault rates key on it;
    defaults to the program's first kernel name). *)
val run_compiled :
  ?opts:Interp.options ->
  ?fault:Fault.t ->
  ?fault_version:string ->
  arch:Arch.t ->
  ?tunables:(string * int) list ->
  input:input ->
  compiled_program ->
  outcome

(** One-shot convenience wrapper around {!compile} and {!run_compiled}. *)
val run :
  ?opts:Interp.options ->
  ?fault:Fault.t ->
  ?fault_version:string ->
  arch:Arch.t ->
  ?tunables:(string * int) list ->
  input:input ->
  Device_ir.Ir.program ->
  outcome
