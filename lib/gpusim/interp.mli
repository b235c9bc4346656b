(** Warp-synchronous SIMT interpreter for compiled device-IR kernels.

    Blocks execute sequentially (the cost model accounts for inter-block
    parallelism); within a block, barrier-free statements run warp by warp
    in lock step under active-lane masks, and barrier-containing constructs
    are driven block-wide under (dynamically re-checked) block-uniform
    control flow. While executing, per-warp pipelined cycle costs and
    profiling events are charged according to the {!Arch} descriptor. See
    the implementation header for the full model. *)

(** Raised on anything a real GPU would turn into corruption or a hang:
    out-of-bounds accesses, barriers under divergent control flow, writes
    to read-only buffers, misaligned vector loads, runaway loops, resource
    over-subscription, and dynamic value traps. *)
exception Sim_error of string

type options = {
  max_blocks : int option;
      (** simulate at most this many blocks and extrapolate the counters *)
  loop_cap : int option;
      (** cut affine loops short after this many iterations and extrapolate
          the remainder from one representative iteration *)
  check_uniform : bool;
      (** verify block-wide conditions dynamically across every thread *)
}

(** Full-fidelity execution: every block, every iteration, uniformity
    checked. Results are exact. *)
val exact : options

(** The serving sample: 12 blocks, affine loops cut after 24 iterations,
    no uniformity check. Cost stays near-constant in the input size;
    results are meaningless, only the simulated time counts. *)
val sampled : options

type buffer = {
  data : float array;
  b_ty : Device_ir.Ir.scalar;
  b_id : int;
  b_read_only : bool;
  b_size : int;  (** logical element count (bounds checks use this) *)
  b_wrap : bool;  (** virtual buffer: [data] repeats cyclically *)
}

val make_buffer :
  ?read_only:bool -> ty:Device_ir.Ir.scalar -> id:int -> float array -> buffer

(** A virtual buffer of logical size [n] whose contents repeat [pattern]
    (whose length must be a power of two). Lets timing runs reach the
    paper's 268M-element sizes without allocating gigabytes. *)
val make_virtual_buffer :
  ?read_only:bool ->
  ty:Device_ir.Ir.scalar ->
  id:int ->
  n:int ->
  float array ->
  buffer

type launch_result = {
  lr_grid : int;
  lr_block : int;
  lr_shared_bytes : int;  (** per-block shared-memory footprint *)
  lr_events : Events.t;
  lr_block_cp : float;  (** mean per-block critical path, cycles *)
}

(** Execute a compiled kernel on [arch]. [globals] binds each kernel array
    slot to a buffer (in declaration order); [params] are the scalar
    arguments in declaration order. Each buffer's element type and each
    parameter must have the kind (int, float or predicate) its
    declaration has, or the launch fails with {!Sim_error}. *)
val run_kernel :
  ?flip:Fault.flip ->
  arch:Arch.t ->
  opts:options ->
  Compiled.t ->
  grid:int ->
  block:int ->
  shared_elems:int ->
  globals:buffer array ->
  params:Value.t array ->
  launch_result
