(** CUDA C back end: renders device-IR kernels and programs as compilable
    CUDA source text — the paper's actual output path (compare the
    generated text against Listings 1-4). *)

type options = {
  sync_shuffles : bool;
      (** emit CUDA 9+ [__shfl_*_sync] intrinsics instead of the legacy
          API the paper's listings use *)
  indent : int;  (** spaces per nesting level *)
}

val default_options : options

(** Render one kernel as a [__global__] function. [elem] types the value
    registers. *)
val emit_kernel : ?options:options -> elem:Ir.scalar -> Ir.kernel -> string

(** Render a whole program as one .cu translation unit: tunable macros,
    the kernels, and a host entry point performing the allocations,
    initialisations and launches. *)
val emit_program : ?options:options -> Ir.program -> string
