(** Well-formedness checks for device-IR kernels and programs.

    Rejects references to undeclared names, registers used before every
    path defines them, barriers outside block-uniform control flow,
    shuffles under lane-divergent control flow, malformed shuffles and
    vector loads, and host-side launch mistakes (unknown kernels, argument
    mismatches, undeclared buffers/tunables). *)

type error = { where : string; what : string }

val error_to_string : error -> string

exception Invalid of error list

val valid_shfl_width : int -> bool

(** Validator errors as structured diagnostics (code [TVAL001], error
    severity, kernel name as the location). *)
val to_diags : error list -> Diag.t list

(** All diagnostics for one kernel (empty = valid). *)
val check_kernel : Ir.kernel -> error list

(** All diagnostics for a program, including every kernel's. *)
val check_program : Ir.program -> error list

(** @raise Invalid when the program has diagnostics. *)
val check_program_exn : Ir.program -> unit

(** @raise Invalid when the kernel has diagnostics. *)
val check_kernel_exn : Ir.kernel -> unit
