(** PTX back end: renders device-IR kernels as NVIDIA PTX virtual-ISA text
    (three-address code over typed virtual registers, structured control
    flow lowered to labels and predicated branches), targeted at sm_60.

    Where {!Cuda} emits what Tangram feeds nvcc, this emits what nvcc's
    front end would produce — useful for inspecting the instruction mix
    (shuffles, atomics with scopes, barriers) the synthesis decided on. *)

(** Render one kernel as a [.visible .entry]. Every IR register is
    declared in the class of its kind from {!Analysis.registers}: 32-bit
    integer ([%r]), 32-bit float ([%f]) or predicate ([%p]); addresses
    use a fourth, 64-bit class ([%rd]). *)
val emit_kernel : Ir.kernel -> string

(** Render a whole program's kernels as one PTX module. *)
val emit_program : Ir.program -> string
