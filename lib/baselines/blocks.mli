(** Shared device-IR building blocks for the hand-written baselines. *)

(** Fresh register names [base_1], [base_2], ... from one counter. *)
val fresh_counter : unit -> string -> string

(** CUB-style BlockReduce over per-thread partials in [acc]: shuffle tree
    per warp, lane-0 partials through shared memory, first warp reduces
    them. After this, thread 0's [acc] holds the block total. Returns the
    statements and the shared declaration they need. *)
val block_reduce :
  fresh:(string -> string) ->
  string ->
  Device_ir.Ir.stmt list * Device_ir.Ir.shared_decl

(** Guarded scalar accumulation of [arr.(idx)] into [acc] when
    [idx < bound]. *)
val guarded_accum :
  fresh:(string -> string) ->
  arr:string ->
  bound:Device_ir.Ir.exp ->
  string ->
  Device_ir.Ir.exp ->
  Device_ir.Ir.stmt list

(** The single-block combine pass both two-pass baselines end with:
    kernel [name], launched as one block of [block] threads, sums the
    [grid] per-block partials in buffer ["partials"] into buffer
    ["final"]. Returns the kernel, those two buffers and its launch. *)
val combine :
  name:string ->
  block:int ->
  grid:Device_ir.Ir.hexp ->
  Device_ir.Ir.kernel * Device_ir.Ir.buffer list * Device_ir.Ir.launch

(** [compiled_per_arch program] compiles [program arch] on first use
    per architecture, then returns the same compiled program. *)
val compiled_per_arch :
  (Gpusim.Arch.t -> Device_ir.Ir.program) ->
  Gpusim.Arch.t ->
  Gpusim.Runner.compiled_program
