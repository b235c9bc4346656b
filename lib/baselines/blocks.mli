(** Shared device-IR building blocks for the hand-written baselines. *)

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
