(** Static analyses over the device IR: barrier placement, a
    thread-divergence taint analysis, and def/use scans.

    The divergence analysis classifies values and control-flow contexts on
    a three-point lattice: block-uniform (identical across the block),
    warp-uniform (identical within each warp, e.g. anything derived from
    [Warp_id]), and divergent. Barriers require block-uniform control;
    warp shuffles tolerate warp-uniform control. *)

module SS : Set.S with type elt = string

(** Whether a statement is (or contains) a [__syncthreads()]. The
    simulator uses this to decide whether a statement must execute
    block-wide. *)
val contains_sync : Ir.stmt -> bool

(** The divergence lattice, ordered [Block_uniform < Warp_uniform <
    Divergent]. *)
type level = Block_uniform | Warp_uniform | Divergent

val join_level : level -> level -> level

module SM : Map.S with type key = string

(** Divergence level of an expression, given per-register levels (absent
    registers are block-uniform). *)
val exp_level : tainted:level SM.t -> Ir.exp -> level

(** Propagate divergence levels through a statement list: a register
    assigned from an expression of level L under control of level C gets
    [join L C]; registers loaded from memory are conservatively
    divergent. *)
val level_stmts : level SM.t -> Ir.stmt list -> level SM.t

val exp_uses : Ir.exp -> SS.t

(** All registers defined anywhere in a statement list, including loop
    iterators and nested definitions. *)
val all_defs : Ir.stmt list -> SS.t

(** All registers read anywhere in a statement list. *)
val all_uses : Ir.stmt list -> SS.t

(** Global / shared array names referenced by a statement list. *)
val arrays_used : Ir.stmt list -> (string * Ir.space) list

