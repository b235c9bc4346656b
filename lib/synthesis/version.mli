(** Code-version descriptors and search-space enumeration (Section IV-B
    and Figure 6).

    A code version composes codelet variants across the GPU software
    hierarchy: a grid-level distribution (tiled/strided, with an atomic or
    hierarchical finish), a block scheme (a direct cooperative codelet, a
    thread-distributed serial reduction plus a finisher, or the pure
    global-atomic scheme), and for compound schemes a finisher. The
    default enumeration yields 88 versions (paper: 89) of which exactly 30
    survive pruning, all finishing with global atomics, matching the
    paper. *)

(** Cooperative codelet shapes, named as in Figure 6's legend. *)
type coop =
  | V  (** Figure 1(c): tree summation through shared memory *)
  | Vs  (** V with warp shuffles (Section III-C pass) *)
  | A1  (** Figure 3(a): single shared accumulator, all threads atomic *)
  | A2  (** Figure 3(b): per-warp tree, leaders atomic *)
  | A2s  (** A2 with warp shuffles *)
  | A1g
      (** A1 with warp-aggregated atomics (the Section III-D future-work
          extension); only enumerated with [~extensions:true]. *)
  | X of Symbolic.Exchange.t
      (** a synthesized shuffle exchange ({!Symbolic.Synth}), emitted
          directly at the IR level; enters the pipeline only through
          {!register_synthesized}, after the symbolic prover certifies
          the composed version. *)

(** The {!Passes.Driver} variant tag implementing each shape.
    @raise Invalid_argument on synthesized exchanges, which have no TIR
    variant. *)
val coop_variant_name : coop -> string

(** How per-thread partials combine within a block (compound schemes). *)
type finisher =
  | F_coop of coop
  | F_block_atomic
      (** block-scoped atomic on a per-block global cell (Listing 2) *)

type block_scheme =
  | Direct of coop
  | Compound of Tir.Ast.access_pattern * finisher
  | Direct_global_atomic
      (** every thread atomically accumulates its guarded element *)

(** How per-block partials reduce at the grid level. *)
type second_kernel =
  | SK_tree  (** single block: strided serial accumulation + tree finisher *)
  | SK_serial  (** single thread walks all partials *)

type grid_finish = Atomic | Hierarchical of second_kernel

type t = {
  grid_pattern : Tir.Ast.access_pattern;
  grid_finish : grid_finish;
  block : block_scheme;
}

(** Stable human-readable name, e.g. ["DT,A/direct:A2s"]. *)
val name : t -> string

val uses_shuffle : t -> bool
val uses_shared_atomic : t -> bool
val uses_global_atomic : t -> bool

(** Synthesisable by the original Tangram framework: the three Figure 1
    codelets only — no atomics anywhere, no shuffles. *)
val is_original : t -> bool

val needs_second_kernel : t -> bool

(** The full search space. *)
val enumerate : ?extensions:bool -> unit -> t list

(** The paper's pruning: versions not needing a second kernel launch. *)
val enumerate_pruned : unit -> t list

(** Register a proof-checked synthesized version (idempotent). The stock
    {!enumerate} space never includes these; candidate lists opt in. *)
val register_synthesized : t -> unit

(** All synthesized versions registered so far, in registration order. *)
val synthesized : unit -> t list

val clear_synthesized : unit -> unit

(** Section IV-B's accounting buckets. *)
type census = {
  total : int;
  original : int;
  global_atomic_only : int;
  shared_atomic : int;
  shuffle : int;
  pruned_survivors : int;
}

val census : unit -> census

(** Figure 6's sixteen labelled compositions, (a)-(p). *)
val figure6 : (string * t) list

(** @raise Invalid_argument on an unknown label. *)
val of_figure6 : string -> t

val figure6_label : t -> string option
