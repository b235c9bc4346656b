(** Static memory-access analysis over the lowered device IR.

    An abstract-interpretation pass that evaluates every shared/global
    address expression into a lane-affine normal form — conceptually
    [base + s_lane·lane + s_tid·tid + s_loop·i] — per barrier epoch, and
    classifies each access site without running the kernel:

    - {b global coalescing class}: fully coalesced (|lane stride| = 1),
      uniform broadcast (stride 0), strided-k with its 128-byte
      transaction count, scattered, or ⊤ for a data-dependent index;
    - {b shared-memory bank conflicts}: the 32-bank model — the conflict
      degree of a warp access is the largest number of distinct addresses
      any single bank ([addr mod 32]) receives, and the access replays
      [degree] times.

    The analyzer executes one warp at a time with the lane-affine forms
    instantiated pointwise over the 32 lanes (the exact concretization of
    the affine domain: [tid] folds to [warp_base + 1·lane], loop
    iterators to their concrete per-iteration values), so every
    geometry-derived index stays exact while anything data-dependent
    (memory loads, shuffle results, atomic return values) becomes ⊤ in
    the lanes it reaches. Classification uses the interpreter's
    arithmetic ({!Lanes}' segment and bank rules), which is what makes
    the static transaction/replay predictions comparable with observed
    {!Gpusim.Events} counters — the calibration harness behind
    [tangramc access].

    Four consumers:
    + {!check_program} emits warn-severity diagnostics ([TPERF010]
      uncoalesced global access, [TPERF011] n-way bank conflict,
      [TPERF012] non-affine index escape) for [Planner.lint] and
      [tangramc lint];
    + {!analyze} returns per-launch {!launch_pred} records that
      [Gpusim.Cost.of_static] prices into a wall-clock estimate without
      running the kernel;
    + the per-site classifications themselves ({!site}), for reports and
      tests;
    + {!Race}, whose grid model is this walk ({!trace_kernel}). *)

(** Global-memory coalescing class of an access site, worst over every
    visit (warp × barrier epoch × loop iteration). *)
type coalescing =
  | Broadcast  (** lane stride 0: all active lanes hit one address *)
  | Coalesced  (** |lane stride| 1: one segment (two when misaligned) *)
  | Strided of int  (** affine lane stride k, multiple transactions *)
  | Scattered  (** lane-indexed but not affine in the lane (e.g. mod mixes) *)
  | Non_affine  (** data-dependent index: ⊤ escaped into the address *)

val coalescing_name : coalescing -> string

type akind = Ld | St | At | Vl

val kind_name : akind -> string

(** One static access site (a [Load]/[Store]/[Atomic]/[Vec_load]
    occurrence), aggregated over every analyzed visit. *)
type site = {
  s_kernel : string;
  s_loc : string;  (** statement path, e.g. ["body[3].then[0]"] *)
  s_space : Ir.space;
  s_arr : string;
  s_kind : akind;
  mutable s_trans : int;  (** global 128-byte transactions, summed *)
  mutable s_serial : int;  (** shared replay: summed conflict degrees *)
  mutable s_worst_trans : int;  (** worst transactions of a single access *)
  mutable s_worst_degree : int;  (** worst bank-conflict degree (1 = free) *)
  mutable s_class : coalescing;  (** worst coalescing class seen *)
  mutable s_non_affine : bool;  (** some visit had a ⊤ index *)
  mutable s_form : string;  (** rendered normal form of the first visit *)
  mutable s_lanes : int array option;
      (** per-lane addresses of the first visit (warp 0 of block 0) —
          the differential-testing hook *)
}

(** Arch-independent event counts, mirroring the {!Gpusim.Events}
    charging rules statement for statement (same fields, same units), so
    a static prediction and an observed run subtract cleanly.
    [divergent_branches] excludes Kepler lock-loop replays (those are
    arch-dependent and added by the cost model, not the analysis). *)
type counts = {
  mutable c_warp_insts : float;
  mutable c_alu : float;
  mutable c_branches : float;  (** warp-level (cycle-charged) branches *)
  mutable c_blk_branches : float;  (** block-uniform branches (no charge) *)
  mutable c_divergent : float;
  mutable c_gld_ops : float;
  mutable c_gld_trans : float;
  mutable c_gst_trans : float;
  mutable c_shared_ops : float;
  mutable c_shared_serial : float;
  mutable c_shfl : float;
  mutable c_vec_ops : float;
  mutable c_syncs : float;
  mutable c_atomic_global_ops : float;
  mutable c_atomic_global_trans : float;
  mutable c_atomic_shared_ops : float;
  mutable c_atomic_shared_serial : float;
}

val zero_counts : unit -> counts

(** [add_counts ~scale dst src] adds [scale] (default 1) times [src] to
    [dst]. *)
val add_counts : ?scale:float -> counts -> counts -> unit

(** Execution profile of one analyzed block: per-warp counts split at
    barrier epochs (the cost model folds these into a critical path:
    within an epoch warps run independently, a barrier raises every warp
    to the slowest). *)
type block_profile = {
  bp_bid : int;
  bp_warps : int;
  bp_epochs : counts array list;  (** chronological; [.(w)] = warp w *)
  bp_tot : counts;  (** whole-block totals incl. barrier/block-level events *)
  bp_heat : ((string * int * Ir.scope) * float) list;
      (** global-atomic pressure per (array, index, scope) *)
}

(** Static prediction for one kernel launch. Middle blocks are assumed
    to behave like block 0 (true for the ceil-div tiled geometry the
    composer emits); the last block is analyzed separately to capture
    the guarded tail. *)
type launch_pred = {
  lp_kernel : string;
  lp_grid : int;
  lp_block : int;
  lp_shared_bytes : int;
  lp_first : block_profile;  (** block 0 *)
  lp_last : block_profile option;  (** block [grid-1] when [grid > 1] *)
  lp_totals : counts;  (** extrapolated whole-launch totals *)
  lp_max_heat : float;
      (** hottest global-atomic address, all scopes (the pre-Pascal view) *)
  lp_max_heat_scoped : float;
      (** hottest address excluding [Scope_block] atomics, for
          architectures whose block-scoped atomics stay out of the L2 *)
}

type analysis = {
  an_program : string;
  an_n : int;  (** input size the geometry was evaluated at *)
  an_tunables : (string * int) list;
  an_sites : site list;  (** stable order: kernel, then location *)
  an_launches : launch_pred list;
  an_diags : Diag.t list;  (** TPERF010/011/012, warn severity *)
  an_approx : bool;
      (** some value escaped to ⊤ in a position that forced a worst-case
          assumption (data-dependent loop bound, index, or branch) *)
}

(** Analyze a whole program at a concrete geometry. [n] defaults to
    4096 elements; [tunables] default to each tunable's first candidate.
    Launches whose geometry cannot be evaluated are skipped. *)
val analyze : ?n:int -> ?tunables:(string * int) list -> Ir.program -> analysis

(** The lint entry point: run {!analyze} at both tunable extremes (the
    smallest and largest candidate of every tunable, mirroring
    {!Race.check_program}'s worst-case geometry rule) and return the
    deduplicated TPERF diagnostics. Never raises on a bad variant. *)
val check_program : Ir.program -> Diag.t list

(** {2 The race sanitizer's walk} *)

(** A lane vector: one value per lane of a warp, each possibly unknown. *)
type aval

(** Lane [l]'s value, [None] when data-dependent. *)
val lane_idx : aval -> int -> int option

(** One warp-level shared/global access. *)
type access = {
  a_bid : int;
  a_warp : int;
  a_epoch : int;  (** barriers the block passed before the access *)
  a_loc : string;
  a_space : Ir.space;
  a_arr : string;
  a_kind : akind;
  a_width : int;  (** elements per lane: more than 1 for a vector load *)
  a_active : int;  (** bit [l]: lane [l] is active *)
  a_idx : aval;  (** per-lane index (a vector load's first element) *)
  a_rmw : int;
      (** bit [l]: lane [l] stores a value derived from a same-epoch
          load of the cell it stores to *)
}

(** Walk every block [0 .. grid-1] of a [block]-thread launch with the
    given scalar parameters (unbound ones are unknown), the way the race
    sanitizer models the grid: unknowns stay per lane, each register
    tracks the cells it was loaded from, and each loop widens after 256
    iterations. Returns every access in walk order and block 0's
    barrier locations in the order it passed them. *)
val trace_kernel :
  params:(string * int) list -> block:int -> grid:int -> Ir.kernel ->
  access list * string list
