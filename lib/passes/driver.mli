(** The Figure 5 pre-processing pipeline: general transformations
    (constant folding) then the CUDA-specific passes (atomics, shuffles,
    aggregation), recording every code variant they discover.

    Per codelet: an autonomous codelet has one variant; a compound codelet
    has a non-atomic and (when the atomic Map API verifies) an atomic
    variant; a cooperative codelet is rewritten by the mandatory
    shared-atomic pass, then the shuffle and aggregation passes each
    optionally contribute a further variant. *)

type feature =
  | F_map_atomic  (** finishes with an atomic on global memory *)
  | F_shared_atomic of int  (** number of shared-memory atomic writes *)
  | F_shuffle of Shuffle.report
  | F_aggregate of Aggregate.report

val feature_name : feature -> string

type variant = {
  v_name : string;  (** e.g. ["coop_tree+shfl"], ["compound_tiled(atomic)"] *)
  v_spectrum : string;  (** the spectrum this variant's codelet implements *)
  v_base_tag : string;
  v_codelet : Tir.Ast.codelet;
  v_kind : Tir.Ast.codelet_kind;
  v_features : feature list;
  v_pattern : Tir.Ast.access_pattern option;  (** compound codelets only *)
}

val has_shuffle : variant -> bool
val has_shared_atomic : variant -> bool
val has_map_atomic : variant -> bool

(** All variants of a checked unit, in stable order; iterates the pass
    pipeline to its fixed point. *)
val all_variants : (Tir.Ast.codelet * Tir.Check.info) list -> variant list

(** @raise Invalid_argument on an unknown name. *)
val find_variant : variant list -> name:string -> variant

(** Spectrum-qualified lookup, for units defining several spectra that
    share codelet tags. @raise Invalid_argument on an unknown pair. *)
val find_spectrum_variant : variant list -> spectrum:string -> name:string -> variant
