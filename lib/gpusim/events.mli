(** Event counters gathered by the SIMT interpreter during one kernel
    launch.

    Counters are floats because sampled runs (see {!Interp.options}) scale
    partially-observed sections by their replication factor. *)

(** One address's pressure: its atomic operations, and how many of the
    simulated blocks issued them. *)
type heat

type t = {
  mutable warp_insts : float;  (** total issued warp instructions *)
  mutable alu_insts : float;
  mutable gld_warp_ops : float;  (** warp-level global load instructions *)
  mutable gld_trans : float;  (** 128-byte global load transactions *)
  mutable gst_trans : float;
  mutable bytes_dram : float;  (** DRAM traffic implied by the transactions *)
  mutable shared_ops : float;
  mutable shared_serial : float;
      (** bank-conflict serialisation: sum over warp accesses of the
          conflict degree (1 = conflict free) *)
  mutable shfl_insts : float;
  mutable syncs : float;
  mutable branches : float;
  mutable divergent_branches : float;
  mutable atomic_global_ops : float;  (** lane-level global atomic operations *)
  mutable atomic_global_trans : float;  (** distinct-address transactions *)
  mutable atomic_shared_ops : float;
  mutable atomic_shared_serial : float;
      (** sum over warp atomics of the same-address conflict degree *)
  mutable vec_load_ops : float;
  addr_heat : (int * int, heat) Hashtbl.t;
      (** device-wide same-address pressure on the L2 atomic units, keyed
          by (buffer id, element index) *)
  mutable launched_blocks : int;
  mutable simulated_blocks : int;
      (** blocks simulated so far: {!begin_block} counts them *)
}

val create : unit -> t

(** Start simulating one more block: heat recorded from now on is
    attributed to it. *)
val begin_block : t -> unit

(** Record [by] atomic operations against one global address. *)
val heat : t -> buffer:int -> index:int -> by:float -> unit

(** The hottest global-atomic address's operation count (the cost model's
    device-wide serialisation term). *)
val max_heat : t -> float

(** Snapshot of the scalar counters, used to scale a partially-executed
    loop section by its replication factor. *)
type snapshot

val snapshot : t -> snapshot

(** Scale everything recorded since [s] by [factor] (adds
    [(factor - 1) * delta] to each scalar counter; address heat is not
    affected). *)
val scale_from : t -> snapshot -> factor:float -> unit

(** Scale all counters (extrapolation from the simulated blocks to the
    whole grid). Address heat scales only where every simulated block
    heated the address: the grid shares such an address, while one that
    fewer blocks heated is block-private and keeps its simulated heat. *)
val scale_all : t -> factor:float -> unit

val pp : Format.formatter -> t -> unit

(** {2 Immutable totals}

    The profiler's currency: a frozen sum of launch counters that the
    service aggregates per (arch, version) and the [tangramc profile]
    table, the Prometheus exposition and [Stats.to_json] all read. *)

type totals = {
  t_launches : int;
  t_warp_insts : float;
  t_alu_insts : float;
  t_gld_warp_ops : float;
  t_gld_trans : float;
  t_gst_trans : float;
  t_bytes_dram : float;
  t_shared_ops : float;
  t_shared_serial : float;
  t_shfl_insts : float;
  t_syncs : float;
  t_branches : float;
  t_divergent_branches : float;
  t_atomic_global_ops : float;
  t_atomic_global_trans : float;
  t_atomic_shared_ops : float;
  t_atomic_shared_serial : float;
  t_vec_load_ops : float;
  t_max_heat : float;
}

val zero_totals : totals

(** Freeze one launch's counters ([t_launches] = 1). *)
val totals_of : t -> totals

(** Pointwise sum; [t_max_heat] takes the max (each launch serialises on
    its own hottest address). *)
val add_totals : totals -> totals -> totals

val totals_of_list : t list -> totals

(** The canonical (name, value) view in stable order — the single source
    of counter field names for every machine-readable artifact. *)
val totals_fields : totals -> (string * float) list

(** The inverse of {!totals_fields}: rebuild totals from a reader of
    each named field. *)
val totals_of_fields : (string -> float) -> totals
