(** Kernel event counters: the one record for what the interpreter
    observes in a launch, what {!Access} predicts for a warp, a barrier
    epoch or a launch, and what the service sums over launches.

    Every field is a float, so the record is stored flat and an update
    neither allocates nor goes through the write barrier. Counters are
    floats because sampled runs scale partially-observed sections by
    their replication factor. *)

type t = {
  mutable t_launches : float;  (** kernel launches summed into the record *)
  mutable t_warp_insts : float;  (** issued warp instructions *)
  mutable t_alu_insts : float;
  mutable t_gld_warp_ops : float;  (** warp-level global load instructions *)
  mutable t_gld_trans : float;  (** 128-byte global load transactions *)
  mutable t_gst_trans : float;
  mutable t_bytes_dram : float;  (** DRAM traffic: 128 bytes per transaction *)
  mutable t_shared_ops : float;
  mutable t_shared_serial : float;
      (** bank-conflict serialisation: sum over warp accesses of the
          conflict degree (1 = conflict free) *)
  mutable t_shfl_insts : float;
  mutable t_syncs : float;
  mutable t_branches : float;  (** warp-level and block-uniform branches *)
  mutable t_divergent_branches : float;
      (** observed counts include the rounds of Kepler's lock-update-unlock
          shared atomics (each round is a divergent branch); predicted
          counts exclude them, and the cost model prices those rounds from
          [t_atomic_shared_serial] *)
  mutable t_atomic_global_ops : float;  (** lane-level global atomic operations *)
  mutable t_atomic_global_trans : float;  (** distinct-address transactions *)
  mutable t_atomic_shared_ops : float;
  mutable t_atomic_shared_serial : float;
      (** sum over warp atomics of the same-address conflict degree *)
  mutable t_vec_load_ops : float;
  mutable t_max_heat : float;
      (** the hottest global-atomic address's operation count; a sum keeps
          the worst launch's, since each launch serialises on its own
          hottest address *)
}

(** A fresh record with every counter at zero. *)
val zero : unit -> t

val copy : t -> t

(** [add ?scale dst src] adds [scale] (default 1) times every counter of
    [src] to [dst], except [t_max_heat], where [dst] keeps the larger of
    the two. *)
val add : ?scale:float -> t -> t -> unit

(** The sum of the records, by {!add}, into a fresh one. *)
val sum : t list -> t

(** [scale_from t s ~factor] scales what [t] recorded since [s], a
    {!copy} of it taken earlier, by [factor]: every counter [x] becomes
    [x + (factor - 1)(x - s)]. *)
val scale_from : t -> t -> factor:float -> unit

(** The canonical (name, value) view in stable order: the single source
    of counter names for every machine-readable artifact. *)
val fields : t -> (string * float) list

(** The inverse of {!fields}: a record from a reader of each named
    field. *)
val of_fields : (string -> float) -> t
