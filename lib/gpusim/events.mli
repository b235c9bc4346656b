(** The events of one kernel launch in the SIMT interpreter: its counters
    (see {!Device_ir.Counters}), the per-address atomic heat behind
    [t_max_heat], and how many blocks it simulated. *)

(** The counter record, summed over launches: the profiler's currency,
    which the service aggregates per (arch, version) and the
    [tangramc profile] table, the Prometheus exposition and
    [Stats.to_json] all read. *)
type totals = Device_ir.Counters.t = {
  mutable t_launches : float;
  mutable t_warp_insts : float;
  mutable t_alu_insts : float;
  mutable t_gld_warp_ops : float;
  mutable t_gld_trans : float;
  mutable t_gst_trans : float;
  mutable t_bytes_dram : float;
  mutable t_shared_ops : float;
  mutable t_shared_serial : float;
  mutable t_shfl_insts : float;
  mutable t_syncs : float;
  mutable t_branches : float;
  mutable t_divergent_branches : float;
  mutable t_atomic_global_ops : float;
  mutable t_atomic_global_trans : float;
  mutable t_atomic_shared_ops : float;
  mutable t_atomic_shared_serial : float;
  mutable t_vec_load_ops : float;
  mutable t_max_heat : float;
}

(** One address's pressure: its atomic operations, and how many of the
    simulated blocks issued them. *)
type heat

type t = {
  counts : totals;
      (** the launch's counters; [t_launches] and [t_max_heat] are set
          when the launch ends *)
  addr_heat : (int * int, heat) Hashtbl.t;
      (** device-wide same-address pressure on the L2 atomic units, keyed
          by (buffer id, element index) *)
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

(** Scale all counters (extrapolation from the simulated blocks to the
    whole grid). Address heat scales only where every simulated block
    heated the address: the grid shares such an address, while one that
    fewer blocks heated is block-private and keeps its simulated heat. *)
val scale_all : t -> factor:float -> unit

(** The launches' counters summed. *)
val totals_of_list : t list -> totals

(** {!Device_ir.Counters.fields}: the canonical (name, value) view in
    stable order. *)
val totals_fields : totals -> (string * float) list

(** {!Device_ir.Counters.of_fields}: the inverse of {!totals_fields}. *)
val totals_of_fields : (string -> float) -> totals
