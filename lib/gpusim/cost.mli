(** Analytic cost model: launch events -> wall-clock time.

    Per launch, the model takes the maximum of four resource terms
    (per-block critical path over occupancy waves, issue throughput, DRAM
    traffic at the achieved stream efficiency, hottest-address atomic
    serialisation) and adds the fixed launch overhead. See the
    implementation header for the full derivation. *)

type breakdown = {
  launch_us : float;
  critical_path_us : float;
  issue_us : float;
  dram_us : float;
  atomic_us : float;
}

type t = {
  time_us : float;
  bound : string;
      (** the winning term: "launch" | "cp" | "issue" | "dram" | "atomic" *)
  detail : breakdown;
  occupancy_blocks_per_sm : int;
  waves : int;
}

(** How the kernel streams its input, selecting the bandwidth-efficiency
    factor of the architecture. *)
type stream_style = Scalar_loads | Vector_loads | Staged_loads

(** Resident blocks per SM under the limiting-resource rule (threads,
    block slots, warps, shared memory); at least 1. *)
val occupancy : Arch.t -> block:int -> shared_bytes:int -> int

(** Cost one launch. [style] defaults to vectorized iff the kernel issued
    vector loads; baselines that stage through the L2 pass [Staged_loads]
    explicitly. *)
val of_launch : ?style:stream_style -> Arch.t -> Interp.launch_result -> t

(** Aggregate a whole program: per-launch costs, the dependent-kernel gap
    between consecutive launches, and a host-side initialisation charge per
    identity-initialised temporary buffer. *)
val of_program : Arch.t -> n_inits:int -> t list -> float

(** {2 Static pricing}

    The same four-term model fed by {!Device_ir.Access} predictions
    instead of an executed launch — planning can price transactions and
    replays without running the kernel. *)

(** Price one launch from a static prediction. [style] defaults to
    vectorized iff the analyzer saw vector loads. *)
val of_static : ?style:stream_style -> Arch.t -> Device_ir.Access.launch_pred -> t

(** Price a whole statically-analyzed program ({!of_static} per launch,
    folded through the same gap/init charges as {!of_program}). *)
val of_static_program : Arch.t -> n_inits:int -> Device_ir.Access.analysis -> float

val pp : Format.formatter -> t -> unit
