(** Service metrics: cache effectiveness, latency distributions and
    winning-version histograms, dumpable as a text report.

    Every recorder updates an instrument of one always-on
    {!Obs.Metrics} registry, the only store of service metrics: the
    report, its JSON twin and the Prometheus exposition read it back.
    Recording is O(1) in fixed memory; latencies are log-bucketed
    histograms, so percentiles carry a relative error of at most
    [2^(1/8) - 1] (about 9%) while the max stays exact. *)

type t

(** Summary of one latency series (microseconds, host-side wall clock). *)
type series = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

val create : unit -> t

(** The registry behind the stats. A monitor registers its own
    instruments here and snapshots it into windows. *)
val metrics : t -> Obs.Metrics.t

(** {1 Recording} *)

val hit : t -> bucket:string -> unit
val miss : t -> bucket:string -> unit
val eviction : t -> unit

(** Record that [version] served a request. *)
val winner : t -> string -> unit

val plan_us : t -> float -> unit
val tune_us : t -> float -> unit
val run_us : t -> float -> unit

(** Record one dispatched batch: its request count and how many requests
    were coalesced into another request's simulation. *)
val batch : t -> size:int -> coalesced:int -> unit

(** {2 Failure recording} *)

(** One transient-fault retry. *)
val retry : t -> unit

(** One version fault (timeout, corrupted result, or exhausted transient
    retries), charged to [version]'s fault histogram. *)
val fault : t -> version:string -> unit

(** A circuit breaker opened (a version entered quarantine). *)
val quarantine : t -> unit

(** A request was served by a fallback rung instead of the bucket winner. *)
val fallback : t -> unit

(** A request was served by the degraded host-reference path. *)
val degrade : t -> unit

(** A request was rejected as malformed. *)
val bad_request : t -> unit

(** Simulated microseconds spent in retry backoff. *)
val backoff_us : t -> float -> unit

(** {2 Silent-data-corruption guard recording} *)

(** One witness check ran against an exact response. *)
val sdc_check : t -> unit

(** One result was confirmed as silent corruption and discarded. *)
val sdc_catch : t -> unit

(** One out-of-tolerance result reproduced deterministically: the alarm
    is charged to the tolerance model, not the version. *)
val sdc_false_alarm : t -> unit

(** One redundant (dual-modular / voting) re-execution ran. *)
val sdc_reexec : t -> unit

(** Host microseconds one witness check (plus any voting) cost. *)
val verify_us : t -> float -> unit

(** {2 Overload-resilience recording}

    Fed by {!Admission} (queueing, shedding) and by {!Service} deadline
    budgets. All of these stay zero on a service that never overloads,
    which is what keeps the text report byte-identical on the quiet
    path. *)

(** One request entered the admission queue. *)
val admit : t -> interactive:bool -> unit

(** One request was shed by the admission queue (bounded-queue overflow
    or expired-in-queue cleanup under a shed policy). *)
val shed_request : t -> interactive:bool -> unit

(** One request's deadline budget died (in queue, mid-retry or
    mid-verify) and it was answered with [Deadline_exceeded]. *)
val deadline_expire : t -> unit

(** One request's budget died after its witness was computed; the
    witness value served as the degraded answer instead of an error. *)
val deadline_witness_serve : t -> unit

(** The brownout controller moved to [level]. *)
val brownout_transition : t -> level:int -> unit

(** One unit of optional work was shed under brownout ([what] is the
    ladder step: ["profile"], ["reexec"], ["witness-sample"],
    ["host-path"]). *)
val brownout_shed : t -> what:string -> unit

(** Virtual microseconds one admitted request waited in the queue. *)
val queue_wait_us : t -> float -> unit

(** {2 Fleet recording}

    Fed by {!Fleet} through the service's fleet path. A service with no
    fleet attached records none of these, which is what keeps the
    fleet-less text report byte-identical. [device] is the fleet's
    stable device label (["d0:kepler-k40c"]). *)

(** One request (or hedge) dispatched to [device]. *)
val fleet_dispatch : t -> device:string -> unit

(** Latest health score of [device], in lifecycle [state] (a gauge
    labelled by device and state). *)
val fleet_health : t -> device:string -> state:string -> float -> unit

(** [device] moved to lifecycle [state]; its health gauge moves to the
    new label set, keeping [health]. *)
val fleet_state : t -> device:string -> health:float -> string -> unit

(** The health scorer ejected [device]. *)
val fleet_eject : t -> device:string -> unit

(** An ejected [device] passed its probes and was readmitted. *)
val fleet_readmit : t -> device:string -> unit

(** A device fail-stopped and was marked dead. *)
val fleet_dead : t -> unit

(** A device was marked to drain. *)
val fleet_drain : t -> unit

(** A warm spare was promoted into the serving pool. *)
val fleet_promote : t -> unit

(** One dispatch bounced off a dying device and was rerouted (the
    request was not lost). *)
val fleet_reroute : t -> unit

(** A first attempt overran the hedge deadline and a speculative
    re-dispatch fired. *)
val fleet_hedge_fired : t -> unit

(** The hedge finished first: [device] (the second device) won. *)
val fleet_hedge_won : t -> device:string -> unit

(** {2 Kernel profiling}

    Populated only when the service has profiling enabled
    ([Service.set_profiling]); the aggregation keys are (arch, version). *)

(** Fold one served outcome's launch-counter totals into the
    per-(arch, version) aggregate. *)
val kernel : t -> arch:string -> version:string -> Gpusim.Events.totals -> unit

(** {2 Monitoring recording} *)

(** An SLO burn-rate alert transitioned into firing. *)
val alert : t -> slo:string -> unit

(** The flight recorder dumped an incident bundle of [kind]
    (["alert"], ["sdc"] or ["device-eject"]). *)
val incident : t -> kind:string -> unit

(** {1 Reading} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val batches : t -> int
val coalesced : t -> int
val retries : t -> int
val faults : t -> int
val quarantines : t -> int
val fallbacks : t -> int
val degraded : t -> int
val bad_requests : t -> int
val backoff_total_us : t -> float
val sdc_checks : t -> int
val sdc_catches : t -> int
val sdc_false_alarms : t -> int
val sdc_reexecs : t -> int
val sheds_interactive : t -> int
val sheds_batch : t -> int
val deadline_expiries : t -> int
val deadline_witness_serves : t -> int
val brownout_transitions : t -> int

(** Highest brownout level ever entered (0 if the controller never
    fired). *)
val brownout_max_level : t -> int

(** Units of work shed per brownout ladder step, sorted by step name. *)
val brownout_sheds : t -> (string * int) list

(** Did any overload machinery fire (shed, deadline expiry, witness
    serve or brownout transition)? Admission traffic alone does not
    count: a zero-load replay through the queue keeps this false and the
    report unchanged. *)
val overload_fired : t -> bool

(** {2 Fleet reading} *)

val fleet_dispatches : t -> int
val fleet_reroutes : t -> int
val fleet_hedges_fired : t -> int
val fleet_hedges_won : t -> int
val fleet_ejects : t -> int
val fleet_readmits : t -> int
val fleet_deaths : t -> int
val fleet_promotions : t -> int

(** Did any fleet machinery fire (a dispatch, reroute, hedge or
    lifecycle event)? False on every fleet-less service, which gates
    the report's fleet section off. *)
val fleet_fired : t -> bool

(** {2 Monitoring reading} *)

val incidents : t -> int

(** Serve counts per winning version, most-served first. *)
val winner_histogram : t -> (string * int) list

(** Witness-check overhead per checked response; an empty series
    reports as all-zero. *)
val verify_series : t -> series

(** Aggregated kernel counters as ((arch, version), (requests, totals)),
    sorted by (arch, version); empty unless profiling was on. *)
val kernel_rows :
  t -> ((string * string) * (int * Gpusim.Events.totals)) list

(** The text report printed by [tangramc serve]. Sections gated on
    activity (fault tolerance, SDC guard, overload, fleet, monitoring,
    kernel counters) are omitted when nothing fired, so a default run's
    report is byte-stable across releases. *)
val report : t -> string

(** One JSON object mirroring {!report} with a stable key order —
    emitting it twice from the same stats yields identical strings. *)
val to_json : t -> string

(** Prometheus text exposition of the registry: every counter and
    gauge, the [tangram_latency_us{stage}] histograms, the per-bucket,
    per-version, per-device and per-(arch, version) kernel series, and
    — once a monitor snapshots the registry — its windowed families. *)
val to_prometheus : t -> string
