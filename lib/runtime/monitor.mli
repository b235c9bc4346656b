(** The service monitor: windowed metrics, SLO burn rates and the
    flight recorder.

    A monitor drives three layers off a serialized virtual clock
    (advanced by each request's observed virtual latency): windows over
    a service's one {!Stats.metrics} registry, to which it adds request
    outcomes, virtual latency by class and the brownout, queue-depth
    and fleet-active gauges; multi-window burn-rate SLOs ({!Obs.Slo});
    and the black-box {!Recorder}. When an SLO alert fires, a
    corruption is confirmed or a device is ejected, the recorder
    freezes the last requests plus the SLO/fleet/metric context into a
    self-contained incident bundle.

    Build one from a service's stats and attach it with
    [Service.set_monitor]; the service then {!note}s every answered
    request. A service without a monitor behaves — and reports —
    exactly as before. *)

type t

(** A fresh monitor over [stats]' registry. [latency_mult] bounds the
    latency SLO's good region (observed <= mult x static-cost
    prediction, default 3); inputs up to 65536 elements feed the
    latency SLO; metrics snapshot every [snapshot_every] requests
    (default 32); the recorder ring holds 128 requests.
    [latency_target] (default 0.97) sets the latency SLO's target; the
    goodput objective's is 0.95 and the SDC objective is always
    zero-budget. *)
val create :
  ?latency_mult:float ->
  ?snapshot_every:int ->
  ?latency_target:float ->
  Stats.t ->
  t

val recorder : t -> Recorder.t

(** The SLOs as (name, state) rows: latency, sdc, goodput. *)
val slos : t -> (string * Obs.Slo.t) list

(** The virtual clock. *)
val now_us : t -> float

(** Force a metrics-window boundary at the current virtual time (the
    replay drivers call this once at the end of a run). *)
val snapshot : t -> unit

(** Admission feed: the queue lives above the service, but the monitor
    owns its depth gauge. *)
val queue_depth : t -> int -> unit

(** A fleet device was ejected mid-request: its incident bundle is
    dumped once the triggering request has been {!note}d. *)
val eject : t -> string -> unit

(** How a request ended: served (the observed virtual latency, the
    static-cost prediction — [0] when there is none — and whether the
    host answered degraded) or failed with an error kind. *)
type outcome =
  | Served of { latency_us : float; predicted_us : float; degraded : bool }
  | Failed of string

(** Note one answered request: [arch] is the architecture it ran on,
    [n] its input size, [sdc_confirmed] the corruptions verification
    confirmed; [brownout] and [fleet] are the service's state, rendered
    into any incident bundle. Call it inside the request's root span,
    so the recorder captures the request's trace id. *)
val note :
  t ->
  arch:string ->
  n:int ->
  sdc_confirmed:int ->
  brownout:int ->
  fleet:Fleet.t option ->
  outcome ->
  unit
