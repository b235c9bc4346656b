(** A simulated multi-device fleet: health-aware routing, fail-slow
    detection, hedged execution and live drain/recovery.

    The fleet owns N device slots, each with its own architecture
    descriptor, seeded fault stream ({!Gpusim.Fault} failure profiles)
    and in-flight counter. {!Service} routes through the fleet when one
    is attached ([Service.attach_fleet]); the single-device path is
    untouched otherwise.

    {b Health.} Each device carries an EWMA health score fed by the
    predicted/observed latency ratio of its dispatches, where
    "predicted" is the static cost model's no-execution estimate
    ([Planner.static_cost] over [Gpusim.Cost.of_static]). A fail-slow
    device is detected as ratio drift — it keeps answering, passing any
    liveness check, while its score decays toward ejection. The scorer
    ejects below [fl_eject_below] and readmits above the strictly
    higher [fl_readmit_above] (hysteresis); ejected and suspect devices
    receive a probe every [fl_probe_period] fleet dispatches — the only
    traffic that can move their score once regular routing has stopped
    feeding them (up to readmission for a recovered device, down to
    ejection for a still-degraded one).

    {b Routing.} Least-loaded among healthy devices (health at or above
    [fl_suspect_below]), spillover to suspect ones when no healthy
    device is routable, never to dead, draining, drained, ejected or
    spare devices. When the active pool empties, a warm spare is
    promoted.

    {b Hedging.} When enabled, a first attempt whose observed latency
    exceeds the p95-based hedge deadline is speculatively re-dispatched
    to a second device; first answer (in virtual time) wins and the
    loser is cancelled before verification, so it charges no response
    to {!Stats}.

    All decisions are deterministic functions of (seeds, request
    sequence): chaos replays are bit-stable. *)

module Fault = Gpusim.Fault

(** Device lifecycle. [Spare] devices serve nothing until promoted;
    [Draining] devices finish in-flight work and take no new
    dispatches, becoming [Drained]; [Ejected] devices only see
    readmission probes; [Dead] is terminal. *)
type state = Spare | Active | Draining | Drained | Ejected | Dead

val state_name : state -> string

(** One device slot. *)
type device

type config = {
  fl_alpha : float;  (** EWMA weight of the newest ratio sample *)
  fl_suspect_below : float;
      (** healthy at or above this score, suspect (spillover-only) below *)
  fl_eject_below : float;  (** ejected below this score *)
  fl_readmit_above : float;
      (** an ejected device readmits at or above this; must exceed
          [fl_eject_below] (hysteresis) *)
  fl_probe_period : int;
      (** fleet dispatches between readmission probes of ejected devices *)
  fl_failure_penalty : float;
      (** ratio sample charged when a dispatch produces no answer *)
  fl_hedge_mult : float;  (** hedge deadline = observed p95 × this *)
  fl_hedge_min_samples : int;
      (** latency samples required before hedging arms *)
}

(** alpha 0.3, suspect 0.6, eject 0.3, readmit 0.7, probe period 32,
    failure penalty 0, hedge ×2 after 16 samples. *)
val default_config : config

(** One slot's specification. *)
type spec

(** A slot of [arch] with a failure [profile] (default healthy); a
    {!Fault.Flaky} profile gets a seeded transient-only injector, every
    other profile no private fault stream. [spare] slots wait outside
    the serving pool until promoted. *)
val spec : ?profile:Fault.profile -> ?spare:bool -> Gpusim.Arch.t -> spec

type t

(** Build a fleet. [seed] decorrelates the private fault streams of
    flaky slots.
    @raise Invalid_argument on an empty or all-spare device list, a
    malformed profile, or inconsistent thresholds. *)
val create : ?config:config -> ?seed:int -> spec list -> t

(** Point the fleet at the service's stats so per-device counters and
    lifecycle events land in the report's fleet section.
    [Service.attach_fleet] calls this. *)
val set_stats : t -> Stats.t -> unit

val set_hedging : t -> bool -> unit
val hedging : t -> bool

(** Fired after an ejection has been recorded and a spare (if any)
    promoted. The service points this at the flight recorder so the
    incident bundle captures the ejection moment. *)
val set_on_eject : t -> (device -> unit) -> unit

(** The log-event codes this module emits (code, meaning), all
    registered in [Device_ir.Diag.registry]. *)
val event_codes : (string * string) list

(** {1 Routing and dispatch} *)

(** Pick a device for the next dispatch, or [None] when nothing is
    routable even after promoting a spare. [excluding] removes one
    device from consideration (the hedge's primary); [probe] (default
    true) allows the periodic probe of ejected and suspect devices —
    hedge routing passes [~probe:false]. *)
val route : ?excluding:device -> ?probe:bool -> t -> device option

(** Would the device's fail-stop profile kill it on its next dispatch?
    The caller checks this before {!begin_dispatch} and reroutes — a
    dying device never swallows a request. *)
val next_dispatch_kills : device -> bool

(** Mark a fail-stopped device dead (logs TFLT001, promotes a spare). *)
val mark_dead : t -> device -> unit

(** Count one dispatch bounced off a dying device. *)
val reroute : t -> unit

val begin_dispatch : t -> device -> unit

(** Decrement in-flight; a draining device whose last in-flight
    dispatch completes becomes [Drained]. *)
val end_dispatch : t -> device -> unit

(** Throughput multiplier of the in-progress dispatch (from the
    device's failure profile; 1.0 when nominal). *)
val slowdown : device -> float

(** The device's private fault injector, armed around its dispatches. *)
val fault_stream : device -> Fault.t option

(** Accumulate virtual busy time ({!makespan_us}, goodput). *)
val charge_busy : device -> float -> unit

(** {1 Health} *)

(** Fold one dispatch's predicted/observed ratio (clamped to [0, 2])
    into the device's EWMA; eject/readmit on threshold crossings. *)
val observe : t -> device -> ratio:float -> unit

(** Health-charge a dispatch that produced no answer. *)
val observe_failure : t -> device -> unit

(** {1 Hedging} *)

(** Record one request's observed completion latency (virtual us). *)
val note_latency : t -> float -> unit

(** The speculative re-dispatch deadline; [None] until hedging is on
    and [fl_hedge_min_samples] latencies have been observed. *)
val hedge_deadline_us : t -> float option

(** Count and log a fired hedge (TFLT004). *)
val hedge_fired : t -> device -> deadline_us:float -> observed_us:float -> unit

(** The hedge finished first on [device]. *)
val hedge_won : t -> device -> unit

(** {1 Lifecycle operations} *)

(** Mark-drain device [id]: it finishes in-flight work and takes no new
    dispatches. A spare is promoted to cover it.
    @raise Invalid_argument on an unknown id. *)
val drain : t -> int -> unit

(** Operator readmission: return a drained, ejected or spare device to
    the pool with a reset health score.
    @raise Invalid_argument on an unknown or dead device. *)
val activate : t -> int -> unit

(** {1 Reading} *)

val devices : t -> device list
val find : t -> int -> device option
val id : device -> int
val arch : device -> Gpusim.Arch.t
val profile : device -> Fault.profile
val dev_state : device -> state
val health : device -> float
val dispatches : device -> int
val busy_us : device -> float
val hedge_wins : device -> int

(** Stable device label, ["d0:kepler-k40c"]. *)
val label : device -> string

(** Injected-faulty devices (fail-stop, fail-slow or flaky profile)
    the scorer has not yet taken out of the serving pool. The fleet
    bench's acceptance gate requires this empty by end of replay. *)
val undetected_faulty : t -> device list
