(** The request engine: a long-lived reduction service in front of the
    planner/tuner/simulator stack.

    [submit_result] dispatches one reduction request through the
    {!Plan_cache}: a hit runs the cached winner immediately; a miss plans
    and tunes the request's (architecture, operation, element,
    size-bucket) key once — every pruned candidate version is swept at
    the bucket's representative size and ranked fastest-first — then
    populates the cache and runs. [submit_batch_result] additionally
    coalesces same-shape requests (equal architecture and input) into a
    single simulation.

    A request moves through fixed stages: validate → shed (brownout
    level 4 answers from the host) → acquire a device (fleet only; the
    hedge acquires the same way) → plan (cache lookup, or plan and tune
    on a miss) → ladder (the ranked versions, with retries and circuit
    breakers) → verify (the SDC guard) → account. Accounting is the one
    point that builds the response, records its outcome in {!Stats}
    (winner, fallback, degradation, kernel profile) and notes it to the
    {!Monitor}; events — cache hits and misses, retries, faults,
    quarantines, SDC checks — are recorded where they happen.

    The service is fault tolerant. Transient simulator errors are
    retried under bounded exponential backoff with jitter (charged to
    simulated time). Versions that keep faulting trip a per-(architecture,
    version) circuit breaker and are quarantined for a cooldown; the
    bucket's next-fastest ranked version serves meanwhile (the fallback
    ladder reuses the cold-path ranking — no re-tuning under fire). When
    every rung is quarantined or faulting, the service degrades to the
    planner's host-side reference and flags the response
    [resp_degraded] rather than failing.

    The service also defends against silent data corruption. Every
    exact response is checked against a {!Guard} witness under the
    {!Tolerance} model before it is returned; a rejected result is
    re-executed on its own rung (dual-modular) and, if the corruption
    is confirmed, voted out down the fallback ladder — confirmed
    corruptions charge the version's circuit breaker like loud faults.
    An out-of-tolerance answer is never returned: when no execution is
    acceptable the witness value itself serves (degraded), or the
    request fails with [Sdc] when degraded mode is off.

    Under overload the service stays predictable rather than fast.
    [submit ?deadline_us] gives a request a budget in {e simulated}
    microseconds (kernel time, retry backoff and redundant executions
    all charge it — deterministic under replay); the budget is checked
    before each new piece of work, so an answer already computed is
    never thrown away, and a budget that dies with the witness in hand
    serves the witness value degraded instead of erroring. Deadline
    expiry is never charged to any circuit breaker. Orthogonally, the
    brownout ladder ({!set_brownout}) sheds optional work step by step:
    level 1 drops kernel profiling, level 2 drops redundant re-execution
    (a rejected result serves the witness value), level 3 drops witness
    sampling density to 1, and level 4 answers every request from the
    host reference without touching the device path at all. The
    {!Admission} layer drives both knobs from queue depth and observed
    latency. *)

type request = {
  req_arch : Gpusim.Arch.t;
  req_input : Gpusim.Runner.input;
}

type response = {
  resp_value : float;  (** the reduced value *)
  resp_exact : bool;  (** whether [resp_value] is trustworthy (no sampling) *)
  resp_sim_us : float;
      (** simulated GPU wall clock, including any retry backoff *)
  resp_version : Synthesis.Version.t;
      (** version that served the request. When [resp_degraded] is set
          the value came from the host reference, not from any version:
          this field then records the last-attempted rung (the one the
          degraded path gave up on), and [resp_exact] describes the
          host recomputation. The winner stat names the real server
          (["host-reference (degraded)"] / ["host-reference (sdc)"] /
          ["host-reference (deadline)"] / ["host-reference (brownout)"]). *)
  resp_tunables : (string * int) list;
  resp_hit : bool;  (** plan-cache hit? *)
  resp_bucket : int;  (** size bucket the request dispatched to *)
  resp_service_us : float;  (** host-side service latency *)
  resp_degraded : bool;
      (** served by the host-reference degraded path (every version of
          the bucket was quarantined or faulting) *)
  resp_retries : int;  (** transient-fault retries spent on this request *)
  resp_fallback : int;
      (** how many ladder rungs were skipped before the serving one
          (0 = the bucket winner served) *)
}

(** Why a request failed. [Transient] and [Version_fault] only escape
    when degraded mode is disabled; [Cache_corrupt] only from
    {!load_cache}. *)
type error =
  | Bad_request of string  (** malformed input; never retried *)
  | Transient of string  (** retries exhausted on a transient fault *)
  | Version_fault of string
      (** a hard version failure (timeout, corrupted result, no
          surviving candidate) *)
  | Cache_corrupt of string  (** a persisted plan cache failed to parse *)
  | Sdc of string
      (** a result failed witness verification and no redundant execution
          produced an acceptable answer (only with degraded mode off) *)
  | Deadline_exceeded of string
      (** the request's [deadline_us] budget died before any answer was
          in hand. Never charged to a circuit breaker: the version did
          nothing wrong, the client stopped waiting *)

exception Service_error of error

val error_message : error -> string

(** Retry, quarantine and degradation policy. *)
type resilience = {
  r_retry_max : int;  (** transient retries per rung (default 3) *)
  r_backoff_base_us : float;  (** first backoff delay (default 50us) *)
  r_backoff_mult : float;  (** exponential multiplier (default 2) *)
  r_backoff_max_us : float;  (** backoff cap (default 5000us) *)
  r_jitter : float;  (** +/- fraction of jitter on each delay (default 0.25) *)
  r_quarantine_threshold : int;
      (** faults before a version's breaker opens (default 3) *)
  r_cooldown_requests : int;
      (** service ticks an open breaker waits before half-opening for a
          probe (default 64) *)
  r_allow_degraded : bool;
      (** serve host-reference answers when every rung is down (default
          [true]); when [false] such requests return [Error] *)
}

val default_resilience : resilience

type t

(** [create planner] builds a cold service.
    [capacity] bounds the plan cache (LRU, default
    {!Plan_cache.default_capacity}); [cache] starts from a warmed cache
    instead (e.g. {!Plan_cache.load}ed — [capacity] is then ignored);
    [candidates] restricts the versions considered on a cache miss
    (default: the 30 pruned survivors); dense inputs up to [2^17]
    elements run in exact mode, larger or synthetic inputs in fast
    sampled mode. [resilience] sets the
    retry/quarantine policy, [guard] the silent-data-corruption
    verification policy (default {!Guard.default}: every exact response
    witness-checked), [fault] arms a {!Gpusim.Fault} injection plan
    (default none), and [jitter_seed] seeds the reproducible
    backoff-jitter stream. *)
val create :
  ?capacity:int ->
  ?cache:Plan_cache.t ->
  ?candidates:Synthesis.Version.t list ->
  ?resilience:resilience ->
  ?guard:Guard.config ->
  ?fault:Gpusim.Fault.t ->
  ?jitter_seed:int ->
  Synthesis.Planner.t ->
  t

val planner : t -> Synthesis.Planner.t
val cache : t -> Plan_cache.t
val stats : t -> Stats.t

(** The armed fault-injection plan, if any. *)
val fault : t -> Gpusim.Fault.t option

(** Arm ([Some]) or disarm ([None]) fault injection on a live service. *)
val set_fault : t -> Gpusim.Fault.t option -> unit

(** Is per-request kernel profiling on? Off by default. *)
val profiling : t -> bool

(** Toggle kernel profiling: when on, every served outcome's simulator
    launch counters aggregate into [Stats] per (arch, version) (see
    [Stats.kernel_rows]); when off (the default) nothing is recorded and
    the text report is unchanged. *)
val set_profiling : t -> bool -> unit

(** Route every subsequent request through [fleet]: the router picks a
    device (health-aware, least-loaded), the request executes against
    that device's architecture with its private fault stream and
    fail-slow profile, and hedged execution re-dispatches stragglers.
    Also points the fleet at this service's {!Stats} so the report grows
    its fleet section. A service with no fleet attached is byte-identical
    to one predating fleets. *)
val attach_fleet : t -> Fleet.t -> unit

(** Return to the single-device path. *)
val detach_fleet : t -> unit

(** The attached {!Monitor}, if any. Off by default. *)
val monitor : t -> Monitor.t option

(** Attach ([Some]) or detach ([None]) a monitor built from this
    service's {!stats}: every answered request is then noted to it,
    priced on the architecture it ran on, and fleet ejections reach it
    as incidents. *)
val set_monitor : t -> Monitor.t option -> unit

(** The deepest brownout ladder step (4: host path only). *)
val max_brownout : int

(** The current brownout ladder position, 0 (full service) ..
    {!max_brownout}. *)
val brownout_level : t -> int

(** Move the brownout ladder to [level]:
    {ul
    {- [0] — full service.}
    {- [1] — shed kernel-counter profiling.}
    {- [2] — also shed redundant re-execution: a witness-rejected result
       serves the witness value (degraded) without re-running, and no
       corruption verdict is charged to any breaker.}
    {- [3] — also drop witness sampling density to 1.}
    {- [4] — serve every request from the host reference immediately,
       shedding the whole device path including cold planning/tuning.}}
    Each actual change is warn-logged and counted as a
    [Stats.brownout_transition]. Normally driven by the {!Admission}
    controller, but callable directly (e.g. from an operator CLI).
    @raise Invalid_argument when [level] is outside 0..{!max_brownout}. *)
val set_brownout : t -> int -> unit

(** Is (architecture, version) currently quarantined (breaker open and
    still cooling down)? *)
val quarantined : t -> arch:string -> version:string -> bool

(** Load a persisted plan cache, mapping parse/IO failures to
    [Error (Cache_corrupt _)] so callers can warn and start cold. *)
val load_cache : string -> (Plan_cache.t, error) result

(** Serve one request. Empty inputs return the operation's identity
    without touching the simulator.

    [deadline_us] gives the request a budget in simulated microseconds
    (must be positive). Kernel time, retry backoff and redundant
    executions charge it; the check happens before each new piece of
    work, never after — an answer in hand is always served. A budget
    that dies with no answer returns [Error (Deadline_exceeded _)]; one
    that dies after the witness was computed serves the witness value,
    flagged [resp_degraded].
    @raise Invalid_argument when [deadline_us] is zero, negative or NaN. *)
val submit_result :
  ?deadline_us:float -> t -> request -> (response, error) result

(** [submit_result], raising {!Service_error} on failure. *)
val submit : ?deadline_us:float -> t -> request -> response

(** Serve a batch: requests with equal architecture and input share one
    cache lookup and one simulation; results come back in request
    order. [deadline_us] applies to each coalesced group
    independently. *)
val submit_batch_result :
  ?deadline_us:float -> t -> request list -> (response, error) result list

(** [submit_batch_result], raising {!Service_error} on the first
    failure. *)
val submit_batch : t -> request list -> response list

(** The {!Stats.report} of this service. *)
val report : t -> string
