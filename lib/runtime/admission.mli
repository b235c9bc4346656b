(** Deadline-aware admission control, load shedding and brownout for
    the reduction service.

    An open-loop replay driver on a {e virtual} clock: arrivals come
    pre-stamped with Poisson timestamps ([Trace.arrivals]), a bounded
    two-priority queue fronts a single virtual server whose occupancy is
    the service's simulated cost (kernel time plus a hit/miss model of
    the cold plan/tune path), and three independent protection valves
    keep the service predictable past saturation:

    - {b admission}: a full queue sheds per {!shed_policy}; interactive
      arrivals may displace queued batch work, never the reverse;
    - {b deadlines}: work that cannot finish by its deadline is dropped
      at dequeue, and the remaining budget rides into
      [Service.submit_result ?deadline_us] so mid-flight expiry stops
      retries and redundant executions;
    - {b brownout}: a hysteretic controller watches queue depth and the
      p95 of recent completion latencies and walks
      [Service.set_brownout]'s degradation ladder.

    Everything is deterministic: one seed and config reproduce the same
    admissions, sheds, deadline verdicts and brownout transitions on
    every machine. *)

(** Requests at or under [a_interactive_max] elements are latency-
    sensitive; everything larger is throughput work the queue may shed
    first. *)
type priority = Interactive | Batch

type shed_policy =
  | Reject_newest  (** shed the arriving request (tail drop) *)
  | Reject_oldest  (** shed the longest-queued sheddable request *)
  | Cost_aware
      (** shed whichever of {newcomer, queued work} predicts costliest;
          cold plan-cache buckets ({!Plan_cache.mem}) predict the cold
          plan/tune sweep, warm buckets a small constant *)

(** CLI-facing names: ["reject-newest"], ["reject-oldest"],
    ["cost-aware"]. *)
val shed_policy_name : shed_policy -> string

val shed_policy_of_string : string -> shed_policy option

type config = {
  a_queue_cap : int;  (** bounded queue capacity, both classes together *)
  a_shed_policy : shed_policy;
  a_deadline_us : float;  (** per-request budget, virtual microseconds *)
  a_enforce_deadline : bool;
      (** when [false], deadlines are measured (for goodput/violation
          accounting) but never acted on — the unprotected baseline *)
  a_brownout : bool;  (** run the brownout controller *)
  a_interactive_max : int;  (** sizes at or under this are interactive *)
  a_cost_hit_us : float;  (** virtual dispatch cost on a warm bucket *)
  a_cost_miss_us : float;  (** virtual cost of a cold plan/tune sweep *)
}

(** Queue of 32, reject-newest, 50ms deadline enforced, brownout off,
    interactive at or under 64K elements, 5us hit / 20ms miss costs. *)
val default : config

(** [cfg] with every protection valve off: an effectively unbounded
    queue, deadlines measured but not enforced, no brownout. The
    baseline that collapses past saturation. *)
val unprotected : config -> config

type summary = {
  a_offered : int;  (** arrivals presented to the queue *)
  a_admitted : int;  (** entered the queue (including later-displaced) *)
  a_shed : int;  (** shed at admission (newcomer or displaced) *)
  a_expired : int;  (** dropped at dequeue: deadline infeasible *)
  a_completed : int;  (** served with [Ok] *)
  a_deadline_errors : int;  (** served with [Error (Deadline_exceeded _)] *)
  a_failed : int;  (** served with any other [Error] *)
  a_goodput : int;  (** [Ok] completions within their deadline *)
  a_goodput_rps : float;  (** goodput per virtual second of makespan *)
  a_violations : int;  (** [Ok] completions past their deadline *)
  a_interactive_violations : int;
  a_p50_us : float;  (** arrival-to-completion latency, virtual *)
  a_p95_us : float;
  a_makespan_us : float;  (** virtual time from first arrival to drain *)
  a_max_brownout : int;  (** highest brownout level the replay reached *)
}

(** Replay timestamped arrivals (from [Trace.arrivals]) through the
    admission queue into [svc]. Sizes at or under [dense_upto] (default
    0) materialize as dense inputs exactly as [Trace.replay] does. The
    brownout ladder is restored to 0 after the drain when the controller
    ran. Queue waits, admissions, sheds and deadline events are recorded
    in the service's [Stats] — a replay that never sheds, expires or
    browns out leaves the text report unchanged.
    @raise Invalid_argument on a non-positive queue capacity or
    deadline, or a negative cost model. *)
val replay :
  ?config:config ->
  ?dense_upto:int ->
  Service.t ->
  (float * (Gpusim.Arch.t * int)) list ->
  summary

val pp_summary : Format.formatter -> summary -> unit
