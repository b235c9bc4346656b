(** Declarative service-level objectives evaluated as multi-window burn
    rates on the virtual clock.

    An objective's error budget is [1 - target]; a window's burn rate
    is its bad fraction divided by that budget. The multi-window rule
    fires only when BOTH the fast window (default 1 virtual minute)
    and the slow window (default 1 virtual hour) exceed the firing
    threshold, and resolves with hysteresis when both fall under the
    strictly lower resolve threshold. A zero-budget objective
    ([target >= 1.0], e.g. "SDC escapes = 0") burns infinitely on any
    bad event.

    Observations carry explicit virtual timestamps into fixed-size
    bucket rings; every evaluation is a pure function of the
    observation sequence, so replays are deterministic. Before one
    window's worth of virtual time has elapsed both windows see the
    same history, so short-horizon replays can still fire. *)

type objective = private {
  o_name : string;
  o_description : string;
  o_target : float;  (** required good fraction; >= 1.0 means zero budget *)
  o_fast_us : float;
  o_slow_us : float;
  o_fire_burn : float;
  o_resolve_burn : float;
}

(** @raise Invalid_argument on an empty name, a non-positive target,
    [fast_us <= 0], [slow_us < fast_us] or
    [resolve_burn >= fire_burn]. *)
val objective :
  ?description:string ->
  ?fast_us:float ->
  ?slow_us:float ->
  ?fire_burn:float ->
  ?resolve_burn:float ->
  target:float ->
  string ->
  objective

type t

val create : objective -> t
val objective_of : t -> objective
val name : t -> string

(** Record one good/bad observation at virtual time [now_us]. *)
val observe : t -> now_us:float -> good:bool -> unit

type burn = {
  br_fast : float;  (** fast-window burn rate; [infinity] on a blown zero budget *)
  br_slow : float;
  br_fast_bad : int;  (** bad observations inside the fast window *)
  br_slow_bad : int;
}

val burn_rates : t -> now_us:float -> burn

type event = Fired of burn | Resolved of burn

(** Hysteretic alert step: transition into firing when both windows
    burn at or above [fire_burn] (and at least one bad observation is
    in the fast window), back out when both fall below
    [resolve_burn]. *)
val evaluate : t -> now_us:float -> event option

val firing : t -> bool

(** Lifetime count of transitions into firing. *)
val fired_count : t -> int

(** Current state as a JSON object (name, target, firing, burns) —
    the monitor dashboard's and incident bundle's SLO table row. *)
val state_json : t -> now_us:float -> Json.t
