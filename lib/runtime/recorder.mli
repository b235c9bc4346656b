(** The black-box flight recorder: a fixed ring of per-request records
    plus bounded incident bundles.

    Recording ({!note}) is O(1) and captures only lightweight facts —
    including the request's trace id; the span tree itself is rebuilt
    from [Obs.Trace]'s ring lazily when an incident is {!dump}ed, so
    the quiet path never pays for tree extraction. A dumped bundle is a
    self-contained JSON document (trigger request + span tree,
    surrounding request window, SLO table, fleet health table, brownout
    level, latest metrics) — everything a postmortem needs without a
    live process to query. *)

type record = {
  rc_seq : int;
  rc_now_us : float;  (** virtual completion time *)
  rc_tid : int;  (** trace id; 0 when tracing was off *)
  rc_arch : string;
  rc_n : int;
  rc_predicted_us : float;
  rc_latency_us : float;
  rc_outcome : string;  (** ["ok"], ["fault"], ["sdc-caught"], ... *)
}

(** What pulled the handle: an SLO alert, a confirmed silent
    corruption, or a device ejection. *)
type trigger = Alert of string | Sdc | Eject of string

val trigger_kind : trigger -> string

type incident = {
  in_seq : int;  (** sequence number of the triggering request *)
  in_now_us : float;
  in_trigger : trigger;
  in_json : Obs.Json.t;
}

type t

(** [capacity] requests in the ring (default 128); [keep_incidents]
    bundles retained (default 16, oldest evicted).
    @raise Invalid_argument on non-positive sizes. *)
val create : ?capacity:int -> ?keep_incidents:int -> unit -> t

val capacity : t -> int

(** Push one served request into the ring. The current trace id is
    captured here, so call it inside the request's [with_request]
    scope. *)
val note :
  t ->
  now_us:float ->
  arch:string ->
  n:int ->
  predicted_us:float ->
  latency_us:float ->
  outcome:string ->
  record

(** Buffered records, oldest first. *)
val records : t -> record list

(** The newest record (the would-be trigger of the next incident). *)
val last : t -> record option

(** Freeze the ring into an incident bundle. [slos], [fleet] and
    [metrics] are caller-rendered JSON tables (Null when absent);
    the trigger request's span tree rides along when the trace ring
    still holds it. *)
val dump :
  t ->
  now_us:float ->
  trigger:trigger ->
  ?slos:Obs.Json.t ->
  ?fleet:Obs.Json.t ->
  ?brownout:int ->
  ?metrics:Obs.Json.t ->
  unit ->
  incident

(** Retained incidents, newest first. *)
val incidents : t -> incident list

(** Lifetime dump count (retention does not shrink it). *)
val incidents_dumped : t -> int

val incident_to_string : incident -> string

(** Structural check of one bundle document — schema marker, trigger
    kind, window array, request, brownout — the contract the tests and
    the CI artifact check both assert. *)
val validate_bundle : Obs.Json.t -> (unit, string) result

val validate_bundle_string : string -> (unit, string) result

(** Write every retained incident into [dir] (created when missing) as
    [incident-<seq>-<kind>.json]; returns the paths, oldest first. *)
val save_all : t -> string -> string list
