(** Structured diagnostics for the device-IR analysis layer.

    Every checker in the pipeline (the {!Validate} well-formedness pass,
    the {!Race} barrier-phase sanitizer) reports through this one type so
    that the CLI, the service and the tests print and serialize
    diagnostics uniformly.

    Codes are stable identifiers, never reused:
    - [TVAL001] — well-formedness error from {!Validate};
    - [TSAN001..TSAN005] — race/synchronization errors from {!Race};
    - [TLINT001..TLINT003] — performance lints (warnings) from {!Race};
    - [TSYM001..TSYM004] — symbolic-equivalence refutations from
      {!Symbolic.Prove} (refuted result term, aborted symbolic execution,
      unsynchronized hazard, invalid shuffle geometry);
    - [TPERF010..TPERF012] — static memory-access performance warnings
      from {!Access} (uncoalesced global access, n-way bank conflict,
      non-affine index escape).

    The full catalogue lives in {!registry}; [tangramc codes] renders it
    and a suite test asserts every emitted code is registered. *)

type severity = Error | Warn

type t = {
  code : string;     (** stable diagnostic code, e.g. ["TSAN001"] *)
  severity : severity;
  kernel : string;   (** kernel (or program) the diagnostic is about *)
  loc : string;      (** statement path inside the kernel body, [""] if n/a *)
  message : string;
}

val make :
  ?loc:string -> code:string -> severity:severity -> kernel:string -> string -> t

val severity_name : severity -> string

(** ["error[TSAN001] reduce_block @ body[3].then[0]: ..."] *)
val to_string : t -> string

(** Structured JSON value (rendered through {!Obs.Json}). *)
val json : t -> Obs.Json.t

(** JSON array of {!json} objects. *)
val list_json : t list -> Obs.Json.t

(** One-object JSON rendering of {!json}, no trailing newline. *)
val to_json : t -> string

(** JSON array rendering of {!list_json}. *)
val list_to_json : t list -> string

(** One {!to_string} line per diagnostic. *)
val render : t list -> string

(** ["2 errors, 1 warning"] (or ["clean"] when empty). *)
val summary : t list -> string

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

(** Errors before warnings, then by code, kernel, location. *)
val sort : t list -> t list

(** Keep the first diagnostic of each (code, kernel, location). *)
val dedup : t list -> t list

(** One registry row: a stable code, the severity it is always emitted
    at, the checker that owns it, and a one-line meaning. *)
type info = {
  r_code : string;
  r_severity : severity;
  r_source : string;  (** owning checker: ["validate"], ["race"], ["prove"], ["access"] *)
  r_meaning : string;
}

(** The closed catalogue of every code any checker can emit, in
    catalogue order (TVAL, TSAN, TLINT, TSYM, TPERF). *)
val registry : info list

val lookup : string -> info option

(** [registered code] — membership in {!registry}. *)
val registered : string -> bool

(** {!registry} as a JSON array (code, severity, source, meaning). *)
val registry_json : unit -> Obs.Json.t

(** Raised by [*_exn] entry points that reject on error-severity
    diagnostics; carries the full diagnostic list. A friendly printer is
    registered with [Printexc]. *)
exception Failed of t list

(** @raise Failed when the list contains error-severity diagnostics. *)
val fail_on_errors : t list -> unit
