(** Span-based tracing with a ring-buffered in-memory sink and Chrome
    trace_event export.

    Disabled by default; every entry point is a single load-and-branch
    when off, so instrumentation lives permanently in the hot paths.
    The service opens one root span per request under a fresh trace id
    ({!with_request}); nested operations wrap themselves in {!span} and
    instantaneous facts are {!mark}ed. Export ({!to_chrome_json},
    {!save}) produces a Perfetto-loadable document whose [tid] is the
    trace id, so each request renders as its own track. *)

type ph = B | E | I

type event = {
  ev_ph : ph;
  ev_name : string;
  ev_tid : int;
  ev_ts : float;  (** microseconds *)
  ev_attrs : (string * string) list;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Resize the ring (clears all state) and run the major-GC slice the
    new ring calls for, so the next traced work does not pay it.
    Default capacity is 2^18. *)
val set_capacity : int -> unit

val capacity : unit -> int

(** Events overwritten by the ring since the last {!clear}. *)
val dropped : unit -> int

(** Drop all buffered events and reset trace-id allocation. *)
val clear : unit -> unit

(** Replace the microsecond clock (deterministic tests). Recorded
    timestamps are clamped monotone regardless of the clock. *)
val set_clock : (unit -> float) -> unit

(** Buffered events, oldest first. *)
val events : unit -> event list

(** [span ~name f] runs [f] inside a B/E pair on the current trace id.
    The E is recorded even if [f] raises. *)
val span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a

(** Record an instant event on the current trace id. *)
val mark : ?attrs:(string * string) list -> string -> unit

(** [with_request ~name f] allocates a fresh trace id, runs [f] inside a
    root span on it, then restores the previous id. *)
val with_request :
  ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a

(** The trace id spans are currently recorded under (0 outside any
    {!with_request}). *)
val current_tid : unit -> int

(** {2 Span trees} *)

type node = {
  n_name : string;
  n_tid : int;
  n_start_us : float;
  n_dur_us : float;
  n_attrs : (string * string) list;
  n_marks : (string * (string * string) list) list;
      (** instants recorded directly under this span, oldest first *)
  n_children : node list;
}

(** Reconstruct span trees from the buffered events: one tree per root
    span, in chronological order. Spans whose B was overwritten by the
    ring are dropped; spans still open are closed at the newest buffered
    timestamp. *)
val forest : unit -> node list

(** Depth-first (pre-order) fold over a forest. *)
val fold_nodes : ('a -> node -> 'a) -> 'a -> node list -> 'a

(** {2 Chrome trace_event export} *)

(** The buffered events as a [{"traceEvents":[...]}] document: balanced
    B/E per tid, monotone timestamps. A ring that overwrote events
    additionally carries a top-level [droppedEvents] count, so a reader
    can tell a complete trace from a truncated one; a lossless export
    is byte-identical to the historical two-key document. *)
val to_chrome_json : unit -> string

val save : string -> unit

val chrome_dropped_file : string -> int

(** Validate a Chrome trace-event document the way the CI job does:
    [traceEvents] exists, required fields present, timestamps monotone
    in file order, B/E balanced per (pid, tid). Returns the event
    count. *)
val validate_chrome : string -> (int, string) result

val validate_chrome_file : string -> (int, string) result
