(** Windowed time-series instruments on the virtual clock.

    A registry owns counters, gauges and HDR-style log-bucketed
    histograms keyed by (name, label set), plus a fixed-capacity ring of
    snapshots. Recording calls take no timestamp: windows exist because
    a driver calls {!snapshot} [~now_us] at the virtual times it cares
    about, and {!windows} diffs adjacent snapshots into per-window
    deltas and quantiles — deterministic across machines by
    construction.

    A disabled registry costs one load-and-branch per recording call
    ([bench obs] enforces the <1% tax), so instrumentation stays in the
    hot paths permanently. Registries {!merge} by addition, so the
    ROADMAP's per-domain sharding item can aggregate one registry per
    domain into a fleet-wide view. *)

type t

type kind = Counter | Gauge | Histogram

val kind_name : kind -> string

(** Typed instrument handles (all registry-backed; recording through a
    handle of a disabled registry is a no-op). *)
type counter

type gauge
type histogram

(** [snapshots] is the ring capacity (default 64, minimum 2).
    @raise Invalid_argument on a capacity below 2. *)
val create : ?snapshots:int -> ?enabled:bool -> unit -> t

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {1 Registration}

    Instruments are indexed by (name, labels): re-registering the same
    pair is a hash lookup that returns the existing instrument. Metric
    and label names must satisfy the Prometheus grammar
    ([[a-zA-Z_:][a-zA-Z0-9_:]*] and [[a-zA-Z_][a-zA-Z0-9_]*]).
    @raise Invalid_argument on an illegal name or a kind clash. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram

(** Drop one series (e.g. a gauge whose label set moved); a no-op when
    it is not registered. *)
val remove : t -> ?labels:(string * string) list -> string -> unit

(** {1 Recording} *)

(** Add [by] (default 1; negative increments are ignored — counters are
    monotone). *)
val inc : ?by:float -> counter -> unit

val set : gauge -> float -> unit

(** Record one sample into the log-bucketed histogram (8 sub-buckets
    per octave: quantile relative error is bounded by [2^(1/8) - 1],
    about 9%). *)
val observe : histogram -> float -> unit

(** {1 Point-in-time reading} *)

val counter_value : counter -> float
val gauge_value : gauge -> float
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** Nearest-rank percentile ([p] in 0..100) over the bucket counts;
    0 when empty. *)
val quantile : histogram -> float -> float

(** Every registered series of family [name] as (label set, value),
    sorted by label set; a histogram's value is its sample count.
    Reading registers nothing. *)
val family : t -> string -> ((string * string) list * float) list

(** {1 Snapshots and windows} *)

(** Capture every instrument's current value into the ring at virtual
    time [now_us]. A no-op on a disabled registry. *)
val snapshot : t -> now_us:float -> unit

val n_snapshots : t -> int

type window_row = {
  wr_name : string;
  wr_labels : (string * string) list;
  wr_kind : kind;
  wr_value : float;
      (** counter delta over the window / gauge value at window end /
          histogram count delta *)
  wr_sum : float;  (** histogram sum delta, 0 otherwise *)
  wr_p50 : float;  (** histogram quantiles over the window's samples *)
  wr_p95 : float;
}

type window = {
  w_from_us : float;
  w_to_us : float;
  w_rows : window_row list;
}

(** Adjacent-snapshot diffs, oldest window first ([n_snapshots - 1]
    windows). Instruments registered mid-ring diff against a zero
    base. *)
val windows : t -> window list

(** {1 Merging} *)

(** Fold [src] into [into]: counters and histogram buckets add, gauges
    add (shard-local depths sum to a fleet depth). [src] is unchanged;
    snapshot rings do not merge. *)
val merge : into:t -> t -> unit

(** {1 Prometheus text exposition}

    HELP/TYPE headers, escaped label values, histograms as cumulative
    [_bucket{le=...}] / [_sum] / [_count] families. With [windows]
    (default true) each ring window is also emitted as
    [<name>_window*{w=...,from_us=...,to_us=...}] gauge families. *)
val to_prometheus : ?windows:bool -> t -> string

(** {1 Lexical helpers (shared with tests)} *)

val valid_metric_name : string -> bool
val valid_label_name : string -> bool
val escape_label_value : string -> string
