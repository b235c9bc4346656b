(** The plan cache: memoized outcomes of version selection and tuning.

    The paper's decisive observation (Figures 7-10) is that the winning
    code version depends on the architecture, the combining operation,
    the element type and the input size — and on nothing else. The cache
    therefore keys on exactly that quadruple, with input sizes folded
    into power-of-two buckets: planning and tuning run once per key, and
    every later request in the same bucket reuses the stored winner.

    Entries hold the winning {!Synthesis.Version.t}, its tuned tunables
    and (in memory only) the compiled program. A bounded LRU policy
    evicts the least-recently-used key once [capacity] is exceeded. A
    warmed cache saves to and loads from an s-expression file, so a
    service restart skips the cold path entirely. *)

(** {1 Size buckets} *)

(** The power-of-two bucket of a size: [bucket_of_size n = floor(log2 n)]
    (0 for [n <= 1]). Sizes within one bucket are within 2x of each
    other, close enough to share tuned parameters. *)
val bucket_of_size : int -> int

(** Inclusive lower bound of a bucket ([2^b]). *)
val bucket_lo : int -> int

(** Inclusive upper bound of a bucket ([2^(b+1) - 1]). *)
val bucket_hi : int -> int

(** The size a bucket is planned and tuned at (its lower bound). *)
val representative_size : int -> int

(** {1 Keys and entries} *)

type key = {
  k_arch : string;  (** architecture name, e.g. ["Tesla K40c"] *)
  k_op : string;  (** combining operation, e.g. ["atomicAdd"] *)
  k_elem : string;  (** element type, e.g. ["F32"] *)
  k_bucket : int;  (** power-of-two size bucket *)
}

(** Build a key, bucketing the request size [n]. *)
val key : arch:string -> op:string -> elem:string -> n:int -> key

(** Human-readable rendering, e.g. ["Tesla K40c/atomicAdd/F32/#16"]. *)
val key_name : key -> string

(** One rung of a bucket's fallback ladder: a candidate version that
    survived planning, with its tuned parameters and tuned time. *)
type rung = {
  r_version : Synthesis.Version.t;
  r_tunables : (string * int) list;
  r_time_us : float;  (** tuned time at the bucket's representative size *)
}

type entry = {
  e_version : Synthesis.Version.t;  (** the bucket's winning version *)
  e_tunables : (string * int) list;  (** its tuned parameters *)
  e_compiled : Gpusim.Runner.compiled_program option;
      (** compiled once at plan time; not persisted (recompiled lazily
          after a {!load}) *)
  e_tuned_n : int;  (** the size planning/tuning ran at *)
  e_tune_time_us : float;  (** host-side cost of the cold path *)
  e_ranking : rung list;
      (** every surviving candidate ranked fastest-first — the fallback
          ladder the service walks when the winner is quarantined. Empty
          for hand-built or legacy entries; [e_version] is its head
          otherwise. *)
}

(** The fallback ladder of an entry: [e_ranking], or a single rung made
    of the winner when the ranking is empty (legacy entries). *)
val ladder : entry -> rung list

(** {1 The cache} *)

type t

(** Default LRU capacity (64 entries). *)
val default_capacity : int

val create : ?capacity:int -> unit -> t
val capacity : t -> int
val length : t -> int

(** Total evictions since creation. *)
val evictions : t -> int

(** Lookup; a hit refreshes the entry's LRU recency. *)
val find : t -> key -> entry option

(** Is the key cached, without refreshing its LRU recency? The admission
    layer's cost-aware shed policy predicts whether a request would hit
    the cold plan/tune path; a prediction must not perturb eviction
    order. *)
val mem : t -> key -> bool

(** Insert (or replace) an entry, evicting the least-recently-used key
    if the cache is full. *)
val add : t -> key -> entry -> unit

(** All entries, least-recently-used first. *)
val entries : t -> (key * entry) list

(** {1 Persistence} *)

(** S-expression rendering of the cache (versions are stored by their
    stable {!Synthesis.Version.name}; compiled programs are dropped). *)
val to_string : t -> string

(** Parse a saved cache, at its saved capacity. Unknown version names
    fail loudly.
    @raise Device_ir.Serialize.Parse_error on malformed input. *)
val of_string : string -> t

(** Crash-safe snapshot: the rendering of {!to_string} is prefixed with
    a CRC-32 header, written to [path ^ ".tmp"], fsynced, and renamed
    over [path] — readers see either the old snapshot or the new one,
    never a torn write. Saving also truncates [path]'s verdict journal
    (the snapshot supersedes it). *)
val save : t -> string -> unit

(** Load a snapshot: verifies the CRC-32 header when present
    (headerless legacy files parse unchecked), deletes any stale
    [path ^ ".tmp"] left by a crashed save, and replays the verdict
    journal on top — corrupt journal records are skipped with a warning
    on stderr, never fatal.
    @raise Device_ir.Serialize.Parse_error on malformed or
    checksum-failing input, [Sys_error] on an unreadable file. *)
val load : string -> t

(** Like {!of_string}, but a malformed cache comes back as [Error]
    instead of an exception. *)
val of_string_result : string -> (t, string) result

(** Like {!load}, but corrupt, truncated or unreadable files come back
    as [Error] — callers warn and start cold instead of dying. *)
val load_result : string -> (t, string) result

(** {1 Crash safety} *)

(** CRC-32 (IEEE 802.3) of a string — the checksum protecting snapshot
    headers and journal records; exposed for tests. *)
val crc32 : string -> int32

(** The verdict-journal path for a cache persisted at [path]
    ([path ^ ".journal"]). *)
val journal_file : string -> string

(** [attach_journal t path] opens the verdict journal for a cache
    persisted at [path]: from now on every {!add} (each tuner verdict)
    is also appended to the journal as a self-checksummed record and
    fsynced, so a crash between saves loses nothing — the next {!load}
    replays the journal on top of the last snapshot. *)
val attach_journal : t -> string -> unit

(** Close the attached journal, if any. *)
val detach_journal : t -> unit
