(** Barrier-phase race sanitizer for device-IR kernels.

    The checker proves (up to a bounded thread/block model) that a kernel
    is free of shared/global memory races, then lints for wasted
    synchronization. It splits each kernel into barrier-delimited phases
    by running a small model of the thread grid — every thread of a
    model block of 64, over 2 model blocks — on {!Access}'s warp walk,
    with concrete values for anything derived from thread/block
    coordinates and compile-time constants, and unknown lanes for
    data-dependent values (memory loads, unbound parameters). Two
    accesses conflict when they touch the same array in the same barrier
    phase from different threads with possibly-equal indices and at
    least one of them is a non-atomic write.

    Threads of the same warp are exempt from intra-phase conflicts: the
    paper's codelets rely on the pre-Volta warp-synchronous execution
    model (Section III.C — shuffles make intra-warp barriers removable),
    so a producer/consumer pair inside one warp is ordered by lockstep
    execution, not by [__syncthreads()].

    Error codes (severity [Error]):
    - [TSAN001] — write/write race (two plain stores, or a store racing
      an atomic, same phase, no intervening barrier);
    - [TSAN002] — read/write race (a load may observe a half-updated
      location);
    - [TSAN003] — lost update: a racing store to a cell (space, array,
      index, barrier phase) its own thread loaded earlier in the same
      phase, a non-atomic read-modify-write of an accumulator reachable
      by more than one thread. The stored value need not come from that
      load: a load followed by a store of a constant counts too;
    - [TSAN004] — barrier under thread-divergent control flow (threads
      of one block reach different barrier instances: deadlock);
    - [TSAN005] — out-of-warp or malformed shuffle exchange.

    Perf lints (severity [Warn]):
    - [TLINT001] — redundant back-to-back barrier (no memory access since
      the previous barrier);
    - [TLINT002] — barrier whose cross-phase producer/consumer pairs are
      all intra-warp (the paper's Listing-4 argument: a shuffle would
      remove it);
    - [TLINT003] — atomic on a provably single-writer location. *)

(** Sanitize one kernel. [params] binds scalar parameters to concrete
    values (unbound parameters are treated as unknown); [block]/[grid]
    override the modeled geometry (e.g. a single-thread cleanup kernel
    should be checked with [~block:1 ~grid:1]). *)
val check_kernel :
  ?params:(string * int) list ->
  ?block:int ->
  ?grid:int ->
  Ir.kernel ->
  Diag.t list

(** Sanitize every launch of a program. Launch geometry and scalar
    parameters are evaluated from the host expressions (at 4096 input
    elements, worst-case over the first and last candidate of every
    tunable) and capped to the model size. *)
val check_program : Ir.program -> Diag.t list

exception Racy of Diag.t list

(** @raise Racy when {!check_program} reports any error-severity
    diagnostic. Lint warnings never raise. *)
val check_program_exn : Ir.program -> unit
