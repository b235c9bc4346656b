(** Symbolic execution of device-IR programs.

    {!Gpusim.Interp}'s twin: the same warp-synchronous SIMT schedule,
    shuffle lane-index arithmetic and lane-order atomic serialisation,
    but input elements are opaque {!Term} symbols, execution is always
    exact (every block of every launch), and the evaluator additionally
    tracks the synchronization hazards a proof must exclude: per-cell
    shared-memory writer warps per barrier epoch, and per-cell global
    writer blocks per launch.

    Aborts are typed by diagnostic code:
    - [TSYM002] — outside the symbolic fragment (data-dependent control
      flow or addressing, non-monoid operators on symbolic data,
      divergent barriers, out-of-bounds accesses);
    - [TSYM003] — unsynchronized cross-warp shared (or cross-block
      global) read-after-write or write-after-write hazard;
    - [TSYM004] — a shuffle whose width exceeds the 32-lane warp or that
      sources a lane outside it. *)

exception Abort of { a_code : string; a_message : string }

val warp_lanes : int

(** A program with each kernel resolved once ({!Device_ir.Resolve}),
    to run at several geometries. *)
type program

val resolve : Device_ir.Ir.program -> program

(** Symbolically execute [p] on a fully symbolic input of [n] elements
    (element [i] is {!Term.Sym}[ i]) and return the term left in cell 0
    of the result buffer. Geometry is concrete: [tunables] defaults to
    the first candidate of each tunable.
    @raise Abort on any shape, hazard or shuffle violation. *)
val run_program : ?tunables:(string * int) list -> n:int -> program -> Term.t
