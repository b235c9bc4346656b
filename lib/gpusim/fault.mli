(** Deterministic fault injection for the simulated GPU stack.

    A fault {!plan} describes a seeded random process over kernel runs:
    each run "rolls" once against the plan and either passes or draws one
    of four fault kinds — a transient simulator error (retryable), a
    kernel timeout (the version misbehaving), an atomic-contention stall
    (the run completes but its simulated time is inflated) or a corrupted
    result (the run completes with a NaN value). Rolls consume a
    splitmix-style LCG stream seeded explicitly, so an entire fault
    schedule is reproducible from [(seed, request sequence)] alone — the
    property the chaos tests and the [--fault-seed] CLI flag rely on.

    The injection point is {!Runner.run_compiled}'s [?fault] argument;
    planning and tuning never inject (rankings stay deterministic). *)

(** The five injected failure modes. *)
type kind =
  | Transient  (** a {!Interp.Sim_error} that a retry may outlive *)
  | Timeout  (** the kernel never finishes: a hard per-version fault *)
  | Stall  (** atomic contention: the run succeeds but [stall_factor] times slower *)
  | Corrupt  (** the run "succeeds" with a NaN result *)
  | Bit_flip
      (** silent data corruption: one bit of simulated state is flipped
          mid-run and the result is finite but possibly wrong. Driven by
          the per-space [bitflip] rates, never by the kind mix. *)

val kind_name : kind -> string

(** Where a bit flip lands. *)
type space =
  | Global_mem  (** a cell of a writable global buffer *)
  | Shared_mem  (** a cell of a block's shared-memory tile *)
  | Register  (** a thread's accumulator register *)

val space_name : space -> string

(** A fully resolved flip: every field is drawn from the seeded flip
    stream, so the complete flip schedule is reproducible. Selectors are
    raw nonnegative draws; the injection site reduces them modulo the
    actual population (launch count, block count, cell count, ...). *)
type flip = {
  fl_space : space;
  fl_bit : int;  (** bit to toggle, 0..31, of the 32-bit representation *)
  fl_launch : int;  (** which kernel launch of the program *)
  fl_site : int;  (** which block / statement boundary inside the launch *)
  fl_target : int;  (** which cell / thread / register *)
}

(** One entry of the deterministic flip log. *)
type flip_record = {
  fr_roll : int;  (** value of {!rolls} when the flip was drawn *)
  fr_arch : string;
  fr_version : string;
  fr_flip : flip;
}

(** Raised by {!Runner.run_compiled} for injected {!Timeout} faults
    (injected {!Transient} faults raise {!Interp.Sim_error} so they travel
    the same path as organic simulator errors). *)
exception Injected of kind * string

(** An immutable fault plan. Effective fault probability for a run of
    [version] is its override, or else [rate]; the faulting kind is then
    drawn from the [mix] weights. *)
type plan = {
  f_seed : int;
  f_rate : float;  (** base per-run fault probability, in [0, 1] *)
  f_version_rates : (string * float) list;
      (** per-version overrides of [f_rate], by {!Synthesis.Version.name} *)
  f_mix : (kind * float) list;  (** relative kind weights *)
  f_bitflip_rate : float;
      (** bit-flip probability per run and memory space, in [0, 1] *)
}

(** Build a plan. Defaults: [rate] 0.0, no per-version overrides,
    {!default_mix}, [bitflip_rate] 0.0 (applied to each of the three
    spaces).
    @raise Invalid_argument when a rate lies outside [0, 1], a mix weight
    is negative, the mix has no positive weight or contains
    {!Bit_flip}. *)
val plan :
  ?rate:float ->
  ?version_rates:(string * float) list ->
  ?mix:(kind * float) list ->
  ?bitflip_rate:float ->
  seed:int ->
  unit ->
  plan

(** Mutable injector state: the plan plus the LCG stream position and
    injection counters. *)
type t

val create : plan -> t
val seed : t -> int

(** Simulated-time multiplier of a {!Stall}. *)
val stall_factor : float

type verdict = Pass | Fault of kind

(** Advance the stream one step and decide the fate of one run of
    [version]. Deterministic: a fresh {!t} over the same plan replays
    the same verdict sequence for the same label sequence. *)
val roll : t -> version:string -> verdict

(** Decide whether this run suffers a bit flip, and where. Draws from a
    dedicated LCG stream, so enabling bit flips never perturbs the
    {!roll} schedule, and each call consumes a fixed number of draws
    whether or not it fires. Drawing does not log: call {!record_flip}
    once the flip has actually been landed in simulated memory. *)
val roll_flip : t -> flip option

(** Count a drawn flip and append it to the flip log. The runner calls
    this only on runs that complete far enough for the flip to land —
    runs aborted by a loud Transient/Timeout verdict never apply their
    flip, and counting it would overstate the flip population that
    detection-rate metrics divide by. *)
val record_flip : t -> arch:string -> version:string -> flip -> unit

(** Reinterpret a stored scalar in its declared 32-bit representation,
    toggle [bit land 31], and return the stored-back float. [Pred] cells
    simply toggle truth. *)
val flip_value : Device_ir.Ir.scalar -> bit:int -> float -> float

(** {1 Per-device failure profiles}

    A profile describes how one simulated device of a fleet misbehaves
    over its lifetime. It is a pure function of the device's 1-based
    dispatch count — profiles own no random stream, so evaluating one
    never perturbs the loud-fault ({!roll}) or bit-flip ({!roll_flip})
    schedules. The fleet layer ([Runtime.Fleet]) owns the dispatch
    counter and asks the profile three questions per dispatch: is the
    device dead yet ({!profile_dead}), how degraded is its throughput
    ({!profile_slowdown}), and what intermittent fault rate should its
    private injector run at ({!profile_fault_rate}). *)

type profile =
  | Healthy  (** nominal: no deaths, no slowdown, no intermittent faults *)
  | Fail_stop of int
      (** the device dies the moment this (1-based) dispatch is attempted
          and never answers again *)
  | Fail_slow of { sl_onset : int; sl_ramp : int; sl_factor : float }
      (** a straggler: throughput multiplier ramps linearly from 1× to
          [sl_factor] over [sl_ramp] dispatches starting at [sl_onset] *)
  | Flaky of float
      (** intermittent: the device's private fault stream injects
          retryable transients at this per-run rate *)
  | Recovering of { rc_until : int; rc_factor : float }
      (** degraded [rc_factor]× through dispatch [rc_until], nominal
          after — the profile the readmission hysteresis exists for *)

(** @raise Invalid_argument on a malformed profile: a dispatch index
    < 1 (fail-stop, fail-slow onset/ramp), a throughput factor < 1, or
    a flaky rate outside [0, 1]. *)
val check_profile : profile -> unit

(** Render a profile in the [--device-profile] surface syntax
    ([healthy], [fail-stop@N], [fail-slow@ONSETxFACTOR+RAMP],
    [flaky@RATE], [recovering@UNTILxFACTOR]). *)
val profile_name : profile -> string

(** Parse {!profile_name}'s syntax back; [Error] carries the message
    the CLI prints. The [+RAMP] suffix of fail-slow is optional
    (default 1: full degradation at onset). *)
val profile_of_string : string -> (profile, string) result

(** Has a fail-stop profile's device died by [dispatch] (1-based,
    inclusive)? *)
val profile_dead : profile -> dispatch:int -> bool

(** Simulated-time multiplier at [dispatch] (1-based); 1.0 when
    nominal. *)
val profile_slowdown : profile -> dispatch:int -> float

(** Per-run rate of the device's private intermittent-fault stream
    (0 except for {!Flaky}). *)
val profile_fault_rate : profile -> float

(** A {!Fail_stop} whose death dispatch is drawn uniformly from
    [1, horizon] by a throwaway LCG over [seed] — one draw at
    construction, deterministic thereafter.
    @raise Invalid_argument when [horizon] < 1. *)
val seeded_fail_stop : seed:int -> horizon:int -> profile

(** {1 Observability} *)

(** Rolls performed so far (bit-flip rolls not included). *)
val rolls : t -> int

(** Faults injected so far (all kinds, bit flips included). *)
val injected : t -> int

(** Injections per kind, fixed order
    (Transient, Timeout, Stall, Corrupt, Bit_flip). *)
val injected_by_kind : t -> (kind * int) list

(** The deterministic flip log, in injection order. *)
val flips : t -> flip_record list
