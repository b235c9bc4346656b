(** Static-vs-observed calibration of the memory-access analyzer.

    For each code version, runs {!Device_ir.Access} (static prediction)
    and the {!Gpusim} interpreter (observed {!Gpusim.Events} totals) at
    the same geometry, and compares:

    - global 128-byte transactions (loads + stores),
    - shared-memory serialisation (bank-conflict replays),
    - warp instructions,

    as per-version relative errors, plus the tuner's failure mode: any
    version pair whose cost {e ranking} flips between static pricing
    ({!Gpusim.Cost.of_static_program}) and observed pricing (the
    simulated wall clock), beyond a relative margin. This backs
    [tangramc access] and [bench/main.exe access]. *)

type row = {
  r_version : Version.t;
  r_pred_trans : float;  (** predicted global transactions (ld + st) *)
  r_obs_trans : float;
  r_pred_serial : float;  (** predicted shared-memory replays *)
  r_obs_serial : float;
  r_pred_insts : float;  (** predicted warp instructions *)
  r_obs_insts : float;
  r_static_us : float;  (** static program cost on this arch *)
  r_obs_us : float;  (** simulated program cost on this arch *)
  r_trans_err : float;  (** |pred-obs| / max(obs,1) *)
  r_serial_err : float;
  r_insts_err : float;
  r_approx : bool;  (** the analyzer hit ⊤ somewhere load-bearing *)
  r_diags : Device_ir.Diag.t list;  (** TPERF findings for this version *)
}

(** One statically-misranked version pair: static pricing puts
    [fl_fast] ahead of [fl_slow] by more than the margin while observed
    pricing says the opposite (also by more than the margin). *)
type flip = {
  fl_fast : string;  (** statically cheaper version *)
  fl_slow : string;
  fl_static_gap : float;  (** relative static gap (slow/fast - 1) *)
  fl_obs_gap : float;  (** relative observed gap, same orientation *)
}

type report = {
  cr_arch : Gpusim.Arch.t;
  cr_n : int;
  cr_rows : row list;  (** versions that both analyzed and ran *)
  cr_skipped : string list;  (** versions the simulator rejected *)
  cr_flips : flip list;
  cr_mean_trans_err : float;
  cr_max_trans_err : float;
  cr_mean_serial_err : float;
  cr_max_serial_err : float;
}

(** Calibrate [versions] on one architecture at input size [n] (default
    16384, a power of two so the tail-block extrapolation is exact).
    [margin] (default 0.1) is the relative gap both pricings must exceed
    before a disagreement counts as a ranking flip. Tunables are each
    version's first candidates — the runner's defaults. *)
val calibrate :
  ?n:int ->
  ?margin:float ->
  arch:Gpusim.Arch.t ->
  Planner.t ->
  Version.t list ->
  report

(** [calibrate] across several architectures (sharing static analyses
    where possible is not attempted; each arch runs independently). *)
val calibrate_all :
  ?n:int ->
  ?margin:float ->
  archs:Gpusim.Arch.t list ->
  Planner.t ->
  Version.t list ->
  report list

val reports_json : report list -> Obs.Json.t
