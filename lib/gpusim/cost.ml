(* Analytic cost model: launch events -> wall-clock time.

   The model combines four terms per kernel launch and takes their maximum
   (the kernel is bound by its scarcest resource), plus a fixed launch
   overhead:

   - {b critical path}: the per-block pipelined cycle count measured by the
     interpreter, multiplied by the number of occupancy waves the grid
     needs. This term dominates small grids (few blocks, latency-bound) and
     contention-heavy kernels (Kepler shared-atomic lock loops inflate the
     per-block path);
   - {b issue throughput}: total warp instructions over the device-wide
     issue bandwidth actually reachable given how many SMs have work;
   - {b DRAM}: transaction bytes over achieved bandwidth. Achieved
     bandwidth is peak multiplied by a stream-efficiency factor chosen by
     the kernel's load style (scalar / 128-bit vectorized / L2-staged),
     reproducing the paper's observation that CUB's vector loads win for
     large arrays (§IV-C.1) while Kokkos's staged pipeline is
     compute-bound rather than DRAM-bound (§IV-C.2);
   - {b atomic serialisation}: the hottest global-atomic address times the
     per-op L2 serialisation cost.

   Occupancy (resident blocks per SM) follows the usual limiting-resource
   rule over threads, block slots, warps and shared memory. *)

type breakdown = {
  launch_us : float;
  critical_path_us : float;
  issue_us : float;
  dram_us : float;
  atomic_us : float;
}

type t = {
  time_us : float;
  bound : string;  (** which term wins: "launch" | "cp" | "issue" | "dram" | "atomic" *)
  detail : breakdown;
  occupancy_blocks_per_sm : int;
  waves : int;
}

(** How the kernel streams its input, for the bandwidth-efficiency factor. *)
type stream_style = Scalar_loads | Vector_loads | Staged_loads

let occupancy (arch : Arch.t) ~(block : int) ~(shared_bytes : int) : int =
  let by_threads = arch.Arch.max_threads_per_sm / max block 1 in
  let by_blocks = arch.Arch.max_blocks_per_sm in
  let warps_per_block = (block + arch.Arch.warp_size - 1) / arch.Arch.warp_size in
  let by_warps = arch.Arch.max_resident_warps_per_sm / max warps_per_block 1 in
  let by_shared =
    if shared_bytes <= 0 then max_int else arch.Arch.shared_mem_per_sm / shared_bytes
  in
  max 1 (min (min by_threads by_blocks) (min by_warps by_shared))

let stream_efficiency (arch : Arch.t) = function
  | Scalar_loads -> arch.Arch.scalar_stream_efficiency
  | Vector_loads -> arch.Arch.vector_stream_efficiency
  | Staged_loads -> arch.Arch.staged_stream_efficiency

(* the four-term model, whatever measured or predicted its inputs *)
let price (arch : Arch.t) ~(style : stream_style) ~(grid : int) ~(block : int)
    ~(shared_bytes : int) ~(block_cp : float) ~(warp_insts : float)
    ~(bytes_dram : float) ~(max_heat : float) : t =
  let resident = occupancy arch ~block ~shared_bytes in
  let concurrent = arch.Arch.sms * resident in
  let waves = (grid + concurrent - 1) / concurrent in
  let cycles_to_us c = c /. (arch.Arch.clock_ghz *. 1000.0) in
  let critical_path_us = cycles_to_us (float_of_int waves *. block_cp) in
  let busy_sms = min arch.Arch.sms grid in
  let issue_us =
    cycles_to_us (warp_insts /. (arch.Arch.issue_rate *. float_of_int busy_sms))
  in
  let dram_us =
    bytes_dram /. (arch.Arch.dram_bw_gbs *. stream_efficiency arch style *. 1000.0)
  in
  let atomic_us = max_heat *. arch.Arch.global_atomic_ns /. 1000.0 in
  let launch_us = arch.Arch.launch_overhead_us in
  let body =
    [
      ("cp", critical_path_us);
      ("issue", issue_us);
      ("dram", dram_us);
      ("atomic", atomic_us);
    ]
  in
  let bound, body_us =
    List.fold_left
      (fun ((_, bv) as b) ((_, v) as x) -> if v > bv then x else b)
      ("cp", critical_path_us) body
  in
  let bound = if launch_us > body_us then "launch" else bound in
  {
    time_us = launch_us +. body_us;
    bound;
    detail = { launch_us; critical_path_us; issue_us; dram_us; atomic_us };
    occupancy_blocks_per_sm = resident;
    waves;
  }

(* vectorized iff the kernel issued vector loads, unless the caller says *)
let style_of (style : stream_style option) ~(vec_ops : float) : stream_style =
  match style with
  | Some s -> s
  | None -> if vec_ops > 0.0 then Vector_loads else Scalar_loads

(** Cost one launch. [style] defaults to vectorized iff the kernel issued
    vector loads; baselines that stage through L2 pass [Staged_loads]
    explicitly. *)
let of_launch ?(style : stream_style option) (arch : Arch.t)
    (lr : Interp.launch_result) : t =
  let ev = lr.Interp.lr_events in
  price arch
    ~style:(style_of style ~vec_ops:ev.Events.vec_load_ops)
    ~grid:lr.Interp.lr_grid ~block:lr.Interp.lr_block
    ~shared_bytes:lr.Interp.lr_shared_bytes ~block_cp:lr.Interp.lr_block_cp
    ~warp_insts:ev.Events.warp_insts ~bytes_dram:ev.Events.bytes_dram
    ~max_heat:(Events.max_heat ev)

(** Cost a whole program execution: per-launch costs, plus the dependent
    kernel gap between consecutive launches and a host-side initialisation
    charge per identity-initialised temporary buffer. *)
let of_program (arch : Arch.t) ~(n_inits : int) (launches : t list) : float =
  let n = List.length launches in
  List.fold_left (fun acc c -> acc +. c.time_us) 0.0 launches
  +. (arch.Arch.kernel_gap_us *. float_of_int (max 0 (n - 1)))
  +. (arch.Arch.init_overhead_us *. float_of_int n_inits)

(* ------------------------------------------------------------------ *)
(* Static pricing (no execution)                                       *)
(* ------------------------------------------------------------------ *)

module Access = Device_ir.Access

(* price arch-independent event counts into per-warp pipelined cycles,
   applying exactly the interpreter's charging coefficients; the shared
   atomic term picks the lock-loop vs native-unit cost here, which is
   where the Kepler/Maxwell asymmetry enters the static model *)
let static_cycles (arch : Arch.t) (c : Access.counts) : float =
  let shared_atomic_cyc =
    match arch.Arch.shared_atomic with
    | Arch.Lock_update_unlock -> arch.Arch.cyc_lock_iteration
    | Arch.Native -> arch.Arch.cyc_shared_atomic
  in
  (c.Access.c_alu *. arch.Arch.cyc_alu)
  +. (c.Access.c_branches *. arch.Arch.cyc_branch)
  +. (c.Access.c_divergent *. arch.Arch.cyc_divergence)
  +. ((c.Access.c_gld_trans +. c.Access.c_gst_trans
      +. c.Access.c_atomic_global_trans)
     *. arch.Arch.cyc_global)
  +. (c.Access.c_shared_serial *. arch.Arch.cyc_shared)
  +. (c.Access.c_shfl *. arch.Arch.cyc_shfl)
  +. (c.Access.c_atomic_shared_serial *. shared_atomic_cyc)

(* block critical path: within an epoch warps run independently, a
   barrier raises every warp to the slowest and adds cyc_sync — the same
   fold the interpreter performs on its wcycles accumulators *)
let static_block_cp (arch : Arch.t) (bp : Access.block_profile) : float =
  let epoch_max warps =
    Array.fold_left (fun acc c -> Float.max acc (static_cycles arch c)) 0.0 warps
  in
  let n_epochs = List.length bp.Access.bp_epochs in
  List.fold_left (fun acc e -> acc +. epoch_max e) 0.0 bp.Access.bp_epochs
  +. (float_of_int (max 0 (n_epochs - 1)) *. arch.Arch.cyc_sync)

(** Price one launch from a static prediction: the same four-term model
    as {!of_launch}, with every input derived from the analyzer instead
    of a run. *)
let of_static ?(style : stream_style option) (arch : Arch.t)
    (lp : Access.launch_pred) : t =
  let tot = lp.Access.lp_totals in
  let grid = lp.Access.lp_grid in
  let cp_first = static_block_cp arch lp.Access.lp_first in
  let block_cp =
    match lp.Access.lp_last with
    | None -> cp_first
    | Some last ->
        ((cp_first *. float_of_int (grid - 1)) +. static_block_cp arch last)
        /. float_of_int grid
  in
  price arch
    ~style:(style_of style ~vec_ops:tot.Access.c_vec_ops)
    ~grid ~block:lp.Access.lp_block ~shared_bytes:lp.Access.lp_shared_bytes
    ~block_cp ~warp_insts:tot.Access.c_warp_insts
    ~bytes_dram:(128.0 *. (tot.Access.c_gld_trans +. tot.Access.c_gst_trans))
    ~max_heat:
      (if arch.Arch.has_scoped_atomics then lp.Access.lp_max_heat_scoped
       else lp.Access.lp_max_heat)

(** Price a whole statically-analyzed program: {!of_static} per launch
    folded through the same gap/init charges as {!of_program}. *)
let of_static_program (arch : Arch.t) ~(n_inits : int)
    (an : Access.analysis) : float =
  of_program arch ~n_inits (List.map (of_static arch) an.Access.an_launches)

let pp fmt (c : t) =
  Format.fprintf fmt
    "%.3f us (%s-bound; launch %.2f, cp %.3f, issue %.3f, dram %.3f, atomic %.3f; \
     occupancy %d blocks/SM, %d waves)"
    c.time_us c.bound c.detail.launch_us c.detail.critical_path_us c.detail.issue_us
    c.detail.dram_us c.detail.atomic_us c.occupancy_blocks_per_sm c.waves
