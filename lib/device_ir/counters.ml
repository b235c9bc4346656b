(* Kernel event counters: observed by the interpreter, predicted by the
   access analyzer, summed by the service. An all-float record is stored
   flat, so the hot-path updates of both walkers stay unboxed. *)

type t = {
  mutable t_launches : float;
  mutable t_warp_insts : float;
  mutable t_alu_insts : float;
  mutable t_gld_warp_ops : float;
  mutable t_gld_trans : float;
  mutable t_gst_trans : float;
  mutable t_bytes_dram : float;
  mutable t_shared_ops : float;
  mutable t_shared_serial : float;
  mutable t_shfl_insts : float;
  mutable t_syncs : float;
  mutable t_branches : float;
  mutable t_divergent_branches : float;
  mutable t_atomic_global_ops : float;
  mutable t_atomic_global_trans : float;
  mutable t_atomic_shared_ops : float;
  mutable t_atomic_shared_serial : float;
  mutable t_vec_load_ops : float;
  mutable t_max_heat : float;
}

(* The profile table, the Prometheus exposition and [Stats.to_json] all
   take their counter names from here, so they cannot drift apart. *)
let fields (c : t) : (string * float) list =
  [
    ("launches", c.t_launches);
    ("warp_insts", c.t_warp_insts);
    ("alu_insts", c.t_alu_insts);
    ("gld_warp_ops", c.t_gld_warp_ops);
    ("gld_trans", c.t_gld_trans);
    ("gst_trans", c.t_gst_trans);
    ("bytes_dram", c.t_bytes_dram);
    ("shared_ops", c.t_shared_ops);
    ("shared_serial", c.t_shared_serial);
    ("shfl_insts", c.t_shfl_insts);
    ("syncs", c.t_syncs);
    ("branches", c.t_branches);
    ("divergent_branches", c.t_divergent_branches);
    ("atomic_global_ops", c.t_atomic_global_ops);
    ("atomic_global_trans", c.t_atomic_global_trans);
    ("atomic_shared_ops", c.t_atomic_shared_ops);
    ("atomic_shared_serial", c.t_atomic_shared_serial);
    ("vec_load_ops", c.t_vec_load_ops);
    ("max_heat", c.t_max_heat);
  ]

let of_fields (field : string -> float) : t =
  {
    t_launches = field "launches";
    t_warp_insts = field "warp_insts";
    t_alu_insts = field "alu_insts";
    t_gld_warp_ops = field "gld_warp_ops";
    t_gld_trans = field "gld_trans";
    t_gst_trans = field "gst_trans";
    t_bytes_dram = field "bytes_dram";
    t_shared_ops = field "shared_ops";
    t_shared_serial = field "shared_serial";
    t_shfl_insts = field "shfl_insts";
    t_syncs = field "syncs";
    t_branches = field "branches";
    t_divergent_branches = field "divergent_branches";
    t_atomic_global_ops = field "atomic_global_ops";
    t_atomic_global_trans = field "atomic_global_trans";
    t_atomic_shared_ops = field "atomic_shared_ops";
    t_atomic_shared_serial = field "atomic_shared_serial";
    t_vec_load_ops = field "vec_load_ops";
    t_max_heat = field "max_heat";
  }

let copy (c : t) : t = { c with t_launches = c.t_launches }

(* never written: [zero] copies it *)
let zeros = of_fields (fun _ -> 0.0)
let zero () : t = copy zeros

let add ?(scale = 1.0) (dst : t) (src : t) : unit =
  let add d x = d +. (x *. scale) in
  dst.t_launches <- add dst.t_launches src.t_launches;
  dst.t_warp_insts <- add dst.t_warp_insts src.t_warp_insts;
  dst.t_alu_insts <- add dst.t_alu_insts src.t_alu_insts;
  dst.t_gld_warp_ops <- add dst.t_gld_warp_ops src.t_gld_warp_ops;
  dst.t_gld_trans <- add dst.t_gld_trans src.t_gld_trans;
  dst.t_gst_trans <- add dst.t_gst_trans src.t_gst_trans;
  dst.t_bytes_dram <- add dst.t_bytes_dram src.t_bytes_dram;
  dst.t_shared_ops <- add dst.t_shared_ops src.t_shared_ops;
  dst.t_shared_serial <- add dst.t_shared_serial src.t_shared_serial;
  dst.t_shfl_insts <- add dst.t_shfl_insts src.t_shfl_insts;
  dst.t_syncs <- add dst.t_syncs src.t_syncs;
  dst.t_branches <- add dst.t_branches src.t_branches;
  dst.t_divergent_branches <- add dst.t_divergent_branches src.t_divergent_branches;
  dst.t_atomic_global_ops <- add dst.t_atomic_global_ops src.t_atomic_global_ops;
  dst.t_atomic_global_trans <- add dst.t_atomic_global_trans src.t_atomic_global_trans;
  dst.t_atomic_shared_ops <- add dst.t_atomic_shared_ops src.t_atomic_shared_ops;
  dst.t_atomic_shared_serial <- add dst.t_atomic_shared_serial src.t_atomic_shared_serial;
  dst.t_vec_load_ops <- add dst.t_vec_load_ops src.t_vec_load_ops;
  dst.t_max_heat <- Float.max dst.t_max_heat src.t_max_heat

let sum (cs : t list) : t =
  let acc = zero () in
  List.iter (add acc) cs;
  acc

let scale_from (t : t) (s : t) ~(factor : float) : unit =
  let f = factor -. 1.0 in
  let scale x s = x +. (f *. (x -. s)) in
  t.t_launches <- scale t.t_launches s.t_launches;
  t.t_warp_insts <- scale t.t_warp_insts s.t_warp_insts;
  t.t_alu_insts <- scale t.t_alu_insts s.t_alu_insts;
  t.t_gld_warp_ops <- scale t.t_gld_warp_ops s.t_gld_warp_ops;
  t.t_gld_trans <- scale t.t_gld_trans s.t_gld_trans;
  t.t_gst_trans <- scale t.t_gst_trans s.t_gst_trans;
  t.t_bytes_dram <- scale t.t_bytes_dram s.t_bytes_dram;
  t.t_shared_ops <- scale t.t_shared_ops s.t_shared_ops;
  t.t_shared_serial <- scale t.t_shared_serial s.t_shared_serial;
  t.t_shfl_insts <- scale t.t_shfl_insts s.t_shfl_insts;
  t.t_syncs <- scale t.t_syncs s.t_syncs;
  t.t_branches <- scale t.t_branches s.t_branches;
  t.t_divergent_branches <- scale t.t_divergent_branches s.t_divergent_branches;
  t.t_atomic_global_ops <- scale t.t_atomic_global_ops s.t_atomic_global_ops;
  t.t_atomic_global_trans <- scale t.t_atomic_global_trans s.t_atomic_global_trans;
  t.t_atomic_shared_ops <- scale t.t_atomic_shared_ops s.t_atomic_shared_ops;
  t.t_atomic_shared_serial <- scale t.t_atomic_shared_serial s.t_atomic_shared_serial;
  t.t_vec_load_ops <- scale t.t_vec_load_ops s.t_vec_load_ops;
  t.t_max_heat <- scale t.t_max_heat s.t_max_heat
