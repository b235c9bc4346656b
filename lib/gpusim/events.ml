(* Event counters gathered by the SIMT interpreter during one kernel launch.

   Counters are floats because sampled runs (see {!Interp.options}) scale
   partially-observed sections by their replication factor. *)

(* One address's pressure: its atomic operations, and how many simulated
   blocks issued them ([h_last] is the block that last did, so each block
   counts once). *)
type heat = { mutable h_ops : float; mutable h_blocks : int; mutable h_last : int }

type t = {
  mutable warp_insts : float;  (** total issued warp instructions *)
  mutable alu_insts : float;
  mutable gld_warp_ops : float;  (** warp-level global load instructions *)
  mutable gld_trans : float;  (** 128-byte global load transactions *)
  mutable gst_trans : float;
  mutable bytes_dram : float;  (** DRAM traffic implied by the transactions *)
  mutable shared_ops : float;
  mutable shared_serial : float;
      (** bank-conflict serialisation: sum over warp accesses of the
          conflict degree (1 = conflict free) *)
  mutable shfl_insts : float;
  mutable syncs : float;
  mutable branches : float;
  mutable divergent_branches : float;
  mutable atomic_global_ops : float;  (** lane-level global atomic operations *)
  mutable atomic_global_trans : float;  (** distinct-address transactions *)
  mutable atomic_shared_ops : float;
  mutable atomic_shared_serial : float;
      (** sum over warp atomics of the same-address conflict degree *)
  mutable vec_load_ops : float;
  (* Device-wide same-address pressure on the L2 atomic units. Keyed by
     (buffer id, element index); the cost model uses the hottest address. *)
  addr_heat : (int * int, heat) Hashtbl.t;
  mutable launched_blocks : int;
  mutable simulated_blocks : int;
}


let create () : t =
  {
    warp_insts = 0.0;
    alu_insts = 0.0;
    gld_warp_ops = 0.0;
    gld_trans = 0.0;
    gst_trans = 0.0;
    bytes_dram = 0.0;
    shared_ops = 0.0;
    shared_serial = 0.0;
    shfl_insts = 0.0;
    syncs = 0.0;
    branches = 0.0;
    divergent_branches = 0.0;
    atomic_global_ops = 0.0;
    atomic_global_trans = 0.0;
    atomic_shared_ops = 0.0;
    atomic_shared_serial = 0.0;
    vec_load_ops = 0.0;
    addr_heat = Hashtbl.create 64;
    launched_blocks = 0;
    simulated_blocks = 0;
  }

let begin_block (t : t) : unit = t.simulated_blocks <- t.simulated_blocks + 1

let heat (t : t) ~(buffer : int) ~(index : int) ~(by : float) : unit =
  match Hashtbl.find_opt t.addr_heat (buffer, index) with
  | Some h ->
      h.h_ops <- h.h_ops +. by;
      if h.h_last <> t.simulated_blocks then begin
        h.h_last <- t.simulated_blocks;
        h.h_blocks <- h.h_blocks + 1
      end
  | None ->
      Hashtbl.add t.addr_heat (buffer, index)
        { h_ops = by; h_blocks = 1; h_last = t.simulated_blocks }

let max_heat (t : t) : float =
  Hashtbl.fold (fun _ h acc -> Float.max h.h_ops acc) t.addr_heat 0.0

(** Snapshot of the scalar counters, used to scale a partially-executed
    loop section by its replication factor. Address heat is scaled at
    [scale_from] time via the per-key deltas, which would be expensive;
    instead loops under sampling scale heat by applying [by] directly when
    recording, so snapshots ignore [addr_heat]. *)
type snapshot = {
  s_warp_insts : float;
  s_alu_insts : float;
  s_gld_warp_ops : float;
  s_gld_trans : float;
  s_gst_trans : float;
  s_bytes_dram : float;
  s_shared_ops : float;
  s_shared_serial : float;
  s_shfl_insts : float;
  s_syncs : float;
  s_branches : float;
  s_divergent_branches : float;
  s_atomic_global_ops : float;
  s_atomic_global_trans : float;
  s_atomic_shared_ops : float;
  s_atomic_shared_serial : float;
  s_vec_load_ops : float;
}

let snapshot (t : t) : snapshot =
  {
    s_warp_insts = t.warp_insts;
    s_alu_insts = t.alu_insts;
    s_gld_warp_ops = t.gld_warp_ops;
    s_gld_trans = t.gld_trans;
    s_gst_trans = t.gst_trans;
    s_bytes_dram = t.bytes_dram;
    s_shared_ops = t.shared_ops;
    s_shared_serial = t.shared_serial;
    s_shfl_insts = t.shfl_insts;
    s_syncs = t.syncs;
    s_branches = t.branches;
    s_divergent_branches = t.divergent_branches;
    s_atomic_global_ops = t.atomic_global_ops;
    s_atomic_global_trans = t.atomic_global_trans;
    s_atomic_shared_ops = t.atomic_shared_ops;
    s_atomic_shared_serial = t.atomic_shared_serial;
    s_vec_load_ops = t.vec_load_ops;
  }

(** Scale everything recorded since [s] by [factor] (i.e. add
    [(factor - 1) * delta] to each counter). *)
let scale_from (t : t) (s : snapshot) ~(factor : float) : unit =
  let f = factor -. 1.0 in
  t.warp_insts <- t.warp_insts +. (f *. (t.warp_insts -. s.s_warp_insts));
  t.alu_insts <- t.alu_insts +. (f *. (t.alu_insts -. s.s_alu_insts));
  t.gld_warp_ops <- t.gld_warp_ops +. (f *. (t.gld_warp_ops -. s.s_gld_warp_ops));
  t.gld_trans <- t.gld_trans +. (f *. (t.gld_trans -. s.s_gld_trans));
  t.gst_trans <- t.gst_trans +. (f *. (t.gst_trans -. s.s_gst_trans));
  t.bytes_dram <- t.bytes_dram +. (f *. (t.bytes_dram -. s.s_bytes_dram));
  t.shared_ops <- t.shared_ops +. (f *. (t.shared_ops -. s.s_shared_ops));
  t.shared_serial <- t.shared_serial +. (f *. (t.shared_serial -. s.s_shared_serial));
  t.shfl_insts <- t.shfl_insts +. (f *. (t.shfl_insts -. s.s_shfl_insts));
  t.syncs <- t.syncs +. (f *. (t.syncs -. s.s_syncs));
  t.branches <- t.branches +. (f *. (t.branches -. s.s_branches));
  t.divergent_branches <-
    t.divergent_branches +. (f *. (t.divergent_branches -. s.s_divergent_branches));
  t.atomic_global_ops <-
    t.atomic_global_ops +. (f *. (t.atomic_global_ops -. s.s_atomic_global_ops));
  t.atomic_global_trans <-
    t.atomic_global_trans +. (f *. (t.atomic_global_trans -. s.s_atomic_global_trans));
  t.atomic_shared_ops <-
    t.atomic_shared_ops +. (f *. (t.atomic_shared_ops -. s.s_atomic_shared_ops));
  t.atomic_shared_serial <-
    t.atomic_shared_serial +. (f *. (t.atomic_shared_serial -. s.s_atomic_shared_serial));
  t.vec_load_ops <- t.vec_load_ops +. (f *. (t.vec_load_ops -. s.s_vec_load_ops))

(** Scale all counters (used to extrapolate from a sampled subset of blocks
    to the whole grid). An address every simulated block heated is shared
    by the grid and its heat scales too; one fewer blocks heated is
    block-private ([partial[bid]]-style) and keeps its heat, the rule
    {!Device_ir.Access} applies to block-invariant addresses. *)
let scale_all (t : t) ~(factor : float) : unit =
  let dummy = snapshot (create ()) in
  scale_from t dummy ~factor;
  Hashtbl.iter
    (fun _ h -> if h.h_blocks >= t.simulated_blocks then h.h_ops <- h.h_ops *. factor)
    t.addr_heat

(* ------------------------------------------------------------------ *)
(* Immutable totals (the profiler's currency)                          *)
(* ------------------------------------------------------------------ *)

type totals = {
  t_launches : int;
  t_warp_insts : float;
  t_alu_insts : float;
  t_gld_warp_ops : float;
  t_gld_trans : float;
  t_gst_trans : float;
  t_bytes_dram : float;
  t_shared_ops : float;
  t_shared_serial : float;
  t_shfl_insts : float;
  t_syncs : float;
  t_branches : float;
  t_divergent_branches : float;
  t_atomic_global_ops : float;
  t_atomic_global_trans : float;
  t_atomic_shared_ops : float;
  t_atomic_shared_serial : float;
  t_vec_load_ops : float;
  t_max_heat : float;
}

let zero_totals : totals =
  {
    t_launches = 0;
    t_warp_insts = 0.0;
    t_alu_insts = 0.0;
    t_gld_warp_ops = 0.0;
    t_gld_trans = 0.0;
    t_gst_trans = 0.0;
    t_bytes_dram = 0.0;
    t_shared_ops = 0.0;
    t_shared_serial = 0.0;
    t_shfl_insts = 0.0;
    t_syncs = 0.0;
    t_branches = 0.0;
    t_divergent_branches = 0.0;
    t_atomic_global_ops = 0.0;
    t_atomic_global_trans = 0.0;
    t_atomic_shared_ops = 0.0;
    t_atomic_shared_serial = 0.0;
    t_vec_load_ops = 0.0;
    t_max_heat = 0.0;
  }

let totals_of (t : t) : totals =
  {
    t_launches = 1;
    t_warp_insts = t.warp_insts;
    t_alu_insts = t.alu_insts;
    t_gld_warp_ops = t.gld_warp_ops;
    t_gld_trans = t.gld_trans;
    t_gst_trans = t.gst_trans;
    t_bytes_dram = t.bytes_dram;
    t_shared_ops = t.shared_ops;
    t_shared_serial = t.shared_serial;
    t_shfl_insts = t.shfl_insts;
    t_syncs = t.syncs;
    t_branches = t.branches;
    t_divergent_branches = t.divergent_branches;
    t_atomic_global_ops = t.atomic_global_ops;
    t_atomic_global_trans = t.atomic_global_trans;
    t_atomic_shared_ops = t.atomic_shared_ops;
    t_atomic_shared_serial = t.atomic_shared_serial;
    t_vec_load_ops = t.vec_load_ops;
    t_max_heat = max_heat t;
  }

(* max_heat does not sum across launches: each launch serialises on its
   own hottest address, so the aggregate keeps the worst launch *)
let add_totals (a : totals) (b : totals) : totals =
  {
    t_launches = a.t_launches + b.t_launches;
    t_warp_insts = a.t_warp_insts +. b.t_warp_insts;
    t_alu_insts = a.t_alu_insts +. b.t_alu_insts;
    t_gld_warp_ops = a.t_gld_warp_ops +. b.t_gld_warp_ops;
    t_gld_trans = a.t_gld_trans +. b.t_gld_trans;
    t_gst_trans = a.t_gst_trans +. b.t_gst_trans;
    t_bytes_dram = a.t_bytes_dram +. b.t_bytes_dram;
    t_shared_ops = a.t_shared_ops +. b.t_shared_ops;
    t_shared_serial = a.t_shared_serial +. b.t_shared_serial;
    t_shfl_insts = a.t_shfl_insts +. b.t_shfl_insts;
    t_syncs = a.t_syncs +. b.t_syncs;
    t_branches = a.t_branches +. b.t_branches;
    t_divergent_branches = a.t_divergent_branches +. b.t_divergent_branches;
    t_atomic_global_ops = a.t_atomic_global_ops +. b.t_atomic_global_ops;
    t_atomic_global_trans = a.t_atomic_global_trans +. b.t_atomic_global_trans;
    t_atomic_shared_ops = a.t_atomic_shared_ops +. b.t_atomic_shared_ops;
    t_atomic_shared_serial = a.t_atomic_shared_serial +. b.t_atomic_shared_serial;
    t_vec_load_ops = a.t_vec_load_ops +. b.t_vec_load_ops;
    t_max_heat = Float.max a.t_max_heat b.t_max_heat;
  }

let totals_of_list (ts : t list) : totals =
  List.fold_left (fun acc t -> add_totals acc (totals_of t)) zero_totals ts

(* The canonical (name, value) view, in stable order. The profile table,
   the Prometheus exposition and [Stats.to_json] all derive their field
   names from here so they can never drift apart. *)
let totals_fields (t : totals) : (string * float) list =
  [
    ("launches", float_of_int t.t_launches);
    ("warp_insts", t.t_warp_insts);
    ("alu_insts", t.t_alu_insts);
    ("gld_warp_ops", t.t_gld_warp_ops);
    ("gld_trans", t.t_gld_trans);
    ("gst_trans", t.t_gst_trans);
    ("bytes_dram", t.t_bytes_dram);
    ("shared_ops", t.t_shared_ops);
    ("shared_serial", t.t_shared_serial);
    ("shfl_insts", t.t_shfl_insts);
    ("syncs", t.t_syncs);
    ("branches", t.t_branches);
    ("divergent_branches", t.t_divergent_branches);
    ("atomic_global_ops", t.t_atomic_global_ops);
    ("atomic_global_trans", t.t_atomic_global_trans);
    ("atomic_shared_ops", t.t_atomic_shared_ops);
    ("atomic_shared_serial", t.t_atomic_shared_serial);
    ("vec_load_ops", t.t_vec_load_ops);
    ("max_heat", t.t_max_heat);
  ]

(* The inverse of [totals_fields], reading each field by its name. *)
let totals_of_fields (field : string -> float) : totals =
  {
    t_launches = int_of_float (field "launches");
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

let pp fmt (t : t) =
  Format.fprintf fmt
    "@[<v>warp insts     %.0f@,alu            %.0f@,gld ops/trans  %.0f / %.0f@,\
     gst trans      %.0f@,dram bytes     %.0f@,shared ops     %.0f (serial %.0f)@,\
     shfl           %.0f@,syncs          %.0f@,branches       %.0f (divergent %.0f)@,\
     atomics global %.0f ops / %.0f trans (max heat %.0f)@,\
     atomics shared %.0f ops (serial %.0f)@,vec loads      %.0f@,\
     blocks         %d launched / %d simulated@]"
    t.warp_insts t.alu_insts t.gld_warp_ops t.gld_trans t.gst_trans t.bytes_dram
    t.shared_ops t.shared_serial t.shfl_insts t.syncs t.branches
    t.divergent_branches t.atomic_global_ops t.atomic_global_trans (max_heat t)
    t.atomic_shared_ops t.atomic_shared_serial t.vec_load_ops t.launched_blocks
    t.simulated_blocks
