(* The events of one kernel launch: the counter record, and the
   per-address atomic heat the cost model's serialisation term reads. *)

type totals = Device_ir.Counters.t = {
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

module Counters = Device_ir.Counters

(* One address's pressure: its atomic operations, and how many simulated
   blocks issued them ([h_last] is the block that last did, so each block
   counts once). *)
type heat = { mutable h_ops : float; mutable h_blocks : int; mutable h_last : int }

type t = {
  counts : totals;
  addr_heat : (int * int, heat) Hashtbl.t;
  mutable simulated_blocks : int;
}

let create () : t =
  { counts = Counters.zero (); addr_heat = Hashtbl.create 64; simulated_blocks = 0 }

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

(* An address every simulated block heated is shared by the grid and its
   heat scales too; one fewer blocks heated is block-private
   ([partial[bid]]-style) and keeps its heat, the rule
   {!Device_ir.Access} applies to block-invariant addresses. *)
let scale_all (t : t) ~(factor : float) : unit =
  Counters.scale_from t.counts (Counters.zero ()) ~factor;
  Hashtbl.iter
    (fun _ h -> if h.h_blocks >= t.simulated_blocks then h.h_ops <- h.h_ops *. factor)
    t.addr_heat

let totals_of_list (ts : t list) : totals =
  Counters.sum (List.map (fun t -> t.counts) ts)

let totals_fields = Counters.fields
let totals_of_fields = Counters.of_fields
