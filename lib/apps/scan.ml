(* Parallel prefix sum (scan) on the simulated GPU.

   The paper motivates reduction as the building block of Scan [14], and
   the warp-shuffle pass's target pattern — Kogge-Stone — is named after the
   scan network. This module implements the classical three-phase
   multi-block inclusive scan with warp-level Kogge-Stone steps built on
   [__shfl_up] (the up-exchange the paper's Section III-C pass would emit
   for a loop iterating in the positive direction):

   1. every block scans its tile: Kogge-Stone within each warp, a
      warp-of-warp-totals scan by warp 0, then per-warp offsets are added;
      the block total goes to a block-sums buffer;
   2. one thread turns the block sums into exclusive block offsets (the
      number of blocks is tiny compared to the input);
   3. every block adds its offset to its tile.

   Results are exact for inputs representable in double precision; the
   returned time is the three launches under the architecture's cost
   model. *)

module Ir = Device_ir.Ir
module I = Gpusim.Interp

let block = 256
let nwarps = block / 32

(* Kogge-Stone inclusive scan of register [x] within each warp:
   for (d = 1; d < 32; d *= 2) { t = __shfl_up(x, d); if (lane >= d) x += t; } *)
let warp_scan (x : string) ~(t : string) ~(d : string) : Ir.stmt list =
  [
    Ir.for_ d ~init:(Ir.Int 1)
      ~cond:Ir.(Reg d <: Int 32)
      ~step:Ir.(Reg d *: Int 2)
      [
        Ir.shfl_up t (Ir.Reg x) (Ir.Reg d) ~width:32;
        Ir.if_ Ir.(lane_id >=: Reg d) [ Ir.let_ x Ir.(Reg x +: Reg t) ] [];
      ];
  ]

let scan_block_kernel : Ir.kernel =
  let open Ir in
  {
    k_name = "scan_block";
    k_params = [ ("SourceSize", I32) ];
    k_arrays = [ ("input_x", F32); ("scanned", F32); ("block_sums", F32) ];
    k_shared =
      [ { sh_name = "warp_totals"; sh_ty = F32; sh_size = Static_size 32 } ];
    k_body =
      [
        if_ (tid <: Int 32) [ store_shared "warp_totals" tid (Float 0.0) ] [];
        Sync;
        let_ "gi" ((bid *: bdim) +: tid);
        let_ "x" (Float 0.0);
        if_ (Reg "gi" <: Param "SourceSize") [ load_global "x" "input_x" (Reg "gi") ] [];
      ]
      @ warp_scan "x" ~t:"t" ~d:"d"
      @ [
          (* last lane of each warp publishes the warp total *)
          if_ (lane_id =: Int 31) [ store_shared "warp_totals" warp_id (Reg "x") ] [];
          Sync;
          (* warp 0 scans the warp totals *)
          if_ (warp_id =: Int 0)
            ([
               let_ "wt" (Float 0.0);
               if_ (lane_id <: Int nwarps) [ load_shared "wt" "warp_totals" lane_id ] [];
             ]
            @ warp_scan "wt" ~t:"t2" ~d:"d2"
            @ [ if_ (lane_id <: Int nwarps) [ store_shared "warp_totals" lane_id (Reg "wt") ] [] ])
            [];
          Sync;
          (* add the exclusive prefix of the preceding warps *)
          if_ (warp_id >: Int 0)
            [
              load_shared "prev" "warp_totals" (warp_id -: Int 1);
              let_ "x" (Reg "x" +: Reg "prev");
            ]
            [];
          if_ (Reg "gi" <: Param "SourceSize")
            [ store_global "scanned" (Reg "gi") (Reg "x") ]
            [];
          (* the block total is the last thread's inclusive value *)
          if_ (tid =: (bdim -: Int 1)) [ store_global "block_sums" bid (Reg "x") ] [];
        ];
  }

(* single-thread exclusive scan of the block sums *)
let scan_sums_kernel : Ir.kernel =
  let open Ir in
  {
    k_name = "scan_sums";
    k_params = [ ("NumBlocks", I32) ];
    k_arrays = [ ("block_sums", F32) ];
    k_shared = [];
    k_body =
      [
        let_ "acc" (Float 0.0);
        for_ "i" ~init:(Int 0)
          ~cond:(Reg "i" <: Param "NumBlocks")
          ~step:(Reg "i" +: Int 1)
          [
            load_global "s" "block_sums" (Reg "i");
            store_global "block_sums" (Reg "i") (Reg "acc");
            let_ "acc" (Reg "acc" +: Reg "s");
          ];
      ];
  }

let add_offsets_kernel : Ir.kernel =
  let open Ir in
  {
    k_name = "scan_add_offsets";
    k_params = [ ("SourceSize", I32) ];
    k_arrays = [ ("scanned", F32); ("block_sums", F32) ];
    k_shared = [];
    k_body =
      [
        let_ "gi" ((bid *: bdim) +: tid);
        if_
          (Reg "gi" <: Param "SourceSize")
          [
            load_global "off" "block_sums" bid;
            load_global "x" "scanned" (Reg "gi");
            store_global "scanned" (Reg "gi") (Reg "x" +: Reg "off");
          ]
          [];
      ];
  }

let compiled =
  lazy
    ( Gpusim.Compiled.compile scan_block_kernel,
      Gpusim.Compiled.compile scan_sums_kernel,
      Gpusim.Compiled.compile add_offsets_kernel )

type outcome = { scanned : float array; time_us : float }

(** Inclusive prefix sum of [input] on the simulated [arch]. *)
let inclusive ~(arch : Gpusim.Arch.t) (input : float array) : outcome =
  let opts = I.exact in
  List.iter Device_ir.Validate.check_kernel_exn
    [ scan_block_kernel; scan_sums_kernel; add_offsets_kernel ];
  (* the cleanup kernel runs one thread of one block; checking it at the
     default model geometry would invent threads that do not exist *)
  Device_ir.Diag.fail_on_errors
    (Device_ir.Race.check_kernel scan_block_kernel
    @ Device_ir.Race.check_kernel ~block:1 ~grid:1 scan_sums_kernel
    @ Device_ir.Race.check_kernel add_offsets_kernel);
  let n = Array.length input in
  if n = 0 then invalid_arg "Scan.inclusive: empty input";
  let grid = (n + block - 1) / block in
  let k1, k2, k3 = Lazy.force compiled in
  let input_b = I.make_buffer ~read_only:true ~ty:Ir.F32 ~id:0 input in
  let scanned = I.make_buffer ~ty:Ir.F32 ~id:1 (Array.make n 0.0) in
  let sums = I.make_buffer ~ty:Ir.F32 ~id:2 (Array.make grid 0.0) in
  let lr1 =
    I.run_kernel ~arch ~opts k1 ~grid ~block ~shared_elems:0
      ~globals:[| input_b; scanned; sums |]
      ~params:[| Gpusim.Value.VI n |]
  in
  let lr2 =
    I.run_kernel ~arch ~opts k2 ~grid:1 ~block:1 ~shared_elems:0 ~globals:[| sums |]
      ~params:[| Gpusim.Value.VI grid |]
  in
  let lr3 =
    I.run_kernel ~arch ~opts k3 ~grid ~block ~shared_elems:0
      ~globals:[| scanned; sums |]
      ~params:[| Gpusim.Value.VI n |]
  in
  let costs = List.map (Gpusim.Cost.of_launch arch) [ lr1; lr2; lr3 ] in
  { scanned = scanned.I.data; time_us = Gpusim.Cost.of_program arch ~n_inits:0 costs }

(** Exclusive scan, derived by shifting the inclusive result. *)
let exclusive ~arch (input : float array) : outcome =
  let o = inclusive ~arch input in
  let n = Array.length input in
  let shifted = Array.make n 0.0 in
  for i = 1 to n - 1 do
    shifted.(i) <- o.scanned.(i - 1)
  done;
  { o with scanned = shifted }

(** Host reference. *)
let reference (input : float array) : float array =
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    input
