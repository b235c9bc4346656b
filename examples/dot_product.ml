(* Dot product: a fused map+reduce written directly against the device IR
   and the simulator, exercising the same warp-shuffle and atomic
   primitives the synthesis pipeline generates.

   Run with: dune exec examples/dot_product.exe

   The kernel multiplies two vectors element-wise in registers (the "map"),
   reduces per-thread partials with a shuffle tree, combines warp partials
   through shared memory, and finishes with one device-scope atomicAdd per
   block — i.e. the shape of the paper's Figure 6 version (m) extended to
   two input containers. *)

module Ir = Tangram.Ir

let block = 256

let kernel : Ir.kernel =
  let open Ir in
  let shfl_tree acc =
    [
      for_halving "off" ~from:(Int 16)
        [
          shfl_down "t" (Reg acc) (Reg "off") ~width:32;
          let_ acc (Reg acc +: Reg "t");
        ];
    ]
  in
  {
    k_name = "dot_product";
    k_params = [ ("SourceSize", I32); ("Trip", I32) ];
    k_arrays = [ ("a", F32); ("b", F32); ("out", F32) ];
    k_shared = [ { sh_name = "warp_part"; sh_ty = F32; sh_size = Static_size 32 } ];
    k_body =
      [
        if_ (tid <: Int 32) [ store_shared "warp_part" tid (Float 0.0) ] [];
        Sync;
        let_ "acc" (Float 0.0);
        for_ "it" ~init:(Int 0)
          ~cond:(Reg "it" <: Param "Trip")
          ~step:(Reg "it" +: Int 1)
          [
            let_ "gi" ((Reg "it" *: (gdim *: bdim)) +: ((bid *: bdim) +: tid));
            if_
              (Reg "gi" <: Param "SourceSize")
              [
                load_global "xa" "a" (Reg "gi");
                load_global "xb" "b" (Reg "gi");
                let_ "acc" (Reg "acc" +: (Reg "xa" *: Reg "xb"));
              ]
              [];
          ];
      ]
      @ shfl_tree "acc"
      @ [
          if_ (lane_id =: Int 0) [ store_shared "warp_part" warp_id (Reg "acc") ] [];
          Sync;
          if_ (warp_id =: Int 0)
            ([
               let_ "w" (Float 0.0);
               if_ (lane_id <: (bdim /: warp_size)) [ load_shared "w" "warp_part" lane_id ] [];
               let_ "acc" (Reg "w");
             ]
            @ shfl_tree "acc")
            [];
          if_ (tid =: Int 0)
            [ atomic ~space:Global ~op:A_add "out" (Int 0) (Reg "acc") ]
            [];
        ];
  }

let () =
  let n = 1 lsl 20 in
  let a = Array.init n (fun i -> cos (float_of_int i *. 0.001)) in
  let b = Array.init n (fun i -> sin (float_of_int i *. 0.002)) in
  let reference = ref 0.0 in
  for i = 0 to n - 1 do
    reference := !reference +. (a.(i) *. b.(i))
  done;
  Tangram.Validate.check_kernel_exn kernel;
  List.iter
    (fun arch ->
      let compiled = Tangram.Compiled.compile kernel in
      let grid = arch.Tangram.Arch.sms * 8 in
      let trip = (n + (grid * block) - 1) / (grid * block) in
      let ba = Tangram.Interp.make_buffer ~read_only:true ~ty:Ir.F32 ~id:0 a in
      let bb = Tangram.Interp.make_buffer ~read_only:true ~ty:Ir.F32 ~id:1 b in
      let out = Tangram.Interp.make_buffer ~ty:Ir.F32 ~id:2 (Array.make 1 0.0) in
      let lr =
        Tangram.Interp.run_kernel ~arch ~opts:Tangram.Interp.exact compiled ~grid
          ~block ~shared_elems:0
          ~globals:[| ba; bb; out |]
          ~params:[| Tangram.Value.VI n; Tangram.Value.VI trip |]
      in
      let cost = Tangram.Cost.of_launch arch lr in
      let result = out.Tangram.Interp.data.(0) in
      let ok = Float.abs (result -. !reference) < 1e-2 *. (1.0 +. Float.abs !reference) in
      Printf.printf "%-10s dot = %.6f (reference %.6f)  %.2f us  %s\n"
        arch.Tangram.Arch.generation result !reference cost.Tangram.Cost.time_us
        (if ok then "OK" else "WRONG");
      assert ok)
    Tangram.Arch.presets
