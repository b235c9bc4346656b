(* Static-vs-observed calibration: the harness behind [tangramc access].

   Per version: compile through the planner's memo (validated and
   race-checked once, whatever the number of architectures), analyze
   statically (Device_ir.Access + Cost.of_static), run the interpreter
   exactly at the same geometry, compare transaction and replay
   totals, then look for version pairs whose cost ranking
   flips between the two pricings — a misranked pair is exactly the case
   where a tuner trusting the static model would pick the wrong code
   version. *)

module Access = Device_ir.Access
module Counters = Device_ir.Counters

type row = {
  r_version : Version.t;
  r_pred : Counters.t;
  r_obs : Counters.t;
  r_static_us : float;
  r_obs_us : float;
  r_trans_err : float;
  r_serial_err : float;
  r_insts_err : float;
  r_approx : bool;
  r_diags : Device_ir.Diag.t list;
}

type flip = {
  fl_fast : string;
  fl_slow : string;
  fl_static_gap : float;
  fl_obs_gap : float;
}

type report = {
  cr_arch : Gpusim.Arch.t;
  cr_n : int;
  cr_rows : row list;
  cr_skipped : string list;
  cr_flips : flip list;
  cr_mean_trans_err : float;
  cr_max_trans_err : float;
  cr_mean_serial_err : float;
  cr_max_serial_err : float;
}

let rel_err pred obs = Float.abs (pred -. obs) /. Float.max obs 1.0

let global_trans (c : Counters.t) : float =
  c.Counters.t_gld_trans +. c.Counters.t_gst_trans

let calibrate ?(n = 16384) ?(margin = 0.1) ~(arch : Gpusim.Arch.t)
    (plan : Planner.t) (versions : Version.t list) : report =
  let input =
    Gpusim.Runner.Dense (Array.init n (fun i -> float_of_int (i land 7)))
  in
  let rows = ref [] and skipped = ref [] in
  List.iter
    (fun v ->
      match
        let cp = Planner.compiled plan v in
        let p = cp.Gpusim.Runner.cp_program in
        let o =
          Gpusim.Runner.run_compiled ~opts:Gpusim.Interp.exact ~arch ~input cp
        in
        let an = Access.analyze ~n p in
        let n_inits =
          List.length
            (List.filter
               (fun (b : Device_ir.Ir.buffer) -> b.Device_ir.Ir.buf_init <> None)
               p.Device_ir.Ir.p_buffers)
        in
        let static_us = Gpusim.Cost.of_static_program arch ~n_inits an in
        (o, an, static_us)
      with
      | o, an, static_us ->
          let pred =
            Counters.sum
              (List.map (fun lp -> lp.Access.lp_totals) an.Access.an_launches)
          in
          let obs =
            Gpusim.Events.totals_of_list
              (List.map
                 (fun (lr : Gpusim.Interp.launch_result) ->
                   lr.Gpusim.Interp.lr_events)
                 o.Gpusim.Runner.launch_results)
          in
          let err f = rel_err (f pred) (f obs) in
          rows :=
            {
              r_version = v;
              r_pred = pred;
              r_obs = obs;
              r_static_us = static_us;
              r_obs_us = o.Gpusim.Runner.time_us;
              r_trans_err = err global_trans;
              r_serial_err = err (fun c -> c.Counters.t_shared_serial);
              r_insts_err = err (fun c -> c.Counters.t_warp_insts);
              r_approx = an.Access.an_approx;
              r_diags = an.Access.an_diags;
            }
            :: !rows
      | exception Gpusim.Interp.Sim_error _ -> skipped := Version.name v :: !skipped
      | exception Device_ir.Validate.Invalid _ ->
          skipped := Version.name v :: !skipped
      | exception Device_ir.Race.Racy _ -> skipped := Version.name v :: !skipped
      | exception Invalid_argument _ -> skipped := Version.name v :: !skipped)
    versions;
  let rows = List.rev !rows in
  (* ranking flips: static says a beats b by > margin, observed says b
     beats a by > margin *)
  let flips = ref [] in
  let arr = Array.of_list rows in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let a = arr.(i) and b = arr.(j) in
      let check fast slow =
        (* [fast] statically cheaper by > margin... *)
        if
          slow.r_static_us > fast.r_static_us *. (1.0 +. margin)
          (* ...but observed slower-than [slow] by > margin *)
          && fast.r_obs_us > slow.r_obs_us *. (1.0 +. margin)
        then
          flips :=
            {
              fl_fast = Version.name fast.r_version;
              fl_slow = Version.name slow.r_version;
              fl_static_gap = (slow.r_static_us /. Float.max fast.r_static_us 1e-9) -. 1.0;
              fl_obs_gap = (fast.r_obs_us /. Float.max slow.r_obs_us 1e-9) -. 1.0;
            }
            :: !flips
      in
      check a b;
      check b a
    done
  done;
  let mean f =
    match rows with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc r -> acc +. f r) 0.0 rows
        /. float_of_int (List.length rows)
  in
  let maxi f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 rows in
  {
    cr_arch = arch;
    cr_n = n;
    cr_rows = rows;
    cr_skipped = List.rev !skipped;
    cr_flips = List.rev !flips;
    cr_mean_trans_err = mean (fun r -> r.r_trans_err);
    cr_max_trans_err = maxi (fun r -> r.r_trans_err);
    cr_mean_serial_err = mean (fun r -> r.r_serial_err);
    cr_max_serial_err = maxi (fun r -> r.r_serial_err);
  }

let calibrate_all ?n ?margin ~(archs : Gpusim.Arch.t list) (plan : Planner.t)
    (versions : Version.t list) : report list =
  List.map (fun arch -> calibrate ?n ?margin ~arch plan versions) archs

let row_json (r : row) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Str (Version.name r.r_version));
      ("pred_trans", Obs.Json.Num (global_trans r.r_pred));
      ("obs_trans", Obs.Json.Num (global_trans r.r_obs));
      ("pred_serial", Obs.Json.Num r.r_pred.Counters.t_shared_serial);
      ("obs_serial", Obs.Json.Num r.r_obs.Counters.t_shared_serial);
      ("pred_insts", Obs.Json.Num r.r_pred.Counters.t_warp_insts);
      ("obs_insts", Obs.Json.Num r.r_obs.Counters.t_warp_insts);
      ("static_us", Obs.Json.Num r.r_static_us);
      ("obs_us", Obs.Json.Num r.r_obs_us);
      ("trans_err", Obs.Json.Num r.r_trans_err);
      ("serial_err", Obs.Json.Num r.r_serial_err);
      ("insts_err", Obs.Json.Num r.r_insts_err);
      ("approx", Obs.Json.Bool r.r_approx);
      ("tperf", Device_ir.Diag.list_json r.r_diags);
    ]

let flip_json (f : flip) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("static_fast", Obs.Json.Str f.fl_fast);
      ("static_slow", Obs.Json.Str f.fl_slow);
      ("static_gap", Obs.Json.Num f.fl_static_gap);
      ("obs_gap", Obs.Json.Num f.fl_obs_gap);
    ]

let report_json (r : report) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("arch", Obs.Json.Str r.cr_arch.Gpusim.Arch.name);
      ("n", Obs.Json.Num (float_of_int r.cr_n));
      ("versions", Obs.Json.Num (float_of_int (List.length r.cr_rows)));
      ("skipped", Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) r.cr_skipped));
      ("mean_trans_err", Obs.Json.Num r.cr_mean_trans_err);
      ("max_trans_err", Obs.Json.Num r.cr_max_trans_err);
      ("mean_serial_err", Obs.Json.Num r.cr_mean_serial_err);
      ("max_serial_err", Obs.Json.Num r.cr_max_serial_err);
      ("ranking_flips", Obs.Json.Arr (List.map flip_json r.cr_flips));
      ("rows", Obs.Json.Arr (List.map row_json r.cr_rows));
    ]

let reports_json (rs : report list) : Obs.Json.t =
  Obs.Json.Arr (List.map report_json rs)
