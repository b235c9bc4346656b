(* Well-formedness checks for device-IR kernels and programs.

   The validator runs before either back end touches a program. It rejects:
   - references to undeclared arrays or parameters;
   - the register errors of {!Analysis.registers}: a register defined at
     two kinds, and a read that no definition reaches on every path;
   - barriers under thread-divergent control flow (the classic CUDA
     deadlock), using the taint analysis of {!Analysis};
   - malformed shuffles (bad sub-warp width) and vector loads (bad arity);
   - host-side launches of unknown kernels, argument-count mismatches and
     references to undeclared buffers. *)

type error = { where : string; what : string }

let error_to_string { where; what } = Printf.sprintf "%s: %s" where what

exception Invalid of error list

module SS = Set.Make (String)

let valid_shfl_width w = List.mem w [ 2; 4; 8; 16; 32 ]
let valid_vec_arity a = List.mem a [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Kernel checks                                                       *)
(* ------------------------------------------------------------------ *)

let check_kernel (k : Ir.kernel) : error list =
  let errs = ref [] in
  let err what = errs := { where = k.Ir.k_name; what } :: !errs in
  let params = SS.of_list (List.map fst k.Ir.k_params) in
  let garrays = SS.of_list (List.map fst k.Ir.k_arrays) in
  let sarrays = SS.of_list (List.map (fun d -> d.Ir.sh_name) k.Ir.k_shared) in
  (match
     List.find_opt (fun (n, _) -> SS.mem n garrays) k.Ir.k_params
   with
  | Some (n, _) -> err (Printf.sprintf "name %S is both a parameter and an array" n)
  | None -> ());
  let dyn_shared = List.filter (fun d -> d.Ir.sh_size = Ir.Dynamic_size) k.Ir.k_shared in
  if List.length dyn_shared > 1 then
    err "at most one dynamically-sized shared array is allowed";
  let check_arr space arr =
    match (space : Ir.space) with
    | Ir.Global ->
        if not (SS.mem arr garrays) then
          err (Printf.sprintf "undeclared global array %S" arr)
    | Ir.Shared ->
        if not (SS.mem arr sarrays) then
          err (Printf.sprintf "undeclared shared array %S" arr)
  in
  let rec check_exp (e : Ir.exp) =
    match e with
    | Ir.Int _ | Ir.Float _ | Ir.Bool _ | Ir.Special _ | Ir.Reg _ -> ()
    | Ir.Param p ->
        if not (SS.mem p params) then err (Printf.sprintf "undeclared parameter %S" p)
    | Ir.Unop (_, a) -> check_exp a
    | Ir.Binop (_, a, b) -> check_exp a; check_exp b
    | Ir.Select (c, a, b) -> check_exp c; check_exp a; check_exp b
  in
  let rec check_stmts ~tainted ~ctrl (body : Ir.stmt list) : unit =
    List.iter (check_stmt ~tainted ~ctrl) body
  and check_stmt ~tainted ~ctrl (s : Ir.stmt) : unit =
    match s with
    | Ir.Let (_, e) -> check_exp e
    | Ir.Load { space; arr; idx; _ } -> check_arr space arr; check_exp idx
    | Ir.Store { space; arr; idx; v } -> check_arr space arr; check_exp idx; check_exp v
    | Ir.Vec_load { dsts; arr; base } ->
        check_arr Ir.Global arr;
        check_exp base;
        if not (valid_vec_arity (List.length dsts)) then
          err "vector load arity must be 2 or 4"
    | Ir.Atomic { space; arr; idx; v; _ } ->
        check_arr space arr; check_exp idx; check_exp v
    | Ir.Shfl { v; lane; width; _ } ->
        check_exp v;
        check_exp lane;
        if not (valid_shfl_width width) then
          err (Printf.sprintf "invalid shuffle width %d" width);
        if ctrl = Analysis.Divergent then
          err "warp shuffle under lane-divergent control flow"
    | Ir.Sync ->
        if ctrl <> Analysis.Block_uniform then
          err "__syncthreads() under thread-divergent control flow"
    | Ir.Comment _ -> ()
    | Ir.If (c, t, e) ->
        check_exp c;
        let branch_ctrl =
          Analysis.join_level ctrl (Analysis.exp_level ~tainted c)
        in
        check_stmts ~tainted ~ctrl:branch_ctrl t;
        check_stmts ~tainted ~ctrl:branch_ctrl e
    | Ir.For { var; init; cond; step; body } ->
        check_exp init;
        check_exp cond;
        check_exp step;
        let loop_ctrl =
          Analysis.join_level ctrl
            (Analysis.join_level
               (Analysis.exp_level ~tainted init)
               (Analysis.exp_level ~tainted:(Analysis.SM.remove var tainted) cond))
        in
        check_stmts ~tainted ~ctrl:loop_ctrl body
    | Ir.While (c, body) ->
        check_exp c;
        let loop_ctrl = Analysis.join_level ctrl (Analysis.exp_level ~tainted c) in
        check_stmts ~tainted ~ctrl:loop_ctrl body
  in
  (* Divergence levels are computed over the whole body once (a sound
     over-approximation of any program point), then used to judge the
     control level of conditions. *)
  let tainted = Analysis.level_stmts Analysis.SM.empty k.Ir.k_body in
  check_stmts ~tainted ~ctrl:Analysis.Block_uniform k.Ir.k_body;
  (* a register with two kinds, or a read no definition reaches *)
  List.iter err (snd (Analysis.registers k));
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Program checks                                                      *)
(* ------------------------------------------------------------------ *)

let rec hexp_tunables (h : Ir.hexp) : string list =
  match h with
  | Ir.H_int _ | Ir.H_input_size -> []
  | Ir.H_tunable t -> [ t ]
  | Ir.H_add (a, b) | Ir.H_sub (a, b) | Ir.H_mul (a, b) | Ir.H_div (a, b)
  | Ir.H_ceil_div (a, b) | Ir.H_min (a, b) | Ir.H_max (a, b) ->
      hexp_tunables a @ hexp_tunables b

let check_program (p : Ir.program) : error list =
  let errs = ref [] in
  let err where what = errs := { where; what } :: !errs in
  let kernel_errs = List.concat_map check_kernel p.Ir.p_kernels in
  let buffers =
    SS.add "input" (SS.add "output" (SS.of_list (List.map (fun b -> b.Ir.buf_name) p.Ir.p_buffers)))
  in
  let tunables = SS.of_list (List.map fst p.Ir.p_tunables) in
  List.iter
    (fun (name, candidates) ->
      if candidates = [] then
        err p.Ir.p_name (Printf.sprintf "tunable %S has no candidate values" name))
    p.Ir.p_tunables;
  let check_hexp where h =
    List.iter
      (fun t ->
        if not (SS.mem t tunables) then
          err where (Printf.sprintf "undeclared tunable %S" t))
      (hexp_tunables h)
  in
  List.iter (fun b -> check_hexp ("buffer " ^ b.Ir.buf_name) b.Ir.buf_size) p.Ir.p_buffers;
  List.iteri
    (fun i (ln : Ir.launch) ->
      let where = Printf.sprintf "%s: launch #%d (%s)" p.Ir.p_name i ln.Ir.ln_kernel in
      check_hexp where ln.Ir.ln_grid;
      check_hexp where ln.Ir.ln_block;
      check_hexp where ln.Ir.ln_shared_elems;
      match List.find_opt (fun k -> k.Ir.k_name = ln.Ir.ln_kernel) p.Ir.p_kernels with
      | None -> err where "launch of unknown kernel"
      | Some k ->
          let expected = List.length k.Ir.k_arrays + List.length k.Ir.k_params in
          let got = List.length ln.Ir.ln_args in
          if expected <> got then
            err where (Printf.sprintf "kernel expects %d arguments, launch passes %d" expected got);
          let needs_dynamic =
            List.exists (fun d -> d.Ir.sh_size = Ir.Dynamic_size) k.Ir.k_shared
          in
          if (not needs_dynamic) && ln.Ir.ln_shared_elems <> Ir.H_int 0 then
            err where "dynamic shared memory passed to a kernel that declares none";
          List.iter
            (fun (a : Ir.harg) ->
              match a with
              | Ir.Arg_buffer b ->
                  if not (SS.mem b buffers) then
                    err where (Printf.sprintf "undeclared buffer %S" b)
              | Ir.Arg_scalar h -> check_hexp where h)
            ln.Ir.ln_args)
    p.Ir.p_launches;
  if not (SS.mem p.Ir.p_result buffers) then
    err p.Ir.p_name (Printf.sprintf "result buffer %S is not declared" p.Ir.p_result);
  kernel_errs @ List.rev !errs

(** Render validator errors as structured diagnostics ([TVAL001], error
    severity) so they print and serialize like the sanitizer's. *)
let to_diags (errs : error list) : Diag.t list =
  List.map
    (fun e ->
      Diag.make ~code:"TVAL001" ~severity:Diag.Error ~kernel:e.where e.what)
    errs

(** Validate and raise {!Invalid} on failure. *)
let check_program_exn (p : Ir.program) : unit =
  match check_program p with [] -> () | errs -> raise (Invalid errs)

let check_kernel_exn (k : Ir.kernel) : unit =
  match check_kernel k with [] -> () | errs -> raise (Invalid errs)
