(* Loop unrolling — the other advanced optimisation the paper defers to
   future work ("We can use similar pre-processing steps with AST passes to
   enable other advanced optimizations, such as loop unrolling [34]",
   Section III-A).

   This pass operates on the device IR after lowering. A loop is fully
   unrolled when its trip count is a compile-time constant: the iterator is
   initialised to a literal, the condition compares the iterator against a
   literal, and the step is an affine/geometric update by a literal. The
   tree-reduction loops the synthesis emits ([for (off = 16; off > 0;
   off /= 2)]) are exactly this shape, with five iterations; unrolling them
   removes the per-iteration branch and iterator update, and lets every
   iteration's shuffle issue back to back.

   Loops whose bounds involve kernel parameters (the serial accumulation
   loops) are left alone — their trip count is a run-time quantity.

   [max_trip] bounds the code growth (default 64 unrolled iterations per
   loop). *)

exception Not_constant

(* evaluate a closed integer expression *)
let rec const_int (e : Ir.exp) : int =
  match e with
  | Ir.Int n -> n
  | Ir.Unop (Ir.Neg, a) -> -const_int a
  | Ir.Binop (op, a, b) -> (
      let a = const_int a and b = const_int b in
      match op with
      | Ir.Div when b = 0 -> raise Not_constant
      | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Shl | Ir.Shr -> Ir.eval_binop op a b
      | _ -> raise Not_constant)
  | Ir.Float _ | Ir.Bool _ | Ir.Reg _ | Ir.Param _ | Ir.Special _
  | Ir.Unop (_, _) | Ir.Select _ ->
      raise Not_constant

(* evaluate a condition/step that mentions only the iterator [var], given
   its current value *)
let rec eval_with (var : string) (value : int) (e : Ir.exp) : int =
  match e with
  | Ir.Reg r when r = var -> value
  | Ir.Int n -> n
  | Ir.Bool b -> if b then 1 else 0
  | Ir.Unop (Ir.Neg, a) -> -eval_with var value a
  | Ir.Unop (Ir.Lnot, a) -> if eval_with var value a = 0 then 1 else 0
  | Ir.Binop (op, a, b) -> (
      let a = eval_with var value a and b = eval_with var value b in
      match op with
      | (Ir.Div | Ir.Rem) when b = 0 -> raise Not_constant
      | Ir.And | Ir.Or | Ir.Xor -> raise Not_constant
      | op -> Ir.eval_binop op a b)
  | Ir.Float _ | Ir.Reg _ | Ir.Param _ | Ir.Special _ | Ir.Unop (Ir.Bnot, _)
  | Ir.Select _ ->
      raise Not_constant

(* the iterator values a constant loop visits, or None *)
let trip_values ~(max_trip : int) (var : string) ~(init : Ir.exp) ~(cond : Ir.exp)
    ~(step : Ir.exp) : int list option =
  match const_int init with
  | exception Not_constant -> None
  | v0 -> (
      try
        let rec go v acc n =
          if n > max_trip then raise Not_constant
          else if eval_with var v cond = 0 then List.rev acc
          else
            let v' = eval_with var v step in
            if v' = v then raise Not_constant (* no progress: would not end *)
            else go v' (v :: acc) (n + 1)
        in
        Some (go v0 [] 0)
      with Not_constant -> None)

(* substitute the iterator's literal value for its register *)
let rec subst_exp (var : string) (value : int) (e : Ir.exp) : Ir.exp =
  match e with
  | Ir.Reg r when r = var -> Ir.Int value
  | Ir.Int _ | Ir.Float _ | Ir.Bool _ | Ir.Reg _ | Ir.Param _ | Ir.Special _ -> e
  | Ir.Unop (op, a) -> Ir.Unop (op, subst_exp var value a)
  | Ir.Binop (op, a, b) -> Ir.Binop (op, subst_exp var value a, subst_exp var value b)
  | Ir.Select (c, a, b) ->
      Ir.Select (subst_exp var value c, subst_exp var value a, subst_exp var value b)

let rec subst_stmt (var : string) (value : int) (s : Ir.stmt) : Ir.stmt =
  let sub = subst_exp var value in
  match s with
  | Ir.Let (r, e) -> Ir.Let (r, sub e)
  | Ir.Load { dst; space; arr; idx } -> Ir.Load { dst; space; arr; idx = sub idx }
  | Ir.Store { space; arr; idx; v } -> Ir.Store { space; arr; idx = sub idx; v = sub v }
  | Ir.Vec_load { dsts; arr; base } -> Ir.Vec_load { dsts; arr; base = sub base }
  | Ir.Atomic { dst; space; op; scope; arr; idx; v } ->
      Ir.Atomic { dst; space; op; scope; arr; idx = sub idx; v = sub v }
  | Ir.Shfl { dst; mode; v; lane; width } ->
      Ir.Shfl { dst; mode; v = sub v; lane = sub lane; width }
  | Ir.Sync | Ir.Comment _ -> s
  | Ir.If (c, t, e) ->
      Ir.If (sub c, List.map (subst_stmt var value) t, List.map (subst_stmt var value) e)
  | Ir.For { var = v'; init; cond; step; body } ->
      if v' = var then s  (* shadowed: leave the inner loop untouched *)
      else
        Ir.For
          {
            var = v';
            init = sub init;
            cond = sub cond;
            step = sub step;
            body = List.map (subst_stmt var value) body;
          }
  | Ir.While (c, body) -> Ir.While (sub c, List.map (subst_stmt var value) body)

type report = { unrolled_loops : int; emitted_iterations : int }

(** Fully unroll every constant-trip loop of [body] (recursively; innermost
    first so nested constant loops multiply out). *)
let rec unroll_stmts ~(max_trip : int) (report : report ref) (body : Ir.stmt list) :
    Ir.stmt list =
  List.concat_map
    (fun (s : Ir.stmt) ->
      match s with
      | Ir.For { var; init; cond; step; body = loop_body } -> (
          let loop_body = unroll_stmts ~max_trip report loop_body in
          match trip_values ~max_trip var ~init ~cond ~step with
          | Some values ->
              report :=
                { unrolled_loops = !report.unrolled_loops + 1;
                  emitted_iterations = !report.emitted_iterations + List.length values };
              List.concat_map
                (fun v -> List.map (subst_stmt var v) loop_body)
                values
          | None -> [ Ir.For { var; init; cond; step; body = loop_body } ])
      | Ir.If (c, t, e) ->
          [ Ir.If (c, unroll_stmts ~max_trip report t, unroll_stmts ~max_trip report e) ]
      | Ir.While (c, b) -> [ Ir.While (c, unroll_stmts ~max_trip report b) ]
      | Ir.Let _ | Ir.Load _ | Ir.Store _ | Ir.Vec_load _ | Ir.Atomic _ | Ir.Shfl _
      | Ir.Sync | Ir.Comment _ ->
          [ s ])
    body

let kernel ?(max_trip = 64) (k : Ir.kernel) : Ir.kernel * report =
  let report = ref { unrolled_loops = 0; emitted_iterations = 0 } in
  let body = unroll_stmts ~max_trip report k.Ir.k_body in
  ({ k with Ir.k_body = body }, !report)

(** Unroll every kernel of a program. *)
let program ?(max_trip = 64) (p : Ir.program) : Ir.program * report =
  let total = ref { unrolled_loops = 0; emitted_iterations = 0 } in
  let kernels =
    List.map
      (fun k ->
        let k', r = kernel ~max_trip k in
        total :=
          { unrolled_loops = !total.unrolled_loops + r.unrolled_loops;
            emitted_iterations = !total.emitted_iterations + r.emitted_iterations };
        k')
      p.Ir.p_kernels
  in
  ({ p with Ir.p_kernels = kernels }, !total)
