(* Name resolution of device-IR kernels, shared by every kernel walker.

   The interpreter (through {!Gpusim.Compiled}), the access analyzer and
   race sanitizer ({!Access}, {!Race}) and the symbolic prover
   ({!Symbolic.Eval}) each run a kernel warp by warp, statement by
   statement. What does not depend on the values they compute is done
   here, once per kernel:

   - registers get dense slots, numbered in first-occurrence order of a
     traversal that resolves an expression's operands right to left (a
     register bit flip picks its target by slot);
   - parameters and global and shared arrays get their declaration
     slots, or whatever [unknown] answers for an undeclared name;
   - each structured statement records whether it contains a barrier;
   - each memory access and barrier carries its location path
     (["body[3].then[0]"], counting comments, which are dropped), named
     by {!Analysis.stmt_loc} and {!Analysis.arm_path} as the race
     sanitizer's static diagnostics name it;
   - loops [for (v = init; v < bound; v = v + stride)] with a positive
     constant stride and a loop-invariant bound are marked affine.

   Expressions come out in slot form too and go through the walker's
   own compiler; execution stays with each walker. The two executors,
   the interpreter and the symbolic evaluator, also take a launch's
   shape check ({!launch_error}) and shared-array sizing
   ({!shared_size}) from here. *)

(** An expression with its names resolved to slots; [Reg] and [Param]
    keep the name beside the slot. *)

type exp =
  | Int of int
  | Float of float
  | Bool of bool
  | Reg of int * string
  | Param of int * string
  | Special of Ir.special
  | Unop of Ir.unop * exp
  | Binop of Ir.binop * exp * exp
  | Select of exp * exp * exp

(** An array operand: its space, its declaration slot among the
    kernel's global or shared arrays, and its name. *)
type array_ref = { a_space : Ir.space; a_slot : int; a_name : string }

(** [for (v = init; v < bound; v = v + stride)] with a positive constant
    stride and a bound no register of the loop assigns. *)
type 'e affine = { af_bound : 'e; af_stride : int }

(** A statement over compiled expressions ['e]. Register operands are
    slots; [at_dst] is -1 when an atomic discards the old value. The
    [*_loc] fields and [Sync]'s argument are location paths; the
    [*_sync] flags say whether a barrier occurs anywhere inside. *)
type 'e stmt =
  | Let of int * 'e
  | Load of { l_arr : array_ref; l_dst : int; l_idx : 'e; l_loc : string }
  | Store of { st_arr : array_ref; st_idx : 'e; st_v : 'e; st_loc : string }
  | Vec_load of {
      vl_dsts : int array;
      vl_arr : array_ref;
      vl_base : 'e;
      vl_loc : string;
    }
  | Atomic of {
      at_dst : int;
      at_arr : array_ref;
      at_op : Ir.atomic_op;
      at_scope : Ir.scope;
      at_idx : 'e;
      at_v : 'e;
      at_loc : string;
    }
  | Shfl of {
      sh_dst : int;
      sh_mode : Ir.shuffle_mode;
      sh_v : 'e;
      sh_lane : 'e;
      sh_width : int;
    }
  | Sync of string
  | If of { if_cond : 'e; if_then : 'e stmt array; if_else : 'e stmt array; if_sync : bool }
  | For of {
      f_var : int;
      f_init : 'e;
      f_cond : 'e;
      f_step : 'e;
      f_body : 'e stmt array;
      f_sync : bool;
      f_affine : 'e affine option;
    }
  | While of { w_cond : 'e; w_body : 'e stmt array; w_sync : bool }

type 'e kernel = {
  rk_name : string;
  rk_nregs : int;
  rk_reg_names : string array;  (** slot -> name, for diagnostics *)
  rk_params : (string * Ir.scalar) array;
  rk_arrays : (string * Ir.scalar) array;
  rk_shared : Ir.shared_decl array;
  rk_body : 'e stmt array;
}

(** Whether the statement is, or contains, a barrier: it must then run
    block-wide rather than warp by warp. *)
let has_sync (s : 'e stmt) : bool =
  match s with
  | Sync _ -> true
  | If { if_sync; _ } -> if_sync
  | For { f_sync; _ } -> f_sync
  | While { w_sync; _ } -> w_sync
  | Let _ | Load _ | Store _ | Vec_load _ | Atomic _ | Shfl _ -> false

(** The kernel with every compiled expression mapped through [f]. *)
let map (f : 'a -> 'b) (k : 'a kernel) : 'b kernel =
  let rec stmt (s : 'a stmt) : 'b stmt =
    match s with
    | Let (d, e) -> Let (d, f e)
    | Load { l_arr; l_dst; l_idx; l_loc } -> Load { l_arr; l_dst; l_idx = f l_idx; l_loc }
    | Store { st_arr; st_idx; st_v; st_loc } ->
        Store { st_arr; st_idx = f st_idx; st_v = f st_v; st_loc }
    | Vec_load { vl_dsts; vl_arr; vl_base; vl_loc } ->
        Vec_load { vl_dsts; vl_arr; vl_base = f vl_base; vl_loc }
    | Atomic { at_dst; at_arr; at_op; at_scope; at_idx; at_v; at_loc } ->
        Atomic { at_dst; at_arr; at_op; at_scope; at_idx = f at_idx; at_v = f at_v; at_loc }
    | Shfl { sh_dst; sh_mode; sh_v; sh_lane; sh_width } ->
        Shfl { sh_dst; sh_mode; sh_v = f sh_v; sh_lane = f sh_lane; sh_width }
    | Sync loc -> Sync loc
    | If { if_cond; if_then; if_else; if_sync } ->
        If { if_cond = f if_cond; if_then = body if_then; if_else = body if_else; if_sync }
    | For { f_var; f_init; f_cond; f_step; f_body; f_sync; f_affine } ->
        For
          {
            f_var;
            f_init = f f_init;
            f_cond = f f_cond;
            f_step = f f_step;
            f_body = body f_body;
            f_sync;
            f_affine =
              Option.map (fun a -> { af_bound = f a.af_bound; af_stride = a.af_stride }) f_affine;
          }
    | While { w_cond; w_body; w_sync } ->
        While { w_cond = f w_cond; w_body = body w_body; w_sync }
  and body (ss : 'a stmt array) : 'b stmt array = Array.map stmt ss in
  { k with rk_body = body k.rk_body }

(** Resolve a kernel, compiling every expression with [compile].
    [unknown what name] gives the slot of an undeclared ["parameter"],
    ["global array"] or ["shared array"]; it defaults to -1, and may
    raise instead. *)
let kernel ?(unknown = fun _ _ -> -1) (compile : exp -> 'e) (k : Ir.kernel) :
    'e kernel =
  let regs : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let reg_names = ref [] in
  let reg name =
    match Hashtbl.find_opt regs name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length regs in
        Hashtbl.add regs name i;
        reg_names := name :: !reg_names;
        i
  in
  let params = Array.of_list k.Ir.k_params in
  let arrays = Array.of_list k.Ir.k_arrays in
  let shared = Array.of_list k.Ir.k_shared in
  let slot what names name =
    let rec go i =
      if i >= Array.length names then unknown what name
      else if names.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let param_slot = slot "parameter" (Array.map fst params) in
  let global_slot = slot "global array" (Array.map fst arrays) in
  let shared_slot = slot "shared array" (Array.map (fun d -> d.Ir.sh_name) shared) in
  let array_ref (space : Ir.space) name =
    let a_slot =
      match space with Ir.Global -> global_slot name | Ir.Shared -> shared_slot name
    in
    { a_space = space; a_slot; a_name = name }
  in
  let rec exp (e : Ir.exp) : exp =
    match e with
    | Ir.Int n -> Int n
    | Ir.Float f -> Float f
    | Ir.Bool b -> Bool b
    | Ir.Reg r -> Reg (reg r, r)
    | Ir.Param p -> Param (param_slot p, p)
    | Ir.Special s -> Special s
    | Ir.Unop (op, a) -> Unop (op, exp a)
    | Ir.Binop (op, a, b) ->
        let b = exp b in
        let a = exp a in
        Binop (op, a, b)
    | Ir.Select (c, a, b) ->
        let b = exp b in
        let a = exp a in
        let c = exp c in
        Select (c, a, b)
  in
  let cexp e = compile (exp e) in
  (* loop-invariance of the bound: no register assigned inside the body
     occurs in it (the iterator itself included) *)
  let affine ~var ~body (cond : Ir.exp) (step : Ir.exp) =
    match (cond, step) with
    | Ir.Binop (Ir.Lt, Ir.Reg v, bound), Ir.Binop (Ir.Add, Ir.Reg v', Ir.Int s)
      when v = var && v' = var && s > 0 ->
        let defs = Analysis.SS.add var (Analysis.all_defs body) in
        if Analysis.SS.disjoint defs (Analysis.exp_uses bound) then
          Some { af_bound = cexp bound; af_stride = s }
        else None
    | _ -> None
  in
  let syncs = List.exists Analysis.contains_sync in
  let rec stmt (loc : string) (s : Ir.stmt) : 'e stmt option =
    match s with
    | Ir.Comment _ -> None
    | Ir.Let (r, e) ->
        let e = cexp e in
        Some (Let (reg r, e))
    | Ir.Load { dst; space; arr; idx } ->
        let l_idx = cexp idx in
        let l_dst = reg dst in
        Some (Load { l_arr = array_ref space arr; l_dst; l_idx; l_loc = loc })
    | Ir.Store { space; arr; idx; v } ->
        let st_v = cexp v in
        let st_idx = cexp idx in
        Some (Store { st_arr = array_ref space arr; st_idx; st_v; st_loc = loc })
    | Ir.Vec_load { dsts; arr; base } ->
        let vl_base = cexp base in
        let vl_dsts = Array.of_list (List.map reg dsts) in
        Some
          (Vec_load
             { vl_dsts; vl_arr = array_ref Ir.Global arr; vl_base; vl_loc = loc })
    | Ir.Atomic { dst; space; op; scope; arr; idx; v } ->
        let at_v = cexp v in
        let at_idx = cexp idx in
        let at_arr = array_ref space arr in
        let at_dst = match dst with Some d -> reg d | None -> -1 in
        Some
          (Atomic
             { at_dst; at_arr; at_op = op; at_scope = scope; at_idx; at_v; at_loc = loc })
    | Ir.Shfl { dst; mode; v; lane; width } ->
        let sh_v = cexp v in
        let sh_lane = cexp lane in
        Some (Shfl { sh_dst = reg dst; sh_mode = mode; sh_v; sh_lane; sh_width = width })
    | Ir.Sync -> Some (Sync loc)
    | Ir.If (c, t, e) ->
        let if_cond = cexp c in
        let if_then = stmts (Analysis.arm_path loc Analysis.Then) t in
        let if_else = stmts (Analysis.arm_path loc Analysis.Else) e in
        Some (If { if_cond; if_then; if_else; if_sync = syncs t || syncs e })
    | Ir.For { var; init; cond; step; body } ->
        let f_affine = affine ~var ~body cond step in
        let f_init = cexp init in
        let f_var = reg var in
        let f_cond = cexp cond in
        let f_step = cexp step in
        let f_body = stmts (Analysis.arm_path loc Analysis.Loop_body) body in
        Some (For { f_var; f_init; f_cond; f_step; f_body; f_sync = syncs body; f_affine })
    | Ir.While (c, body) ->
        let w_cond = cexp c in
        let w_body = stmts (Analysis.arm_path loc Analysis.Loop_body) body in
        Some (While { w_cond; w_body; w_sync = syncs body })
  and stmts (path : string) (body : Ir.stmt list) : 'e stmt array =
    let i = ref (-1) in
    Array.of_list
      (List.filter_map
         (fun s ->
           incr i;
           stmt (Analysis.stmt_loc path !i) s)
         body)
  in
  let body = stmts Analysis.body_path k.Ir.k_body in
  {
    rk_name = k.Ir.k_name;
    rk_nregs = Hashtbl.length regs;
    rk_reg_names = Array.of_list (List.rev !reg_names);
    rk_params = params;
    rk_arrays = arrays;
    rk_shared = shared;
    rk_body = body;
  }

(** The launch-shape error the interpreter and the symbolic evaluator
    both report, or [None]: a grid of at least one block, a block of 1
    to [max_block] threads, and [arrays] array bindings and [params]
    scalar parameters for the kernel's declarations. *)
let launch_error (k : 'e kernel) ~(grid : int) ~(block : int) ~(max_block : int)
    ~(arrays : int) ~(params : int) : string option =
  let name = k.rk_name in
  if grid < 1 then Some (Printf.sprintf "%s: empty grid" name)
  else if block < 1 || block > max_block then
    Some (Printf.sprintf "%s: block size %d out of range [1, %d]" name block max_block)
  else if arrays <> Array.length k.rk_arrays then
    Some
      (Printf.sprintf "%s: expected %d array bindings, got %d" name
         (Array.length k.rk_arrays) arrays)
  else if params <> Array.length k.rk_params then
    Some
      (Printf.sprintf "%s: expected %d scalar parameters, got %d" name
         (Array.length k.rk_params) params)
  else None

(** A shared array's element count at a launch that passes
    [shared_elems] dynamic elements. *)
let shared_size ~(shared_elems : int) (d : Ir.shared_decl) : int =
  match d.Ir.sh_size with Ir.Static_size n -> n | Ir.Dynamic_size -> shared_elems
