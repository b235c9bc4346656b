(* Static analyses over the device IR.

   Three analyses are provided:

   - barrier placement ([contains_sync]), which {!Resolve} records so the
     walkers know whether a statement must be executed block-wide or can
     be run warp-by-warp;
   - a thread-uniformity taint analysis ([exp_level]): an expression is
     block-uniform when its value is provably identical for every thread of
     a block. Barriers are only legal under block-uniform control flow;
   - def/use scans used by the resolver and the CUDA emitter;
   - register kinds ([registers]): the one rule by which the validator,
     the interpreter's compiler and both code emitters give every
     register its kind, and reject a register with two kinds or a read
     that no definition reaches. *)

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)
(* ------------------------------------------------------------------ *)

let rec contains_sync (s : Ir.stmt) : bool =
  match s with
  | Ir.Sync -> true
  | Ir.If (_, t, e) -> List.exists contains_sync t || List.exists contains_sync e
  | Ir.For { body; _ } | Ir.While (_, body) -> List.exists contains_sync body
  | Ir.Let _ | Ir.Load _ | Ir.Store _ | Ir.Vec_load _ | Ir.Atomic _ | Ir.Shfl _
  | Ir.Comment _ ->
      false

(* ------------------------------------------------------------------ *)
(* Uniformity                                                          *)
(* ------------------------------------------------------------------ *)

(** Divergence lattice: a value (or a control-flow context) is
    [Block_uniform] when identical across the whole block, [Warp_uniform]
    when identical within each warp (e.g. anything derived from
    [Warp_id]), and [Divergent] otherwise. Barriers require block-uniform
    control; warp shuffles tolerate warp-uniform control. *)
type level = Block_uniform | Warp_uniform | Divergent

let join_level (a : level) (b : level) : level =
  match (a, b) with
  | Divergent, _ | _, Divergent -> Divergent
  | Warp_uniform, _ | _, Warp_uniform -> Warp_uniform
  | Block_uniform, Block_uniform -> Block_uniform

module SM = Map.Make (String)

(** Divergence level of an expression given per-register levels [tainted]
    (absent registers are block-uniform). *)
let rec exp_level ~(tainted : level SM.t) (e : Ir.exp) : level =
  match e with
  | Ir.Int _ | Ir.Float _ | Ir.Bool _ | Ir.Param _ -> Block_uniform
  | Ir.Special (Ir.Block_idx | Ir.Block_dim | Ir.Grid_dim | Ir.Warp_size) ->
      Block_uniform
  | Ir.Special Ir.Warp_id -> Warp_uniform
  | Ir.Special (Ir.Thread_idx | Ir.Lane_id) -> Divergent
  | Ir.Reg r -> ( match SM.find_opt r tainted with Some l -> l | None -> Block_uniform)
  | Ir.Unop (_, a) -> exp_level ~tainted a
  | Ir.Binop (_, a, b) -> join_level (exp_level ~tainted a) (exp_level ~tainted b)
  | Ir.Select (c, a, b) ->
      join_level (exp_level ~tainted c)
        (join_level (exp_level ~tainted a) (exp_level ~tainted b))

let raise_to (l : level) (r : string) (m : level SM.t) : level SM.t =
  match SM.find_opt r m with
  | Some l' -> SM.add r (join_level l l') m
  | None -> SM.add r l m

(** Propagate divergence levels through a statement list: a register
    assigned from an expression of level L — under control flow of level C
    — gets level [join L C]; registers loaded from memory are conservatively
    divergent (the cells may have been written thread-dependently). *)
let level_stmts (init : level SM.t) (body : Ir.stmt list) : level SM.t =
  let rec go ~ctrl tainted (s : Ir.stmt) =
    match s with
    | Ir.Let (r, e) -> raise_to (join_level ctrl (exp_level ~tainted e)) r tainted
    | Ir.Load { dst; _ } -> raise_to Divergent dst tainted
    | Ir.Vec_load { dsts; _ } ->
        List.fold_left (fun t d -> raise_to Divergent d t) tainted dsts
    | Ir.Shfl { dst; _ } -> raise_to Divergent dst tainted
    | Ir.Atomic { dst = Some d; _ } -> raise_to Divergent d tainted
    | Ir.Atomic { dst = None; _ } | Ir.Store _ | Ir.Sync | Ir.Comment _ -> tainted
    | Ir.If (c, t, e) ->
        let ctrl = join_level ctrl (exp_level ~tainted c) in
        let tainted = List.fold_left (go ~ctrl) tainted t in
        List.fold_left (go ~ctrl) tainted e
    | Ir.For { var; init = i; cond; step; body } ->
        let var_level tainted =
          join_level ctrl
            (join_level
               (exp_level ~tainted i)
               (join_level
                  (exp_level ~tainted:(SM.remove var tainted) cond)
                  (exp_level ~tainted:(SM.remove var tainted) step)))
        in
        let tainted = raise_to (var_level tainted) var tainted in
        let ctrl' =
          join_level ctrl
            (match SM.find_opt var tainted with Some l -> l | None -> Block_uniform)
        in
        (* two passes reach the fixed point: levels only grow and the
           lattice has height two *)
        let t1 = List.fold_left (go ~ctrl:ctrl') tainted body in
        let t1 = raise_to (var_level t1) var t1 in
        List.fold_left (go ~ctrl:ctrl') t1 body
    | Ir.While (c, body) ->
        let ctrl' = join_level ctrl (exp_level ~tainted c) in
        let t1 = List.fold_left (go ~ctrl:ctrl') tainted body in
        List.fold_left (go ~ctrl:ctrl') t1 body
  in
  List.fold_left (go ~ctrl:Block_uniform) init body

(* ------------------------------------------------------------------ *)
(* Def / use scans                                                     *)
(* ------------------------------------------------------------------ *)

let rec exp_uses (e : Ir.exp) : SS.t =
  match e with
  | Ir.Int _ | Ir.Float _ | Ir.Bool _ | Ir.Param _ | Ir.Special _ -> SS.empty
  | Ir.Reg r -> SS.singleton r
  | Ir.Unop (_, a) -> exp_uses a
  | Ir.Binop (_, a, b) -> SS.union (exp_uses a) (exp_uses b)
  | Ir.Select (c, a, b) -> SS.union (exp_uses c) (SS.union (exp_uses a) (exp_uses b))

let stmt_defs (s : Ir.stmt) : string list =
  match s with
  | Ir.Let (r, _) -> [ r ]
  | Ir.Load { dst; _ } -> [ dst ]
  | Ir.Vec_load { dsts; _ } -> dsts
  | Ir.Shfl { dst; _ } -> [ dst ]
  | Ir.Atomic { dst = Some d; _ } -> [ d ]
  | Ir.Atomic { dst = None; _ }
  | Ir.Store _ | Ir.Sync | Ir.Comment _ | Ir.If _ | Ir.For _ | Ir.While _ ->
      []

(** All registers defined anywhere in a statement list, including loop
    iterators and registers defined in nested control flow. *)
let rec all_defs (body : Ir.stmt list) : SS.t =
  let one acc (s : Ir.stmt) =
    let acc = List.fold_left (fun a r -> SS.add r a) acc (stmt_defs s) in
    match s with
    | Ir.If (_, t, e) -> SS.union acc (SS.union (all_defs t) (all_defs e))
    | Ir.For { var; body; _ } -> SS.add var (SS.union acc (all_defs body))
    | Ir.While (_, body) -> SS.union acc (all_defs body)
    | Ir.Let _ | Ir.Load _ | Ir.Vec_load _ | Ir.Shfl _ | Ir.Atomic _ | Ir.Store _
    | Ir.Sync | Ir.Comment _ ->
        acc
  in
  List.fold_left one SS.empty body

(* ------------------------------------------------------------------ *)
(* Register kinds                                                      *)
(* ------------------------------------------------------------------ *)

type kind = Int | Float | Pred

let kind_of_scalar (t : Ir.scalar) : kind =
  match t with Ir.F32 -> Float | Ir.I32 | Ir.U32 -> Int | Ir.Pred -> Pred

let show_kind (k : kind) : string =
  match k with Int -> "int" | Float -> "float" | Pred -> "predicate"

(* The interpreter's promotion (Gpusim.Value.binop): comparisons and
   Land/Lor give a predicate; int with int and predicate with predicate
   compute as ints; anything else (a float, or a predicate with an int)
   as floats. *)
let binop_kind (op : Ir.binop) (a : kind) (b : kind) : kind =
  match op with
  | Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Land | Ir.Lor -> Pred
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.Min | Ir.Max | Ir.And | Ir.Or
  | Ir.Xor | Ir.Shl | Ir.Shr -> (
      match (a, b) with Int, Int | Pred, Pred -> Int | _ -> Float)

let unop_kind (op : Ir.unop) (a : kind) : kind =
  match (op, a) with
  | Ir.Bnot, _ -> Int
  | Ir.Lnot, _ -> Pred
  | Ir.Neg, Pred -> Float
  | Ir.Neg, k -> k

(* One walk in statement order. [defined] holds the registers every path
   so far defines: a branch's definitions count only when both branches
   make them, and a loop body's never escape. Every read a definition
   reaches has met that definition earlier in the walk, so a register's
   first definition fixes its kind. *)
let registers (k : Ir.kernel) : kind SM.t * string list =
  let kinds = ref SM.empty and errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let declared (decls : (string * Ir.scalar) list) name =
    match List.assoc_opt name decls with Some t -> kind_of_scalar t | None -> Int
  in
  let shared = List.map (fun d -> (d.Ir.sh_name, d.Ir.sh_ty)) k.Ir.k_shared in
  let array (space : Ir.space) arr =
    declared (match space with Ir.Global -> k.Ir.k_arrays | Ir.Shared -> shared) arr
  in
  let def r kd =
    match SM.find_opt r !kinds with
    | None -> kinds := SM.add r kd !kinds
    | Some k0 ->
        if k0 <> kd then
          err "register %S is defined as %s and as %s" r (show_kind k0) (show_kind kd)
  in
  (* [dst]: the register the expression defines, named when a select's
     arms differ *)
  let rec exp ?dst defined (e : Ir.exp) : kind =
    match e with
    | Ir.Int _ | Ir.Special _ -> Int
    | Ir.Float _ -> Float
    | Ir.Bool _ -> Pred
    | Ir.Param p -> declared k.Ir.k_params p
    | Ir.Reg r ->
        if not (SS.mem r defined) then err "register %S used before definition" r;
        Option.value (SM.find_opt r !kinds) ~default:Int
    | Ir.Unop (op, a) -> unop_kind op (exp defined a)
    | Ir.Binop (op, a, b) ->
        let ka = exp defined a in
        binop_kind op ka (exp defined b)
    | Ir.Select (c, a, b) ->
        ignore (exp defined c);
        let ka = exp ?dst defined a in
        let kb = exp ?dst defined b in
        if ka <> kb then begin
          match dst with
          | Some r ->
              err "register %S is defined as %s and as %s by a select" r (show_kind ka)
                (show_kind kb)
          | None -> err "a select's arms are %s and %s" (show_kind ka) (show_kind kb)
        end;
        ka
  in
  let rec stmts defined body = List.fold_left stmt defined body
  and stmt defined (s : Ir.stmt) : SS.t =
    match s with
    | Ir.Let (r, e) ->
        def r (exp ~dst:r defined e);
        SS.add r defined
    | Ir.Load { dst; space; arr; idx } ->
        ignore (exp defined idx);
        def dst (array space arr);
        SS.add dst defined
    | Ir.Store { idx; v; _ } ->
        ignore (exp defined idx);
        ignore (exp defined v);
        defined
    | Ir.Vec_load { dsts; arr; base } ->
        ignore (exp defined base);
        List.fold_left
          (fun d r ->
            def r (array Ir.Global arr);
            SS.add r d)
          defined dsts
    | Ir.Atomic { dst; space; arr; idx; v; _ } -> (
        ignore (exp defined idx);
        ignore (exp defined v);
        match dst with
        | Some d ->
            def d (array space arr);
            SS.add d defined
        | None -> defined)
    | Ir.Shfl { dst; v; lane; _ } ->
        let kv = exp ~dst defined v in
        ignore (exp defined lane);
        def dst kv;
        SS.add dst defined
    | Ir.Sync | Ir.Comment _ -> defined
    | Ir.If (c, t, e) ->
        ignore (exp defined c);
        SS.inter (stmts defined t) (stmts defined e)
    | Ir.For { var; init; cond; step; body } ->
        (* an iterator is an int: the sampled interpreter's extrapolation
           jump stores one into it *)
        def var Int;
        def var (exp ~dst:var defined init);
        let defined' = SS.add var defined in
        ignore (exp defined' cond);
        def var (exp ~dst:var defined' step);
        ignore (stmts defined' body);
        defined
    | Ir.While (c, body) ->
        ignore (exp defined c);
        ignore (stmts defined body);
        defined
  in
  ignore (stmts SS.empty k.Ir.k_body);
  (!kinds, List.rev !errs)
