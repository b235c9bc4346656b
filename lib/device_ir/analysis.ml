(* Static analyses over the device IR.

   Three analyses are provided:

   - barrier placement ([contains_sync]), used by the simulator to decide
     whether a statement must be executed block-wide or can be run
     warp-by-warp;
   - a thread-uniformity taint analysis ([exp_level]): an expression is
     block-uniform when its value is provably identical for every thread of
     a block. Barriers are only legal under block-uniform control flow;
   - def/use scans used by the validator. *)

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

(** All registers read anywhere in a statement list. *)
let rec all_uses (body : Ir.stmt list) : SS.t =
  let one acc (s : Ir.stmt) =
    match s with
    | Ir.Let (_, e) -> SS.union acc (exp_uses e)
    | Ir.Load { idx; _ } -> SS.union acc (exp_uses idx)
    | Ir.Vec_load { base; _ } -> SS.union acc (exp_uses base)
    | Ir.Store { idx; v; _ } -> SS.union acc (SS.union (exp_uses idx) (exp_uses v))
    | Ir.Atomic { idx; v; _ } -> SS.union acc (SS.union (exp_uses idx) (exp_uses v))
    | Ir.Shfl { v; lane; _ } -> SS.union acc (SS.union (exp_uses v) (exp_uses lane))
    | Ir.Sync | Ir.Comment _ -> acc
    | Ir.If (c, t, e) ->
        SS.union acc (SS.union (exp_uses c) (SS.union (all_uses t) (all_uses e)))
    | Ir.For { init; cond; step; body; _ } ->
        SS.union acc
          (SS.union (exp_uses init)
             (SS.union (exp_uses cond) (SS.union (exp_uses step) (all_uses body))))
    | Ir.While (c, body) -> SS.union acc (SS.union (exp_uses c) (all_uses body))
  in
  List.fold_left one SS.empty body

(** Global / shared array names referenced by a statement list, by space. *)
let rec arrays_used (body : Ir.stmt list) : (string * Ir.space) list =
  let one acc (s : Ir.stmt) =
    match s with
    | Ir.Load { arr; space; _ } | Ir.Store { arr; space; _ }
    | Ir.Atomic { arr; space; _ } ->
        (arr, space) :: acc
    | Ir.Vec_load { arr; _ } -> (arr, Ir.Global) :: acc
    | Ir.If (_, t, e) -> arrays_used t @ arrays_used e @ acc
    | Ir.For { body; _ } | Ir.While (_, body) -> arrays_used body @ acc
    | Ir.Let _ | Ir.Shfl _ | Ir.Sync | Ir.Comment _ -> acc
  in
  List.sort_uniq compare (List.fold_left one [] body)
