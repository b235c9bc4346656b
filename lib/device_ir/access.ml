(* Static memory-access analysis: lane-affine abstract interpretation of
   the device IR.

   The analyzer executes each kernel one warp at a time, on the
   slot-resolved form {!Resolve} builds once per kernel (registers in
   slot arrays, locations and barrier flags precomputed), with
   expressions compiled to closures over lane vectors. Every value is
   a 32-wide lane vector (the exact pointwise concretization of the
   lane-affine normal form base + s_lane*lane + s_tid*tid + s_loop*i:
   tid folds to warp_base + 1*lane, loop iterators to their concrete
   per-iteration values) whose lanes may individually be unknown (⊤)
   when data-dependent — memory loads, shuffle results, atomic return
   values. Address expressions in the paper's reduction corpus are pure
   lane geometry, so they stay exact; the affine *fit* over the lane
   vector recovers (base, stride) for classification and rendering.

   Two invariants keep the static predictions, a {!Counters} record,
   comparable with the interpreter's observed one:

   - the segment, bank and atomic-conflict rules are {!Lanes}', the
     same ones the interpreter charges;
   - event counting mirrors the interpreter's charging points statement
     for statement, including the block-level/warp-level split for
     statements that contain a barrier.

   Divergence is exact per lane: the lanes whose branch condition is
   known run their arm under complementary masks, and register
   assignment merges per lane, which is precisely the SIMT
   reconvergence semantics. Lanes whose condition is unknown run both
   arms from the same entry state and join (and set the [approx] flag).

   The same walk is the race sanitizer's dynamic phase ({!trace_kernel}):
   there it reports every warp access instead of pricing it and widens
   each loop after {!sanitizer_loop_fuel} iterations. *)

let warp_lanes = Lanes.warp_size

(* the input size the lint entry points evaluate host expressions at *)
let sample_n = 4096

(* loop iterations one analyzed block may run before its loops widen *)
let block_fuel = 1 lsl 16

(* the sanitizer's walk widens each loop after this many iterations *)
let sanitizer_loop_fuel = 256

(* ------------------------------------------------------------------ *)
(* Abstract values: lane vectors with per-lane unknowns                *)
(* ------------------------------------------------------------------ *)

(* one value per lane; bit [l] of [unk] marks lane [l] unknown *)
type aval = { v : int array; unk : int }

let all_unknown = (1 lsl warp_lanes) - 1
let top = { v = Array.make warp_lanes 0; unk = all_unknown }
let const n = { v = Array.make warp_lanes n; unk = 0 }
let known (a : aval) (l : int) : bool = a.unk land (1 lsl l) = 0

let lane_idx (a : aval) (l : int) : int option =
  if known a l then Some a.v.(l) else None

let bits_of (mask : bool array) (lanes : int) : int =
  let b = ref 0 in
  for l = 0 to lanes - 1 do
    if mask.(l) then b := !b lor (1 lsl l)
  done;
  !b

(* every active lane known *)
let known_on (a : aval) (mask : bool array) (lanes : int) : bool =
  a.unk land bits_of mask lanes = 0

let uniform_of (a : aval) (lanes : int) : int option =
  let x = a.v.(0) in
  let ok = ref true in
  for l = 0 to lanes - 1 do
    if (not (known a l)) || a.v.(l) <> x then ok := false
  done;
  if !ok then Some x else None

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type coalescing = Broadcast | Coalesced | Strided of int | Scattered | Non_affine

let coalescing_name = function
  | Broadcast -> "broadcast"
  | Coalesced -> "coalesced"
  | Strided k -> Printf.sprintf "strided(%d)" k
  | Scattered -> "scattered"
  | Non_affine -> "non-affine"

let class_rank = function
  | Broadcast -> 0
  | Coalesced -> 1
  | Strided _ -> 2
  | Scattered -> 3
  | Non_affine -> 4

let class_join a b =
  match (a, b) with
  | Strided x, Strided y -> Strided (if abs x >= abs y then x else y)
  | _ -> if class_rank a >= class_rank b then a else b

type akind = Ld | St | At | Vl

let kind_name = function
  | Ld -> "load"
  | St -> "store"
  | At -> "atomic"
  | Vl -> "vec-load"

(* fit the lane-affine normal form over the active lanes: addresses
   [base + stride*lane] for some integers, or None when the vector is
   lane-indexed but not affine (mod/and mixes) *)
let affine_fit (idxs : int array) (mask : bool array) (lanes : int) :
    (int * int) option =
  let acc = ref [] in
  for l = lanes - 1 downto 0 do
    if mask.(l) then acc := (l, idxs.(l)) :: !acc
  done;
  match !acc with
  | [] -> Some (0, 0)
  | [ (l, v) ] -> Some (v - (0 * l), 0)
  | (l0, v0) :: (l1, v1) :: rest ->
      let dl = l1 - l0 and dv = v1 - v0 in
      if dv mod dl <> 0 then None
      else
        let s = dv / dl in
        if
          List.for_all (fun (l, v) -> v = v0 + (s * (l - l0))) rest
        then Some (v0 - (s * l0), s)
        else None

let render_form = function
  | None -> "(data-dependent)"
  | Some (b, 0) -> Printf.sprintf "%d" b
  | Some (0, 1) -> "lane"
  | Some (b, 1) -> Printf.sprintf "%d + lane" b
  | Some (0, s) -> Printf.sprintf "%d*lane" s
  | Some (b, s) -> Printf.sprintf "%d + %d*lane" b s

(* ------------------------------------------------------------------ *)
(* Sites                                                               *)
(* ------------------------------------------------------------------ *)

type site = {
  s_kernel : string;
  s_loc : string;
  s_space : Ir.space;
  s_arr : string;
  s_kind : akind;
  mutable s_trans : int;
  mutable s_serial : int;
  mutable s_worst_trans : int;
  mutable s_worst_degree : int;
  mutable s_class : coalescing;
  mutable s_non_affine : bool;
  mutable s_form : string;
  mutable s_lanes : int array option;
}

type site_table = {
  tbl : (string * string, site) Hashtbl.t;  (* (kernel, loc) *)
  mutable order : site list;  (* reverse insertion order *)
}

let new_site_table () = { tbl = Hashtbl.create 32; order = [] }

let sites_in_order (t : site_table) : site list = List.rev t.order

let find_site t ~kernel ~loc ~space ~arr ~kind =
  let key = (kernel, loc) in
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let s =
        {
          s_kernel = kernel;
          s_loc = loc;
          s_space = space;
          s_arr = arr;
          s_kind = kind;
          s_trans = 0;
          s_serial = 0;
          s_worst_trans = 0;
          s_worst_degree = 0;
          s_class = Broadcast;
          s_non_affine = false;
          s_form = "";
          s_lanes = None;
        }
      in
      Hashtbl.add t.tbl key s;
      t.order <- s :: t.order;
      s

(* ------------------------------------------------------------------ *)
(* Block context                                                       *)
(* ------------------------------------------------------------------ *)

type access = {
  a_bid : int;
  a_warp : int;
  a_epoch : int;
  a_loc : string;
  a_space : Ir.space;
  a_arr : string;
  a_kind : akind;
  a_width : int;
  a_active : int;
  a_idx : aval;
}

(* what the sanitizer's walk collects, newest first: every access, and
   block 0's barriers *)
type trace = { mutable accesses : access list; mutable barriers : string list }

type bctx = {
  kname : string;
  bid : int;
  bdim : int;
  gdim : int;
  params : aval array;  (* by slot; [top] where unbound *)
  nwarps : int;
  warps : aval array array;  (* per warp, its registers by slot; never
                                assigned: [top] *)
  mutable epoch : int;
  mutable epochs : Counters.t array list;  (* completed epochs, newest first *)
  mutable cur : Counters.t array;  (* per-warp counts of the current epoch *)
  blk : Counters.t;  (* barriers and block-uniform branches *)
  heat : (string * int * Ir.scope, float ref) Hashtbl.t;
  sites : site_table;
  mutable fuel : int;  (* loop iterations left to the whole block *)
  loop_fuel : int;  (* iterations one loop runs before it widens *)
  trace : trace option;  (* the sanitizer's walk *)
  mutable approx : bool;
}

let lanes_of (c : bctx) (w : int) : int = Lanes.lanes_in_warp ~nthreads:c.bdim w

(* ------------------------------------------------------------------ *)
(* Expressions, compiled per warp                                      *)
(* ------------------------------------------------------------------ *)

(* an expression's lane vector in one warp of the block *)
type aexp = bctx -> int -> aval

let binop (op : Ir.binop) (a : aval) (b : aval) : aval =
  if a.unk = all_unknown && b.unk = all_unknown then top
  else begin
    let out = Array.make warp_lanes 0 and unk = ref 0 in
    for l = 0 to warp_lanes - 1 do
      let ka = known a l and kb = known b l in
      let x = a.v.(l) and y = b.v.(l) in
      match op with
      (* short-circuits that survive one unknown side *)
      | (Ir.Land | Ir.Mul) when (ka && x = 0) || (kb && y = 0) -> ()
      | Ir.Lor when (ka && x <> 0) || (kb && y <> 0) -> out.(l) <- 1
      | (Ir.Div | Ir.Rem) when y = 0 -> unk := !unk lor (1 lsl l)
      | _ ->
          if ka && kb then out.(l) <- Ir.eval_binop op x y
          else unk := !unk lor (1 lsl l)
    done;
    { v = out; unk = !unk }
  end

(* per lane: a known condition picks its side, an unknown one keeps only
   what both sides agree on *)
let select (cv : aval) (a : aval) (b : aval) : aval =
  let out = Array.make warp_lanes 0 and unk = ref 0 in
  for l = 0 to warp_lanes - 1 do
    if known cv l then begin
      let s = if cv.v.(l) <> 0 then a else b in
      if known s l then out.(l) <- s.v.(l) else unk := !unk lor (1 lsl l)
    end
    else if known a l && known b l && a.v.(l) = b.v.(l) then out.(l) <- a.v.(l)
    else unk := !unk lor (1 lsl l)
  done;
  { v = out; unk = !unk }

let tid_of_warp w = { v = Array.init warp_lanes (fun l -> (w * warp_lanes) + l); unk = 0 }

(* [tid] in the warps of a 1024-thread block, built once *)
let tids = Array.init 32 tid_of_warp

let rec ev (e : Resolve.exp) : aexp =
  match e with
  | Resolve.Int n ->
      let a = const n in
      fun _ _ -> a
  | Resolve.Float f ->
      let a =
        if Float.is_integer f && Float.abs f < 1073741824.0 then const (int_of_float f)
        else top
      in
      fun _ _ -> a
  | Resolve.Bool b ->
      let a = const (if b then 1 else 0) in
      fun _ _ -> a
  | Resolve.Reg (slot, _) -> fun c w -> c.warps.(w).(slot)
  | Resolve.Param (slot, _) -> if slot < 0 then fun _ _ -> top else fun c _ -> c.params.(slot)
  | Resolve.Special s -> (
      match s with
      | Ir.Thread_idx -> fun _ w -> if w < 32 then tids.(w) else tid_of_warp w
      | Ir.Block_idx -> fun c _ -> const c.bid
      | Ir.Block_dim -> fun c _ -> const c.bdim
      | Ir.Grid_dim -> fun c _ -> const c.gdim
      | Ir.Warp_size ->
          let a = const warp_lanes in
          fun _ _ -> a
      | Ir.Lane_id -> fun _ _ -> tids.(0)
      | Ir.Warp_id -> fun _ w -> const w)
  | Resolve.Unop (op, a) ->
      let a = ev a in
      let f =
        match op with
        | Ir.Neg -> fun v -> -v
        | Ir.Bnot -> lnot
        | Ir.Lnot -> fun v -> if v = 0 then 1 else 0
      in
      fun c w ->
        let a = a c w in
        if a.unk = all_unknown then top else { a with v = Array.map f a.v }
  | Resolve.Binop (op, a, b) ->
      let a = ev a and b = ev b in
      fun c w -> binop op (a c w) (b c w)
  | Resolve.Select (cnd, a, b) ->
      let cnd = ev cnd and a = ev a and b = ev b in
      fun c w -> select (cnd c w) (a c w) (b c w)

let resolve (k : Ir.kernel) : aexp Resolve.kernel = Resolve.kernel ev k

(* assignment under a lane mask: active lanes take [v], the others keep
   their value (unknown when the register had none) — exact SIMT
   reconvergence *)
let assign (c : bctx) (w : int) (mask : bool array) (lanes : int) (r : int)
    (v : aval) : unit =
  let regs = c.warps.(w) in
  regs.(r) <-
    (if Lanes.active mask lanes = lanes then v
     else
       let o = regs.(r) in
       let out = Array.copy o.v and unk = ref o.unk in
       for l = 0 to lanes - 1 do
         if mask.(l) then begin
           out.(l) <- v.v.(l);
           unk := if known v l then !unk land lnot (1 lsl l) else !unk lor (1 lsl l)
         end
       done;
       { v = out; unk = !unk })

(* ------------------------------------------------------------------ *)
(* Access recording                                                    *)
(* ------------------------------------------------------------------ *)

(* the analyzer prices the access into its site and returns
   (transactions, conflict degree) for the interpreter-identical event
   counts; the sanitizer's walk reports it instead *)
let record (c : bctx) (w : int) ~loc ~space ~arr ~kind ~(idx : aval)
    ~(mask : bool array) ~(lanes : int) ~(width : int) : int * int =
  match c.trace with
  | Some t ->
      t.accesses <-
        {
          a_bid = c.bid;
          a_warp = w;
          a_epoch = c.epoch;
          a_loc = loc;
          a_space = space;
          a_arr = arr;
          a_kind = kind;
          a_width = width;
          a_active = bits_of mask lanes;
          a_idx = idx;
        }
        :: t.accesses;
      (0, 1)
  | None ->
      let s =
        find_site c.sites ~kernel:c.kname ~loc ~space ~arr ~kind
      in
      let n_active = Lanes.active mask lanes in
      let exact = known_on idx mask lanes in
      let trans, degree, fit =
        if not exact then begin
          c.approx <- true;
          s.s_non_affine <- true;
          (* worst case: every lane its own segment / its own address on a
             shared bank *)
          (n_active, max 1 (min n_active 32), None)
        end
        else
          let a = idx.v in
          let trans =
            match space with
            | Ir.Global -> Lanes.vec_segments a mask lanes ~width
            | Ir.Shared -> 0
          in
          let degree =
            match space with
            | Ir.Shared -> Lanes.bank_degree a mask lanes
            | Ir.Global -> 1
          in
          (trans, degree, affine_fit a mask lanes)
      in
      let cls =
        if not exact then Non_affine
        else
          match fit with
          | Some (_, 0) -> Broadcast
          | Some (_, s) when abs s = 1 -> Coalesced
          | Some (_, s) -> Strided s
          | None -> Scattered
      in
      s.s_trans <- s.s_trans + trans;
      s.s_serial <- s.s_serial + degree;
      s.s_worst_trans <- max s.s_worst_trans trans;
      s.s_worst_degree <- max s.s_worst_degree degree;
      s.s_class <- class_join s.s_class cls;
      if s.s_form = "" then
        s.s_form <- (if exact then render_form fit else "(data-dependent)");
      if exact && s.s_lanes = None && w = 0 then
        s.s_lanes <- Some (Array.sub idx.v 0 lanes);
      (trans, degree)

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

let full_mask = Array.make warp_lanes true

(* Warp-level events (the interpreter's warp-level charging points) go
   to the warp's record of the current epoch, [c.cur.(w)]; barriers and
   block-uniform branches go to [c.blk]. *)

(* a shared load or store: one warp instruction, replayed [degree] times *)
let count_shared (k : Counters.t) (degree : int) : unit =
  k.t_warp_insts <- k.t_warp_insts +. 1.0;
  k.t_shared_ops <- k.t_shared_ops +. 1.0;
  k.t_shared_serial <- k.t_shared_serial +. float_of_int degree

(* a global load, vector load or store of [trans] transactions: its
   instruction and DRAM bytes; the caller counts the transactions *)
let count_global (k : Counters.t) (trans : int) : unit =
  k.t_warp_insts <- k.t_warp_insts +. 1.0;
  k.t_bytes_dram <- k.t_bytes_dram +. (128.0 *. float_of_int trans)

let count_alu (k : Counters.t) : unit =
  k.t_warp_insts <- k.t_warp_insts +. 1.0;
  k.t_alu_insts <- k.t_alu_insts +. 1.0

let barrier (c : bctx) (loc : string) : unit =
  c.epochs <- c.cur :: c.epochs;
  c.cur <- Array.init c.nwarps (fun _ -> Counters.zero ());
  c.blk.t_syncs <- c.blk.t_syncs +. float_of_int c.nwarps;
  c.blk.t_warp_insts <- c.blk.t_warp_insts +. float_of_int c.nwarps;
  c.epoch <- c.epoch + 1;
  match c.trace with
  | Some t when c.bid = 0 -> t.barriers <- loc :: t.barriers
  | _ -> ()

(* after both arms of an unknown branch ran from the same entry state,
   warp [w] holding the second arm's registers: the lanes of [umask]
   keep what the arms agree on, the others are untouched by either arm *)
let join_arms (c : bctx) (w : int) ~(arm : aval array) (umask : bool array)
    (lanes : int) : unit =
  let join_val x y =
    if x == y then x
    else begin
      let out = Array.copy y.v and unk = ref y.unk in
      for l = 0 to lanes - 1 do
        if umask.(l) then
          if known x l && known y l && x.v.(l) = y.v.(l) then ()
          else unk := !unk lor (1 lsl l)
      done;
      { v = out; unk = !unk }
    end
  in
  c.warps.(w) <- Array.map2 join_val arm c.warps.(w)

type astmt = aexp Resolve.stmt

let rec exec_warp (c : bctx) (w : int) (mask : bool array) (s : astmt) : unit =
  let lanes = lanes_of c w in
  match s with
  | Resolve.Let (r, e) ->
      assign c w mask lanes r (e c w);
      count_alu c.cur.(w)
  | Resolve.Load { l_arr = { Resolve.a_space = space; a_name = arr; _ }; l_dst; l_idx; l_loc } -> (
      let trans, degree =
        record c w ~loc:l_loc ~space ~arr ~kind:Ld ~idx:(l_idx c w) ~mask ~lanes
          ~width:1
      in
      assign c w mask lanes l_dst top;
      let k = c.cur.(w) in
      match space with
      | Ir.Global ->
          count_global k trans;
          k.t_gld_warp_ops <- k.t_gld_warp_ops +. 1.0;
          k.t_gld_trans <- k.t_gld_trans +. float_of_int trans
      | Ir.Shared -> count_shared k degree)
  | Resolve.Vec_load { vl_dsts; vl_arr = { Resolve.a_name = arr; _ }; vl_base; vl_loc } ->
      let width = Array.length vl_dsts in
      let trans, _ =
        record c w ~loc:vl_loc ~space:Ir.Global ~arr ~kind:Vl ~idx:(vl_base c w)
          ~mask ~lanes ~width
      in
      Array.iter (fun d -> assign c w mask lanes d top) vl_dsts;
      let k = c.cur.(w) in
      count_global k trans;
      k.t_vec_load_ops <- k.t_vec_load_ops +. 1.0;
      k.t_gld_trans <- k.t_gld_trans +. float_of_int trans
  | Resolve.Store { st_arr = { Resolve.a_space = space; a_name = arr; _ }; st_idx; st_loc; _ }
    -> (
      let trans, degree =
        record c w ~loc:st_loc ~space ~arr ~kind:St ~idx:(st_idx c w) ~mask ~lanes
          ~width:1
      in
      let k = c.cur.(w) in
      match space with
      | Ir.Global ->
          count_global k trans;
          k.t_gst_trans <- k.t_gst_trans +. float_of_int trans
      | Ir.Shared -> count_shared k degree)
  | Resolve.Atomic
      { at_dst; at_arr = { Resolve.a_space = space; a_name = arr; _ }; at_idx; at_scope; at_loc; _ }
    -> (
      let idxv = at_idx c w in
      ignore
        (record c w ~loc:at_loc ~space ~arr ~kind:At ~idx:idxv ~mask ~lanes ~width:1);
      if at_dst >= 0 then assign c w mask lanes at_dst top;
      let n_active = Lanes.active mask lanes in
      let exact = known_on idxv mask lanes in
      let k = c.cur.(w) in
      if n_active > 0 then
        (* unknown addresses count worst both ways *)
        match space with
        | Ir.Shared ->
            let worst =
              if exact then Lanes.atomic_worst idxv.v mask lanes else n_active
            in
            k.t_warp_insts <- k.t_warp_insts +. 1.0;
            k.t_atomic_shared_ops <- k.t_atomic_shared_ops +. float_of_int n_active;
            k.t_atomic_shared_serial <- k.t_atomic_shared_serial +. float_of_int worst
        | Ir.Global ->
            let distinct =
              if exact then Lanes.atomic_distinct idxv.v mask lanes else n_active
            in
            k.t_warp_insts <- k.t_warp_insts +. 1.0;
            k.t_atomic_global_ops <- k.t_atomic_global_ops +. float_of_int n_active;
            k.t_atomic_global_trans <- k.t_atomic_global_trans +. float_of_int distinct;
            if not exact then c.approx <- true
            else if c.trace = None then
              for l = 0 to lanes - 1 do
                if mask.(l) then begin
                  let key = (arr, idxv.v.(l), at_scope) in
                  match Hashtbl.find_opt c.heat key with
                  | Some r -> r := !r +. 1.0
                  | None -> Hashtbl.add c.heat key (ref 1.0)
                end
              done)
  | Resolve.Shfl { sh_dst; _ } ->
      assign c w mask lanes sh_dst top;
      let k = c.cur.(w) in
      k.t_warp_insts <- k.t_warp_insts +. 1.0;
      k.t_shfl_insts <- k.t_shfl_insts +. 1.0
  | Resolve.Sync _ ->
      (* only reachable through divergent control, which the race
         sanitizer reports *)
      c.approx <- true
  | Resolve.If { if_cond; if_then; if_else; _ } ->
      let k = c.cur.(w) in
      k.t_warp_insts <- k.t_warp_insts +. 1.0;
      k.t_branches <- k.t_branches +. 1.0;
      let cv = if_cond c w in
      let tmask = Array.make warp_lanes false in
      let emask = Array.make warp_lanes false in
      let umask = Array.make warp_lanes false in
      let n_t = ref 0 and n_e = ref 0 and n_u = ref 0 in
      for l = 0 to lanes - 1 do
        if mask.(l) then
          if not (known cv l) then begin
            umask.(l) <- true;
            incr n_u
          end
          else if cv.v.(l) <> 0 then begin
            tmask.(l) <- true;
            incr n_t
          end
          else begin
            emask.(l) <- true;
            incr n_e
          end
      done;
      if (!n_t > 0 && !n_e > 0) || !n_u > 0 then
        k.t_divergent_branches <- k.t_divergent_branches +. 1.0;
      if !n_u > 0 then begin
        (* data-dependent branch: those lanes run both arms from the same
           entry state and join *)
        c.approx <- true;
        let entry = Array.copy c.warps.(w) in
        exec_body c w umask if_then;
        let arm = c.warps.(w) in
        c.warps.(w) <- entry;
        exec_body c w umask if_else;
        join_arms c w ~arm umask lanes
      end;
      if !n_t > 0 then exec_body c w tmask if_then;
      if !n_e > 0 then exec_body c w emask if_else
  | Resolve.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
      assign c w mask lanes f_var (f_init c w);
      count_alu c.cur.(w);
      let step_unknown = Array.make warp_lanes false in
      warp_loop c w mask lanes f_body ~cond:f_cond ~step_unknown
        ~widen:(fun wide -> assign c w wide lanes f_var top)
        ~step:(fun live ->
          let sv = f_step c w in
          assign c w live lanes f_var sv;
          count_alu c.cur.(w);
          for l = 0 to lanes - 1 do
            if live.(l) && not (known sv l) then step_unknown.(l) <- true
          done)
  | Resolve.While { w_cond; w_body; _ } ->
      warp_loop c w mask lanes w_body ~cond:w_cond
        ~step_unknown:(Array.make warp_lanes false)
        ~widen:(fun _ -> ())
        ~step:(fun _ -> ())

(* a loop at warp level: each live lane leaves when its condition is
   known false; a lane whose condition (or last iterator step) is
   unknown, or every live lane once the fuel is spent, widens — its
   iterator becomes unknown and the body runs twice more, exposing
   intra- and cross-iteration pairs *)
and warp_loop c w mask lanes body ~(cond : aexp) ~step_unknown ~widen ~step =
  let live = Array.copy mask in
  let wide = Array.make warp_lanes false in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let k = c.cur.(w) in
    k.t_branches <- k.t_branches +. 1.0;
    let cv = cond c w in
    let spent = !iters >= c.loop_fuel || c.fuel <= 0 in
    let n_live = ref 0 and n_wide = ref 0 in
    for l = 0 to lanes - 1 do
      if live.(l) then
        if step_unknown.(l) || (not (known cv l)) || (cv.v.(l) <> 0 && spent) then begin
          live.(l) <- false;
          wide.(l) <- true;
          incr n_wide
        end
        else if cv.v.(l) = 0 then live.(l) <- false
        else incr n_live
    done;
    if !n_wide > 0 then begin
      c.approx <- true;
      widen wide;
      exec_body c w wide body;
      exec_body c w wide body;
      Array.fill wide 0 warp_lanes false
    end;
    if !n_live = 0 then continue_ := false
    else begin
      incr iters;
      c.fuel <- c.fuel - 1;
      exec_body c w live body;
      step live
    end
  done

and exec_body (c : bctx) (w : int) (mask : bool array) (body : astmt array) : unit =
  Array.iter (exec_warp c w mask) body

(* a block-uniform value: the same known constant in every lane of every
   warp *)
let uniform_across (c : bctx) (e : aexp) : int option =
  match List.init c.nwarps (fun w -> uniform_of (e c w) (lanes_of c w)) with
  | (Some _ as v) :: rest when List.for_all (( = ) v) rest -> v
  | _ -> None

let each_warp (c : bctx) (f : int -> int -> unit) : unit =
  for w = 0 to c.nwarps - 1 do
    f w (lanes_of c w)
  done

(* block-level execution: statements containing a barrier follow the
   interpreter's uniform-control path (and its sparser event counting);
   a condition that is not uniformly known runs both arms, a loop whose
   condition is not uniformly known (or whose fuel is spent) widens *)
let rec exec_block_stmt (c : bctx) (s : astmt) : unit =
  if not (Resolve.has_sync s) then
    for w = 0 to c.nwarps - 1 do
      exec_warp c w full_mask s
    done
  else
    match s with
    | Resolve.Sync loc -> barrier c loc
    | Resolve.If { if_cond; if_then; if_else; _ } -> (
        c.blk.t_branches <- c.blk.t_branches +. float_of_int c.nwarps;
        match uniform_across c if_cond with
        | Some v ->
            if v <> 0 then exec_block_body c if_then else exec_block_body c if_else
        | None ->
            c.approx <- true;
            let entry = Array.map Array.copy c.warps in
            exec_block_body c if_then;
            let arm = Array.copy c.warps in
            Array.blit entry 0 c.warps 0 c.nwarps;
            exec_block_body c if_else;
            each_warp c (fun w lanes -> join_arms c w ~arm:arm.(w) full_mask lanes))
    | Resolve.For { f_var; f_init; f_cond; f_step; f_body; _ } ->
        let set_var f =
          each_warp c (fun w lanes -> assign c w full_mask lanes f_var (f w))
        in
        set_var (f_init c);
        block_loop c f_body ~cond:f_cond
          ~widen:(fun () -> set_var (fun _ -> top))
          ~step:(fun () ->
            let stepped = ref true in
            each_warp c (fun w lanes ->
                let sv = f_step c w in
                if not (known_on sv full_mask lanes) then stepped := false;
                assign c w full_mask lanes f_var sv);
            c.blk.t_branches <- c.blk.t_branches +. float_of_int c.nwarps;
            !stepped)
    | Resolve.While { w_cond; w_body; _ } ->
        block_loop c w_body ~cond:w_cond ~widen:ignore ~step:(fun () -> true)
    | Resolve.Let _ | Resolve.Load _ | Resolve.Store _ | Resolve.Vec_load _
    | Resolve.Atomic _ | Resolve.Shfl _ ->
        assert false

(* a loop at block level runs while its condition is uniformly known
   true; an unknown condition or iterator step, or spent fuel, widens *)
and block_loop c body ~cond ~widen ~step =
  let run () = exec_block_body c body in
  let rec go iters =
    match uniform_across c cond with
    | Some 0 -> ()
    | Some _ when iters < c.loop_fuel && c.fuel > 0 ->
        c.fuel <- c.fuel - 1;
        run ();
        if step () then go (iters + 1) else wide ()
    | _ -> wide ()
  and wide () =
    c.approx <- true;
    widen ();
    run ();
    run ()
  in
  go 0

and exec_block_body (c : bctx) (body : astmt array) : unit =
  Array.iter (exec_block_stmt c) body

(* ------------------------------------------------------------------ *)
(* Block / launch / program drivers                                    *)
(* ------------------------------------------------------------------ *)

type block_profile = {
  bp_bid : int;
  bp_warps : int;
  bp_epochs : Counters.t array list;
  bp_tot : Counters.t;
  bp_heat : ((string * int * Ir.scope) * float) list;
}

(* the scalar parameters by slot: a launch's bindings, [top] where a
   parameter is unbound *)
let param_vals (k : aexp Resolve.kernel) (bound : (string * int) list) : aval array =
  Array.map
    (fun (name, _) ->
      (* the last binding of a name wins *)
      match List.assoc_opt name (List.rev bound) with
      | Some v -> const v
      | None -> top)
    k.Resolve.rk_params

let new_block ~trace ~sites ~params ~bdim ~gdim ~bid (k : aexp Resolve.kernel) :
    bctx =
  let nwarps = (bdim + warp_lanes - 1) / warp_lanes in
  let nregs = k.Resolve.rk_nregs in
  {
    kname = k.Resolve.rk_name;
    bid;
    bdim;
    gdim;
    params;
    nwarps;
    warps = Array.init nwarps (fun _ -> Array.make nregs top);
    epoch = 0;
    epochs = [];
    cur = Array.init nwarps (fun _ -> Counters.zero ());
    blk = Counters.zero ();
    heat = Hashtbl.create 8;
    sites;
    fuel = (if trace = None then block_fuel else max_int);
    loop_fuel = (if trace = None then max_int else sanitizer_loop_fuel);
    trace;
    approx = false;
  }

let analyze_block ~(sites : site_table) ~(params : aval array) ~(bdim : int)
    ~(gdim : int) ~(bid : int) (k : aexp Resolve.kernel) : block_profile * bool =
  let c = new_block ~trace:None ~sites ~params ~bdim ~gdim ~bid k in
  exec_block_body c k.Resolve.rk_body;
  let epochs = List.rev (c.cur :: c.epochs) in
  (* every count is a whole number, so the order of the sum is exact *)
  List.iter (Array.iter (Counters.add c.blk)) epochs;
  let heat = Hashtbl.fold (fun key r acc -> (key, !r) :: acc) c.heat [] in
  ( {
      bp_bid = bid;
      bp_warps = c.nwarps;
      bp_epochs = epochs;
      bp_tot = c.blk;
      bp_heat = List.sort compare heat;
    },
    c.approx )

let trace_kernel ~(params : (string * int) list) ~(block : int) ~(grid : int)
    (k : Ir.kernel) : access list * string list =
  let k = resolve k in
  let params = param_vals k params in
  let sites = new_site_table () in
  let t = { accesses = []; barriers = [] } in
  for bid = 0 to grid - 1 do
    exec_block_body
      (new_block ~trace:(Some t) ~sites ~params ~bdim:block ~gdim:grid ~bid k)
      k.Resolve.rk_body
  done;
  (List.rev t.accesses, List.rev t.barriers)

type launch_pred = {
  lp_kernel : string;
  lp_grid : int;
  lp_block : int;
  lp_shared_bytes : int;
  lp_first : block_profile;
  lp_last : block_profile option;
  lp_totals : Counters.t;
  lp_max_heat_scoped : float;
}

type analysis = {
  an_program : string;
  an_n : int;
  an_tunables : (string * int) list;
  an_sites : site list;
  an_launches : launch_pred list;
  an_diags : Diag.t list;
  an_approx : bool;
}

let site_diags (sites : site list) : Diag.t list =
  let out = ref [] in
  let warn s code msg =
    out :=
      Diag.make ~loc:s.s_loc ~code ~severity:Diag.Warn ~kernel:s.s_kernel msg
      :: !out
  in
  List.iter
    (fun s ->
      if s.s_non_affine then
        warn s "TPERF012"
          (Printf.sprintf
             "data-dependent index on %s array %S (%s): the address escapes \
              the lane-affine analysis, coalescing and bank behaviour cannot \
              be proven (worst case assumed)"
             (match s.s_space with Ir.Global -> "global" | Ir.Shared -> "shared")
             s.s_arr (kind_name s.s_kind))
      else begin
        (if
           s.s_space = Ir.Global
           && (s.s_kind = Ld || s.s_kind = St || s.s_kind = Vl)
           && s.s_worst_trans >= 2
           && class_rank s.s_class >= class_rank (Strided 0)
         then
           warn s "TPERF010"
             (Printf.sprintf
                "uncoalesced global %s of %S: %s lane addresses (%s) need up \
                 to %d memory transactions per warp access where a coalesced \
                 access needs 1"
                (kind_name s.s_kind) s.s_arr
                (coalescing_name s.s_class)
                s.s_form s.s_worst_trans));
        if s.s_space = Ir.Shared && s.s_worst_degree >= 2 then
          warn s "TPERF011"
            (Printf.sprintf
               "%d-way shared-memory bank conflict on %S (%s lane addresses, \
                %s): the access replays %d times in the 32-bank model"
               s.s_worst_degree s.s_arr
               (coalescing_name s.s_class)
               s.s_form s.s_worst_degree)
      end)
    sites;
  List.rev !out

(* each kernel of a program with its resolved form, resolved on first use *)
let resolve_kernels (p : Ir.program) : (Ir.kernel * aexp Resolve.kernel Lazy.t) list =
  List.map (fun k -> (k, lazy (resolve k))) p.Ir.p_kernels

let analyze_kernels kernels ?n ?tunables (p : Ir.program) : analysis =
  let n = match n with Some v -> max 1 v | None -> sample_n in
  let tunables =
    match tunables with Some t -> t | None -> fst (Ir.tunable_extremes p)
  in
  let eval h = Ir.eval_hexp ~n ~tunables h in
  let sites = new_site_table () in
  let approx = ref false in
  let launches =
    List.filter_map
      (fun (ln : Ir.launch) ->
        match List.find_opt (fun (k, _) -> k.Ir.k_name = ln.Ir.ln_kernel) kernels with
        | None -> None
        | Some (k, rk) -> (
            match (eval ln.Ir.ln_grid, eval ln.Ir.ln_block, eval ln.Ir.ln_shared_elems)
            with
            | exception _ ->
                approx := true;
                None
            | grid, block, shared_elems ->
                let grid = max 1 grid in
                let block = max 1 (min block 1024) in
                let rk = Lazy.force rk in
                let params =
                  param_vals rk
                    (Ir.launch_params k ln (fun h ->
                         match eval h with v -> Some v | exception _ -> None))
                in
                let shared_bytes =
                  4
                  * List.fold_left
                      (fun acc (d : Ir.shared_decl) ->
                        acc
                        + (match d.Ir.sh_size with
                          | Ir.Static_size s -> s
                          | Ir.Dynamic_size -> max 0 shared_elems))
                      0 k.Ir.k_shared
                in
                let first, a1 =
                  analyze_block ~sites ~params ~bdim:block ~gdim:grid
                    ~bid:0 rk
                in
                let last, a2 =
                  if grid > 1 then
                    let bp, a =
                      analyze_block ~sites ~params ~bdim:block ~gdim:grid
                        ~bid:(grid - 1) rk
                    in
                    (Some bp, a)
                  else (None, false)
                in
                if a1 || a2 then approx := true;
                let totals = Counters.zero () in
                (match last with
                | None -> Counters.add totals first.bp_tot
                | Some l ->
                    Counters.add ~scale:(float_of_int (grid - 1)) totals first.bp_tot;
                    Counters.add totals l.bp_tot);
                (* per-address heat over the whole grid: middle blocks
                   behave like block 0. An address the last block ALSO
                   heats is block-invariant (every block piles onto it:
                   scale block 0's contribution by grid-1); an address
                   only block 0 heats is per-block (partial[bid]-style:
                   every block heats its own copy, so the per-address
                   magnitude stays block 0's) *)
                let heat_tbl = Hashtbl.create 8 in
                let bump key v =
                  match Hashtbl.find_opt heat_tbl key with
                  | Some r -> r := !r +. v
                  | None -> Hashtbl.add heat_tbl key (ref v)
                in
                (match last with
                | None -> List.iter (fun (key, v) -> bump key v) first.bp_heat
                | Some l ->
                    List.iter
                      (fun (key, v) ->
                        if List.mem_assoc key l.bp_heat then
                          bump key (v *. float_of_int (grid - 1))
                        else bump key v)
                      first.bp_heat;
                    List.iter (fun (key, v) -> bump key v) l.bp_heat);
                let max_heat, max_heat_scoped =
                  Hashtbl.fold
                    (fun (_, _, scope) r (m, ms) ->
                      ( Float.max m !r,
                        if scope = Ir.Scope_block then ms else Float.max ms !r ))
                    heat_tbl (0.0, 0.0)
                in
                totals.Counters.t_launches <- 1.0;
                totals.Counters.t_max_heat <- max_heat;
                Some
                  {
                    lp_kernel = k.Ir.k_name;
                    lp_grid = grid;
                    lp_block = block;
                    lp_shared_bytes = shared_bytes;
                    lp_first = first;
                    lp_last = last;
                    lp_totals = totals;
                    lp_max_heat_scoped = max_heat_scoped;
                  }))
      p.Ir.p_launches
  in
  let site_list = sites_in_order sites in
  {
    an_program = p.Ir.p_name;
    an_n = n;
    an_tunables = tunables;
    an_sites = site_list;
    an_launches = launches;
    an_diags = Diag.sort (site_diags site_list);
    an_approx = !approx;
  }

let analyze ?n ?tunables (p : Ir.program) : analysis =
  analyze_kernels (resolve_kernels p) ?n ?tunables p

let check_program (p : Ir.program) : Diag.t list =
  let lo, hi = Ir.tunable_extremes p in
  let kernels = resolve_kernels p in
  let run tunables =
    match analyze_kernels kernels ~n:sample_n ~tunables p with
    | a -> a.an_diags
    | exception _ -> []
  in
  let diags = run lo @ if hi = lo then [] else run hi in
  Diag.sort (Diag.dedup diags)
