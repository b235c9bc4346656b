(* Static memory-access analysis: lane-affine abstract interpretation of
   the device IR.

   The analyzer executes each kernel one warp at a time. Every value is
   a 32-wide lane vector (the exact pointwise concretization of the
   lane-affine normal form base + s_lane*lane + s_tid*tid + s_loop*i:
   tid folds to warp_base + 1*lane, loop iterators to their concrete
   per-iteration values) whose lanes may individually be unknown (⊤)
   when data-dependent — memory loads, shuffle results, atomic return
   values. Address expressions in the paper's reduction corpus are pure
   lane geometry, so they stay exact; the affine *fit* over the lane
   vector recovers (base, stride) for classification and rendering.

   Two invariants keep the static predictions comparable with observed
   {!Gpusim.Events} counters:

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
   there it reports every warp access instead of pricing it, tracks
   which loaded cells each register derives from, and widens each loop
   after {!sanitizer_loop_fuel} iterations. *)

module SM = Analysis.SM

let warp_lanes = Lanes.warp_size

(* the lint entry point's model input size *)
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
(* Event counts (mirrors Gpusim.Events charging)                       *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable c_warp_insts : float;
  mutable c_alu : float;
  mutable c_branches : float;
  mutable c_blk_branches : float;
  mutable c_divergent : float;
  mutable c_gld_ops : float;
  mutable c_gld_trans : float;
  mutable c_gst_trans : float;
  mutable c_shared_ops : float;
  mutable c_shared_serial : float;
  mutable c_shfl : float;
  mutable c_vec_ops : float;
  mutable c_syncs : float;
  mutable c_atomic_global_ops : float;
  mutable c_atomic_global_trans : float;
  mutable c_atomic_shared_ops : float;
  mutable c_atomic_shared_serial : float;
}

let zero_counts () =
  {
    c_warp_insts = 0.0;
    c_alu = 0.0;
    c_branches = 0.0;
    c_blk_branches = 0.0;
    c_divergent = 0.0;
    c_gld_ops = 0.0;
    c_gld_trans = 0.0;
    c_gst_trans = 0.0;
    c_shared_ops = 0.0;
    c_shared_serial = 0.0;
    c_shfl = 0.0;
    c_vec_ops = 0.0;
    c_syncs = 0.0;
    c_atomic_global_ops = 0.0;
    c_atomic_global_trans = 0.0;
    c_atomic_shared_ops = 0.0;
    c_atomic_shared_serial = 0.0;
  }

let add_counts ?(scale = 1.0) (dst : counts) (src : counts) : unit =
  let add d x = d +. (x *. scale) in
  dst.c_warp_insts <- add dst.c_warp_insts src.c_warp_insts;
  dst.c_alu <- add dst.c_alu src.c_alu;
  dst.c_branches <- add dst.c_branches src.c_branches;
  dst.c_blk_branches <- add dst.c_blk_branches src.c_blk_branches;
  dst.c_divergent <- add dst.c_divergent src.c_divergent;
  dst.c_gld_ops <- add dst.c_gld_ops src.c_gld_ops;
  dst.c_gld_trans <- add dst.c_gld_trans src.c_gld_trans;
  dst.c_gst_trans <- add dst.c_gst_trans src.c_gst_trans;
  dst.c_shared_ops <- add dst.c_shared_ops src.c_shared_ops;
  dst.c_shared_serial <- add dst.c_shared_serial src.c_shared_serial;
  dst.c_shfl <- add dst.c_shfl src.c_shfl;
  dst.c_vec_ops <- add dst.c_vec_ops src.c_vec_ops;
  dst.c_syncs <- add dst.c_syncs src.c_syncs;
  dst.c_atomic_global_ops <- add dst.c_atomic_global_ops src.c_atomic_global_ops;
  dst.c_atomic_global_trans <- add dst.c_atomic_global_trans src.c_atomic_global_trans;
  dst.c_atomic_shared_ops <- add dst.c_atomic_shared_ops src.c_atomic_shared_ops;
  dst.c_atomic_shared_serial <- add dst.c_atomic_shared_serial src.c_atomic_shared_serial

(* ------------------------------------------------------------------ *)
(* Block context                                                       *)
(* ------------------------------------------------------------------ *)

(* a loaded cell a register's value derives from: space, array, index
   (unknown when data-dependent) and the barrier epoch of the load *)
type origin = Ir.space * string * int option * int

type wstate = {
  mutable regs : aval SM.t;
  mutable orig : origin list option array SM.t;
      (* sanitizer walk only: per lane, the cells the register derives
         from; [None] where it holds no load-derived value at all (loop
         iterators, atomic and shuffle results), which a join keeps *)
}

let snapshot (st : wstate) : wstate = { regs = st.regs; orig = st.orig }

let restore (st : wstate) (s : wstate) : unit =
  st.regs <- s.regs;
  st.orig <- s.orig

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
  a_rmw : int;
}

(* what the sanitizer's walk collects, newest first: every access, and
   block 0's barriers *)
type trace = { mutable accesses : access list; mutable barriers : string list }

type bctx = {
  kernel : Ir.kernel;
  bid : int;
  bdim : int;
  gdim : int;
  params : int SM.t;
  nwarps : int;
  warps : wstate array;
  mutable epoch : int;
  mutable epochs : counts array list;  (* completed epochs, newest first *)
  mutable cur : counts array;  (* per-warp counts of the current epoch *)
  tot : counts;
  heat : (string * int * Ir.scope, float ref) Hashtbl.t;
  sites : site_table;
  mutable fuel : int;  (* loop iterations left to the whole block *)
  loop_fuel : int;  (* iterations one loop runs before it widens *)
  trace : trace option;  (* the sanitizer's walk *)
  mutable approx : bool;
}

let lanes_of (c : bctx) (w : int) : int = Lanes.lanes_in_warp ~nthreads:c.bdim w

(* ------------------------------------------------------------------ *)
(* Expression evaluation (per warp)                                    *)
(* ------------------------------------------------------------------ *)

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

let rec ev (c : bctx) (w : int) (e : Ir.exp) : aval =
  match e with
  | Ir.Int n -> const n
  | Ir.Float f ->
      if Float.is_integer f && Float.abs f < 1073741824.0 then const (int_of_float f)
      else top
  | Ir.Bool b -> const (if b then 1 else 0)
  | Ir.Reg r -> ( match SM.find_opt r c.warps.(w).regs with Some v -> v | None -> top)
  | Ir.Param p -> (
      match SM.find_opt p c.params with Some v -> const v | None -> top)
  | Ir.Special s -> (
      let wbase = w * warp_lanes in
      match s with
      | Ir.Thread_idx -> { v = Array.init warp_lanes (fun l -> wbase + l); unk = 0 }
      | Ir.Block_idx -> const c.bid
      | Ir.Block_dim -> const c.bdim
      | Ir.Grid_dim -> const c.gdim
      | Ir.Warp_size -> const warp_lanes
      | Ir.Lane_id -> { v = Array.init warp_lanes (fun l -> l); unk = 0 }
      | Ir.Warp_id -> const w)
  | Ir.Unop (op, a) ->
      let a = ev c w a in
      let f =
        match op with
        | Ir.Neg -> fun v -> -v
        | Ir.Bnot -> lnot
        | Ir.Lnot -> fun v -> if v = 0 then 1 else 0
      in
      if a.unk = all_unknown then top else { a with v = Array.map f a.v }
  | Ir.Binop (op, a, b) -> binop op (ev c w a) (ev c w b)
  | Ir.Select (cnd, a, b) -> select (ev c w cnd) (ev c w a) (ev c w b)

(* assignment under a lane mask: active lanes take [v], the others keep
   their value (unknown when the register had none) — exact SIMT
   reconvergence *)
let assign (c : bctx) (w : int) (mask : bool array) (lanes : int) (r : string)
    (v : aval) : unit =
  let st = c.warps.(w) in
  let nv =
    if Lanes.active mask lanes = lanes then v
    else
      let o = match SM.find_opt r st.regs with Some o -> o | None -> top in
      let out = Array.copy o.v and unk = ref o.unk in
      for l = 0 to lanes - 1 do
        if mask.(l) then begin
          out.(l) <- v.v.(l);
          unk := if known v l then !unk land lnot (1 lsl l) else !unk lor (1 lsl l)
        end
      done;
      { v = out; unk = !unk }
  in
  st.regs <- SM.add r nv st.regs

(* ------------------------------------------------------------------ *)
(* Load origins (the sanitizer's walk only)                            *)
(* ------------------------------------------------------------------ *)

(* first occurrences, at most 8: long accumulation chains only ever
   re-derive the same few cells *)
let dedup_origins (os : origin list) : origin list =
  let rec go seen = function
    | [] -> List.rev seen
    | o :: tl -> if List.mem o seen then go seen tl else go (o :: seen) tl
  in
  let os = go [] os in
  if List.length os > 8 then List.filteri (fun i _ -> i < 8) os else os

let set_origins (c : bctx) (w : int) (mask : bool array) (lanes : int) (r : string)
    (f : int -> origin list option) : unit =
  if c.trace <> None then begin
    let st = c.warps.(w) in
    let a =
      match SM.find_opt r st.orig with
      | Some a -> Array.copy a
      | None -> Array.make warp_lanes None
    in
    for l = 0 to lanes - 1 do
      if mask.(l) then a.(l) <- f l
    done;
    st.orig <- SM.add r a st.orig
  end

let clear_origins c w mask lanes r = set_origins c w mask lanes r (fun _ -> None)

(* the origin arrays of the registers [e] reads, highest name first *)
let origin_sources (c : bctx) (w : int) (e : Ir.exp) : origin list option array list =
  let orig = c.warps.(w).orig in
  Analysis.SS.fold
    (fun r acc -> match SM.find_opt r orig with Some a -> a :: acc | None -> acc)
    (Analysis.exp_uses e) []

let lane_origins srcs l =
  List.concat_map (fun a -> match a.(l) with Some os -> os | None -> []) srcs

let let_origins c w mask lanes r e =
  if c.trace <> None then
    match origin_sources c w e with
    | [] -> set_origins c w mask lanes r (fun _ -> Some [])
    | srcs ->
        set_origins c w mask lanes r (fun l -> Some (dedup_origins (lane_origins srcs l)))

(* bit l: lane l stores a value derived from a same-epoch load of the
   cell it stores to — a lost update when it races *)
let store_rmw c w mask lanes ~space ~arr ~(idx : aval) (v : Ir.exp) : int =
  if c.trace = None then 0
  else begin
    let srcs = origin_sources c w v in
    let rmw = ref 0 in
    for l = 0 to lanes - 1 do
      if mask.(l) then begin
        let ix = lane_idx idx l in
        if
          List.exists
            (fun (sp, ar, i, ep) -> sp = space && ar = arr && ep = c.epoch && i = ix)
            (lane_origins srcs l)
        then rmw := !rmw lor (1 lsl l)
      end
    done;
    !rmw
  end

(* ------------------------------------------------------------------ *)
(* Access recording                                                    *)
(* ------------------------------------------------------------------ *)

(* the analyzer prices the access into its site and returns
   (transactions, conflict degree) for the interpreter-identical event
   counts; the sanitizer's walk reports it instead *)
let record (c : bctx) (w : int) ~loc ~space ~arr ~kind ~(idx : aval)
    ~(mask : bool array) ~(lanes : int) ~(width : int) ~(rmw : int) : int * int =
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
          a_rmw = rmw;
        }
        :: t.accesses;
      (0, 1)
  | None ->
      let s =
        find_site c.sites ~kernel:c.kernel.Ir.k_name ~loc ~space ~arr ~kind
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

(* charge an event to both the current-epoch per-warp record and the
   block totals (the interpreter's warp-level charging point) *)
let chg (c : bctx) (w : int) (f : counts -> unit) : unit =
  f c.cur.(w);
  f c.tot

(* a shared load or store: one warp instruction, replayed [degree] times *)
let chg_shared (c : bctx) (w : int) (degree : int) : unit =
  chg c w (fun k ->
      k.c_warp_insts <- k.c_warp_insts +. 1.0;
      k.c_shared_ops <- k.c_shared_ops +. 1.0;
      k.c_shared_serial <- k.c_shared_serial +. float_of_int degree)

let barrier (c : bctx) (loc : string) : unit =
  c.epochs <- c.cur :: c.epochs;
  c.cur <- Array.init c.nwarps (fun _ -> zero_counts ());
  c.tot.c_syncs <- c.tot.c_syncs +. float_of_int c.nwarps;
  c.tot.c_warp_insts <- c.tot.c_warp_insts +. float_of_int c.nwarps;
  c.epoch <- c.epoch + 1;
  match c.trace with
  | Some t when c.bid = 0 -> t.barriers <- loc :: t.barriers
  | _ -> ()

(* after both arms of an unknown branch ran from the same entry state:
   the lanes of [umask] keep what the arms agree on, the others are
   untouched by either arm *)
let join_arms (st : wstate) ~(arm : wstate) (umask : bool array) (lanes : int) : unit =
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
  let join_orig x y =
    if x == y then x
    else
      Array.init warp_lanes (fun l ->
          if l < lanes && umask.(l) then
            match (x.(l), y.(l)) with
            | Some a, Some b -> Some (dedup_origins (a @ b))
            | _ -> None
          else y.(l))
  in
  st.regs <-
    SM.merge
      (fun _ a b ->
        match (a, b) with Some x, Some y -> Some (join_val x y) | _ -> Some top)
      arm.regs st.regs;
  st.orig <-
    SM.merge
      (fun _ a b ->
        match (a, b) with Some x, Some y -> Some (join_orig x y) | _ -> None)
      arm.orig st.orig

let rec exec_warp (c : bctx) (w : int) (mask : bool array) (loc : string)
    (s : Ir.stmt) : unit =
  let lanes = lanes_of c w in
  match s with
  | Ir.Comment _ -> ()
  | Ir.Let (r, e) ->
      assign c w mask lanes r (ev c w e);
      let_origins c w mask lanes r e;
      chg c w (fun k ->
          k.c_warp_insts <- k.c_warp_insts +. 1.0;
          k.c_alu <- k.c_alu +. 1.0)
  | Ir.Load { dst; space; arr; idx } -> (
      let idxv = ev c w idx in
      let trans, degree =
        record c w ~loc ~space ~arr ~kind:Ld ~idx:idxv ~mask ~lanes ~width:1 ~rmw:0
      in
      assign c w mask lanes dst top;
      set_origins c w mask lanes dst (fun l ->
          Some [ (space, arr, lane_idx idxv l, c.epoch) ]);
      match space with
      | Ir.Global ->
          chg c w (fun k ->
              k.c_warp_insts <- k.c_warp_insts +. 1.0;
              k.c_gld_ops <- k.c_gld_ops +. 1.0;
              k.c_gld_trans <- k.c_gld_trans +. float_of_int trans)
      | Ir.Shared -> chg_shared c w degree)
  | Ir.Vec_load { dsts; arr; base } ->
      let width = List.length dsts in
      let basev = ev c w base in
      let trans, _ =
        record c w ~loc ~space:Ir.Global ~arr ~kind:Vl ~idx:basev ~mask ~lanes
          ~width ~rmw:0
      in
      List.iteri
        (fun j d ->
          assign c w mask lanes d top;
          set_origins c w mask lanes d (fun l ->
              Some
                [ (Ir.Global, arr, Option.map (( + ) j) (lane_idx basev l), c.epoch) ]))
        dsts;
      chg c w (fun k ->
          k.c_warp_insts <- k.c_warp_insts +. 1.0;
          k.c_vec_ops <- k.c_vec_ops +. 1.0;
          k.c_gld_trans <- k.c_gld_trans +. float_of_int trans)
  | Ir.Store { space; arr; idx; v } -> (
      let idxv = ev c w idx in
      let rmw = store_rmw c w mask lanes ~space ~arr ~idx:idxv v in
      let trans, degree =
        record c w ~loc ~space ~arr ~kind:St ~idx:idxv ~mask ~lanes ~width:1 ~rmw
      in
      match space with
      | Ir.Global ->
          chg c w (fun k ->
              k.c_warp_insts <- k.c_warp_insts +. 1.0;
              k.c_gst_trans <- k.c_gst_trans +. float_of_int trans)
      | Ir.Shared -> chg_shared c w degree)
  | Ir.Atomic { dst; space; arr; idx; scope; _ } -> (
      let idxv = ev c w idx in
      ignore
        (record c w ~loc ~space ~arr ~kind:At ~idx:idxv ~mask ~lanes ~width:1 ~rmw:0);
      (match dst with
      | Some d ->
          assign c w mask lanes d top;
          clear_origins c w mask lanes d
      | None -> ());
      let n_active = Lanes.active mask lanes in
      let exact = known_on idxv mask lanes in
      if n_active > 0 then
        let distinct, worst =
          if exact then Lanes.atomic_conflicts idxv.v mask lanes
          else (n_active, n_active)  (* worst both ways *)
        in
        match space with
        | Ir.Shared ->
            chg c w (fun k ->
                k.c_warp_insts <- k.c_warp_insts +. 1.0;
                k.c_atomic_shared_ops <-
                  k.c_atomic_shared_ops +. float_of_int n_active;
                k.c_atomic_shared_serial <-
                  k.c_atomic_shared_serial +. float_of_int worst)
        | Ir.Global ->
            chg c w (fun k ->
                k.c_warp_insts <- k.c_warp_insts +. 1.0;
                k.c_atomic_global_ops <-
                  k.c_atomic_global_ops +. float_of_int n_active;
                k.c_atomic_global_trans <-
                  k.c_atomic_global_trans +. float_of_int distinct);
            if not exact then c.approx <- true
            else if c.trace = None then
              for l = 0 to lanes - 1 do
                if mask.(l) then begin
                  let key = (arr, idxv.v.(l), scope) in
                  match Hashtbl.find_opt c.heat key with
                  | Some r -> r := !r +. 1.0
                  | None -> Hashtbl.add c.heat key (ref 1.0)
                end
              done)
  | Ir.Shfl { dst; _ } ->
      assign c w mask lanes dst top;
      clear_origins c w mask lanes dst;
      chg c w (fun k ->
          k.c_warp_insts <- k.c_warp_insts +. 1.0;
          k.c_shfl <- k.c_shfl +. 1.0)
  | Ir.Sync ->
      (* only reachable through divergent control, which the race
         sanitizer reports *)
      c.approx <- true
  | Ir.If (cnd, t, e) ->
      chg c w (fun k ->
          k.c_warp_insts <- k.c_warp_insts +. 1.0;
          k.c_branches <- k.c_branches +. 1.0);
      let cv = ev c w cnd in
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
        chg c w (fun k -> k.c_divergent <- k.c_divergent +. 1.0);
      if !n_u > 0 then begin
        (* data-dependent branch: those lanes run both arms from the same
           entry state and join *)
        c.approx <- true;
        let st = c.warps.(w) in
        let entry = snapshot st in
        exec_warp_stmts c w umask (loc ^ ".then") t;
        let arm = snapshot st in
        restore st entry;
        exec_warp_stmts c w umask (loc ^ ".else") e;
        join_arms st ~arm umask lanes
      end;
      if !n_t > 0 then exec_warp_stmts c w tmask (loc ^ ".then") t;
      if !n_e > 0 then exec_warp_stmts c w emask (loc ^ ".else") e
  | Ir.For { var; init; cond; step; body } ->
      assign c w mask lanes var (ev c w init);
      clear_origins c w mask lanes var;
      chg c w (fun k ->
          k.c_warp_insts <- k.c_warp_insts +. 1.0;
          k.c_alu <- k.c_alu +. 1.0);
      let step_unknown = Array.make warp_lanes false in
      warp_loop c w mask lanes (loc ^ ".body") body ~cond ~step_unknown
        ~widen:(fun wide ->
          assign c w wide lanes var top;
          clear_origins c w wide lanes var)
        ~step:(fun live ->
          let sv = ev c w step in
          assign c w live lanes var sv;
          chg c w (fun k ->
              k.c_warp_insts <- k.c_warp_insts +. 1.0;
              k.c_alu <- k.c_alu +. 1.0);
          for l = 0 to lanes - 1 do
            if live.(l) && not (known sv l) then step_unknown.(l) <- true
          done)
  | Ir.While (cnd, body) ->
      warp_loop c w mask lanes (loc ^ ".body") body ~cond:cnd
        ~step_unknown:(Array.make warp_lanes false)
        ~widen:(fun _ -> ())
        ~step:(fun _ -> ())

(* a loop at warp level: each live lane leaves when its condition is
   known false; a lane whose condition (or last iterator step) is
   unknown, or every live lane once the fuel is spent, widens — its
   iterator becomes unknown and the body runs twice more, exposing
   intra- and cross-iteration pairs *)
and warp_loop c w mask lanes body_loc body ~cond ~step_unknown ~widen ~step =
  let live = Array.copy mask in
  let wide = Array.make warp_lanes false in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    chg c w (fun k -> k.c_branches <- k.c_branches +. 1.0);
    let cv = ev c w cond in
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
      exec_warp_stmts c w wide body_loc body;
      exec_warp_stmts c w wide body_loc body;
      Array.fill wide 0 warp_lanes false
    end;
    if !n_live = 0 then continue_ := false
    else begin
      incr iters;
      c.fuel <- c.fuel - 1;
      exec_warp_stmts c w live body_loc body;
      step live
    end
  done

and exec_warp_stmts (c : bctx) (w : int) (mask : bool array) (path : string)
    (body : Ir.stmt list) : unit =
  List.iteri
    (fun i s -> exec_warp c w mask (Printf.sprintf "%s[%d]" path i) s)
    body

(* a block-uniform value: the same known constant in every lane of every
   warp *)
let uniform_across (c : bctx) (e : Ir.exp) : int option =
  match List.init c.nwarps (fun w -> uniform_of (ev c w e) (lanes_of c w)) with
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
let rec exec_block_stmt (c : bctx) (loc : string) (s : Ir.stmt) : unit =
  if not (Analysis.contains_sync s) then
    for w = 0 to c.nwarps - 1 do
      exec_warp c w full_mask loc s
    done
  else
    match s with
    | Ir.Sync -> barrier c loc
    | Ir.If (cnd, t, e) -> (
        c.tot.c_blk_branches <- c.tot.c_blk_branches +. float_of_int c.nwarps;
        match uniform_across c cnd with
        | Some v ->
            if v <> 0 then exec_block_stmts c (loc ^ ".then") t
            else exec_block_stmts c (loc ^ ".else") e
        | None ->
            c.approx <- true;
            let entry = Array.map snapshot c.warps in
            exec_block_stmts c (loc ^ ".then") t;
            let arm = Array.map snapshot c.warps in
            Array.iter2 restore c.warps entry;
            exec_block_stmts c (loc ^ ".else") e;
            each_warp c (fun w lanes ->
                join_arms c.warps.(w) ~arm:arm.(w) full_mask lanes))
    | Ir.For { var; init; cond; step; body } ->
        let set_var f =
          each_warp c (fun w lanes ->
              assign c w full_mask lanes var (f w);
              clear_origins c w full_mask lanes var)
        in
        set_var (fun w -> ev c w init);
        block_loop c loc body ~cond
          ~widen:(fun () -> set_var (fun _ -> top))
          ~step:(fun () ->
            let stepped = ref true in
            each_warp c (fun w lanes ->
                let sv = ev c w step in
                if not (known_on sv full_mask lanes) then stepped := false;
                assign c w full_mask lanes var sv);
            c.tot.c_blk_branches <- c.tot.c_blk_branches +. float_of_int c.nwarps;
            !stepped)
    | Ir.While (cnd, body) ->
        block_loop c loc body ~cond:cnd ~widen:ignore ~step:(fun () -> true)
    | Ir.Let _ | Ir.Load _ | Ir.Store _ | Ir.Vec_load _ | Ir.Atomic _
    | Ir.Shfl _ | Ir.Comment _ ->
        assert false

(* a loop at block level runs while its condition is uniformly known
   true; an unknown condition or iterator step, or spent fuel, widens *)
and block_loop c loc body ~cond ~widen ~step =
  let run () = exec_block_stmts c (loc ^ ".body") body in
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

and exec_block_stmts (c : bctx) (path : string) (body : Ir.stmt list) : unit =
  List.iteri
    (fun i s -> exec_block_stmt c (Printf.sprintf "%s[%d]" path i) s)
    body

(* ------------------------------------------------------------------ *)
(* Block / launch / program drivers                                    *)
(* ------------------------------------------------------------------ *)

type block_profile = {
  bp_bid : int;
  bp_warps : int;
  bp_epochs : counts array list;
  bp_tot : counts;
  bp_heat : ((string * int * Ir.scope) * float) list;
}

let new_block ~trace ~sites ~params ~bdim ~gdim ~bid (k : Ir.kernel) : bctx =
  let nwarps = (bdim + warp_lanes - 1) / warp_lanes in
  {
    kernel = k;
    bid;
    bdim;
    gdim;
    params;
    nwarps;
    warps = Array.init nwarps (fun _ -> { regs = SM.empty; orig = SM.empty });
    epoch = 0;
    epochs = [];
    cur = Array.init nwarps (fun _ -> zero_counts ());
    tot = zero_counts ();
    heat = Hashtbl.create 8;
    sites;
    fuel = (if trace = None then block_fuel else max_int);
    loop_fuel = (if trace = None then max_int else sanitizer_loop_fuel);
    trace;
    approx = false;
  }

let analyze_block ~(sites : site_table) ~(params : int SM.t) ~(bdim : int)
    ~(gdim : int) ~(bid : int) (k : Ir.kernel) : block_profile * bool =
  let c = new_block ~trace:None ~sites ~params ~bdim ~gdim ~bid k in
  exec_block_stmts c "body" k.Ir.k_body;
  c.epochs <- c.cur :: c.epochs;
  let heat = Hashtbl.fold (fun key r acc -> (key, !r) :: acc) c.heat [] in
  ( {
      bp_bid = bid;
      bp_warps = c.nwarps;
      bp_epochs = List.rev c.epochs;
      bp_tot = c.tot;
      bp_heat = List.sort compare heat;
    },
    c.approx )

let trace_kernel ~(params : (string * int) list) ~(block : int) ~(grid : int)
    (k : Ir.kernel) : access list * string list =
  let params = List.fold_left (fun m (p, v) -> SM.add p v m) SM.empty params in
  let sites = new_site_table () in
  let t = { accesses = []; barriers = [] } in
  for bid = 0 to grid - 1 do
    exec_block_stmts
      (new_block ~trace:(Some t) ~sites ~params ~bdim:block ~gdim:grid ~bid k)
      "body" k.Ir.k_body
  done;
  (List.rev t.accesses, List.rev t.barriers)

type launch_pred = {
  lp_kernel : string;
  lp_grid : int;
  lp_block : int;
  lp_shared_bytes : int;
  lp_first : block_profile;
  lp_last : block_profile option;
  lp_totals : counts;
  lp_max_heat : float;
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

let analyze ?n ?tunables (p : Ir.program) : analysis =
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
        match
          List.find_opt (fun k -> k.Ir.k_name = ln.Ir.ln_kernel) p.Ir.p_kernels
        with
        | None -> None
        | Some k -> (
            match (eval ln.Ir.ln_grid, eval ln.Ir.ln_block, eval ln.Ir.ln_shared_elems)
            with
            | exception _ ->
                approx := true;
                None
            | grid, block, shared_elems ->
                let grid = max 1 grid in
                let block = max 1 (min block 1024) in
                let params =
                  Ir.launch_params k ln (fun h ->
                      match eval h with v -> Some v | exception _ -> None)
                  |> List.fold_left (fun m (p, v) -> SM.add p v m) SM.empty
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
                    ~bid:0 k
                in
                let last, a2 =
                  if grid > 1 then
                    let bp, a =
                      analyze_block ~sites ~params ~bdim:block ~gdim:grid
                        ~bid:(grid - 1) k
                    in
                    (Some bp, a)
                  else (None, false)
                in
                if a1 || a2 then approx := true;
                let totals = zero_counts () in
                (match last with
                | None -> add_counts totals first.bp_tot
                | Some l ->
                    add_counts ~scale:(float_of_int (grid - 1)) totals first.bp_tot;
                    add_counts totals l.bp_tot);
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
                Some
                  {
                    lp_kernel = k.Ir.k_name;
                    lp_grid = grid;
                    lp_block = block;
                    lp_shared_bytes = shared_bytes;
                    lp_first = first;
                    lp_last = last;
                    lp_totals = totals;
                    lp_max_heat = max_heat;
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

let check_program (p : Ir.program) : Diag.t list =
  let lo, hi = Ir.tunable_extremes p in
  let run tunables =
    match analyze ~n:sample_n ~tunables p with
    | a -> a.an_diags
    | exception _ -> []
  in
  let diags = run lo @ if hi = lo then [] else run hi in
  Diag.sort (Diag.dedup diags)
