(* Barrier-phase race detection over the device IR.

   Two cooperating analyses:

   - a static walk ({!Analysis.iter_control}, the control levels and
     locations {!Validate} and {!Resolve} use too) that reports barriers
     under divergent control (TSAN004) and malformed or out-of-warp
     shuffles (TSAN005);

   - a bounded run of the thread grid on {!Access}'s warp walk
     ({!Access.trace_kernel}), whose every shared/global access carries
     its barrier phase; each warp access becomes one event per thread,
     a store to a cell its thread loaded earlier in the phase is marked
     read-modify-write (a lost update when it races), and the events
     are compared pairwise. Values derived from thread
     coordinates, parameters bound from the host launch, and
     compile-time constants stay concrete; anything data-dependent
     (memory loads, shuffles, unbound parameters) is unknown in the
     lanes it reaches, which conservatively overlaps every index.

   The grid model is deliberately small — [model_block] threads in
   [model_grid] blocks — because the access patterns of the paper's
   reduction kernels are periodic in the warp: one block of 64 threads
   (two warps) plus one extra block exposes every cross-warp and
   cross-block pairing the full grid would. Intra-warp pairs are exempt
   per the pre-Volta warp-synchronous model the codelets target
   (shuffle-based variants deliberately drop intra-warp barriers,
   Section III.C / Listing 4 of the paper). *)

let model_block = 64
let model_grid = 2

(* may the two indices ([None]: data-dependent) denote the same location? *)
let may_alias a b = match (a, b) with Some x, Some y -> x = y | _ -> true

(* ------------------------------------------------------------------ *)
(* Access events                                                       *)
(* ------------------------------------------------------------------ *)

type akind = Ld | St | At

let kind_name = function Ld -> "load" | St -> "store" | At -> "atomic"

(* one thread's access; a vector load is one [Ld] per element *)
type event = {
  ev_bid : int;
  ev_tid : int;
  ev_phase : int;
  ev_space : Ir.space;
  ev_arr : string;
  ev_idx : int option;
  ev_kind : akind;
  ev_loc : string;
  ev_rmw : bool;  (* store to a cell its thread loaded earlier in the
                     same phase: a lost update when it races *)
}

let warp_of tid = tid / 32

(* the walk's warp accesses as per-thread events, ordered as a
   thread-by-thread run would emit them — by block, thread and program
   order, newest first — which fixes the witness pair each diagnostic
   names. Visiting each thread's accesses in program order also marks
   its read-modify-writes: a store to a cell (space, array, index or
   data-dependent index, phase) the thread loaded earlier. *)
let events_of ~(block : int) ~(grid : int) (accesses : Access.access list) :
    event list =
  let nwarps = (block + 31) / 32 in
  (* each warp's accesses, oldest first *)
  let by_warp = Array.make (grid * nwarps) [] in
  List.iter
    (fun (a : Access.access) ->
      let i = (a.Access.a_bid * nwarps) + a.Access.a_warp in
      by_warp.(i) <- a :: by_warp.(i))
    (List.rev accesses);
  (* the cells the current thread loaded so far *)
  let loaded = Hashtbl.create 64 in
  let evs = ref [] in
  for bid = 0 to grid - 1 do
    for tid = 0 to block - 1 do
      Hashtbl.clear loaded;
      List.iter
        (fun { Access.a_epoch; a_loc; a_space; a_arr; a_kind; a_width; a_active;
               a_idx; _ } ->
          let l = tid mod 32 in
          if a_active land (1 lsl l) <> 0 then
            let base = Access.lane_idx a_idx l in
            for j = 0 to a_width - 1 do
              let idx = match base with Some b -> Some (b + j) | None -> None in
              let kind =
                match a_kind with
                | Access.Ld | Access.Vl -> Ld
                | Access.St -> St
                | Access.At -> At
              in
              let rmw =
                match kind with
                | Ld ->
                    Hashtbl.replace loaded (a_space, a_arr, idx, a_epoch) ();
                    false
                | St -> Hashtbl.mem loaded (a_space, a_arr, idx, a_epoch)
                | At -> false
              in
              evs :=
                {
                  ev_bid = bid;
                  ev_tid = tid;
                  ev_phase = a_epoch;
                  ev_space = a_space;
                  ev_arr = a_arr;
                  ev_idx = idx;
                  ev_kind = kind;
                  ev_loc = a_loc;
                  ev_rmw = rmw;
                }
                :: !evs
            done)
        by_warp.((bid * nwarps) + (tid / 32))
    done
  done;
  !evs

(* ------------------------------------------------------------------ *)
(* Static checks: divergent barriers, malformed shuffles               *)
(* ------------------------------------------------------------------ *)

let static_diags (k : Ir.kernel) : Diag.t list =
  let out = ref [] in
  let add ~loc code msg =
    out := Diag.make ~loc ~code ~severity:Diag.Error ~kernel:k.Ir.k_name msg :: !out
  in
  let level_name = function
    | Analysis.Block_uniform -> "block-uniform"
    | Analysis.Warp_uniform -> "warp-uniform"
    | Analysis.Divergent -> "thread-divergent"
  in
  Analysis.iter_control k (fun ~ctrl ~loc (s : Ir.stmt) ->
      match s with
      | Ir.Sync ->
          if ctrl <> Analysis.Block_uniform then
            add ~loc "TSAN004"
              (Printf.sprintf
                 "__syncthreads() under %s control flow: threads of one block \
                  can reach different barrier instances (or skip the barrier \
                  entirely), which deadlocks the block on real hardware"
                 (level_name ctrl))
      | Ir.Shfl { width; _ } ->
          if width > 32 then
            add ~loc "TSAN005"
              (Printf.sprintf
                 "shuffle width %d exceeds the warp: lanes cannot exchange \
                  registers across warps, the exchange reads undefined data"
                 width)
          else if not (Validate.valid_shfl_width width) then
            add ~loc "TSAN005"
              (Printf.sprintf "invalid shuffle width %d (must be 2/4/8/16/32)"
                 width)
          else if ctrl = Analysis.Divergent then
            add ~loc "TSAN005"
              "warp shuffle under lane-divergent control flow: inactive source \
               lanes make the exchanged value undefined"
      | Ir.If _ | Ir.For _ | Ir.While _ | Ir.Let _ | Ir.Load _ | Ir.Store _
      | Ir.Vec_load _ | Ir.Atomic _ | Ir.Comment _ ->
          ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Pairwise race detection over the recorded events                    *)
(* ------------------------------------------------------------------ *)

let idx_name = function
  | Some i -> Printf.sprintf "index %d" i
  | None -> "a data-dependent index"

(* same warp of the same block: ordered by warp-synchronous execution *)
let same_warp a b = a.ev_bid = b.ev_bid && warp_of a.ev_tid = warp_of b.ev_tid

(* can the two accesses be unordered at run time? *)
let concurrent a b =
  (a.ev_bid <> b.ev_bid || a.ev_tid <> b.ev_tid)
  && (not (same_warp a b))
  &&
  match a.ev_space with
  | Ir.Shared ->
      (* shared memory is per block: only same-block accesses alias *)
      a.ev_bid = b.ev_bid && a.ev_phase = b.ev_phase
  | Ir.Global ->
      (* barriers order nothing across blocks *)
      (if a.ev_bid = b.ev_bid then a.ev_phase = b.ev_phase else true)

let classify a b : (string * string) option =
  match (a.ev_kind, b.ev_kind) with
  | Ld, Ld | At, At -> None
  | St, St ->
      if a.ev_rmw || b.ev_rmw then
        Some
          ( "TSAN003",
            "lost update: both threads read-modify-write the cell without \
             atomicity, one increment is silently dropped" )
      else Some ("TSAN001", "write-write race: the surviving value is arbitrary")
  | (St, At | At, St) ->
      Some
        ( "TSAN001",
          "plain store races an atomic update of the same cell: the store \
           can overwrite concurrently accumulated values" )
  | (St, Ld | Ld, St) ->
      let st = if a.ev_kind = St then a else b in
      if st.ev_rmw then
        Some
          ( "TSAN003",
            "lost update: a non-atomic read-modify-write races a reader of \
             the same cell" )
      else
        Some
          ( "TSAN002",
            "read-write race: the load can observe the cell mid-update" )
  | (At, Ld | Ld, At) ->
      Some
        ( "TSAN002",
          "read races an atomic update of the same cell: the load can \
           observe an intermediate accumulator value" )

let space_name = function Ir.Shared -> "shared" | Ir.Global -> "global"

(* the events by array: only same-array accesses alias *)
let by_array (events : event list) : (Ir.space * string, event list ref) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let key = (e.ev_space, e.ev_arr) in
      match Hashtbl.find_opt tbl key with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add tbl key (ref [ e ]))
    events;
  tbl

(* One array's events indexed by cell, so that an access meets only the
   events that may alias it: those at its index, and those at a
   data-dependent one. [order] holds the positions of [evs], the
   data-dependent ones first ([n_unknown] of them), then by index; each
   run by position. *)
type cells = { evs : event array; order : int array; n_unknown : int }

let cells_of (evs : event array) : cells =
  let order = Array.init (Array.length evs) Fun.id in
  (* stable: positions stay increasing within a run *)
  Array.stable_sort
    (fun p q ->
      match (evs.(p).ev_idx, evs.(q).ev_idx) with
      | None, Some _ -> -1
      | Some _, None -> 1
      | None, None -> 0
      | Some x, Some y -> Int.compare x y)
    order;
  let n_unknown = ref 0 in
  Array.iter (fun e -> if e.ev_idx = None then incr n_unknown) evs;
  { evs; order; n_unknown = !n_unknown }

(* the first position of [c.order], past the data-dependent ones, whose
   index is at least [x] *)
let lower_bound (c : cells) (x : int) : int =
  let lo = ref c.n_unknown and hi = ref (Array.length c.order) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    match c.evs.(c.order.(mid)).ev_idx with
    | Some y when y < x -> lo := mid + 1
    | _ -> hi := mid
  done;
  !lo

(* [f i j] for every event [j] that may alias event [i], in increasing
   [j]; [f] returns false to stop early. Returns whether it ran out. *)
let for_aliasing (c : cells) (i : int) (f : int -> int -> bool) : bool =
  match c.evs.(i).ev_idx with
  | None ->
      let n = Array.length c.evs in
      let j = ref 0 in
      while !j < n && f i !j do
        incr j
      done;
      !j >= n
  | Some x ->
      (* merge the events at [x] with the data-dependent ones *)
      let k = ref (lower_bound c x) and k_end = lower_bound c (x + 1) in
      let u = ref 0 in
      let go = ref true in
      while !go && (!k < k_end || !u < c.n_unknown) do
        let j =
          if !u >= c.n_unknown || (!k < k_end && c.order.(!k) < c.order.(!u)) then begin
            incr k;
            c.order.(!k - 1)
          end
          else begin
            incr u;
            c.order.(!u - 1)
          end
        in
        go := f i j
      done;
      !go

let race_diags (k : Ir.kernel) (events : event list) : Diag.t list =
  let tbl = by_array events in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  let report code detail w e =
    let l1 = min w.ev_loc e.ev_loc and l2 = max w.ev_loc e.ev_loc in
    let key = Printf.sprintf "%s|%s|%s|%s|%s" code (space_name w.ev_space) w.ev_arr l1 l2 in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let msg =
        Printf.sprintf
          "%s at %s (thread %d of block %d, barrier phase %d) and %s at %s \
           (thread %d of block %d, phase %d) may touch %s of %s array %S \
           concurrently: %s"
          (kind_name w.ev_kind) w.ev_loc w.ev_tid w.ev_bid w.ev_phase
          (kind_name e.ev_kind) e.ev_loc e.ev_tid e.ev_bid e.ev_phase
          (idx_name w.ev_idx) (space_name w.ev_space) w.ev_arr detail
      in
      out :=
        Diag.make ~loc:w.ev_loc ~code ~severity:Diag.Error ~kernel:k.Ir.k_name
          msg
        :: !out
    end
  in
  Hashtbl.iter
    (fun _ group ->
      let c = cells_of (Array.of_list !group) in
      let visit i j =
        let a = c.evs.(i) and b = c.evs.(j) in
        (* canonical order so each unordered pair is visited once when
           both sides are writes *)
        if j <> i && (b.ev_kind = Ld || i < j) && concurrent a b then begin
          match classify a b with
          | Some (code, detail) -> report code detail a b
          | None -> ()
        end;
        true
      in
      for i = 0 to Array.length c.evs - 1 do
        if c.evs.(i).ev_kind <> Ld then ignore (for_aliasing c i visit)
      done)
    tbl;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Perf lints                                                          *)
(* ------------------------------------------------------------------ *)

let lint_diags (k : Ir.kernel) (events : event list)
    (syncs : (string * bool) list) : Diag.t list =
  let out = ref [] in
  let warn ~loc code msg =
    out := Diag.make ~loc ~code ~severity:Diag.Warn ~kernel:k.Ir.k_name msg :: !out
  in
  (* TLINT001: a barrier with no memory access since the previous one
     orders nothing the previous barrier did not already order. [syncs]
     is thread (0,0)'s barrier trace, oldest first. *)
  let seen1 = Hashtbl.create 4 in
  List.iteri
    (fun i (loc, had_access) ->
      if i > 0 && (not had_access) && not (Hashtbl.mem seen1 loc) then begin
        Hashtbl.add seen1 loc ();
        warn ~loc "TLINT001"
          "redundant barrier: no shared/global access since the previous \
           __syncthreads(), the barrier orders nothing new"
      end)
    syncs;
  (* TLINT002: all producer/consumer pairs across this barrier sit in one
     warp — warp-synchronous execution (or a shuffle) already orders
     them, the block-wide barrier is avoidable (paper, Listing 4). Only
     block 0's events matter; barriers order nothing across blocks. *)
  let nsyncs = List.length syncs in
  let by_phase = Array.make (nsyncs + 1) [] in
  List.iter
    (fun e ->
      if e.ev_bid = 0 && e.ev_phase <= nsyncs then
        by_phase.(e.ev_phase) <- e :: by_phase.(e.ev_phase))
    events;
  List.iteri
    (fun p (loc, _) ->
      (* a dependence pair at all, and none across warps *)
      let paired = ref false and intra = ref true in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if
                !intra && a.ev_arr = b.ev_arr && a.ev_space = b.ev_space
                && (a.ev_kind <> Ld || b.ev_kind <> Ld)
                && may_alias a.ev_idx b.ev_idx
              then begin
                paired := true;
                if not (same_warp a b) then intra := false
              end)
            by_phase.(p + 1))
        by_phase.(p);
      if !paired && !intra then
        warn ~loc "TLINT002"
          "every producer/consumer dependence across this barrier is \
           intra-warp: lockstep warp execution (or a __shfl exchange) \
           already orders them, the block-wide barrier can be removed")
    syncs;
  (* TLINT003: an atomic no two distinct threads ever contend on could be
     a plain store. Requires every index to be concrete — a
     data-dependent index may collide for some input. *)
  Hashtbl.iter
    (fun (space, arr) group ->
      let evs = !group in
      let all_known = List.for_all (fun e -> e.ev_idx <> None) evs in
      let contended () =
        let c = cells_of (Array.of_list evs) in
        (* false once two distinct threads contend *)
        let apart i j =
          let a = c.evs.(i) and b = c.evs.(j) in
          not
            ((a.ev_bid <> b.ev_bid || a.ev_tid <> b.ev_tid)
            && match space with Ir.Shared -> a.ev_bid = b.ev_bid | Ir.Global -> true)
        in
        let rec from i = i < Array.length c.evs && ((not (for_aliasing c i apart)) || from (i + 1)) in
        from 0
      in
      if all_known && not (contended ()) then
        let locs =
          List.sort_uniq compare (List.map (fun e -> e.ev_loc) evs)
        in
        List.iter
          (fun loc ->
            warn ~loc "TLINT003"
              (Printf.sprintf
                 "atomic on %s array %S is single-writer for every location \
                  it touches: a plain store would do and is cheaper"
                 (space_name space) arr))
          locs)
    (by_array (List.filter (fun e -> e.ev_kind = At) events));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_kernel ?(params = []) ?block ?grid (k : Ir.kernel) : Diag.t list =
  let block = max 1 (match block with Some b -> b | None -> model_block) in
  let grid = max 1 (match grid with Some g -> g | None -> model_grid) in
  let statics = static_diags k in
  (* a divergent barrier desynchronises the phase counters: phase-based
     race detection is meaningless until it is fixed *)
  if List.exists (fun (d : Diag.t) -> d.Diag.code = "TSAN004") statics then
    Diag.sort (Diag.dedup statics)
  else begin
    let accesses, barriers = Access.trace_kernel ~params ~block ~grid k in
    let evs = events_of ~block ~grid accesses in
    (* thread (0,0)'s barrier trace, oldest first: each barrier and
       whether the thread accessed memory since the previous one *)
    let t00 = List.filter (fun e -> e.ev_bid = 0 && e.ev_tid = 0) evs in
    let syncs =
      List.mapi
        (fun i loc -> (loc, List.exists (fun e -> e.ev_phase = i) t00))
        barriers
    in
    let diags = statics @ race_diags k evs @ lint_diags k evs syncs in
    Diag.sort (Diag.dedup diags)
  end

(* ------------------------------------------------------------------ *)
(* Program-level driver                                                *)
(* ------------------------------------------------------------------ *)

let check_program (p : Ir.program) : Diag.t list =
  (* host expressions at the model input size, worst case over the first
     and last candidate of every tunable: block sizes grow with the
     candidate list, trip counts shrink, so the max over both extremes
     is the largest geometry the tuner can pick *)
  let lo, hi = Ir.tunable_extremes p in
  let eval_max h =
    match
      List.filter_map
        (fun tunables ->
          match Ir.eval_hexp ~n:Access.sample_n ~tunables h with
          | v -> Some v
          | exception _ -> None)
        [ lo; hi ]
    with
    | [] -> None
    | vs -> Some (List.fold_left max min_int vs)
  in
  let capped model h =
    match eval_max h with Some v -> min model (max 1 v) | None -> model
  in
  let diags =
    List.concat_map
      (fun (ln : Ir.launch) ->
        match
          List.find_opt (fun k -> k.Ir.k_name = ln.Ir.ln_kernel) p.Ir.p_kernels
        with
        | None -> []
        | Some k ->
            (* parameters are bound worst-case too: a tile of 32 keeps the
               whole tree inside one warp where every barrier is
               legitimately removable — the model must see the widest
               geometry the tuner can pick *)
            check_kernel
              ~params:(Ir.launch_params k ln eval_max)
              ~block:(capped model_block ln.Ir.ln_block)
              ~grid:(capped model_grid ln.Ir.ln_grid)
              k)
      p.Ir.p_launches
  in
  Diag.sort (Diag.dedup diags)

exception Racy of Diag.t list

let () =
  Printexc.register_printer (function
    | Racy ds ->
        Some (Printf.sprintf "Race.Racy (%s)\n%s" (Diag.summary ds) (Diag.render ds))
    | _ -> None)

let check_program_exn (p : Ir.program) : unit =
  let diags = check_program p in
  if Diag.has_errors diags then raise (Racy diags)
