(* Code-version descriptors and search-space enumeration (Section IV-B and
   Figure 6).

   A code version is a composition of codelet variants across the GPU
   software hierarchy:

   - at the {b grid} level, a compound codelet distributes the input over
     blocks with a tiled or strided pattern, and the per-block partial
     results are reduced either by a device-wide atomic ({i Global Atomic
     Tile/Stride Distribute}, the Section III-A API) or hierarchically by a
     second kernel launch;
   - at the {b block} level, either a cooperative codelet runs directly
     (requiring a contiguous — tiled — grid distribution, because
     cooperative codelets index their container with [ThreadId()]), or a
     compound codelet distributes the block's tile over threads (tiled or
     strided), each thread reduces serially with the autonomous codelet,
     and a {b finisher} combines the per-thread partials;
   - the finisher is one of the cooperative codelets, or a block-scoped
     atomic on a per-block global cell (Listing 2's [atomicAdd_block]).

   Enumerating these rules gives 88 versions (the paper reports 89; the
   delta is an internal enumeration detail Tangram does not specify —
   see EXPERIMENTS.md). Pruning away every version that needs a second
   kernel launch leaves exactly 30, matching the paper, and all 30 finish
   with global atomics, also matching the paper. *)

open Tir

(** Cooperative codelet shapes, named as in Figure 6's legend. *)
type coop =
  | V  (** Figure 1(c): tree summation through shared memory *)
  | Vs  (** V with warp shuffles (Section III-C pass) *)
  | A1  (** Figure 3(a): single shared accumulator, all threads atomic *)
  | A2  (** Figure 3(b): per-warp tree, leaders atomic *)
  | A2s  (** A2 with warp shuffles *)
  | A1g
      (** A1 with warp-aggregated atomics — the Section III-D future-work
          extension, derived from Figure 3(a) by the {!Passes.Aggregate}
          pass. Not part of the paper's 89-version search space; only
          enumerated with [~extensions:true] and used by the ablation
          bench. *)
  | X of Symbolic.Exchange.t
      (** a synthesized shuffle exchange ({!Symbolic.Synth}), emitted
          directly at the IR level rather than lowered from a TIR codelet.
          Never part of {!enumerate}'s stock space; versions built on it
          enter the pipeline only through the synthesized-version
          {!register_synthesized} registry, and only after the symbolic
          prover certifies them. *)

let all_coops = [ V; Vs; A1; A2; A2s ]
let extension_coops = [ A1g ]

let coop_name = function
  | V -> "V" | Vs -> "Vs" | A1 -> "A1" | A2 -> "A2" | A2s -> "A2s" | A1g -> "A1g"
  | X e -> "X." ^ Symbolic.Exchange.name e

(** The variant tag (from {!Passes.Driver}) implementing each shape.
    Synthesized exchanges have no TIR variant — {!Compose} emits their IR
    directly, so looking one up here is a composition bug. *)
let coop_variant_name = function
  | V -> "coop_tree"
  | Vs -> "coop_tree+shfl"
  | A1 -> "shared_v1"
  | A2 -> "shared_v2"
  | A2s -> "shared_v2+shfl"
  | A1g -> "shared_v1+agg"
  | X e ->
      invalid_arg
        (Printf.sprintf "synthesized exchange %S has no TIR variant"
           (Symbolic.Exchange.name e))

let coop_uses_shuffle = function Vs | A2s | A1g | X _ -> true | V | A1 | A2 -> false
let coop_uses_shared_atomic = function A1 | A2 | A2s | A1g -> true | V | Vs | X _ -> false

(** How per-thread partials are combined within a block (compound block
    schemes only). *)
type finisher =
  | F_coop of coop
  | F_block_atomic
      (** block-scoped atomic on a per-block global cell (Listing 2) *)

let finisher_name = function
  | F_coop c -> coop_name c
  | F_block_atomic -> "GAb"

type block_scheme =
  | Direct of coop  (** cooperative codelet straight at block level *)
  | Compound of Ast.access_pattern * finisher
      (** distribute over threads, serial per-thread sum, then finisher *)
  | Direct_global_atomic
      (** no block stage at all: every thread atomically accumulates its
          guarded element into the device-wide result *)

(** How the per-block partial results are reduced at the grid level. *)
type second_kernel =
  | SK_tree  (** single block: serial strided accumulation + tree finisher *)
  | SK_serial  (** single thread reduces all partials *)

type grid_finish = Atomic | Hierarchical of second_kernel

type t = {
  grid_pattern : Ast.access_pattern;
  grid_finish : grid_finish;
  block : block_scheme;
}

let pattern_name = function Ast.Tiled -> "DT" | Ast.Strided -> "DS"

let name (v : t) : string =
  let grid =
    Printf.sprintf "%s%s" (pattern_name v.grid_pattern)
      (match v.grid_finish with
      | Atomic -> ",A"
      | Hierarchical SK_tree -> ",H(tree)"
      | Hierarchical SK_serial -> ",H(serial)")
  in
  let block =
    match v.block with
    | Direct c -> "direct:" ^ coop_name c
    | Compound (p, f) -> Printf.sprintf "%s+S>%s" (pattern_name p) (finisher_name f)
    | Direct_global_atomic -> "GA"
  in
  Printf.sprintf "%s/%s" grid block

(* ------------------------------------------------------------------ *)
(* Feature classification (for the Section IV-B accounting)            *)
(* ------------------------------------------------------------------ *)

let uses_shuffle (v : t) : bool =
  match v.block with
  | Direct c | Compound (_, F_coop c) -> coop_uses_shuffle c
  | Compound (_, F_block_atomic) | Direct_global_atomic -> false

let uses_shared_atomic (v : t) : bool =
  match v.block with
  | Direct c | Compound (_, F_coop c) -> coop_uses_shared_atomic c
  | Compound (_, F_block_atomic) | Direct_global_atomic -> false

let uses_global_atomic (v : t) : bool =
  v.grid_finish = Atomic
  || (match v.block with
     | Compound (_, F_block_atomic) | Direct_global_atomic -> true
     | Direct _ | Compound (_, F_coop _) -> false)

(** Versions synthesisable by the original Tangram framework: the three
    Figure 1 codelets only — no atomics anywhere, no shuffles. *)
let is_original (v : t) : bool =
  (not (uses_shuffle v)) && (not (uses_shared_atomic v)) && not (uses_global_atomic v)

let needs_second_kernel (v : t) : bool =
  match v.grid_finish with Hierarchical _ -> true | Atomic -> false

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(** All block schemes compatible with a grid access pattern. Cooperative
    codelets index their container contiguously with [ThreadId()], so
    direct block schemes require a tiled grid distribution; the
    thread-level serial codelet handles any pattern, so compound schemes
    are unconstrained. *)
let block_schemes ?(extensions = false) ~(grid_pattern : Ast.access_pattern)
    ~(grid_finish : grid_finish) () : block_scheme list =
  let coops = if extensions then all_coops @ extension_coops else all_coops in
  let finishers =
    F_block_atomic :: List.map (fun c -> F_coop c) coops
  in
  let compounds =
    List.concat_map
      (fun p -> List.map (fun f -> Compound (p, f)) finishers)
      [ Ast.Tiled; Ast.Strided ]
  in
  let directs =
    if grid_pattern = Ast.Tiled then List.map (fun c -> Direct c) coops else []
  in
  let direct_ga =
    (* the pure-atomic scheme is itself the grid finish: it only exists in
       atomic-finish tiled versions *)
    if grid_pattern = Ast.Tiled && grid_finish = Atomic then [ Direct_global_atomic ]
    else []
  in
  directs @ compounds @ direct_ga

let all_grid_finishes = [ Atomic; Hierarchical SK_tree; Hierarchical SK_serial ]

(** The full search space (Section IV-B: "the total number of code versions
    ... becomes 89" — this reproduction enumerates 88, see EXPERIMENTS.md). *)
let enumerate ?(extensions = false) () : t list =
  List.concat_map
    (fun grid_pattern ->
      List.concat_map
        (fun grid_finish ->
          List.map
            (fun block -> { grid_pattern; grid_finish; block })
            (block_schemes ~extensions ~grid_pattern ~grid_finish ()))
        all_grid_finishes)
    [ Ast.Tiled; Ast.Strided ]

(** The paper's pruning: drop every version that requires a second kernel
    launch to reduce the per-block partial sums. 30 versions survive, all
    finishing with atomic instructions on global memory. *)
let enumerate_pruned () : t list =
  List.filter (fun v -> not (needs_second_kernel v)) (enumerate ())

(* ------------------------------------------------------------------ *)
(* Synthesized versions                                                *)
(* ------------------------------------------------------------------ *)

(* Kept out of enumerate() on purpose: the stock space is the paper's
   fixed 88 and several tests assert its census. Proof-checked
   synthesized versions live in this process-wide registry and are
   appended to candidate lists explicitly (planner, service, bench). *)
let synthesized_registry : t list ref = ref []

(** Register a proof-checked synthesized version (idempotent). *)
let register_synthesized (v : t) : unit =
  if not (List.mem v !synthesized_registry) then
    synthesized_registry := !synthesized_registry @ [ v ]

(** All synthesized versions registered so far, in registration order. *)
let synthesized () : t list = !synthesized_registry

let clear_synthesized () : unit = synthesized_registry := []

(** Search-space accounting mirroring Section IV-B's buckets. *)
type census = {
  total : int;
  original : int;
  global_atomic_only : int;  (** atomics on global memory, nothing newer *)
  shared_atomic : int;  (** block stage uses A1/A2 *)
  shuffle : int;  (** block stage uses Vs/A2s *)
  pruned_survivors : int;
}

let census () : census =
  let vs = enumerate () in
  let count p = List.length (List.filter p vs) in
  {
    total = List.length vs;
    original = count is_original;
    global_atomic_only =
      count (fun v ->
          uses_global_atomic v
          && (not (uses_shared_atomic v))
          && (not (uses_shuffle v))
          && not (needs_second_kernel v));
    shared_atomic = count (fun v -> uses_shared_atomic v && not (uses_shuffle v));
    shuffle = count uses_shuffle;
    pruned_survivors = count (fun v -> not (needs_second_kernel v));
  }

(* ------------------------------------------------------------------ *)
(* Figure 6's sixteen named versions                                   *)
(* ------------------------------------------------------------------ *)

(** The 16 compositions Figure 6 depicts, labelled (a)-(p). All use the
    Global Atomic Tile Distribute grid codelet except (e), which uses the
    strided variant; (l)-(p) run cooperative codelets directly at the block
    level, (a)-(k) distribute over threads first. *)
let figure6 : (string * t) list =
  let ga pattern block = { grid_pattern = pattern; grid_finish = Atomic; block } in
  [
    ("a", ga Ast.Tiled (Compound (Ast.Tiled, F_coop V)));
    ("b", ga Ast.Tiled (Compound (Ast.Strided, F_coop Vs)));
    ("c", ga Ast.Tiled (Compound (Ast.Strided, F_coop A2)));
    ("d", ga Ast.Tiled (Compound (Ast.Tiled, F_coop Vs)));
    ("e", ga Ast.Strided (Compound (Ast.Strided, F_coop Vs)));
    ("f", ga Ast.Tiled (Compound (Ast.Strided, F_coop V)));
    ("g", ga Ast.Tiled (Compound (Ast.Tiled, F_coop A1)));
    ("h", ga Ast.Tiled (Compound (Ast.Strided, F_coop A1)));
    ("i", ga Ast.Tiled (Compound (Ast.Tiled, F_coop A2)));
    ("j", ga Ast.Tiled (Compound (Ast.Tiled, F_coop A2s)));
    ("k", ga Ast.Tiled (Compound (Ast.Strided, F_coop A2s)));
    ("l", ga Ast.Tiled (Direct V));
    ("m", ga Ast.Tiled (Direct Vs));
    ("n", ga Ast.Tiled (Direct A1));
    ("o", ga Ast.Tiled (Direct A2));
    ("p", ga Ast.Tiled (Direct A2s));
  ]

let of_figure6 (label : string) : t =
  match List.assoc_opt label figure6 with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "no Figure 6 version %S" label)

(** Reverse lookup: the Figure 6 label of a version, if it has one. *)
let figure6_label (v : t) : string option =
  List.find_map (fun (l, v') -> if v' = v then Some l else None) figure6
