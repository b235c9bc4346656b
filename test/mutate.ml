(* Seeded mutations of device-IR programs, shared by the sanitizer,
   prover and access-analyzer suites and the race-mutant golden. Every
   rewrite touches the first kernel of a program only. *)

module Ir = Device_ir.Ir

(* apply [f] over a statement tree; [f] returns a replacement list for
   the statements it rewrites and [None] to descend *)
let rec map_stmts (f : Ir.stmt -> Ir.stmt list option) (body : Ir.stmt list) :
    Ir.stmt list =
  List.concat_map
    (fun s ->
      match f s with
      | Some repl -> repl
      | None -> (
          match s with
          | Ir.If (c, t, e) -> [ Ir.If (c, map_stmts f t, map_stmts f e) ]
          | Ir.For r -> [ Ir.For { r with body = map_stmts f r.body } ]
          | Ir.While (c, b) -> [ Ir.While (c, map_stmts f b) ]
          | s -> [ s ]))
    body

let map_first_kernel (p : Ir.program) (f : Ir.stmt -> Ir.stmt list option) :
    Ir.program =
  match p.Ir.p_kernels with
  | [] -> p
  | k :: rest ->
      { p with
        Ir.p_kernels = { k with Ir.k_body = map_stmts f k.Ir.k_body } :: rest }

let stmt_exists (p : Ir.program) (pred : Ir.stmt -> bool) : bool =
  match p.Ir.p_kernels with
  | [] -> false
  | k :: _ ->
      let found = ref false in
      ignore
        (map_stmts
           (fun s ->
             if pred s then found := true;
             None)
           k.Ir.k_body);
      !found

let count_syncs (p : Ir.program) : int =
  match p.Ir.p_kernels with
  | [] -> 0
  | k :: _ ->
      let n = ref 0 in
      ignore
        (map_stmts
           (fun s ->
             (match s with Ir.Sync -> incr n | _ -> ());
             None)
           k.Ir.k_body);
      !n

(* drop the [n]-th barrier (0-based) *)
let drop_sync (n : int) (p : Ir.program) : Ir.program =
  let i = ref (-1) in
  map_first_kernel p (function
    | Ir.Sync ->
        incr i;
        if !i = n then Some [] else Some [ Ir.Sync ]
    | _ -> None)

(* the first shared-memory atomic becomes a plain load/add/store sequence *)
let de_atomicize (p : Ir.program) : Ir.program =
  let done_ = ref false in
  map_first_kernel p (function
    | Ir.Atomic { space = Ir.Shared; arr; idx; v; _ } when not !done_ ->
        done_ := true;
        Some
          [
            Ir.load_shared "mut_old" arr idx;
            Ir.store_shared arr idx Ir.(Reg "mut_old" +: v);
          ]
    | _ -> None)

(* the first barrier moves under a lane-divergent guard *)
let divergent_barrier (p : Ir.program) : Ir.program =
  let done_ = ref false in
  map_first_kernel p (function
    | Ir.Sync when not !done_ ->
        done_ := true;
        Some [ Ir.if_ Ir.(lane_id <: Int 1) [ Ir.Sync ] [] ]
    | _ -> None)

(* every shuffle widens past the warp *)
let widen_shuffles (p : Ir.program) : Ir.program =
  map_first_kernel p (function
    | Ir.Shfl s -> Some [ Ir.Shfl { s with width = 64 } ]
    | _ -> None)
