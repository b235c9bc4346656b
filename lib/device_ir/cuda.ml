(* CUDA C back end: renders a device-IR program as compilable CUDA source
   text. This is the paper's actual output path (Tangram emits CUDA C that
   nvcc compiles); in this reproduction the text is used to inspect and diff
   generated versions against the paper's Listings 1-4, and is what
   [bin/tangramc] prints.

   [sync_shuffles] selects between the legacy [__shfl_down(v, d, w)] API the
   paper's listings use (pre-Volta) and the [__shfl_down_sync(mask, v, d, w)]
   API required since CUDA 9. *)

type options = {
  sync_shuffles : bool;
  indent : int;  (** spaces per nesting level *)
}

let default_options = { sync_shuffles = false; indent = 2 }

let scalar_c (t : Ir.scalar) : string =
  match t with
  | Ir.F32 -> "float"
  | Ir.I32 -> "int"
  | Ir.U32 -> "unsigned int"
  | Ir.Pred -> "bool"

let binop_c (op : Ir.binop) : string =
  match op with
  | Ir.Add -> "+" | Ir.Sub -> "-" | Ir.Mul -> "*" | Ir.Div -> "/" | Ir.Rem -> "%"
  | Ir.And -> "&" | Ir.Or -> "|" | Ir.Xor -> "^" | Ir.Shl -> "<<" | Ir.Shr -> ">>"
  | Ir.Eq -> "==" | Ir.Ne -> "!=" | Ir.Lt -> "<" | Ir.Le -> "<="
  | Ir.Gt -> ">" | Ir.Ge -> ">="
  | Ir.Land -> "&&" | Ir.Lor -> "||"
  | Ir.Min | Ir.Max -> invalid_arg "binop_c: Min/Max are emitted as calls"

let special_c (s : Ir.special) : string =
  match s with
  | Ir.Thread_idx -> "threadIdx.x"
  | Ir.Block_idx -> "blockIdx.x"
  | Ir.Block_dim -> "blockDim.x"
  | Ir.Grid_dim -> "gridDim.x"
  | Ir.Warp_size -> "warpSize"
  | Ir.Lane_id -> "(threadIdx.x % warpSize)"
  | Ir.Warp_id -> "(threadIdx.x / warpSize)"

let float_c (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1ff" f
  else Printf.sprintf "%.9gf" f

let rec exp_c (e : Ir.exp) : string =
  match e with
  | Ir.Int n -> string_of_int n
  | Ir.Float f -> float_c f
  | Ir.Bool b -> if b then "true" else "false"
  | Ir.Reg r -> r
  | Ir.Param p -> p
  | Ir.Special s -> special_c s
  | Ir.Unop (Ir.Neg, a) -> Printf.sprintf "(-%s)" (exp_c a)
  | Ir.Unop (Ir.Bnot, a) -> Printf.sprintf "(~%s)" (exp_c a)
  | Ir.Unop (Ir.Lnot, a) -> Printf.sprintf "(!%s)" (exp_c a)
  | Ir.Binop (Ir.Min, a, b) -> Printf.sprintf "min(%s, %s)" (exp_c a) (exp_c b)
  | Ir.Binop (Ir.Max, a, b) -> Printf.sprintf "max(%s, %s)" (exp_c a) (exp_c b)
  | Ir.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (exp_c a) (binop_c op) (exp_c b)
  | Ir.Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (exp_c c) (exp_c a) (exp_c b)

let atomic_name (op : Ir.atomic_op) (scope : Ir.scope) ~(shared : bool) : string =
  let base =
    match op with
    | Ir.A_add -> "atomicAdd"
    | Ir.A_sub -> "atomicSub"
    | Ir.A_min -> "atomicMin"
    | Ir.A_max -> "atomicMax"
  in
  (* Scope suffixes only exist for memory visible outside the block; shared
     memory is intrinsically block-scoped. *)
  if shared then base
  else
    match scope with
    | Ir.Scope_device -> base
    | Ir.Scope_block -> base ^ "_block"
    | Ir.Scope_system -> base ^ "_system"

let shfl_c (opts : options) (mode : Ir.shuffle_mode) ~v ~lane ~width : string =
  let name =
    match mode with
    | Ir.Shfl_down -> "__shfl_down"
    | Ir.Shfl_up -> "__shfl_up"
    | Ir.Shfl_xor -> "__shfl_xor"
    | Ir.Shfl_idx -> "__shfl"
  in
  if opts.sync_shuffles then
    Printf.sprintf "%s_sync(0xffffffff, %s, %s, %d)" name v lane width
  else Printf.sprintf "%s(%s, %s, %d)" name v lane width

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Every register is declared at kernel top, which mirrors what the
   paper's listings do ("int val = 0;" at the top) and covers a register
   first assigned inside a branch and used after it. Its C type is its
   kind from {!Analysis.registers}, the rule the validator and the
   interpreter follow. *)
let emit_stmts (opts : options) (k : Ir.kernel) : string =
  let buf = Buffer.create 1024 in
  let pad lvl = String.make (lvl * opts.indent) ' ' in
  let line lvl s = Buffer.add_string buf (pad lvl); Buffer.add_string buf s;
                   Buffer.add_char buf '\n' in
  Analysis.SM.iter
    (fun r kind ->
      let ty =
        match kind with
        | Analysis.Int -> "int"
        | Analysis.Float -> "float"
        | Analysis.Pred -> "bool"
      in
      line 1 (Printf.sprintf "%s %s;" ty r))
    (fst (Analysis.registers k));
  let rec stmt lvl (s : Ir.stmt) =
    match s with
    | Ir.Comment c -> line lvl ("// " ^ c)
    | Ir.Let (r, e) -> line lvl (Printf.sprintf "%s = %s;" r (exp_c e))
    | Ir.Load { dst; arr; idx; _ } ->
        line lvl (Printf.sprintf "%s = %s[%s];" dst arr (exp_c idx))
    | Ir.Store { arr; idx; v; _ } ->
        line lvl (Printf.sprintf "%s[%s] = %s;" arr (exp_c idx) (exp_c v))
    | Ir.Vec_load { dsts; arr; base } ->
        let n = List.length dsts in
        let vty = if n = 4 then "float4" else "float2" in
        let fields = [ "x"; "y"; "z"; "w" ] in
        line lvl
          (Printf.sprintf "{ %s v__ = reinterpret_cast<const %s*>(%s)[%s / %d];"
             vty vty arr (exp_c base) n);
        List.iteri
          (fun i d -> line (lvl + 1) (Printf.sprintf "%s = v__.%s;" d (List.nth fields i)))
          dsts;
        line lvl "}"
    | Ir.Atomic { dst; space; op; scope; arr; idx; v } ->
        let shared = space = Ir.Shared in
        let call =
          Printf.sprintf "%s(&%s[%s], %s)"
            (atomic_name op scope ~shared) arr (exp_c idx) (exp_c v)
        in
        (match dst with
        | Some d -> line lvl (Printf.sprintf "%s = %s;" d call)
        | None -> line lvl (call ^ ";"))
    | Ir.Shfl { dst; mode; v; lane; width } ->
        line lvl
          (Printf.sprintf "%s = %s;" dst
             (shfl_c opts mode ~v:(exp_c v) ~lane:(exp_c lane) ~width))
    | Ir.Sync -> line lvl "__syncthreads();"
    | Ir.If (c, t, []) ->
        line lvl (Printf.sprintf "if (%s) {" (exp_c c));
        List.iter (stmt (lvl + 1)) t;
        line lvl "}"
    | Ir.If (c, t, e) ->
        line lvl (Printf.sprintf "if (%s) {" (exp_c c));
        List.iter (stmt (lvl + 1)) t;
        line lvl "} else {";
        List.iter (stmt (lvl + 1)) e;
        line lvl "}"
    | Ir.For { var; init; cond; step; body } ->
        line lvl
          (Printf.sprintf "for (%s = %s; %s; %s = %s) {" var (exp_c init)
             (exp_c cond) var (exp_c step));
        List.iter (stmt (lvl + 1)) body;
        line lvl "}"
    | Ir.While (c, body) ->
        line lvl (Printf.sprintf "while (%s) {" (exp_c c));
        List.iter (stmt (lvl + 1)) body;
        line lvl "}"
  in
  List.iter (stmt 1) k.Ir.k_body;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

let emit_kernel ?(options = default_options) (k : Ir.kernel) : string =
  let buf = Buffer.create 2048 in
  let arr_params =
    List.map (fun (n, t) -> Printf.sprintf "%s *%s" (scalar_c t) n) k.Ir.k_arrays
  in
  let scalar_params =
    List.map (fun (n, t) -> Printf.sprintf "%s %s" (scalar_c t) n) k.Ir.k_params
  in
  Buffer.add_string buf "__global__\n";
  Buffer.add_string buf
    (Printf.sprintf "void %s(%s) {\n" k.Ir.k_name
       (String.concat ", " (arr_params @ scalar_params)));
  List.iter
    (fun (d : Ir.shared_decl) ->
      match d.Ir.sh_size with
      | Ir.Static_size n ->
          Buffer.add_string buf
            (Printf.sprintf "  __shared__ %s %s%s;\n" (scalar_c d.Ir.sh_ty)
               d.Ir.sh_name
               (if n = 1 then "[1]" else Printf.sprintf "[%d]" n))
      | Ir.Dynamic_size ->
          Buffer.add_string buf
            (Printf.sprintf "  extern __shared__ %s %s[];\n" (scalar_c d.Ir.sh_ty)
               d.Ir.sh_name))
    k.Ir.k_shared;
  Buffer.add_string buf (emit_stmts options k);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Host program                                                        *)
(* ------------------------------------------------------------------ *)

let rec hexp_cpp (h : Ir.hexp) : string =
  match h with
  | Ir.H_int n -> string_of_int n
  | Ir.H_input_size -> "n"
  | Ir.H_tunable t -> "TGM_TUNABLE_" ^ String.uppercase_ascii t
  | Ir.H_add (a, b) -> Printf.sprintf "(%s + %s)" (hexp_cpp a) (hexp_cpp b)
  | Ir.H_sub (a, b) -> Printf.sprintf "(%s - %s)" (hexp_cpp a) (hexp_cpp b)
  | Ir.H_mul (a, b) -> Printf.sprintf "(%s * %s)" (hexp_cpp a) (hexp_cpp b)
  | Ir.H_div (a, b) -> Printf.sprintf "(%s / %s)" (hexp_cpp a) (hexp_cpp b)
  | Ir.H_ceil_div (a, b) ->
      let b' = hexp_cpp b in
      Printf.sprintf "((%s + %s - 1) / %s)" (hexp_cpp a) b' b'
  | Ir.H_min (a, b) -> Printf.sprintf "std::min(%s, %s)" (hexp_cpp a) (hexp_cpp b)
  | Ir.H_max (a, b) -> Printf.sprintf "std::max(%s, %s)" (hexp_cpp a) (hexp_cpp b)

(** Emit a whole program as one .cu translation unit: tunable macros, the
    kernels, and a host entry point
    [extern "C" <elem> <name>_run(const <elem> *input_h, int n)]. *)
let emit_program ?(options = default_options) (p : Ir.program) : string =
  let buf = Buffer.create 8192 in
  let elem = p.Ir.p_elem in
  let ec = scalar_c elem in
  Buffer.add_string buf
    (Printf.sprintf
       "// Generated by tangram-ocaml: code version %S.\n\
        // Tunable parameters are bound to their first candidate; the\n\
        // autotuner sweeps the alternatives listed in the comments.\n\
        #include <cuda_runtime.h>\n#include <algorithm>\n\n"
       p.Ir.p_name);
  List.iter
    (fun (name, candidates) ->
      match candidates with
      | [] -> ()
      | first :: _ ->
          Buffer.add_string buf
            (Printf.sprintf "#define TGM_TUNABLE_%s %d  // candidates: %s\n"
               (String.uppercase_ascii name) first
               (String.concat ", " (List.map string_of_int candidates))))
    p.Ir.p_tunables;
  Buffer.add_char buf '\n';
  List.iter
    (fun k ->
      Buffer.add_string buf (emit_kernel ~options k);
      Buffer.add_char buf '\n')
    p.Ir.p_kernels;
  Buffer.add_string buf
    (Printf.sprintf "extern \"C\" %s %s_run(const %s *input_h, int n) {\n" ec
       p.Ir.p_name ec);
  Buffer.add_string buf (Printf.sprintf "  %s *input;\n  %s *output;\n" ec ec);
  Buffer.add_string buf
    (Printf.sprintf
       "  cudaMalloc(&input, n * sizeof(%s));\n\
       \  cudaMalloc(&output, sizeof(%s));\n\
       \  cudaMemcpy(input, input_h, n * sizeof(%s), cudaMemcpyHostToDevice);\n"
       ec ec ec);
  List.iter
    (fun (b : Ir.buffer) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s *%s;\n  cudaMalloc(&%s, %s * sizeof(%s));\n"
           (scalar_c b.Ir.buf_ty) b.Ir.buf_name b.Ir.buf_name (hexp_cpp b.Ir.buf_size)
           (scalar_c b.Ir.buf_ty));
      match b.Ir.buf_init with
      | None -> ()
      | Some 0.0 ->
          Buffer.add_string buf
            (Printf.sprintf "  cudaMemset(%s, 0, %s * sizeof(%s));\n" b.Ir.buf_name
               (hexp_cpp b.Ir.buf_size) (scalar_c b.Ir.buf_ty))
      | Some v ->
          (* non-zero identities (min/max reductions) need a fill kernel or
             host-side staging; a thrust::fill call keeps the wrapper short *)
          Buffer.add_string buf
            (Printf.sprintf
               "  { %s fill__ = %s; cudaMemcpy(%s, &fill__, sizeof(%s), \
                cudaMemcpyHostToDevice); }\n"
               (scalar_c b.Ir.buf_ty)
               (match b.Ir.buf_ty with
               | Ir.F32 -> float_c v
               | Ir.I32 | Ir.U32 | Ir.Pred -> string_of_int (int_of_float v))
               b.Ir.buf_name (scalar_c b.Ir.buf_ty)))
    p.Ir.p_buffers;
  List.iter
    (fun (ln : Ir.launch) ->
      let args =
        List.map
          (fun (a : Ir.harg) ->
            match a with Ir.Arg_buffer b -> b | Ir.Arg_scalar h -> hexp_cpp h)
          ln.Ir.ln_args
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s<<<%s, %s, %s * sizeof(%s)>>>(%s);\n" ln.Ir.ln_kernel
           (hexp_cpp ln.Ir.ln_grid) (hexp_cpp ln.Ir.ln_block)
           (hexp_cpp ln.Ir.ln_shared_elems) ec (String.concat ", " args)))
    p.Ir.p_launches;
  Buffer.add_string buf
    (Printf.sprintf
       "  %s result;\n\
       \  cudaMemcpy(&result, %s, sizeof(%s), cudaMemcpyDeviceToHost);\n" ec
       p.Ir.p_result ec);
  List.iter
    (fun (b : Ir.buffer) ->
      Buffer.add_string buf (Printf.sprintf "  cudaFree(%s);\n" b.Ir.buf_name))
    p.Ir.p_buffers;
  Buffer.add_string buf "  cudaFree(input);\n  cudaFree(output);\n";
  Buffer.add_string buf "  return result;\n}\n";
  Buffer.contents buf
