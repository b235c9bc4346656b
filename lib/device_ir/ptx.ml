(* PTX back end: renders device-IR kernels as NVIDIA PTX virtual-ISA text
   (the representation the paper's Section II-A discusses: "The NVIDIA
   CUDA ISA [16] has continuously evolved...", citing the PTX manual).

   Where the CUDA C emitter targets nvcc's front end, this back end plays
   the role of its output: three-address code over typed virtual registers
   (%r s32, %f f32, %p predicates, %rd 64-bit addresses), with structured
   control flow lowered to labels and predicated branches. The text is
   syntactically faithful PTX (loads/stores with parameter-space address
   arithmetic, setp/selp, shfl, atom/red, bar.sync) targeted at sm_60.

   Each IR register's class is its kind from {!Analysis.registers}, the
   rule the validator and the interpreter follow: an int register is
   s32, a float one f32 and a predicate pred. *)

type rty = S32 | F32 | Pred

let rty_suffix = function S32 -> "s32" | F32 -> "f32" | Pred -> "pred"
let rty_prefix = function S32 -> "%r" | F32 -> "%f" | Pred -> "%p"

type emitter = {
  buf : Buffer.t;
  mutable next : int array;  (** per-class virtual register counters *)
  mutable next_label : int;
  kinds : Analysis.kind Analysis.SM.t;  (** IR register -> kind *)
  reg_homes : (string, string) Hashtbl.t;  (** IR register -> virtual reg *)
  kname : string;
}

let class_index = function S32 -> 0 | F32 -> 1 | Pred -> 2

let fresh (e : emitter) (ty : rty) : string =
  let i = class_index ty in
  let n = e.next.(i) in
  e.next.(i) <- n + 1;
  Printf.sprintf "%s%d" (rty_prefix ty) n

let fresh_label (e : emitter) (base : string) : string =
  let n = e.next_label in
  e.next_label <- n + 1;
  Printf.sprintf "$L_%s_%d" base n

let ins (e : emitter) fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string e.buf "\t";
      Buffer.add_string e.buf s;
      Buffer.add_char e.buf '\n')
    fmt

let label (e : emitter) (l : string) =
  Buffer.add_string e.buf l;
  Buffer.add_string e.buf ":\n"

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

(* an IR register's class; one no definition gave a kind is s32 *)
let reg_rty (e : emitter) (r : string) : rty =
  match Analysis.SM.find_opt r e.kinds with
  | Some Analysis.Float -> F32
  | Some Analysis.Pred -> Pred
  | Some Analysis.Int | None -> S32

let home (e : emitter) (r : string) : string =
  match Hashtbl.find_opt e.reg_homes r with
  | Some v -> v
  | None ->
      let v = fresh e (reg_rty e r) in
      Hashtbl.add e.reg_homes r v;
      v

let float_bits (f : float) : string =
  Printf.sprintf "0f%08lX" (Int32.bits_of_float f)

(* materialise [exp] into a virtual register of its natural class *)
let rec lower_exp (e : emitter) (x : Ir.exp) : string * rty =
  match x with
  | Ir.Int n ->
      let r = fresh e S32 in
      ins e "mov.s32 \t%s, %d;" r n;
      (r, S32)
  | Ir.Float f ->
      let r = fresh e F32 in
      ins e "mov.f32 \t%s, %s;" r (float_bits f);
      (r, F32)
  | Ir.Bool b ->
      let r = fresh e Pred in
      ins e "setp.eq.s32 \t%s, %d, 1;" r (if b then 1 else 0);
      (r, Pred)
  | Ir.Reg r -> (home e r, reg_rty e r)
  | Ir.Param p ->
      let r = fresh e S32 in
      ins e "ld.param.u32 \t%s, [%s_param_%s];" r e.kname p;
      (r, S32)
  | Ir.Special s -> (
      let r = fresh e S32 in
      (match s with
      | Ir.Thread_idx -> ins e "mov.u32 \t%s, %%tid.x;" r
      | Ir.Block_idx -> ins e "mov.u32 \t%s, %%ctaid.x;" r
      | Ir.Block_dim -> ins e "mov.u32 \t%s, %%ntid.x;" r
      | Ir.Grid_dim -> ins e "mov.u32 \t%s, %%nctaid.x;" r
      | Ir.Warp_size -> ins e "mov.u32 \t%s, WARP_SZ;" r
      | Ir.Lane_id -> ins e "mov.u32 \t%s, %%laneid;" r
      | Ir.Warp_id ->
          let t = fresh e S32 in
          ins e "mov.u32 \t%s, %%tid.x;" t;
          ins e "shr.u32 \t%s, %s, 5;" r t);
      (r, S32))
  | Ir.Unop (op, a) -> (
      let va, ta = lower_exp e a in
      match op with
      | Ir.Neg ->
          let r = fresh e ta in
          ins e "neg.%s \t%s, %s;" (rty_suffix ta) r va;
          (r, ta)
      | Ir.Bnot ->
          let r = fresh e S32 in
          ins e "not.b32 \t%s, %s;" r va;
          (r, S32)
      | Ir.Lnot ->
          let p = to_pred e (va, ta) in
          let r = fresh e Pred in
          ins e "not.pred \t%s, %s;" r p;
          (r, Pred))
  | Ir.Binop (op, a, b) -> lower_binop e op a b
  | Ir.Select (c, a, b) ->
      let vc = to_pred e (lower_exp e c) in
      let va, ta = lower_exp e a in
      let vb, tb = lower_exp e b in
      let ty = match (ta, tb) with F32, _ | _, F32 -> F32 | _ -> S32 in
      let va = coerce e (va, ta) ty and vb = coerce e (vb, tb) ty in
      let r = fresh e ty in
      ins e "selp.%s \t%s, %s, %s, %s;"
        (if ty = F32 then "f32" else "b32")
        r va vb vc;
      (r, ty)

and to_pred (e : emitter) ((v, t) : string * rty) : string =
  match t with
  | Pred -> v
  | S32 ->
      let p = fresh e Pred in
      ins e "setp.ne.s32 \t%s, %s, 0;" p v;
      p
  | F32 ->
      let p = fresh e Pred in
      ins e "setp.neu.f32 \t%s, %s, 0f00000000;" p v;
      p

and coerce (e : emitter) ((v, t) : string * rty) (want : rty) : string =
  if t = want then v
  else
    match (t, want) with
    | S32, F32 ->
        let r = fresh e F32 in
        ins e "cvt.rn.f32.s32 \t%s, %s;" r v;
        r
    | F32, S32 ->
        let r = fresh e S32 in
        ins e "cvt.rzi.s32.f32 \t%s, %s;" r v;
        r
    | Pred, S32 ->
        let r = fresh e S32 in
        ins e "selp.b32 \t%s, 1, 0, %s;" r v;
        r
    | Pred, F32 ->
        let r = fresh e F32 in
        ins e "selp.f32 \t%s, 0f3F800000, 0f00000000, %s;" r v;
        r
    | S32, Pred | F32, Pred -> to_pred e (v, t)
    | _ -> v

and lower_binop (e : emitter) (op : Ir.binop) (a : Ir.exp) (b : Ir.exp) :
    string * rty =
  let va, ta = lower_exp e a in
  let vb, tb = lower_exp e b in
  let cmp name =
    let ty = match (ta, tb) with F32, _ | _, F32 -> F32 | _ -> S32 in
    let va = coerce e (va, ta) ty and vb = coerce e (vb, tb) ty in
    let r = fresh e Pred in
    ins e "setp.%s.%s \t%s, %s, %s;" name (rty_suffix ty) r va vb;
    (r, Pred)
  in
  let arith name =
    let ty = match (ta, tb) with F32, _ | _, F32 -> F32 | _ -> S32 in
    let va = coerce e (va, ta) ty and vb = coerce e (vb, tb) ty in
    let r = fresh e ty in
    let mnemonic =
      match (name, ty) with
      | "div", F32 -> "div.rn.f32"
      | _ -> Printf.sprintf "%s.%s" name (rty_suffix ty)
    in
    ins e "%s \t%s, %s, %s;" mnemonic r va vb;
    (r, ty)
  in
  let bitwise name =
    let va = coerce e (va, ta) S32 and vb = coerce e (vb, tb) S32 in
    let r = fresh e S32 in
    ins e "%s.b32 \t%s, %s, %s;" name r va vb;
    (r, S32)
  in
  match op with
  | Ir.Add -> arith "add"
  | Ir.Sub -> arith "sub"
  | Ir.Mul -> (
      match (ta, tb) with
      | F32, _ | _, F32 -> arith "mul"
      | _ ->
          let r = fresh e S32 in
          ins e "mul.lo.s32 \t%s, %s, %s;" r va vb;
          (r, S32))
  | Ir.Div -> arith "div"
  | Ir.Rem ->
      let va = coerce e (va, ta) S32 and vb = coerce e (vb, tb) S32 in
      let r = fresh e S32 in
      ins e "rem.s32 \t%s, %s, %s;" r va vb;
      (r, S32)
  | Ir.Min -> arith "min"
  | Ir.Max -> arith "max"
  | Ir.And -> bitwise "and"
  | Ir.Or -> bitwise "or"
  | Ir.Xor -> bitwise "xor"
  | Ir.Shl ->
      let va = coerce e (va, ta) S32 and vb = coerce e (vb, tb) S32 in
      let r = fresh e S32 in
      ins e "shl.b32 \t%s, %s, %s;" r va vb;
      (r, S32)
  | Ir.Shr ->
      let va = coerce e (va, ta) S32 and vb = coerce e (vb, tb) S32 in
      let r = fresh e S32 in
      ins e "shr.s32 \t%s, %s, %s;" r va vb;
      (r, S32)
  | Ir.Eq -> cmp "eq"
  | Ir.Ne -> cmp "ne"
  | Ir.Lt -> cmp "lt"
  | Ir.Le -> cmp "le"
  | Ir.Gt -> cmp "gt"
  | Ir.Ge -> cmp "ge"
  | Ir.Land ->
      let pa = to_pred e (va, ta) and pb = to_pred e (vb, tb) in
      let r = fresh e Pred in
      ins e "and.pred \t%s, %s, %s;" r pa pb;
      (r, Pred)
  | Ir.Lor ->
      let pa = to_pred e (va, ta) and pb = to_pred e (vb, tb) in
      let r = fresh e Pred in
      ins e "or.pred \t%s, %s, %s;" r pa pb;
      (r, Pred)

let fresh_rd (e : emitter) : string =
  let n = e.next.(3) in
  e.next.(3) <- n + 1;
  Printf.sprintf "%%rd%d" n

(* global/shared address of element [idx] of [arr]; returns an %rd *)
let address (e : emitter) ~(space : Ir.space) (arr : string) (idx : Ir.exp) : string
    =
  let vi, ti = lower_exp e idx in
  let vi = coerce e (vi, ti) S32 in
  let rd1 = fresh_rd e in
  ins e "mul.wide.s32 \t%s, %s, 4;" rd1 vi;
  let rd2 = fresh_rd e in
  (match space with
  | Ir.Global ->
      let base = fresh_rd e in
      ins e "ld.param.u64 \t%s, [%s_param_%s];" base e.kname arr;
      let gbase = fresh_rd e in
      ins e "cvta.to.global.u64 \t%s, %s;" gbase base;
      ins e "add.s64 \t%s, %s, %s;" rd2 gbase rd1
  | Ir.Shared ->
      let sbase = fresh_rd e in
      ins e "mov.u64 \t%s, %s_base;" sbase arr;
      ins e "add.s64 \t%s, %s, %s;" rd2 sbase rd1);
  rd2

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let ld_suffix (ty : rty) = if ty = F32 then "f32" else "u32"

let atomic_mnemonic ~(space : Ir.space) ~(has_dst : bool) (op : Ir.atomic_op)
    (scope : Ir.scope) (ty : rty) : string =
  let base = if has_dst then "atom" else "red" in
  let sp = match space with Ir.Global -> "global" | Ir.Shared -> "shared" in
  let scope_s =
    match (space, scope) with
    | Ir.Shared, _ -> ""  (* shared memory is CTA-scoped by construction *)
    | Ir.Global, Ir.Scope_block -> ".cta"
    | Ir.Global, Ir.Scope_device -> ""
    | Ir.Global, Ir.Scope_system -> ".sys"
  in
  let opn =
    match op with
    | Ir.A_add -> "add"
    | Ir.A_sub -> "add"  (* emitted with a negated operand *)
    | Ir.A_min -> "min"
    | Ir.A_max -> "max"
  in
  Printf.sprintf "%s.%s%s.%s.%s" base sp scope_s opn (rty_suffix ty)

let rec lower_stmt (e : emitter) (s : Ir.stmt) : unit =
  match s with
  | Ir.Comment c -> ins e "// %s" c
  | Ir.Let (r, x) ->
      let v, t = lower_exp e x in
      let dst = home e r in
      let want = reg_rty e r in
      let v = coerce e (v, t) want in
      (match want with
      | Pred -> ins e "and.pred \t%s, %s, %s;" dst v v
      | F32 -> ins e "mov.f32 \t%s, %s;" dst v
      | S32 -> ins e "mov.s32 \t%s, %s;" dst v)
  | Ir.Load { dst; space; arr; idx } ->
      let rd = address e ~space arr idx in
      let d = home e dst in
      ins e "ld.%s.%s \t%s, [%s];"
        (match space with Ir.Global -> "global" | Ir.Shared -> "shared")
        (ld_suffix (reg_rty e dst)) d rd
  | Ir.Store { space; arr; idx; v } ->
      let rv, tv = lower_exp e v in
      let rd = address e ~space arr idx in
      ins e "st.%s.%s \t[%s], %s;"
        (match space with Ir.Global -> "global" | Ir.Shared -> "shared")
        (ld_suffix tv) rd rv
  | Ir.Vec_load { dsts; arr; base } ->
      let rd = address e ~space:Ir.Global arr base in
      let homes = List.map (home e) dsts in
      ins e "ld.global.v4.f32 \t{%s}, [%s];" (String.concat ", " homes) rd
  | Ir.Atomic { dst; space; op; scope; arr; idx; v } ->
      let rv, tv = lower_exp e v in
      let ty = if tv = F32 then F32 else S32 in
      let rv = coerce e (rv, tv) ty in
      let rv =
        if op = Ir.A_sub then begin
          let n = fresh e ty in
          ins e "neg.%s \t%s, %s;" (rty_suffix ty) n rv;
          n
        end
        else rv
      in
      let rd = address e ~space arr idx in
      let mnem = atomic_mnemonic ~space ~has_dst:(dst <> None) op scope ty in
      (match dst with
      | Some d -> ins e "%s \t%s, [%s], %s;" mnem (home e d) rd rv
      | None -> ins e "%s \t[%s], %s;" mnem rd rv)
  | Ir.Shfl { dst; mode; v; lane; width } ->
      let rv, tv = lower_exp e v in
      let rl, tl = lower_exp e lane in
      let rl = coerce e (rl, tl) S32 in
      let mode_s =
        match mode with
        | Ir.Shfl_down -> "down"
        | Ir.Shfl_up -> "up"
        | Ir.Shfl_xor -> "bfly"
        | Ir.Shfl_idx -> "idx"
      in
      let clamp =
        (* c operand: segment mask in [12:8], max lane in [4:0] *)
        match mode with Ir.Shfl_up -> 0 | _ -> width - 1
      in
      let d = home e dst in
      ins e "shfl.sync.%s.b32 \t%s, %s, %s, 0x%x, 0xffffffff;" mode_s d rv rl clamp;
      ignore tv
  | Ir.Sync -> ins e "bar.sync \t0;"
  | Ir.If (c, t, els) ->
      let p = to_pred e (lower_exp e c) in
      let l_else = fresh_label e "else" and l_end = fresh_label e "end" in
      ins e "@!%s bra \t%s;" p (if els = [] then l_end else l_else);
      List.iter (lower_stmt e) t;
      if els <> [] then begin
        ins e "bra.uni \t%s;" l_end;
        label e l_else;
        List.iter (lower_stmt e) els
      end;
      label e l_end
  | Ir.For { var; init; cond; step; body } ->
      let vi, ti = lower_exp e init in
      let h = home e var in
      let vi = coerce e (vi, ti) S32 in
      ins e "mov.s32 \t%s, %s;" h vi;
      let l_head = fresh_label e "loop" and l_end = fresh_label e "endloop" in
      label e l_head;
      let p = to_pred e (lower_exp e cond) in
      ins e "@!%s bra \t%s;" p l_end;
      List.iter (lower_stmt e) body;
      let vs, ts = lower_exp e step in
      let vs = coerce e (vs, ts) S32 in
      ins e "mov.s32 \t%s, %s;" h vs;
      ins e "bra.uni \t%s;" l_head;
      label e l_end
  | Ir.While (c, body) ->
      let l_head = fresh_label e "while" and l_end = fresh_label e "endwhile" in
      label e l_head;
      let p = to_pred e (lower_exp e c) in
      ins e "@!%s bra \t%s;" p l_end;
      List.iter (lower_stmt e) body;
      ins e "bra.uni \t%s;" l_head;
      label e l_end

(* ------------------------------------------------------------------ *)
(* Kernels and modules                                                 *)
(* ------------------------------------------------------------------ *)

(** Render one kernel as a PTX [.entry]. Dynamic shared arrays become
    [.extern .shared] declarations. *)
let emit_kernel (k : Ir.kernel) : string =
  let e =
    {
      buf = Buffer.create 4096;
      next = [| 1; 1; 1; 1 |];
      next_label = 0;
      kinds = fst (Analysis.registers k);
      reg_homes = Hashtbl.create 32;
      kname = k.Ir.k_name;
    }
  in
  List.iter (lower_stmt e) k.Ir.k_body;
  let body = Buffer.contents e.buf in
  let out = Buffer.create 8192 in
  let param_decls =
    List.map
      (fun (n, _) -> Printf.sprintf "\t.param .u64 %s_param_%s" k.Ir.k_name n)
      k.Ir.k_arrays
    @ List.map
        (fun (n, _) -> Printf.sprintf "\t.param .u32 %s_param_%s" k.Ir.k_name n)
        k.Ir.k_params
  in
  Buffer.add_string out
    (Printf.sprintf ".visible .entry %s(\n%s\n)\n{\n" k.Ir.k_name
       (String.concat ",\n" param_decls));
  (* register banks *)
  Buffer.add_string out
    (Printf.sprintf "\t.reg .pred \t%%p<%d>;\n" (max 2 e.next.(2)));
  Buffer.add_string out (Printf.sprintf "\t.reg .f32 \t%%f<%d>;\n" (max 2 e.next.(1)));
  Buffer.add_string out (Printf.sprintf "\t.reg .b32 \t%%r<%d>;\n" (max 2 e.next.(0)));
  Buffer.add_string out (Printf.sprintf "\t.reg .b64 \t%%rd<%d>;\n" (max 2 e.next.(3)));
  List.iter
    (fun (d : Ir.shared_decl) ->
      match d.Ir.sh_size with
      | Ir.Static_size n ->
          Buffer.add_string out
            (Printf.sprintf "\t.shared .align 4 .b8 %s_base[%d];\n" d.Ir.sh_name
               (4 * n))
      | Ir.Dynamic_size ->
          Buffer.add_string out
            (Printf.sprintf "\t.extern .shared .align 4 .b8 %s_base[];\n" d.Ir.sh_name))
    k.Ir.k_shared;
  Buffer.add_char out '\n';
  Buffer.add_string out body;
  Buffer.add_string out "\tret;\n}\n";
  Buffer.contents out

(** Render a whole program's kernels as one PTX module. *)
let emit_program (p : Ir.program) : string =
  let header =
    "//\n// Generated by tangram-ocaml (PTX back end)\n//\n\n.version 6.2\n\
     .target sm_60\n.address_size 64\n\n"
  in
  header ^ String.concat "\n" (List.map emit_kernel p.Ir.p_kernels)
