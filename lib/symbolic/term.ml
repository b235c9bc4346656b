(* Normal forms for symbolic reduction values.

   The symbolic evaluator runs the device IR with every input element
   replaced by an opaque symbol x0..x(n-1); geometry (thread ids, loop
   counters, indices) stays concrete. The only operations a correct
   reduction ever applies to a symbolic value are the combining operation
   of its monoid, so symbolic values normalise into one of two
   associativity/commutativity-aware shapes:

   - {b additive} ([+]/[-], int or float): a constant plus a multiset of
     signed symbol occurrences. Equality of two additive forms is exact
     equality of the multisets, i.e. equivalence modulo reassociation and
     commutation; the tree depth is carried along as the reassociation
     certificate (how many rounding steps a float evaluation chains).
   - {b extremal} ([min]/[max]): an optional constant joined with a set
     of symbols. Min/max are idempotent, so the multiset degenerates to a
     set and equality is exact (no rounding certificate needed).

   Anything else applied to a symbolic value — a multiplication, a
   comparison, use as an address or branch condition — is outside the
   reduction monoid and aborts the proof ({!Unsupported}, surfaced as a
   TSYM002 diagnostic by the prover). Mixing the two classes aborts too:
   no single reduction combines through both [+] and [min]. *)

module Ir = Device_ir.Ir
module Value = Gpusim.Value

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type add_nf = {
  a_const : float;
  a_coeffs : (int * int) list;
      (** symbol id -> signed multiplicity; sorted by id, no zero entries *)
  a_depth : int;  (** combine-tree depth: the reassociation certificate *)
}

type ext_nf = {
  e_max : bool;  (** [true] = max, [false] = min *)
  e_const : float option;
  e_syms : int list;  (** sorted, deduplicated *)
  e_depth : int;
}

type t =
  | Conc of Value.t  (** fully concrete; delegates to {!Gpusim.Value} *)
  | Sym of int  (** input element [x_i], untouched *)
  | Add of add_nf
  | Ext of ext_nf
  | Poison of string
      (** a value the symbolic semantics cannot represent faithfully, e.g.
          the old-value result of an atomic; poisonous only if used *)

let sym i = Sym i
let poison why = Poison why

let depth = function
  | Conc _ | Sym _ | Poison _ -> 0
  | Add a -> a.a_depth
  | Ext e -> e.e_depth

let describe = function
  | Conc v -> Value.to_string v
  | Sym i -> Printf.sprintf "x%d" i
  | Add a ->
      Printf.sprintf "sum{%d symbols, const %g, depth %d}"
        (List.fold_left (fun acc (_, k) -> acc + abs k) 0 a.a_coeffs)
        a.a_const a.a_depth
  | Ext e ->
      Printf.sprintf "%s{%d symbols%s, depth %d}"
        (if e.e_max then "max" else "min")
        (List.length e.e_syms)
        (match e.e_const with Some c -> Printf.sprintf ", const %g" c | None -> "")
        e.e_depth
  | Poison why -> "poison(" ^ why ^ ")"

(** Concretise, or abort: [what] names the position requiring a concrete
    value (an index, a branch condition, ...). *)
let to_value ~(what : string) = function
  | Conc v -> v
  | (Sym _ | Add _ | Ext _) as t ->
      unsupported "%s depends on symbolic input data (%s)" what (describe t)
  | Poison why -> unsupported "%s uses an unrepresentable value: %s" what why

(* ------------------------------------------------------------------ *)
(* Additive forms                                                      *)
(* ------------------------------------------------------------------ *)

let rec merge_coeffs xs ys =
  match (xs, ys) with
  | [], r | r, [] -> r
  | ((i, a) :: xt as xl), ((j, b) :: yt as yl) ->
      if i < j then (i, a) :: merge_coeffs xt yl
      else if j < i then (j, b) :: merge_coeffs xl yt
      else
        let c = a + b in
        if c = 0 then merge_coeffs xt yt else (i, c) :: merge_coeffs xt yt

let to_add : t -> add_nf = function
  | Conc v -> { a_const = Value.to_float v; a_coeffs = []; a_depth = 0 }
  | Sym i -> { a_const = 0.0; a_coeffs = [ (i, 1) ]; a_depth = 0 }
  | Add a -> a
  | Ext _ -> unsupported "a min/max partial flows into an additive combine"
  | Poison why -> unsupported "additive combine of an unrepresentable value: %s" why

let scale_add (k : int) (a : add_nf) : add_nf =
  {
    a_const = float_of_int k *. a.a_const;
    a_coeffs = List.map (fun (i, c) -> (i, k * c)) a.a_coeffs;
    a_depth = a.a_depth;
  }

let add2 (a : t) (b : t) : t =
  let x = to_add a and y = to_add b in
  Add
    {
      a_const = x.a_const +. y.a_const;
      a_coeffs = merge_coeffs x.a_coeffs y.a_coeffs;
      a_depth = 1 + max x.a_depth y.a_depth;
    }

let neg (a : t) : t =
  match a with
  | Conc v -> Conc (Value.unop Ir.Neg v)
  | Sym _ | Add _ -> Add (scale_add (-1) (to_add a))
  | Ext _ -> unsupported "negation of a min/max partial"
  | Poison why -> unsupported "negation of an unrepresentable value: %s" why

(* ------------------------------------------------------------------ *)
(* Extremal forms                                                      *)
(* ------------------------------------------------------------------ *)

let to_ext ~(maxi : bool) : t -> ext_nf = function
  | Conc v -> { e_max = maxi; e_const = Some (Value.to_float v); e_syms = []; e_depth = 0 }
  | Sym i -> { e_max = maxi; e_const = None; e_syms = [ i ]; e_depth = 0 }
  | Ext e when e.e_max = maxi -> e
  | Ext _ -> unsupported "a %s partial flows into a %s combine"
               (if maxi then "min" else "max") (if maxi then "max" else "min")
  | Add _ -> unsupported "an additive partial flows into a min/max combine"
  | Poison why -> unsupported "min/max combine of an unrepresentable value: %s" why

let rec merge_syms xs ys =
  match (xs, ys) with
  | [], r | r, [] -> r
  | (x :: xt as xl), (y :: yt as yl) ->
      if x < y then x :: merge_syms xt yl
      else if y < x then y :: merge_syms xl yt
      else x :: merge_syms xt yt

let ext2 ~(maxi : bool) (a : t) (b : t) : t =
  let x = to_ext ~maxi a and y = to_ext ~maxi b in
  let const =
    match (x.e_const, y.e_const) with
    | None, c | c, None -> c
    | Some p, Some q -> Some (if maxi then Float.max p q else Float.min p q)
  in
  Ext
    {
      e_max = maxi;
      e_const = const;
      e_syms = merge_syms x.e_syms y.e_syms;
      e_depth = 1 + max x.e_depth y.e_depth;
    }

(* ------------------------------------------------------------------ *)
(* Generic operations                                                  *)
(* ------------------------------------------------------------------ *)

let check_poison (a : t) (b : t) : unit =
  match (a, b) with
  | Poison why, _ | _, Poison why ->
      unsupported "operand is an unrepresentable value: %s" why
  | _ -> ()

let binop (op : Ir.binop) (a : t) (b : t) : t =
  match (a, b) with
  | Conc x, Conc y -> Conc (Value.binop op x y)
  | _ -> (
      check_poison a b;
      match op with
      | Ir.Add -> add2 a b
      | Ir.Sub -> add2 a (neg b)
      | Ir.Min -> ext2 ~maxi:false a b
      | Ir.Max -> ext2 ~maxi:true a b
      | _ ->
          unsupported "operator %s applied to symbolic input data"
            (Ir.show_binop op))

let unop (op : Ir.unop) (a : t) : t =
  match a with
  | Conc v -> Conc (Value.unop op v)
  | _ -> (
      match op with
      | Ir.Neg -> neg a
      | Ir.Bnot | Ir.Lnot ->
          unsupported "operator %s applied to symbolic input data"
            (Ir.show_unop op))

(** Fold with an atomic operation's combining function. *)
let combine (op : Ir.atomic_op) (acc : t) (v : t) : t =
  match op with
  | Ir.A_add -> binop Ir.Add acc v
  | Ir.A_sub -> binop Ir.Sub acc v
  | Ir.A_min -> binop Ir.Min acc v
  | Ir.A_max -> binop Ir.Max acc v

(* ------------------------------------------------------------------ *)
(* Canonicalisation and comparison                                     *)
(* ------------------------------------------------------------------ *)

(** The proofs assume every input element satisfies [|x| <= domain_bound
    elem]: the extreme representable 32-bit value for integers, the F32
    sentinel magnitude ([3.0e38], just under the type's maximum) that the
    built-in codelets use as min/max identities for floats. *)
let domain_bound = function
  | Ir.F32 -> 3.0e38
  | Ir.I32 | Ir.U32 | Ir.Pred -> 2147483647.0

let canon_add (t : t) : add_nf = to_add t

(** Extremal canonical form with identity-constant elision: a constant
    that can never dominate any in-domain element — [-inf] or [-3.0e38]
    under max, [+inf], [+3.0e38] or [int_max] under min — is dropped, so
    codelets seeded with different renderings of the identity still
    compare equal. *)
let canon_ext ~(maxi : bool) ~(elem : Ir.scalar) (t : t) : ext_nf =
  let e = to_ext ~maxi t in
  let b = domain_bound elem in
  let const =
    match e.e_const with
    | Some c when (if maxi then c <= -.b else c >= b) -> None
    | other -> other
  in
  { e with e_const = const }

let equal_add (x : add_nf) (y : add_nf) : bool =
  x.a_const = y.a_const && x.a_coeffs = y.a_coeffs

let equal_ext (x : ext_nf) (y : ext_nf) : bool =
  x.e_max = y.e_max && x.e_const = y.e_const && x.e_syms = y.e_syms

(** One-line explanation of why two additive forms differ. *)
let explain_add_diff ~(expected : add_nf) ~(got : add_nf) : string =
  if got.a_coeffs <> expected.a_coeffs then begin
    let missing =
      List.filter
        (fun (i, c) -> List.assoc_opt i got.a_coeffs <> Some c)
        expected.a_coeffs
    and extra =
      List.filter
        (fun (i, c) -> List.assoc_opt i expected.a_coeffs <> Some c)
        got.a_coeffs
    in
    let show (i, c) = if c = 1 then Printf.sprintf "x%d" i else Printf.sprintf "%d*x%d" c i in
    let clip l = match l with
      | a :: b :: c :: _ :: _ -> String.concat ", " (List.map show [ a; b; c ]) ^ ", ..."
      | l -> String.concat ", " (List.map show l)
    in
    Printf.sprintf "symbol multiset differs (wrong/missing: {%s}; unexpected: {%s})"
      (clip missing) (clip extra)
  end
  else
    Printf.sprintf "constant offset differs (expected %g, got %g)" expected.a_const
      got.a_const

(** One-line explanation of why two extremal forms differ. *)
let explain_ext_diff ~(expected : ext_nf) ~(got : ext_nf) : string =
  if got.e_syms <> expected.e_syms then
    let missing = List.filter (fun i -> not (List.mem i got.e_syms)) expected.e_syms
    and extra = List.filter (fun i -> not (List.mem i expected.e_syms)) got.e_syms in
    Printf.sprintf "symbol set differs (%d missing, %d unexpected)"
      (List.length missing) (List.length extra)
  else
    Printf.sprintf "dominating constant differs (expected %s, got %s)"
      (match expected.e_const with Some c -> Printf.sprintf "%g" c | None -> "none")
      (match got.e_const with Some c -> Printf.sprintf "%g" c | None -> "none")
