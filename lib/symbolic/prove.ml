(* The equivalence checker: machine-checked proofs that a composed code
   version computes the same reduction as its tree-loop reference.

   A proof is a bounded-geometry symbolic execution: the input is fully
   symbolic (element [i] is the opaque symbol [x_i]) while the geometry
   (input length, block size, coarsening) is concrete, drawn from a small
   matrix that exercises the interesting shapes — a single element, a
   block with a dead warp tail, several blocks with a partial edge block,
   and two tunable assignments (two block widths, plus thread coarsening
   where the version has it). For a fixed geometry the symbolic result is
   a closed normal-form term; comparing it against the reference fold of
   the combining operation over [x_0..x_(n-1)] decides equivalence:

   - int add and int/float min/max are {i exact} — the normal forms
     quotient by exactly the associativity/commutativity the operator
     really has (and idempotence for min/max), so term equality is
     semantic equality;
   - float add/sub is proved {i modulo reassociation}: the symbol
     multisets match but floating-point addition does not associate, so
     each geometry yields a {!cert} recording the measured combine-tree
     depth. {!Runtime.Tolerance} cross-checks the certificate against its
     analytic rounding-step model (the proof-vs-witness layering: the
     proof pins the shape of the reassociation, the tolerance model
     bounds its numeric effect).

   The symbolic domain is sound but incomplete: a program that leaves the
   supported fragment (data-dependent branching, non-monoid arithmetic on
   input data) refutes with TSYM002 rather than proving anything — for
   the reduction versions this pipeline composes, the fragment is
   complete. *)

module Ir = Device_ir.Ir
module Diag = Device_ir.Diag

(** Reassociation certificate for one proof geometry: float-add results
    equal the reference as a multiset, but the version combines in a
    different tree; [c_depth] is the measured depth of that tree
    (the reference left-fold has depth [c_ref_depth] = n). *)
type cert = {
  c_n : int;
  c_tunables : (string * int) list;
  c_depth : int;
  c_ref_depth : int;
}

type failure = {
  f_code : string;  (** TSYM001..TSYM004 *)
  f_geometry : string;  (** e.g. ["n=33, bsize=32"] *)
  f_message : string;
}

type verdict =
  | Proved  (** equal to the reference at every geometry, exactly *)
  | Proved_reassoc of cert list
      (** equal modulo reassociation (float add/sub), one certificate per
          geometry *)
  | Refuted of failure list

(* Input sizes of the proof matrix: a single element, one block with a
   dead warp tail, and several blocks with a partial edge block. *)
let sizes = [ 1; 33; 257 ]

(* The smallest candidate of each tunable, plus (when distinct) the
   second-smallest assignment — a second block width, and a coarsening
   factor > 1 where the version has one — without exploding proof cost. *)
let geometry_tunables (p : Ir.program) : (string * int) list list =
  let pick k =
    List.map
      (fun (name, cands) ->
        (name, List.nth cands (min k (max 0 (List.length cands - 1)))))
      p.Ir.p_tunables
  in
  let a = pick 0 and b = pick 1 in
  if a = b then [ a ] else [ a; b ]

(* The tree-loop reference: the combining operation folded left over the
   identity and [x_0 .. x_(n-1)]. *)
let reference_term ~(op : Ir.atomic_op) ~(elem : Ir.scalar) ~(n : int) : Term.t =
  let acc =
    ref (Term.Conc (Gpusim.Value.of_float elem (Ir.identity_value op elem)))
  in
  for i = 0 to n - 1 do
    acc := Term.combine op !acc (Term.Sym i)
  done;
  !acc

let op_class (op : Ir.atomic_op) : [ `Add | `Ext of bool ] =
  match op with
  | Ir.A_add | Ir.A_sub -> `Add
  | Ir.A_min -> `Ext false
  | Ir.A_max -> `Ext true

(* compare the version's result term with the reference; Ok carries the
   version term's combine depth (the certificate payload) *)
let compare_terms ~(op : Ir.atomic_op) ~(elem : Ir.scalar) ~(expected : Term.t)
    ~(got : Term.t) : (int, string) result =
  match op_class op with
  | `Add ->
      let e = Term.canon_add expected and g = Term.canon_add got in
      if Term.equal_add e g then Ok g.Term.a_depth
      else Error (Term.explain_add_diff ~expected:e ~got:g)
  | `Ext maxi ->
      let e = Term.canon_ext ~maxi ~elem expected
      and g = Term.canon_ext ~maxi ~elem got in
      if Term.equal_ext e g then Ok g.Term.e_depth
      else Error (Term.explain_ext_diff ~expected:e ~got:g)

let geometry_name (n : int) (tunables : (string * int) list) : string =
  Printf.sprintf "n=%d%s" n
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ", %s=%d" k v) tunables))

(** Prove [p] equivalent to the reference reduction of [op] over [elem]
    elements, across the geometry matrix [sizes] x tunable assignments.
    Total: never raises — any escape of the symbolic fragment refutes. *)
let equiv ~(op : Ir.atomic_op) ~(elem : Ir.scalar) (p : Ir.program) : verdict =
  let geometries =
    List.concat_map
      (fun tunables -> List.map (fun n -> (n, tunables)) sizes)
      (geometry_tunables p)
  in
  let failures = ref [] and certs = ref [] in
  List.iter
    (fun (n, tunables) ->
      let where = geometry_name n tunables in
      let fail code message =
        failures := { f_code = code; f_geometry = where; f_message = message } :: !failures
      in
      match Eval.run_program ~tunables ~n p with
      | exception Eval.Abort { a_code; a_message } -> fail a_code a_message
      | exception e ->
          fail "TSYM002"
            (Printf.sprintf "symbolic execution failed: %s" (Printexc.to_string e))
      | got -> (
          let expected = reference_term ~op ~elem ~n in
          match compare_terms ~op ~elem ~expected ~got with
          | Ok depth ->
              certs :=
                { c_n = n; c_tunables = tunables; c_depth = depth; c_ref_depth = n }
                :: !certs
          | Error msg ->
              fail "TSYM001"
                (Printf.sprintf
                   "result term differs from the tree-loop reference: %s \
                    (computed %s)"
                   msg (Term.describe got))
          | exception Term.Unsupported msg -> fail "TSYM002" msg))
    geometries;
  if !failures <> [] then Refuted (List.rev !failures)
  else
    match (op_class op, elem) with
    | `Add, Ir.F32 -> Proved_reassoc (List.rev !certs)
    | _ -> Proved

let proved = function Proved | Proved_reassoc _ -> true | Refuted _ -> false

(** Distinct failure codes of a refutation, sorted. *)
let codes = function
  | Proved | Proved_reassoc _ -> []
  | Refuted fs -> List.sort_uniq compare (List.map (fun f -> f.f_code) fs)

(** The deepest per-geometry certificate, if any. *)
let worst_cert = function
  | Proved_reassoc (c :: cs) ->
      Some
        (List.fold_left (fun acc c -> if c.c_depth > acc.c_depth then c else acc) c cs)
  | Proved_reassoc [] | Proved | Refuted _ -> None

let describe = function
  | Proved -> "proved (exact)"
  | Proved_reassoc certs ->
      let worst =
        List.fold_left (fun acc c -> max acc c.c_depth) 0 certs
      in
      Printf.sprintf "proved modulo reassociation (%d geometries, depth <= %d)"
        (List.length certs) worst
  | Refuted fs ->
      Printf.sprintf "refuted (%d failure%s: %s)" (List.length fs)
        (if List.length fs = 1 then "" else "s")
        (String.concat ", " (List.sort_uniq compare (List.map (fun f -> f.f_code) fs)))

(** Refutation failures as {!Device_ir.Diag} errors ([kernel] is the
    program under proof; the location is the failing geometry). Proofs
    yield no diagnostics. *)
let to_diags ~(program : string) (v : verdict) : Diag.t list =
  match v with
  | Proved | Proved_reassoc _ -> []
  | Refuted fs ->
      List.map
        (fun f ->
          Diag.make ~loc:f.f_geometry ~code:f.f_code ~severity:Diag.Error
            ~kernel:program f.f_message)
        fs
