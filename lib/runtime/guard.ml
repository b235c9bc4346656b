(* Online result verification: the ABFT-style witness.

   Every exact service response is checked against a host-side witness
   before it leaves the engine. For synthetic inputs the witness is the
   planner's closed form (O(pattern), never O(n)); for dense inputs the
   input is cut into [sample] stripes, each stripe is folded
   independently and the stripe partials are folded again — the same
   answer computed through a deliberately different association, so the
   witness and the versions cannot share a wrong order. The comparison
   runs under the {!Tolerance} model: integer and min/max reductions
   must match exactly, float sums may drift by the version's
   reassociation bound and no further.

   The guard itself never re-executes anything — classification of a
   failed check (one-off flip vs reproducible deviation) and the voting
   walk live in {!Service}, which owns the ladder and the breakers. *)

module P = Synthesis.Planner
module R = Gpusim.Runner

type config = {
  g_enabled : bool;
  g_sample : int;  (** witness stripes for dense recomputation *)
  g_votes : int;  (** redundant executions budget per suspect result *)
}

let default = { g_enabled = true; g_sample = 4; g_votes = 2 }

let config ?(enabled = true) ?(sample = default.g_sample)
    ?(votes = default.g_votes) () : config =
  if sample < 1 then invalid_arg "Guard.config: sample must be positive";
  if votes < 1 then invalid_arg "Guard.config: votes must be positive";
  { g_enabled = enabled; g_sample = sample; g_votes = votes }

type check = { ck_expected : float; ck_tol : Tolerance.t }

let expected (c : check) : float = c.ck_expected
let tolerance (c : check) : Tolerance.t = c.ck_tol

let witness ~(planner : P.t) ~(sample : int) (input : R.input) : float =
  match input with
  | R.Synthetic _ -> P.reference_input planner input
  | R.Dense a ->
      let n = Array.length a in
      if n = 0 then P.reference_input planner input
      else begin
        let parts = max 1 (min sample n) in
        (* each stripe folds in place: copying it out would put n
           floats of garbage on the major heap per witness *)
        let stripes fold =
          Array.init parts (fun i -> fold ~lo:(i * n / parts) ~hi:((i + 1) * n / parts))
        in
        match planner.P.op with
        | Tir.Ast.At_min | Tir.Ast.At_max ->
            (* Associative (and idempotent): refolding stripe partials
               with the op itself is a legal re-association. *)
            P.reference planner (stripes (fun ~lo ~hi -> P.reference ~lo ~hi planner a))
        | Tir.Ast.At_add | Tir.Ast.At_sub ->
            (* Subtraction is not associative: each stripe partial is
               -(stripe sum), and refolding those with subtract would
               flip the sign back to +sum. Mirror reference_synthetic:
               fold stripes with add semantics, negate once at the end. *)
            let sum ~lo ~hi =
              let s = ref 0.0 in
              for j = lo to hi - 1 do
                s := !s +. a.(j)
              done;
              !s
            in
            let total = Array.fold_left ( +. ) 0.0 (stripes sum) in
            if planner.P.op = Tir.Ast.At_sub then -.total else total
      end

let make ~(planner : P.t) ?version ~(input : R.input) ~(sample : int) () :
    check =
  {
    ck_expected = witness ~planner ~sample input;
    ck_tol =
      Tolerance.bound ~op:planner.P.op ~elem:planner.P.elem ?version
        ~n:(R.input_size input)
        ~sum_abs:(Tolerance.sum_abs_of_input input)
        ();
  }

let acceptable (c : check) ~(got : float) : bool =
  Tolerance.acceptable c.ck_tol ~expected:c.ck_expected ~got

let margin (c : check) ~(got : float) : float =
  Tolerance.margin c.ck_tol ~expected:c.ck_expected ~got

(* Two executions of the same deterministic version agree when they land
   within one tolerance window of each other — for exact reductions,
   bitwise equality. An out-of-tolerance result that *agrees* with its
   own re-execution reproduced deterministically, so it cannot be a
   one-off flip: the alarm is the model's, not the version's. *)
let agree (c : check) (a : float) (b : float) : bool =
  match c.ck_tol with
  | Tolerance.Exact -> a = b
  | Tolerance.Absolute bound ->
      (match (Float.classify_float a, Float.classify_float b) with
      | (Float.FP_nan | Float.FP_infinite), _
      | _, (Float.FP_nan | Float.FP_infinite) ->
          false
      | _ -> Float.abs (a -. b) <= bound)
