(* Property-based tests (qcheck, run through alcotest):

   - 32-bit integer semantics of the simulator agree with Int32;
   - host-expression algebra (ceiling division bounds);
   - parser/pretty-printer round trips on generated expressions;
   - constant folding preserves meaning on closed expressions;
   - {b exactly-once coverage}: every synthesized version applied to an
     all-ones array returns exactly [n] — each element contributes exactly
     once, for random sizes and tunables (this is the partition-correctness
     invariant of the index calculation);
   - reduction correctness on random data across versions/architectures;
   - warp-shuffle tree reduction equals the lane sum for random values;
   - the warp rules of [Device_ir.Lanes] agree with their list-based
     definitions;
   - cost-model monotonicity in the input size. *)

let seed = [| 0xC60 |]  (* deterministic runs *)

let to_alcotest ?(count = 100) name prop gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* -------------------------------------------------------------- *)
(* Value semantics vs Int32                                        *)
(* -------------------------------------------------------------- *)

let int32_pair = QCheck.(pair int int)

let int32_tests =
  let module V = Gpusim.Value in
  let norm = V.norm32 in
  [
    to_alcotest "norm32 is idempotent"
      (fun x -> norm (norm x) = norm x)
      QCheck.int;
    to_alcotest "norm32 agrees with Int32 truncation"
      (fun x -> norm x = Int32.to_int (Int32.of_int x))
      QCheck.int;
    to_alcotest "addition wraps like Int32"
      (fun (a, b) ->
        let got = V.binop Device_ir.Ir.Add (V.VI (norm a)) (V.VI (norm b)) in
        V.to_int got
        = Int32.to_int (Int32.add (Int32.of_int a) (Int32.of_int b)))
      int32_pair;
    to_alcotest "multiplication wraps like Int32"
      (fun (a, b) ->
        let got = V.binop Device_ir.Ir.Mul (V.VI (norm a)) (V.VI (norm b)) in
        V.to_int got
        = Int32.to_int (Int32.mul (Int32.of_int a) (Int32.of_int b)))
      int32_pair;
    to_alcotest "comparisons agree with the integers"
      (fun (a, b) ->
        let got = V.binop Device_ir.Ir.Lt (V.VI (norm a)) (V.VI (norm b)) in
        V.to_bool got = (norm a < norm b))
      int32_pair;
    to_alcotest "min/max are consistent"
      (fun (a, b) ->
        let a = norm a and b = norm b in
        V.to_int (V.binop Device_ir.Ir.Min (V.VI a) (V.VI b)) = min a b
        && V.to_int (V.binop Device_ir.Ir.Max (V.VI a) (V.VI b)) = max a b)
      int32_pair;
  ]

(* -------------------------------------------------------------- *)
(* Host expressions                                                *)
(* -------------------------------------------------------------- *)

let hexp_tests =
  [
    to_alcotest "ceil_div covers and is tight"
      (fun (a, b) ->
        let a = 1 + abs a and b = 1 + abs b in
        let q =
          Device_ir.Ir.eval_hexp ~n:1 ~tunables:[]
            (Device_ir.Ir.hceil (Device_ir.Ir.H_int a) (Device_ir.Ir.H_int b))
        in
        (q * b >= a) && ((q - 1) * b < a))
      QCheck.(pair small_int small_int);
  ]

(* -------------------------------------------------------------- *)
(* Parser round trips                                              *)
(* -------------------------------------------------------------- *)

let gen_expr : Tir.Ast.expr QCheck.arbitrary =
  let open Tir.Ast in
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "x"; "val"; "offset" ] in
  let leaf =
    oneof
      [
        map (fun n -> Int_lit (abs n)) small_int;
        map (fun s -> Ident s) ident;
        return (Bool_lit true);
        return (Bool_lit false);
        map (fun s -> Method (s, "Size", [])) (oneofl [ "in"; "vthread" ]);
      ]
  in
  let binops =
    [ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Band; Bor; Bxor;
      Shl; Shr ]
  in
  let rec gen n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 4,
            map3
              (fun op a b -> Binary (op, a, b))
              (oneofl binops) (gen (n / 2)) (gen (n / 2)) );
          (1, map (fun a -> Unary (Neg, a)) (gen (n - 1)));
          (1, map (fun a -> Unary (Not, a)) (gen (n - 1)));
          ( 1,
            map3 (fun c a b -> Ternary (c, a, b)) (gen (n / 3)) (gen (n / 3))
              (gen (n / 3)) );
          (1, map (fun i -> Index (Ident "arr", i)) (gen (n - 1)));
          (1, map (fun args -> Call ("sum", [ args ])) (gen (n - 1)));
        ]
  in
  QCheck.make ~print:Tir.Ast.show_expr (gen 6)

let roundtrip_tests =
  [
    to_alcotest ~count:500 "print-parse round trip"
      (fun e ->
        let printed = Tir.Pp.expr e in
        let reparsed = Tir.Parser.parse_expr_string printed in
        Tir.Ast.equal_expr e reparsed)
      gen_expr;
  ]

(* -------------------------------------------------------------- *)
(* Constant folding preserves meaning                              *)
(* -------------------------------------------------------------- *)

(* closed integer expressions with safe (non-zero) divisors *)
let gen_closed_expr : Tir.Ast.expr QCheck.arbitrary =
  let open Tir.Ast in
  let open QCheck.Gen in
  let leaf = map (fun n -> Int_lit (1 + (abs n mod 50))) small_int in
  let rec gen n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Binary (op, a, b))
              (oneofl [ Add; Sub; Mul ])
              (gen (n / 2)) (gen (n / 2)) );
          ( 1,
            map2 (fun a b -> Binary (Div, a, b)) (gen (n / 2)) leaf );
          ( 1,
            map3 (fun c a b -> Ternary (Binary (Lt, c, Int_lit 25), a, b))
              leaf (gen (n / 2)) (gen (n / 2)) );
        ]
  in
  QCheck.make ~print:Tir.Ast.show_expr (gen 5)

let rec eval_closed (e : Tir.Ast.expr) : int =
  let open Tir.Ast in
  match e with
  | Int_lit n -> n
  | Binary (Add, a, b) -> eval_closed a + eval_closed b
  | Binary (Sub, a, b) -> eval_closed a - eval_closed b
  | Binary (Mul, a, b) -> eval_closed a * eval_closed b
  | Binary (Div, a, b) -> eval_closed a / eval_closed b
  | Binary (Lt, a, b) -> if eval_closed a < eval_closed b then 1 else 0
  | Ternary (c, a, b) -> if eval_closed c <> 0 then eval_closed a else eval_closed b
  | _ -> invalid_arg "eval_closed"

let folding_tests =
  [
    to_alcotest ~count:300 "folding preserves closed evaluation"
      (fun e -> eval_closed (Passes.Fold.fold_expr e) = eval_closed e)
      gen_closed_expr;
    to_alcotest ~count:300 "folding is idempotent"
      (fun e ->
        let once = Passes.Fold.fold_expr e in
        Tir.Ast.equal_expr once (Passes.Fold.fold_expr once))
      gen_closed_expr;
  ]

(* -------------------------------------------------------------- *)
(* Synthesis coverage and correctness                              *)
(* -------------------------------------------------------------- *)

let plan = lazy (Synthesis.Planner.sum ())
let int_plan = lazy (Synthesis.Planner.int_sum ())
let pruned = lazy (Array.of_list (Synthesis.Version.enumerate_pruned ()))

let gen_run_config =
  QCheck.make
    ~print:(fun (vi, n, bs, co) -> Printf.sprintf "version#%d n=%d bsize=%d coarsen=%d" vi n bs co)
    QCheck.Gen.(
      let* vi = int_bound 29 in
      let* n = int_range 1 20_000 in
      let* bs = oneofl [ 32; 64; 128; 256; 1024 ] in
      let* co = oneofl [ 1; 2; 4; 16; 64 ] in
      return (vi, n, bs, co))

let coverage_tests =
  [
    to_alcotest ~count:60 "exactly-once coverage: sum of ones equals n"
      (fun (vi, n, bs, co) ->
        let v = (Lazy.force pruned).(vi) in
        let input = Array.make n 1.0 in
        let o =
          Synthesis.Planner.run ~arch:Gpusim.Arch.maxwell_gtx980
            ~tunables:[ ("bsize", bs); ("coarsen", co) ]
            (Lazy.force plan) ~input:(Gpusim.Runner.Dense input) v
        in
        o.Gpusim.Runner.result = float_of_int n)
      gen_run_config;
    to_alcotest ~count:25 "integer reductions are exact"
      (fun (vi, n, bs, co) ->
        let v = (Lazy.force pruned).(vi) in
        let input =
          Array.init n (fun i -> float_of_int (((i * 37) mod 2001) - 1000))
        in
        let expected = Array.fold_left ( +. ) 0.0 input in
        let o =
          Synthesis.Planner.run ~arch:Gpusim.Arch.pascal_p100
            ~tunables:[ ("bsize", bs); ("coarsen", co) ]
            (Lazy.force int_plan) ~input:(Gpusim.Runner.Dense input) v
        in
        o.Gpusim.Runner.result = expected)
      gen_run_config;
    to_alcotest ~count:30 "random data matches the reference"
      (fun (vi, n, bs, co) ->
        let v = (Lazy.force pruned).(vi) in
        let input = Array.init n (fun i -> float_of_int ((i * 13 mod 31) - 15)) in
        let expected = Array.fold_left ( +. ) 0.0 input in
        let o =
          Synthesis.Planner.run ~arch:Gpusim.Arch.kepler_k40c
            ~tunables:[ ("bsize", bs); ("coarsen", co) ]
            (Lazy.force plan) ~input:(Gpusim.Runner.Dense input) v
        in
        Float.abs (o.Gpusim.Runner.result -. expected) < 1e-3)
      gen_run_config;
  ]

(* -------------------------------------------------------------- *)
(* Front-end robustness: arbitrary input never escapes the defined *)
(* error channels                                                  *)
(* -------------------------------------------------------------- *)

let gen_garbage : string QCheck.arbitrary =
  (* printable ASCII soup, seeded with language fragments so the parser
     gets past the lexer often enough to be interesting *)
  let fragments =
    [ "__codelet"; "int"; "float"; "f"; "("; ")"; "{"; "}"; "return"; ";";
      "for"; "if"; "Vector"; "__shared"; "="; "+"; "0"; "1.5"; "in"; "[";
      "]"; "<"; ">"; ","; "Map"; "partition"; "&&"; "?"; ":"; "x" ]
  in
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let* n = int_range 0 40 in
      let* parts = list_repeat n (oneofl fragments) in
      return (String.concat " " parts))

let robustness_tests =
  [
    to_alcotest ~count:500 "parser fails only through its own exceptions"
      (fun src ->
        match Tir.Parser.parse_unit src with
        | _ -> true
        | exception Tir.Parser.Parse_error _ -> true
        | exception Tir.Lexer.Lex_error _ -> true
        | exception _ -> false)
      gen_garbage;
    to_alcotest ~count:500 "checker fails only through Check_error"
      (fun src ->
        match Tir.Check.check_unit (Tir.Parser.parse_unit src) with
        | _ -> true
        | exception Tir.Parser.Parse_error _ -> true
        | exception Tir.Lexer.Lex_error _ -> true
        | exception Tir.Check.Check_error _ -> true
        | exception _ -> false)
      gen_garbage;
  ]

(* -------------------------------------------------------------- *)
(* Warp shuffle tree property                                      *)
(* -------------------------------------------------------------- *)

let shuffle_tests =
  let module Ir = Device_ir.Ir in
  let tree_kernel =
    { Ir.k_name = "tree";
      k_params = [];
      k_arrays = [ ("a", Ir.F32); ("out", Ir.F32) ];
      k_shared = [];
      k_body =
        [
          Ir.load_global "acc" "a" Ir.tid;
          Ir.for_halving "off" ~from:(Ir.Int 16)
            [
              Ir.shfl_down "t" (Ir.Reg "acc") (Ir.Reg "off") ~width:32;
              Ir.let_ "acc" Ir.(Reg "acc" +: Reg "t");
            ];
          Ir.if_ Ir.(lane_id =: Int 0)
            [ Ir.store_global "out" Ir.warp_id (Ir.Reg "acc") ]
            [];
        ];
    }
  in
  let compiled = Gpusim.Compiled.compile tree_kernel in
  [
    to_alcotest ~count:100 "shuffle tree computes the warp sum"
      (fun values ->
        let data = Array.of_list (List.map float_of_int values) in
        let padded = Array.make 32 0.0 in
        Array.blit data 0 padded 0 (min 32 (Array.length data));
        let out = Array.make 1 0.0 in
        let _ =
          Gpusim.Interp.run_kernel ~arch:Gpusim.Arch.pascal_p100
            ~opts:Gpusim.Interp.exact compiled ~grid:1 ~block:32 ~shared_elems:0
            ~globals:
              [| Gpusim.Interp.make_buffer ~read_only:true ~ty:Ir.F32 ~id:0 padded;
                 Gpusim.Interp.make_buffer ~ty:Ir.F32 ~id:1 out |]
            ~params:[||]
        in
        out.(0) = Array.fold_left ( +. ) 0.0 padded)
      QCheck.(list_of_size (QCheck.Gen.int_range 1 32) (int_range (-1000) 1000));
  ]

(* -------------------------------------------------------------- *)
(* Cost monotonicity                                               *)
(* -------------------------------------------------------------- *)

let monotonicity_tests =
  [
    to_alcotest ~count:20 "simulated time does not decrease with size"
      (fun (vi, n) ->
        let v = (Lazy.force pruned).(vi) in
        let opts =
          { Gpusim.Interp.max_blocks = Some 8; loop_cap = Some 16;
            check_uniform = false }
        in
        let time n =
          let input =
            Gpusim.Runner.Synthetic { n; pattern = Array.make 1024 1.0 }
          in
          (Synthesis.Planner.run ~opts ~arch:Gpusim.Arch.kepler_k40c
             ~tunables:[ ("bsize", 256); ("coarsen", 8) ]
             (Lazy.force plan) ~input v)
            .Gpusim.Runner.time_us
        in
        (* 10% slack: sampling introduces a little noise *)
        time (16 * n) >= 0.9 *. time n)
      QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 29)) (QCheck.make QCheck.Gen.(int_range 1024 100_000)));
  ]

(* -------------------------------------------------------------- *)
(* Lanes rules vs their list-based definitions                     *)
(* -------------------------------------------------------------- *)

(* The warp rules as first written: membership in growing lists. The
   int loops of [Device_ir.Lanes] must give the same counts. *)
module Lanes_ref = struct
  let vec_segments idxs mask lanes ~width =
    let segs = ref [] in
    for l = 0 to lanes - 1 do
      if mask.(l) then
        for j = 0 to width - 1 do
          let s = (idxs.(l) + j) lsr 5 in
          if not (List.mem s !segs) then segs := s :: !segs
        done
    done;
    List.length !segs

  let bank_degree idxs mask lanes =
    let per_bank = Array.make 32 [] in
    for l = 0 to lanes - 1 do
      if mask.(l) then begin
        let bank = idxs.(l) land 31 in
        if not (List.mem idxs.(l) per_bank.(bank)) then
          per_bank.(bank) <- idxs.(l) :: per_bank.(bank)
      end
    done;
    Array.fold_left (fun acc l -> max acc (List.length l)) 1 per_bank

  let atomic_conflicts idxs mask lanes =
    let groups = ref [] in
    for l = 0 to lanes - 1 do
      if mask.(l) then
        match List.assoc_opt idxs.(l) !groups with
        | Some r -> incr r
        | None -> groups := (idxs.(l), ref 1) :: !groups
    done;
    (List.length !groups, List.fold_left (fun acc (_, r) -> max acc !r) 0 !groups)
end

(* one warp access: lane count 1-32, a vector width, a mask and indices
   mixing runs, duplicates, negatives and large strides *)
let warp_access =
  let open QCheck.Gen in
  let index =
    frequency
      [
        (4, int_range (-64) 256);
        (2, map (fun k -> k * 32) (int_range (-4) 8));
        (1, map (fun k -> k * 4099) (int_range (-1000) 1000));
        (1, int_range (-1_000_000_000) 1_000_000_000);
      ]
  in
  let lanes_gen =
    int_range 1 32 >>= fun lanes ->
    oneofl [ 1; 2; 4 ] >>= fun width ->
    array_repeat 32 bool >>= fun mask ->
    oneof
      [
        array_repeat 32 index;
        (* strided runs: a base plus lane * stride *)
        map2
          (fun base stride -> Array.init 32 (fun l -> base + (l * stride)))
          index
          (oneofl [ 0; 1; 2; 3; 4; 32; 33; 1024; -1 ]);
        (* few distinct values: heavy duplication *)
        map2 (fun pool picks -> Array.map (fun p -> pool.(p)) picks)
          (array_repeat 3 index) (array_repeat 32 (int_bound 2));
      ]
    >|= fun idxs -> (lanes, width, mask, idxs)
  in
  QCheck.make
    ~print:(fun (lanes, width, mask, idxs) ->
      Printf.sprintf "lanes=%d width=%d mask=[%s] idxs=[%s]" lanes width
        (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))
        (String.concat ";" (Array.to_list (Array.map string_of_int idxs))))
    lanes_gen

let lanes_tests =
  let module L = Device_ir.Lanes in
  [
    to_alcotest ~count:2000 "segments and vector segments match the list rules"
      (fun (lanes, width, mask, idxs) ->
        L.vec_segments idxs mask lanes ~width
        = Lanes_ref.vec_segments idxs mask lanes ~width
        && L.segments idxs mask lanes = Lanes_ref.vec_segments idxs mask lanes ~width:1)
      warp_access;
    to_alcotest ~count:2000 "bank degree matches the list rule"
      (fun (lanes, _, mask, idxs) ->
        L.bank_degree idxs mask lanes = Lanes_ref.bank_degree idxs mask lanes)
      warp_access;
    to_alcotest ~count:2000 "atomic conflicts match the list rule"
      (fun (lanes, _, mask, idxs) ->
        (L.atomic_distinct idxs mask lanes, L.atomic_worst idxs mask lanes)
        = Lanes_ref.atomic_conflicts idxs mask lanes)
      warp_access;
  ]

let () =
  ignore seed;
  Alcotest.run "properties"
    [
      ("int32 semantics", int32_tests);
      ("host expressions", hexp_tests);
      ("parser round trips", roundtrip_tests);
      ("constant folding", folding_tests);
      ("coverage and correctness", coverage_tests);
      ("front-end robustness", robustness_tests);
      ("warp shuffles", shuffle_tests);
      ("warp rules", lanes_tests);
      ("cost monotonicity", monotonicity_tests);
    ]
