(* Warp arithmetic, defined once for every warp-synchronous walker: the
   interpreter ({!Gpusim.Interp}), the walk behind {!Access} and {!Race},
   and the symbolic evaluator ({!Symbolic.Eval}). A static prediction and
   a simulated run therefore charge the same transactions, replays and
   shuffle sources by construction. *)

let warp_size = 32

let lanes_in_warp ~nthreads w = min warp_size (nthreads - (w * warp_size))

let active (mask : bool array) (lanes : int) : int =
  let n = ref 0 in
  for l = 0 to lanes - 1 do
    if mask.(l) then incr n
  done;
  !n

(* The rules below sort the active lanes' keys into [sorted] and count
   runs of equal keys: monomorphic int loops with no allocation. Lane
   keys mostly rise with the lane, so the insertion sort is linear in
   the common case. A vector load's lanes give up to 4 keys each. *)
let sorted = Array.make (warp_size * 4) 0

(* insert [v] into [sorted.(0 .. n-1)]; the new length *)
let insert (n : int) (v : int) : int =
  let i = ref n in
  while !i > 0 && sorted.(!i - 1) > v do
    sorted.(!i) <- sorted.(!i - 1);
    decr i
  done;
  sorted.(!i) <- v;
  n + 1

(* the distinct keys in [sorted.(0 .. n-1)] *)
let distinct_sorted (n : int) : int =
  let d = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || sorted.(i) <> sorted.(i - 1) then incr d
  done;
  !d

let sort_active (idxs : int array) (mask : bool array) (lanes : int) : int =
  let n = ref 0 in
  for l = 0 to lanes - 1 do
    if mask.(l) then n := insert !n idxs.(l)
  done;
  !n

(* distinct 128-byte segments (32 four-byte elements) among the active
   lanes' [idx .. idx+width-1] *)
let vec_segments (idxs : int array) (mask : bool array) (lanes : int)
    ~(width : int) : int =
  let n = ref 0 in
  for l = 0 to lanes - 1 do
    if mask.(l) then
      for j = 0 to width - 1 do
        n := insert !n ((idxs.(l) + j) lsr 5)
      done
  done;
  distinct_sorted !n

let segments idxs mask lanes = vec_segments idxs mask lanes ~width:1

(* max over the 32 banks of the distinct addresses hitting the bank
   (same-address lanes broadcast) *)
let per_bank = Array.make 32 0

let bank_degree (idxs : int array) (mask : bool array) (lanes : int) : int =
  let n = sort_active idxs mask lanes in
  Array.fill per_bank 0 32 0;
  let degree = ref 1 in
  for i = 0 to n - 1 do
    if i = 0 || sorted.(i) <> sorted.(i - 1) then begin
      let bank = sorted.(i) land 31 in
      per_bank.(bank) <- per_bank.(bank) + 1;
      if per_bank.(bank) > !degree then degree := per_bank.(bank)
    end
  done;
  !degree

let atomic_distinct (idxs : int array) (mask : bool array) (lanes : int) : int =
  distinct_sorted (sort_active idxs mask lanes)

let atomic_worst (idxs : int array) (mask : bool array) (lanes : int) : int =
  let n = sort_active idxs mask lanes in
  let worst = ref 0 and run = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || sorted.(i) <> sorted.(i - 1) then run := 1 else incr run;
    if !run > !worst then worst := !run
  done;
  !worst

let out_of_warp = -1

let shfl_src (mode : Ir.shuffle_mode) ~(lane : int) ~(delta : int) ~(width : int)
    : int =
  let pos = lane mod width in
  let src =
    match mode with
    | Ir.Shfl_down -> if pos + delta < width then lane + delta else lane
    | Ir.Shfl_up -> if pos - delta >= 0 then lane - delta else lane
    | Ir.Shfl_xor ->
        let p = lane lxor delta in
        if p - (lane - pos) < width && p < warp_size then p else lane
    | Ir.Shfl_idx -> lane - pos + (delta mod width)
  in
  if src < 0 || src >= warp_size then out_of_warp else src
