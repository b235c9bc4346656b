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

(* distinct 128-byte segments (32 four-byte elements) among the active
   lanes' [idx .. idx+width-1] *)
let vec_segments (idxs : int array) (mask : bool array) (lanes : int)
    ~(width : int) : int =
  let segs = ref [] in
  for l = 0 to lanes - 1 do
    if mask.(l) then
      for j = 0 to width - 1 do
        let s = (idxs.(l) + j) lsr 5 in
        if not (List.mem s !segs) then segs := s :: !segs
      done
  done;
  List.length !segs

let segments idxs mask lanes = vec_segments idxs mask lanes ~width:1

(* max over the 32 banks of the distinct addresses hitting the bank
   (same-address lanes broadcast) *)
let bank_degree (idxs : int array) (mask : bool array) (lanes : int) : int =
  let per_bank = Array.make 32 [] in
  for l = 0 to lanes - 1 do
    if mask.(l) then begin
      let bank = idxs.(l) land 31 in
      if not (List.mem idxs.(l) per_bank.(bank)) then
        per_bank.(bank) <- idxs.(l) :: per_bank.(bank)
    end
  done;
  Array.fold_left (fun acc l -> max acc (List.length l)) 1 per_bank

let atomic_conflicts (idxs : int array) (mask : bool array) (lanes : int) :
    int * int =
  let groups = ref [] in
  for l = 0 to lanes - 1 do
    if mask.(l) then
      match List.assoc_opt idxs.(l) !groups with
      | Some r -> incr r
      | None -> groups := (idxs.(l), ref 1) :: !groups
  done;
  (List.length !groups, List.fold_left (fun acc (_, r) -> max acc !r) 0 !groups)

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
