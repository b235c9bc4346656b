(* Deterministic fault injection.

   A seeded LCG (same MMIX multiplier the trace generator uses) drives
   every decision, so a fault schedule is a pure function of (seed,
   sequence of rolls). Each roll consumes exactly two draws — fault?
   and which kind? — whether or not it faults, keeping the stream
   position independent of the configured rates: raising the rate
   changes which rolls fault, not where later rolls land. *)

type kind = Transient | Timeout | Stall | Corrupt | Bit_flip

let kind_name = function
  | Transient -> "transient"
  | Timeout -> "timeout"
  | Stall -> "stall"
  | Corrupt -> "corrupt"
  | Bit_flip -> "bit-flip"

exception Injected of kind * string

type space = Global_mem | Shared_mem | Register

let space_name = function
  | Global_mem -> "global"
  | Shared_mem -> "shared"
  | Register -> "register"

type flip = {
  fl_space : space;
  fl_bit : int;
  fl_launch : int;
  fl_site : int;
  fl_target : int;
}

type flip_record = {
  fr_roll : int;
  fr_arch : string;
  fr_version : string;
  fr_flip : flip;
}

type plan = {
  f_seed : int;
  f_rate : float;
  f_version_rates : (string * float) list;
  f_mix : (kind * float) list;
  f_bitflip_rate : float;
}

let default_mix =
  [ (Transient, 0.5); (Timeout, 0.2); (Corrupt, 0.2); (Stall, 0.1) ]

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.plan: %s %g outside [0, 1]" what r)

let spaces = [ Global_mem; Shared_mem; Register ]

let plan ?(rate = 0.0) ?(version_rates = []) ?(mix = default_mix)
    ?(bitflip_rate = 0.0) ~seed () : plan =
  check_rate "rate" rate;
  check_rate "bitflip_rate" bitflip_rate;
  if List.mem_assoc Bit_flip mix then
    invalid_arg
      "Fault.plan: Bit_flip is driven by bitflip_rate, not the kind mix";
  List.iter (fun (v, r) -> check_rate ("rate of version " ^ v) r) version_rates;
  List.iter
    (fun (k, w) ->
      if w < 0.0 then
        invalid_arg
          (Printf.sprintf "Fault.plan: negative weight %g for kind %s" w
             (kind_name k)))
    mix;
  if List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix <= 0.0 then
    invalid_arg "Fault.plan: the kind mix has no positive weight";
  {
    f_seed = seed;
    f_rate = rate;
    f_version_rates = version_rates;
    f_mix = mix;
    f_bitflip_rate = bitflip_rate;
  }

type t = {
  t_plan : plan;
  mutable state : int64;
  mutable flip_state : int64;
      (* separate LCG stream: bit-flip rolls never move the loud-fault
         stream, so enabling [bitflip_rate] replays the exact same
         transient/timeout/stall/corrupt schedule as before *)
  mutable n_rolls : int;
  mutable n_transient : int;
  mutable n_timeout : int;
  mutable n_stall : int;
  mutable n_corrupt : int;
  mutable n_bitflip : int;
  mutable flip_log : flip_record list;  (* most recent first *)
}

let lcg (state : int64) : int64 =
  Int64.add (Int64.mul state 6364136223846793005L) 1442695040888963407L

(* uniform in [0, 1) from the top 30 bits *)
let uniform (state : int64) : float =
  float_of_int (Int64.to_int (Int64.shift_right_logical state 34))
  /. 1073741824.0

let create (p : plan) : t =
  {
    t_plan = p;
    state = lcg (Int64.of_int p.f_seed);
    flip_state = lcg (Int64.logxor (Int64.of_int p.f_seed) 0x5DEECE66DL);
    n_rolls = 0;
    n_transient = 0;
    n_timeout = 0;
    n_stall = 0;
    n_corrupt = 0;
    n_bitflip = 0;
    flip_log = [];
  }

let seed t = t.t_plan.f_seed
let stall_factor = 8.0

type verdict = Pass | Fault of kind

let effective_rate (p : plan) ~version : float =
  Option.value ~default:p.f_rate (List.assoc_opt version p.f_version_rates)

let draw_kind (p : plan) (u : float) : kind =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 p.f_mix in
  let target = u *. total in
  let rec go acc = function
    | [] -> fst (List.hd p.f_mix)
    | (k, w) :: rest -> if target < acc +. w then k else go (acc +. w) rest
  in
  go 0.0 p.f_mix

let roll (t : t) ~(version : string) : verdict =
  let s1 = lcg t.state in
  let s2 = lcg s1 in
  t.state <- s2;
  t.n_rolls <- t.n_rolls + 1;
  if uniform s1 >= effective_rate t.t_plan ~version then Pass
  else begin
    let k = draw_kind t.t_plan (uniform s2) in
    (match k with
    | Transient -> t.n_transient <- t.n_transient + 1
    | Timeout -> t.n_timeout <- t.n_timeout + 1
    | Stall -> t.n_stall <- t.n_stall + 1
    | Corrupt -> t.n_corrupt <- t.n_corrupt + 1
    | Bit_flip -> assert false (* plan rejects Bit_flip in the mix *));
    Fault k
  end

(* Bit-flip rolls consume exactly five draws from the dedicated flip
   stream — one per space plus bit and placement — whether or not a flip
   fires, so the schedule of flips at one rate is a strict subset of the
   schedule at any higher rate. *)
let roll_flip (t : t) : flip option =
  let p = t.t_plan in
  let draw () =
    let s = lcg t.flip_state in
    t.flip_state <- s;
    s
  in
  let fired =
    List.filter_map
      (fun space ->
        if uniform (draw ()) < p.f_bitflip_rate then Some space else None)
      spaces
  in
  let s_bit = draw () and s_place = draw () in
  match fired with
  | [] -> None
  | space :: _ ->
      let bits i shift width =
        Int64.to_int (Int64.logand (Int64.shift_right_logical i shift)
                        (Int64.of_int ((1 lsl width) - 1)))
      in
      Some
        {
          fl_space = space;
          fl_bit = bits s_bit 36 5;
          fl_launch = bits s_bit 20 8;
          fl_site = bits s_place 40 16;
          fl_target = bits s_place 8 24;
        }

(* Counting is separate from drawing: a drawn flip only enters the log
   once the runner actually lands it in memory — runs aborted by a loud
   Transient/Timeout verdict never apply their flip, and counting it
   would overstate the flip population that detection rates divide by. *)
let record_flip (t : t) ~(arch : string) ~(version : string) (fl : flip) : unit =
  t.n_bitflip <- t.n_bitflip + 1;
  t.flip_log <-
    { fr_roll = t.n_rolls; fr_arch = arch; fr_version = version; fr_flip = fl }
    :: t.flip_log

let rolls t = t.n_rolls

let injected t =
  t.n_transient + t.n_timeout + t.n_stall + t.n_corrupt + t.n_bitflip

let injected_by_kind t =
  [
    (Transient, t.n_transient);
    (Timeout, t.n_timeout);
    (Stall, t.n_stall);
    (Corrupt, t.n_corrupt);
    (Bit_flip, t.n_bitflip);
  ]

let flips t = List.rev t.flip_log

(* ------------------------------------------------------------------ *)
(* Per-device failure profiles                                          *)
(* ------------------------------------------------------------------ *)

(* A profile is a pure function of the device's dispatch count — no
   stream of its own — so evaluating it never perturbs the loud-fault or
   bit-flip schedules. The only randomness a profile ever carries is
   baked in at construction time ([seeded_fail_stop] draws the death
   dispatch once from its own throwaway LCG). Dispatch indices are
   1-based: the first dispatch a device serves is dispatch 1. *)
type profile =
  | Healthy
  | Fail_stop of int
  | Fail_slow of { sl_onset : int; sl_ramp : int; sl_factor : float }
  | Flaky of float
  | Recovering of { rc_until : int; rc_factor : float }

let check_profile = function
  | Healthy -> ()
  | Fail_stop at ->
      if at < 1 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: fail-stop dispatch %d < 1" at)
  | Fail_slow { sl_onset; sl_ramp; sl_factor } ->
      if sl_onset < 1 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: fail-slow onset %d < 1" sl_onset);
      if sl_ramp < 1 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: fail-slow ramp %d < 1" sl_ramp);
      if sl_factor < 1.0 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: fail-slow factor %g < 1"
             sl_factor)
  | Flaky r -> check_rate "flaky rate" r
  | Recovering { rc_until; rc_factor } ->
      if rc_until < 0 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: recovery point %d < 0" rc_until);
      if rc_factor < 1.0 then
        invalid_arg
          (Printf.sprintf "Fault.check_profile: recovering factor %g < 1"
             rc_factor)

let profile_name = function
  | Healthy -> "healthy"
  | Fail_stop at -> Printf.sprintf "fail-stop@%d" at
  | Fail_slow { sl_onset; sl_ramp; sl_factor } ->
      if sl_ramp = 1 then Printf.sprintf "fail-slow@%dx%g" sl_onset sl_factor
      else Printf.sprintf "fail-slow@%dx%g+%d" sl_onset sl_factor sl_ramp
  | Flaky r -> Printf.sprintf "flaky@%g" r
  | Recovering { rc_until; rc_factor } ->
      Printf.sprintf "recovering@%dx%g" rc_until rc_factor

let profile_of_string (s : string) : (profile, string) result =
  let err () =
    Error
      (Printf.sprintf
         "unknown failure profile %S (expected healthy, fail-stop@N, \
          fail-slow@ONSETxFACTOR[+RAMP], flaky@RATE or recovering@UNTILxFACTOR)"
         s)
  in
  let num conv v = match conv v with Some x -> Ok x | None -> err () in
  let split c v =
    match String.index_opt v c with
    | None -> None
    | Some i ->
        Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
  in
  let checked p = match check_profile p with () -> Ok p | exception Invalid_argument m -> Error m in
  match split '@' s with
  | None -> if s = "healthy" then Ok Healthy else err ()
  | Some (kind, arg) -> (
      match kind with
      | "fail-stop" ->
          Result.bind (num int_of_string_opt arg) (fun at ->
              checked (Fail_stop at))
      | "fail-slow" -> (
          let arg, ramp =
            match split '+' arg with None -> (arg, Ok 1) | Some (a, r) -> (a, num int_of_string_opt r)
          in
          match split 'x' arg with
          | None -> err ()
          | Some (onset, factor) ->
              Result.bind (num int_of_string_opt onset) (fun sl_onset ->
                  Result.bind (num float_of_string_opt factor) (fun sl_factor ->
                      Result.bind ramp (fun sl_ramp ->
                          checked (Fail_slow { sl_onset; sl_ramp; sl_factor })))))
      | "flaky" ->
          Result.bind (num float_of_string_opt arg) (fun r -> checked (Flaky r))
      | "recovering" -> (
          match split 'x' arg with
          | None -> err ()
          | Some (until_, factor) ->
              Result.bind (num int_of_string_opt until_) (fun rc_until ->
                  Result.bind (num float_of_string_opt factor) (fun rc_factor ->
                      checked (Recovering { rc_until; rc_factor }))))
      | _ -> err ())

let profile_dead (p : profile) ~(dispatch : int) : bool =
  match p with Fail_stop at -> dispatch >= at | _ -> false

let profile_slowdown (p : profile) ~(dispatch : int) : float =
  match p with
  | Healthy | Fail_stop _ | Flaky _ -> 1.0
  | Fail_slow { sl_onset; sl_ramp; sl_factor } ->
      if dispatch < sl_onset then 1.0
      else
        (* linear onset ramp: full degradation [sl_ramp] dispatches in *)
        let progress =
          Float.min 1.0
            (float_of_int (dispatch - sl_onset + 1) /. float_of_int sl_ramp)
        in
        1.0 +. ((sl_factor -. 1.0) *. progress)
  | Recovering { rc_until; rc_factor } ->
      if dispatch <= rc_until then rc_factor else 1.0

let profile_fault_rate (p : profile) : float =
  match p with Flaky r -> r | _ -> 0.0

(* "fail-stop at a seeded time": the death dispatch is drawn once, from
   a throwaway LCG over (seed), uniform in [1, horizon]. *)
let seeded_fail_stop ~(seed : int) ~(horizon : int) : profile =
  if horizon < 1 then
    invalid_arg
      (Printf.sprintf "Fault.seeded_fail_stop: horizon %d < 1" horizon);
  let s = lcg (lcg (Int64.of_int seed)) in
  let at = 1 + int_of_float (uniform s *. float_of_int horizon) in
  Fail_stop (Stdlib.min horizon at)

(* ------------------------------------------------------------------ *)
(* Applying a flip to a stored scalar                                   *)
(* ------------------------------------------------------------------ *)

(* Simulated memory holds every scalar as an OCaml float; a flip
   reinterprets the cell in its declared 32-bit representation, toggles
   one bit and stores the reinterpreted result back. F32 flips can yield
   NaN or infinity (caught downstream like a Corrupt fault); integer
   flips always stay finite — the silent case the guard exists for. *)
let flip_value (ty : Device_ir.Ir.scalar) ~(bit : int) (x : float) : float =
  let bit = bit land 31 in
  match ty with
  | Device_ir.Ir.F32 ->
      Int32.float_of_bits
        (Int32.logxor (Int32.bits_of_float x) (Int32.shift_left 1l bit))
  | Device_ir.Ir.I32 | Device_ir.Ir.U32 ->
      let i = Int64.of_float x in
      let flipped = Int64.logxor i (Int64.shift_left 1L bit) in
      (* renormalise to the signed 32-bit range the interpreter uses *)
      Int64.to_float (Int64.of_int32 (Int64.to_int32 flipped))
  | Device_ir.Ir.Pred -> if x = 0.0 then 1.0 else 0.0
