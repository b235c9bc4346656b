(* Declarative service-level objectives evaluated as multi-window burn
   rates on the virtual clock.

   An objective states a target good fraction (e.g. 0.95 of interactive
   requests under their latency bound). Its error budget is
   1 - target; the *burn rate* of a window is

     (bad fraction observed in the window) / (error budget)

   so burn 1.0 means "spending the budget exactly as fast as the
   objective allows", and burn 2.0 halves the time to exhaustion. The
   standard SRE multi-window rule fires only when BOTH a fast window
   (default 1 virtual minute — catches a cliff quickly) and a slow
   window (default 1 virtual hour — refuses to page on a blip) exceed
   the firing threshold, and resolves with hysteresis when both fall
   under the strictly lower resolve threshold.

   A zero-budget objective (target >= 1.0, e.g. "SDC escapes = 0")
   burns infinitely on any bad event, so it fires on the first one.

   Observations carry explicit virtual timestamps and land in
   fixed-size bucket rings (one bucket per 1/12 fast window), so every
   evaluation is a pure function of the observation sequence —
   deterministic across machines, replayable in tests. Early in a
   replay, before a window's worth of virtual time has elapsed, both
   windows see the same (entire) history and agree by construction:
   short-horizon replays can still fire. *)

type objective = {
  o_name : string;
  o_description : string;
  o_target : float;  (** required good fraction; >= 1.0 means zero budget *)
  o_fast_us : float;
  o_slow_us : float;
  o_fire_burn : float;
  o_resolve_burn : float;
}

let objective ?(description = "") ?(fast_us = 60.0e6) ?(slow_us = 3600.0e6)
    ?(fire_burn = 1.0) ?(resolve_burn = 0.5) ~(target : float)
    (name : string) : objective =
  if name = "" then invalid_arg "Slo.objective: empty name";
  if Float.is_nan target || target <= 0.0 then
    invalid_arg "Slo.objective: target must be positive";
  if fast_us <= 0.0 || slow_us < fast_us then
    invalid_arg "Slo.objective: need 0 < fast_us <= slow_us";
  if resolve_burn >= fire_burn then
    invalid_arg "Slo.objective: resolve_burn must be below fire_burn";
  { o_name = name; o_description = description; o_target = target;
    o_fast_us = fast_us; o_slow_us = slow_us; o_fire_burn = fire_burn;
    o_resolve_burn = resolve_burn }

(* one ring slot: good/bad counts of one bucket of virtual time, tagged
   with the bucket's epoch index so stale slots self-invalidate *)
type bucket = { mutable b_epoch : int; mutable b_good : int; mutable b_bad : int }

type t = {
  obj : objective;
  bucket_us : float;
  buckets : bucket array;  (** covers the slow window plus one bucket *)
  mutable firing : bool;
  mutable fired_count : int;  (** lifetime alert transitions into firing *)
}

let create (obj : objective) : t =
  let bucket_us = obj.o_fast_us /. 12.0 in
  let n = int_of_float (Float.ceil (obj.o_slow_us /. bucket_us)) + 1 in
  {
    obj;
    bucket_us;
    buckets = Array.init n (fun _ -> { b_epoch = -1; b_good = 0; b_bad = 0 });
    firing = false;
    fired_count = 0;
  }

let objective_of (t : t) : objective = t.obj
let name (t : t) : string = t.obj.o_name
let firing (t : t) : bool = t.firing
let fired_count (t : t) : int = t.fired_count

let epoch_of (t : t) (now_us : float) : int =
  int_of_float (Float.floor (Float.max 0.0 now_us /. t.bucket_us))

let observe (t : t) ~(now_us : float) ~(good : bool) : unit =
  let e = epoch_of t now_us in
  let b = t.buckets.(e mod Array.length t.buckets) in
  if b.b_epoch <> e then begin
    b.b_epoch <- e;
    b.b_good <- 0;
    b.b_bad <- 0
  end;
  if good then b.b_good <- b.b_good + 1 else b.b_bad <- b.b_bad + 1

(* (good, bad) observed inside the trailing [window_us] at [now_us] *)
let window_counts (t : t) ~(now_us : float) ~(window_us : float) : int * int =
  let hi = epoch_of t now_us in
  let lo = epoch_of t (Float.max 0.0 (now_us -. window_us)) in
  let good = ref 0 and bad = ref 0 in
  Array.iter
    (fun b ->
      if b.b_epoch >= lo && b.b_epoch <= hi then begin
        good := !good + b.b_good;
        bad := !bad + b.b_bad
      end)
    t.buckets;
  (!good, !bad)

type burn = {
  br_fast : float;
  br_slow : float;
  br_fast_bad : int;
  br_slow_bad : int;
}

let burn_of (t : t) ~(good : int) ~(bad : int) : float =
  let total = good + bad in
  if total = 0 then 0.0
  else
    let bad_frac = float_of_int bad /. float_of_int total in
    let budget = 1.0 -. t.obj.o_target in
    if budget <= 0.0 then if bad > 0 then infinity else 0.0
    else bad_frac /. budget

let burn_rates (t : t) ~(now_us : float) : burn =
  let gf, bf = window_counts t ~now_us ~window_us:t.obj.o_fast_us in
  let gs, bs = window_counts t ~now_us ~window_us:t.obj.o_slow_us in
  {
    br_fast = burn_of t ~good:gf ~bad:bf;
    br_slow = burn_of t ~good:gs ~bad:bs;
    br_fast_bad = bf;
    br_slow_bad = bs;
  }

type event = Fired of burn | Resolved of burn

let evaluate (t : t) ~(now_us : float) : event option =
  let b = burn_rates t ~now_us in
  if
    (not t.firing)
    && b.br_fast >= t.obj.o_fire_burn
    && b.br_slow >= t.obj.o_fire_burn
    && b.br_fast_bad > 0
  then begin
    t.firing <- true;
    t.fired_count <- t.fired_count + 1;
    Some (Fired b)
  end
  else if
    t.firing
    && b.br_fast < t.obj.o_resolve_burn
    && b.br_slow < t.obj.o_resolve_burn
  then begin
    t.firing <- false;
    Some (Resolved b)
  end
  else None

let state_json (t : t) ~(now_us : float) : Json.t =
  let b = burn_rates t ~now_us in
  let num v = if Float.is_finite v then Json.Num v else Json.Str "inf" in
  Json.Obj
    [
      ("name", Json.Str t.obj.o_name);
      ("description", Json.Str t.obj.o_description);
      ("target", Json.Num t.obj.o_target);
      ("firing", Json.Bool t.firing);
      ("fired_count", Json.Num (float_of_int t.fired_count));
      ("fast_burn", num b.br_fast);
      ("slow_burn", num b.br_slow);
      ("fast_bad", Json.Num (float_of_int b.br_fast_bad));
      ("slow_bad", Json.Num (float_of_int b.br_slow_bad));
    ]
