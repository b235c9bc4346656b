(* The request engine.

   Dispatch is size-bucketed: a request's (arch, op, elem, bucket) key
   either hits the plan cache (run immediately with the memoized winner)
   or triggers the cold path — sweep every candidate version's tunables
   at the bucket's representative size, rank the survivors fastest-first,
   and populate the cache with the whole ranking. Batched submission
   coalesces same-shape requests into one simulation, the serving
   analogue of the paper's observation that the winner depends only on
   (arch, op, elem, size).

   Resilience (this layer's second job): every simulator failure is
   caught and classified. Transient faults are retried under bounded
   exponential backoff with jitter, accounted in simulated time. Hard
   faults (injected timeouts, corrupted results, exhausted retries)
   charge a per-(arch, version) circuit breaker; at the quarantine
   threshold the breaker opens and the bucket's next-fastest ranked
   version serves instead — the fallback ladder reuses the cold-path
   ranking, so no re-tuning happens under fire. An open breaker half-opens
   after a cooldown and one probe either closes it or re-opens it. When
   every rung of a bucket's ladder is down, the service degrades to the
   planner's host-side reference instead of failing, flagging the
   response [resp_degraded]. The stages a request moves through are
   listed in service.mli. *)

module V = Synthesis.Version
module P = Synthesis.Planner
module Tuner = Synthesis.Tuner
module R = Gpusim.Runner
module Fault = Gpusim.Fault

type request = { req_arch : Gpusim.Arch.t; req_input : R.input }

type response = {
  resp_value : float;
  resp_exact : bool;
  resp_sim_us : float;
  resp_version : V.t;
      (* when resp_degraded: the last-attempted rung, not the server —
         the value is a host recomputation (see service.mli) *)
  resp_tunables : (string * int) list;
  resp_hit : bool;
  resp_bucket : int;
  resp_service_us : float;
  resp_degraded : bool;
  resp_retries : int;
  resp_fallback : int;
}

type error =
  | Bad_request of string
  | Transient of string
  | Version_fault of string
  | Cache_corrupt of string
  | Sdc of string
  | Deadline_exceeded of string

exception Service_error of error

let error_message = function
  | Bad_request m -> "bad request: " ^ m
  | Transient m -> "transient failure: " ^ m
  | Version_fault m -> "version fault: " ^ m
  | Cache_corrupt m -> "corrupt plan cache: " ^ m
  | Sdc m -> "silent data corruption: " ^ m
  | Deadline_exceeded m -> "deadline exceeded: " ^ m

type resilience = {
  r_retry_max : int;
  r_backoff_base_us : float;
  r_backoff_mult : float;
  r_backoff_max_us : float;
  r_jitter : float;
  r_quarantine_threshold : int;
  r_cooldown_requests : int;
  r_allow_degraded : bool;
}

let default_resilience =
  {
    r_retry_max = 3;
    r_backoff_base_us = 50.0;
    r_backoff_mult = 2.0;
    r_backoff_max_us = 5_000.0;
    r_jitter = 0.25;
    r_quarantine_threshold = 3;
    r_cooldown_requests = 64;
    r_allow_degraded = true;
  }

(* per-(arch, version) circuit breaker: faults accumulate while closed
   (they need not be consecutive — a 5% fault rate must still trip a hot
   version eventually); at the threshold the breaker opens until a
   cooldown of service ticks passes, then the next selection half-opens
   it for one probe. Only a successful half-open probe closes the breaker
   and clears the count — ordinary successes do not, so a lightly-faulting
   version still trips the threshold eventually. *)
type breaker = {
  mutable br_faults : int;
  mutable br_open_until : int;  (* service tick; 0 = closed *)
}

type t = {
  planner : P.t;
  cache : Plan_cache.t;
  stats : Stats.t;
  candidates : V.t list;
  resilience : resilience;
  guard : Guard.config;
  mutable fault : Fault.t option;
  breakers : (string * string, breaker) Hashtbl.t;
  mutable tick : int;
  mutable jitter_state : int64;
  mutable profile : bool;
      (* when on, every served outcome's launch counters aggregate into
         the stats per (arch, version); off by default so the plain-text
         report stays byte-identical for existing consumers *)
  mutable brownout : int;
      (* degradation ladder position, 0 (full service) .. 4 (host path);
         driven by [Admission]'s controller or [set_brownout] *)
  mutable fleet : Fleet.t option;
      (* when attached, requests route through the fleet's devices; the
         single-device path below is byte-identical when absent *)
  predicted_cache : (string * string * int * (string * int) list, float) Hashtbl.t;
      (* memoized static-cost predictions keyed by (arch, version, n,
         tunables) — the health scorer's no-execution baseline; cleared
         when it reaches [predicted_cache_max] entries *)
  mutable monitor : Monitor.t option;
}

let create ?capacity ?cache ?candidates ?(resilience = default_resilience)
    ?(guard = Guard.default) ?fault ?(jitter_seed = 0) (planner : P.t) : t =
  let cache =
    match cache with Some c -> c | None -> Plan_cache.create ?capacity ()
  in
  let candidates =
    match candidates with Some cs -> cs | None -> V.enumerate_pruned ()
  in
  (match candidates with
  | [] -> invalid_arg "Service.create: empty candidate list"
  | _ -> ());
  if resilience.r_retry_max < 0 then
    invalid_arg "Service.create: retry_max must be non-negative";
  if resilience.r_quarantine_threshold < 1 then
    invalid_arg "Service.create: quarantine_threshold must be positive";
  if resilience.r_cooldown_requests < 1 then
    invalid_arg "Service.create: cooldown_requests must be positive";
  {
    planner;
    cache;
    stats = Stats.create ();
    candidates;
    resilience;
    guard;
    fault;
    breakers = Hashtbl.create 64;
    tick = 0;
    jitter_state =
      Int64.add (Int64.mul (Int64.of_int jitter_seed) 6364136223846793005L)
        1442695040888963407L;
    profile = false;
    brownout = 0;
    fleet = None;
    predicted_cache = Hashtbl.create 64;
    monitor = None;
  }

let planner t = t.planner
let cache t = t.cache
let stats t = t.stats
let fault t = t.fault
let set_fault t f = t.fault <- f
let profiling t = t.profile
let set_profiling t b = t.profile <- b

let monitor t = t.monitor
let set_monitor t m = t.monitor <- m

let attach_fleet (t : t) (fl : Fleet.t) : unit =
  Fleet.set_stats fl t.stats;
  Fleet.set_on_eject fl (fun d ->
      Option.iter (fun m -> Monitor.eject m (Fleet.label d)) t.monitor);
  t.fleet <- Some fl

let detach_fleet (t : t) : unit = t.fleet <- None

let max_brownout = 4
let brownout_level t = t.brownout

(* every transition is an overload event: counted, warn-logged with the
   direction, and visible in the report's overload section *)
let set_brownout (t : t) (level : int) : unit =
  if level < 0 || level > max_brownout then
    invalid_arg
      (Printf.sprintf "Service.set_brownout: level must be within 0..%d"
         max_brownout);
  if level <> t.brownout then begin
    let dir = if level > t.brownout then "raise" else "lower" in
    Stats.brownout_transition t.stats ~level;
    Obs.Trace.mark
      ~attrs:[ ("level", string_of_int level); ("direction", dir) ]
      "brownout";
    Obs.Log.warn
      ~fields:
        [
          ("from", string_of_int t.brownout);
          ("to", string_of_int level);
          ("direction", dir);
        ]
      "brownout level %s to %d" dir level;
    t.brownout <- level
  end

let load_cache (path : string) : (Plan_cache.t, error) result =
  match Plan_cache.load_result path with
  | Ok c -> Ok c
  | Error msg -> Error (Cache_corrupt msg)

let now_us () = Unix.gettimeofday () *. 1e6

(* dense inputs up to this many elements run exact *)
let exact_threshold = 1 lsl 17

let opts_for (input : R.input) : Gpusim.Interp.options =
  match input with
  | R.Dense a when Array.length a <= exact_threshold -> Gpusim.Interp.exact
  | R.Dense _ | R.Synthetic _ -> Gpusim.Interp.sampled

let key_of (t : t) (arch : Gpusim.Arch.t) (n : int) : Plan_cache.key =
  Plan_cache.key ~arch:arch.Gpusim.Arch.name ~op:(P.op_name t.planner)
    ~elem:(P.elem_name t.planner) ~n

(* ------------------------------------------------------------------ *)
(* The cold path: plan + tune one bucket                               *)
(* ------------------------------------------------------------------ *)

(* Selection and tuning in one sweep: each candidate's tunables are swept
   at the bucket's representative size (the tuner already reports the
   fastest configuration's time), and the surviving versions are ranked
   fastest-first. The head of the ranking wins the bucket; the tail is
   the fallback ladder quarantine walks. Fault injection never reaches
   this path, so rankings are deterministic under chaos. *)
let plan_bucket (t : t) (arch : Gpusim.Arch.t) (k : Plan_cache.key) :
    (Plan_cache.entry, error) result =
  let rep = Plan_cache.representative_size k.Plan_cache.k_bucket in
  let t0 = now_us () in
  (* planning: lower, validate, sanitize, prove and compile every
     candidate (memoized in the planner across buckets and
     architectures); a racy or proof-refuted variant must never be
     cached, let alone served *)
  let compiled =
    Obs.Trace.span
      ~attrs:[ ("candidates", string_of_int (List.length t.candidates)) ]
      ~name:"plan"
    @@ fun () ->
    List.filter_map
      (fun v ->
        match P.prove t.planner v with
        | Symbolic.Prove.Refuted _ -> None
        | Symbolic.Prove.Proved | Symbolic.Prove.Proved_reassoc _ -> (
            match P.compiled t.planner v with
            | cp -> Some (v, cp)
            | exception Device_ir.Validate.Invalid _ -> None
            | exception Device_ir.Race.Racy _ -> None))
      t.candidates
  in
  Stats.plan_us t.stats (now_us () -. t0);
  let t1 = now_us () in
  let ranking =
    Obs.Trace.span
      ~attrs:[ ("n", string_of_int rep) ]
      ~name:"tune"
    @@ fun () ->
    List.filter_map
      (fun (v, cp) ->
        Obs.Trace.span ~attrs:[ ("version", V.name v) ] ~name:"candidate"
        @@ fun () ->
        match Tuner.tune ~arch ~n:rep cp with
        | o ->
            Some
              {
                Plan_cache.r_version = v;
                r_tunables = o.Tuner.best;
                r_time_us = o.Tuner.best_time_us;
              }
        | exception (Invalid_argument _ | Gpusim.Interp.Sim_error _) -> None)
      compiled
  in
  (* stable: candidate order breaks ties, matching the old keep-first rule *)
  let ranking =
    List.stable_sort
      (fun a b -> compare a.Plan_cache.r_time_us b.Plan_cache.r_time_us)
      ranking
  in
  let tune_us = now_us () -. t1 in
  Stats.tune_us t.stats tune_us;
  match ranking with
  | [] ->
      Error
        (Version_fault
           (Printf.sprintf "no candidate version survived planning for %s"
              (Plan_cache.key_name k)))
  | best :: _ ->
      Ok
        {
          Plan_cache.e_version = best.Plan_cache.r_version;
          e_tunables = best.Plan_cache.r_tunables;
          e_compiled = Some (P.compiled t.planner best.Plan_cache.r_version);
          e_tuned_n = rep;
          e_tune_time_us = tune_us;
          e_ranking = ranking;
        }

let ensure (t : t) (arch : Gpusim.Arch.t) (n : int) :
    (Plan_cache.entry * bool, error) result =
  let k = key_of t arch n in
  let bucket = Plan_cache.key_name k in
  match
    Obs.Trace.span ~attrs:[ ("bucket", bucket) ] ~name:"lookup" (fun () ->
        Plan_cache.find t.cache k)
  with
  | Some e ->
      Stats.hit t.stats ~bucket;
      Ok (e, true)
  | None -> (
      Stats.miss t.stats ~bucket;
      match plan_bucket t arch k with
      | Error _ as e -> e
      | Ok e ->
          let before = Plan_cache.evictions t.cache in
          Plan_cache.add t.cache k e;
          for _ = 1 to Plan_cache.evictions t.cache - before do
            Stats.eviction t.stats
          done;
          Ok (e, false))

(* ------------------------------------------------------------------ *)
(* Circuit breakers                                                    *)
(* ------------------------------------------------------------------ *)

type availability = Av_closed | Av_half_open | Av_open

let breaker_for (t : t) (arch : string) (version : string) : breaker =
  let key = (arch, version) in
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
      let b = { br_faults = 0; br_open_until = 0 } in
      Hashtbl.add t.breakers key b;
      b

let availability (t : t) (b : breaker) : availability =
  if b.br_open_until = 0 then Av_closed
  else if t.tick >= b.br_open_until then Av_half_open
  else Av_open

let breaker_success (b : breaker) : unit =
  b.br_faults <- 0;
  b.br_open_until <- 0

(* count one fault of [version] and charge it to the version's breaker *)
let breaker_fault (t : t) ~(arch : string) ~(version : string) : unit =
  Stats.fault t.stats ~version;
  let b = breaker_for t arch version in
  b.br_faults <- b.br_faults + 1;
  if b.br_faults >= t.resilience.r_quarantine_threshold then begin
    (* opening (or re-opening after a failed half-open probe) is one
       quarantine event either way *)
    b.br_open_until <- t.tick + t.resilience.r_cooldown_requests;
    Stats.quarantine t.stats;
    Obs.Log.info
      ~fields:[ ("arch", arch); ("version", version) ]
      "version quarantined after %d faults (cooldown %d requests)" b.br_faults
      t.resilience.r_cooldown_requests
  end

let quarantined (t : t) ~(arch : string) ~(version : string) : bool =
  match Hashtbl.find_opt t.breakers (arch, version) with
  | Some b -> availability t b = Av_open
  | None -> false

(* ------------------------------------------------------------------ *)
(* Serving: retry, ladder walk, degraded mode                          *)
(* ------------------------------------------------------------------ *)

(* uniform jitter in [1 - j, 1 + j], drawn from the service's own seeded
   stream so backoff schedules are reproducible *)
let jitter_draw (t : t) : float =
  let s = t.jitter_state in
  t.jitter_state <-
    Int64.add (Int64.mul s 6364136223846793005L) 1442695040888963407L;
  let u =
    float_of_int (Int64.to_int (Int64.shift_right_logical s 34)) /. 1073741824.0
  in
  1.0 +. (t.resilience.r_jitter *. ((2.0 *. u) -. 1.0))

let backoff_delay_us (t : t) (attempt : int) : float =
  let r = t.resilience in
  let base =
    r.r_backoff_base_us *. (r.r_backoff_mult ** float_of_int (attempt - 1))
  in
  Float.min base r.r_backoff_max_us *. jitter_draw t

(* Per-request deadline budget, measured in simulated microseconds so
   expiry is deterministic under replay: kernel time, retry backoff and
   redundant executions all charge against it. Checks happen before new
   work starts — an answer already computed is never thrown away. A
   request without a deadline has an infinite budget. *)
type budget = { b_total_us : float; mutable b_spent_us : float }

let budget_of_deadline (deadline_us : float option) : budget =
  match deadline_us with
  | None -> { b_total_us = Float.infinity; b_spent_us = 0.0 }
  | Some d ->
      if Float.is_nan d || d <= 0.0 then
        invalid_arg "Service.submit: deadline_us must be positive";
      { b_total_us = d; b_spent_us = 0.0 }

let budget_charge (b : budget) (us : float) : unit =
  b.b_spent_us <- b.b_spent_us +. us

let budget_exhausted (b : budget) : bool = b.b_spent_us >= b.b_total_us

let budget_would_exhaust (b : budget) (us : float) : bool =
  b.b_spent_us +. us > b.b_total_us

(* One request on its way through the stages. On a fleet every device
   dispatch works on its own copy, re-targeted at the device's arch and
   fault stream; the copy that serves goes on to verification and
   accounting. *)
type req_state = {
  req : request;  (* as submitted *)
  target : request;  (* [req] re-targeted at the dispatch's device *)
  fault : Fault.t option;  (* the stream the dispatch's runs draw from *)
  budget : budget;  (* one per request, shared by every copy *)
  started_us : float;
  mutable entry : Plan_cache.entry option;  (* set by the plan stage *)
  mutable hit : bool;
  mutable sdc_confirmed : int;
      (* corruptions verification confirmed; the monitor settles them
         after noting the request, so the bundle's trigger request is
         this one *)
}

type attempt_failure =
  | Af_transient of string
  | Af_fault of string
  | Af_deadline of string
      (* the budget died mid-attempt: never charged to the breaker — the
         version did nothing wrong, the client stopped waiting *)

(* One rung: run with bounded exponential-backoff retries over transient
   simulator errors. Backoff is charged to simulated time (the simulator
   has no wall clock of its own) and to the stats. *)
let attempt_rung (t : t) (r : req_state) ~(fault : Fault.t option)
    (rung : Plan_cache.rung) :
    (R.outcome * int * float, attempt_failure) result =
  let vname = V.name rung.Plan_cache.r_version in
  match P.prove t.planner rung.Plan_cache.r_version with
  | Symbolic.Prove.Refuted failures ->
      Error
        (Af_fault
           (Printf.sprintf "%s refuted by the symbolic prover: %s" vname
              (String.concat "; "
                 (List.map
                    (fun (f : Symbolic.Prove.failure) ->
                      Printf.sprintf "[%s] %s" f.Symbolic.Prove.f_code
                        f.Symbolic.Prove.f_message)
                    failures))))
  | Symbolic.Prove.Proved | Symbolic.Prove.Proved_reassoc _ -> (
  match P.compiled t.planner rung.Plan_cache.r_version with
  | exception Device_ir.Validate.Invalid errs ->
      Error
        (Af_fault
           (Printf.sprintf "%s failed to compile: %s" vname
              (Device_ir.Diag.render (Device_ir.Validate.to_diags errs))))
  | exception Device_ir.Race.Racy diags ->
      Error
        (Af_fault
           (Printf.sprintf "%s rejected by the race sanitizer: %s" vname
              (Device_ir.Diag.render (Device_ir.Diag.errors diags))))
  | cp ->
      let req = r.target in
      let opts = opts_for req.req_input in
      (* each try is its own "attempt" span (it closes on an aborted run
         too), and each transient retry is a "retry" mark — a trace
         accounts for the full retry schedule *)
      let rec go attempt retries backoff_us =
        match
          Obs.Trace.span
            ~attrs:[ ("version", vname); ("attempt", string_of_int attempt) ]
            ~name:"attempt"
            (fun () ->
              R.run_compiled ~opts ?fault ~fault_version:vname
                ~arch:req.req_arch ~tunables:rung.Plan_cache.r_tunables
                ~input:req.req_input cp)
        with
        | o when Float.is_nan o.R.result ->
            Error (Af_fault (Printf.sprintf "%s returned a corrupted (NaN) result" vname))
        | o ->
            budget_charge r.budget o.R.time_us;
            Ok (o, retries, backoff_us)
        | exception Gpusim.Interp.Sim_error msg ->
            if attempt <= t.resilience.r_retry_max then begin
              let delay = backoff_delay_us t attempt in
              (* the budget check happens before the sleep: a request
                 whose deadline dies during backoff stops here, without
                 spending the delay or charging the breaker *)
              if budget_would_exhaust r.budget delay then
                Error
                  (Af_deadline
                     (Printf.sprintf
                        "%s: deadline budget died during retry backoff \
                         (%.1f us delay would overrun it)"
                        vname delay))
              else begin
                Stats.retry t.stats;
                Obs.Trace.mark ~attrs:[ ("version", vname) ] "retry";
                Obs.Log.debug
                  ~fields:[ ("version", vname) ]
                  "transient fault, retrying (attempt %d): %s" attempt msg;
                Stats.backoff_us t.stats delay;
                budget_charge r.budget delay;
                go (attempt + 1) (retries + 1) (backoff_us +. delay)
              end
            end
            else
              Error
                (Af_transient
                   (Printf.sprintf "%s: transient retries exhausted (%s)" vname
                      msg))
        | exception Fault.Injected (_, msg) -> Error (Af_fault msg)
        | exception Invalid_argument msg ->
            Error (Af_fault (Printf.sprintf "%s: %s" vname msg))
      in
      go 1 0 0.0)

(* The rung a ladder walk served from: its outcome, retry and backoff
   accounting, the rungs below it (verification votes down them) and
   the host time the walk took. *)
type executed = {
  ex_idx : int;
  ex_rung : Plan_cache.rung;
  ex_below : Plan_cache.rung list;
  ex_outcome : R.outcome;
  ex_retries : int;
  ex_backoff_us : float;
  ex_run_us : float;
}

(* What one dispatch (plan, then the ladder walk) produced. A served
   outcome is not yet verified: the fleet verifies only the hedge
   race's winner, so a cancelled loser never charges a response to the
   stats. *)
type dispatch =
  | Served of executed
  | Expired of string  (* the budget died before any answer was in hand *)
  | Down of attempt_failure option  (* every rung down; the last failure *)
  | Unplanned of error  (* planning failed; not the device's doing *)
  | No_device  (* nothing in the fleet is routable *)

let ladder (t : t) (r : req_state) (e : Plan_cache.entry) : dispatch =
  t.tick <- t.tick + 1;
  let t0 = now_us () in
  let arch = r.target.req_arch.Gpusim.Arch.name in
  let rec walk idx last_failure = function
    | [] -> Down last_failure
    | rung :: rest -> (
        let vname = V.name rung.Plan_cache.r_version in
        if budget_exhausted r.budget then
          Expired
            (Printf.sprintf
               "deadline budget exhausted before rung %d (%s) could run" idx
               vname)
        else
          let br = breaker_for t arch vname in
          match availability t br with
          | Av_open ->
              Obs.Trace.mark
                ~attrs:[ ("version", vname); ("rung", string_of_int idx) ]
                "rung.quarantined";
              walk (idx + 1) last_failure rest
          | (Av_closed | Av_half_open) as avail -> (
              match
                Obs.Trace.span
                  ~attrs:[ ("version", vname); ("rung", string_of_int idx) ]
                  ~name:"rung"
                  (fun () -> attempt_rung t r ~fault:r.fault rung)
              with
              | Ok (o, retries, backoff_us) ->
                  (* faults accumulate across successes while the breaker is
                     closed (a lightly-faulting version must still trip it
                     eventually); only a successful half-open probe earns a
                     clean slate *)
                  if avail = Av_half_open then breaker_success br;
                  Served
                    {
                      ex_idx = idx;
                      ex_rung = rung;
                      ex_below = rest;
                      ex_outcome = o;
                      ex_retries = retries;
                      ex_backoff_us = backoff_us;
                      ex_run_us = now_us () -. t0;
                    }
              | Error (Af_deadline msg) ->
                  (* the client stopped waiting, the version did nothing
                     wrong: no fault, no breaker charge, no further rungs *)
                  Expired msg
              | Error failure ->
                  breaker_fault t ~arch ~version:vname;
                  walk (idx + 1) (Some failure) rest))
  in
  walk 0 None (Plan_cache.ladder e)

(* plan, then the ladder: the dispatch both paths share *)
let dispatch (t : t) (r : req_state) : dispatch =
  match ensure t r.target.req_arch (R.input_size r.target.req_input) with
  | Error e -> Unplanned e
  | Ok (e, hit) ->
      r.entry <- Some e;
      r.hit <- hit;
      ladder t r e

(* ------------------------------------------------------------------ *)
(* Fleet dispatch: device acquisition and the hedge race               *)
(* ------------------------------------------------------------------ *)

(* What the static cost model says a rung should take on this arch at
   this size, computed without executing anything and memoized per
   (arch, version, n, tunables): the health scorer's baseline and the
   monitor's latency envelope. [None] when the analyzer cannot produce
   one. The memo keys on the exact size, so a stream of new sizes would
   grow it forever: it is cleared once full. A prediction is a pure
   function of its key, so clearing changes no value. *)
let predicted_cache_max = 1024

let predicted_us (t : t) (arch : Gpusim.Arch.t) (version : V.t)
    ~(tunables : (string * int) list) ~(n : int) : float option =
  let key = (arch.Gpusim.Arch.name, V.name version, n, tunables) in
  let p =
    match Hashtbl.find_opt t.predicted_cache key with
    | Some p -> p
    | None ->
        let p =
          match P.static_cost ~n ~tunables arch t.planner version with
          | p -> p
          | exception _ -> Float.nan
        in
        if Hashtbl.length t.predicted_cache >= predicted_cache_max then
          Hashtbl.reset t.predicted_cache;
        Hashtbl.replace t.predicted_cache key p;
        p
  in
  if Float.is_finite p && p > 0.0 then Some p else None

(* The one place the router is asked for a device, by the primary and
   the hedge alike. Route around devices that fail-stop at the moment
   of dispatch: the death is detected, the device marked dead, and the
   request bounces to the next choice — never lost. *)
let rec acquire ?excluding ?probe (fl : Fleet.t) : Fleet.device option =
  match Fleet.route ?excluding ?probe fl with
  | Some d when Fleet.next_dispatch_kills d ->
      Fleet.mark_dead fl d;
      Fleet.reroute fl;
      acquire ?excluding ?probe fl
  | found -> found

(* Dispatch one request to one device: the request is re-targeted at
   the device's arch (the one plan cache serves the whole heterogeneous
   fleet) and its runs draw from the device's private fault stream, the
   fail-slow profile inflates the observed time, and the health scorer
   is fed the predicted/observed ratio. A prediction the analyzer
   cannot produce scores 1.0 — the device is neither credited nor
   blamed for it. *)
let dispatch_on (t : t) (fl : Fleet.t) (r : req_state) (d : Fleet.device) :
    req_state * dispatch =
  Fleet.begin_dispatch fl d;
  let arch = Fleet.arch d in
  let r =
    {
      r with
      target = { r.req with req_arch = arch };
      fault =
        (match Fleet.fault_stream d with Some _ as f -> f | None -> t.fault);
    }
  in
  let result =
    Obs.Trace.span
      ~attrs:
        [ ("device", Fleet.label d); ("arch", arch.Gpusim.Arch.name) ]
      ~name:"device"
    @@ fun () ->
    match dispatch t r with
    | Served ex ->
        let slow = Fleet.slowdown d in
        let observed = ex.ex_outcome.R.time_us *. slow in
        (* the straggler's inflation is real time the client waits
           through: charge the deadline budget for it and let the
           response's simulated latency carry it *)
        let ex =
          if slow > 1.0 then begin
            budget_charge r.budget (observed -. ex.ex_outcome.R.time_us);
            { ex with ex_outcome = { ex.ex_outcome with R.time_us = observed } }
          end
          else ex
        in
        Fleet.charge_busy d observed;
        let rung = ex.ex_rung in
        Fleet.observe fl d
          ~ratio:
            (match
               predicted_us t arch rung.Plan_cache.r_version
                 ~tunables:rung.Plan_cache.r_tunables
                 ~n:(R.input_size r.req.req_input)
             with
            | Some p when observed > 0.0 -> p /. observed
            | _ -> 1.0);
        Served ex
    | Down _ as down ->
        Fleet.observe_failure fl d;
        down
    | other -> other
  in
  Fleet.end_dispatch fl d;
  (r, result)

(* The fleet's dispatch: acquire a device and dispatch to it; past the
   p95-based hedge deadline, speculate on a second device. The first
   answer in virtual time wins, and the loser is dropped before
   verification, charging nothing. *)
let dispatch_fleet (t : t) (fl : Fleet.t) (r : req_state) :
    req_state * dispatch =
  match acquire fl with
  | None -> (r, No_device)
  | Some d -> (
      match dispatch_on t fl r d with
      | (_, Served ex) as primary ->
          let observed = ex.ex_outcome.R.time_us in
          let hedge =
            match Fleet.hedge_deadline_us fl with
            | Some dl when observed > dl -> (
                Fleet.hedge_fired fl d ~deadline_us:dl ~observed_us:observed;
                match acquire ~excluding:d ~probe:false fl with
                | None -> None
                | Some d2 -> (
                    (* the hedge launched at the deadline: it wins only
                       if deadline + its own latency beats the primary's
                       completion *)
                    match dispatch_on t fl r d2 with
                    | (_, Served ex2) as won
                      when dl +. ex2.ex_outcome.R.time_us < observed ->
                        Fleet.hedge_won fl d2;
                        Some (won, dl +. ex2.ex_outcome.R.time_us)
                    | _ -> None))
            | Some _ | None -> None
          in
          let winner, completion_us =
            match hedge with Some h -> h | None -> (primary, observed)
          in
          Fleet.note_latency fl completion_us;
          winner
      | lost -> lost)

(* ------------------------------------------------------------------ *)
(* Verification: witness check and redundant-execution voting          *)
(* ------------------------------------------------------------------ *)

(* Why the host answered instead of a device: the empty input's
   identity, or a degradation — every rung down, brownout shedding, a
   confirmed corruption nothing repaired, a deadline that died with the
   witness in hand, no routable fleet device. *)
type reason = [ `Empty | `Degraded | `Brownout | `Sdc | `Deadline | `Fleet_down ]

type verdict =
  | Device of executed  (* a device answer, verified where the guard runs *)
  | Host of reason * (executed * float) option
      (* the host answers: the witness value standing in for the rung's
         rejected answer, or else the planner's reference *)
  | Failed of error

(* Every exact result is checked against the witness before it leaves
   the service. A rejected result is re-executed on its own rung first
   (dual-modular: a one-off flip cannot reproduce — the simulator is
   deterministic modulo injection), then down the ladder within the vote
   budget; the first execution the witness accepts serves the request.
   Re-executions draw from the service's fault stream, not the
   device's. Each confirmed corruption charges an [Sdc] fault to its
   version's breaker — enough of them quarantine the version exactly
   like loud faults do. A deviation that reproduces bit-for-bit on its
   own rung is a false alarm (charged to the tolerance model, not the
   version). When nothing the ladder produces is acceptable, the
   witness value itself serves (degraded), or [Error (Sdc _)] when
   degraded mode is off: an out-of-tolerance answer is never returned.
   With the witness in hand, a dead deadline budget or brownout level 2
   (which sheds redundant execution) serves the witness value without
   re-running, and charges no breaker: no corruption was confirmed, the
   service just stopped double-checking. *)
let verify (t : t) (r : req_state) (ex : executed) : verdict =
  let rung = ex.ex_rung and o = ex.ex_outcome in
  if not (t.guard.Guard.g_enabled && o.R.exact) then Device ex
  else
    Obs.Trace.span
      ~attrs:[ ("version", V.name rung.Plan_cache.r_version) ]
      ~name:"verify"
    @@ fun () ->
    let t0 = now_us () in
    Stats.sdc_check t.stats;
    (* brownout level 3 sheds witness sampling density: the check still
       runs, but at the cheapest sample count *)
    let sample =
      if t.brownout >= 3 && t.guard.Guard.g_sample > 1 then begin
        Stats.brownout_shed t.stats ~what:"witness-sample";
        1
      end
      else t.guard.Guard.g_sample
    in
    let ck =
      Obs.Trace.span ~name:"witness" @@ fun () ->
      Guard.make ~planner:t.planner ~version:rung.Plan_cache.r_version
        ~input:r.target.req_input ~sample ()
    in
    let arch = r.target.req_arch.Gpusim.Arch.name in
    let witness reason = Host (reason, Some (ex, Guard.expected ck)) in
    let deadline_witness () =
      Stats.deadline_witness_serve t.stats;
      witness `Deadline
    in
    let confirm_sdc (c : Plan_cache.rung) =
      let vname = V.name c.Plan_cache.r_version in
      Stats.sdc_catch t.stats;
      r.sdc_confirmed <- r.sdc_confirmed + 1;
      Obs.Log.info
        ~fields:[ ("arch", arch); ("version", vname) ]
        "silent data corruption confirmed";
      breaker_fault t ~arch ~version:vname
    in
    let reexec name c =
      Stats.sdc_reexec t.stats;
      Obs.Trace.span
        ~attrs:[ ("version", V.name c.Plan_cache.r_version) ]
        ~name
        (fun () -> attempt_rung t r ~fault:t.fault c)
    in
    (* vote down the rungs below the suspect *)
    let rec vote votes idx rungs =
      if votes <= 0 then `Spent
      else if budget_exhausted r.budget then `Deadline
      else
        match rungs with
        | [] -> `Spent
        | (c : Plan_cache.rung) :: more -> (
            let vname = V.name c.Plan_cache.r_version in
            if quarantined t ~arch ~version:vname then vote votes (idx + 1) more
            else
              match reexec "vote" c with
              | Ok (o2, r2, b2) when Guard.acceptable ck ~got:o2.R.result ->
                  `Agree
                    {
                      ex with
                      ex_idx = idx;
                      ex_rung = c;
                      ex_outcome = o2;
                      ex_retries = r2;
                      ex_backoff_us = b2;
                    }
              | Ok _ ->
                  confirm_sdc c;
                  vote (votes - 1) (idx + 1) more
              | Error (Af_deadline _) -> `Deadline
              | Error _ ->
                  breaker_fault t ~arch ~version:vname;
                  vote (votes - 1) (idx + 1) more)
    in
    let verdict =
      if Guard.acceptable ck ~got:o.R.result then Device ex
      else if t.brownout >= 2 then begin
        (* brownout level 2 sheds redundant execution: no corruption
           verdict is reached — the breaker is only ever charged on
           evidence the service actually gathered *)
        Stats.brownout_shed t.stats ~what:"reexec";
        witness `Brownout
      end
      else if budget_exhausted r.budget then deadline_witness ()
      else
        (* 1. dual-modular re-execution on the suspect's own rung *)
        match reexec "reexec" rung with
        | Ok (o2, r2, b2) when Guard.acceptable ck ~got:o2.R.result ->
            (* the deviation vanished on re-run: one-off corruption *)
            confirm_sdc rung;
            Device
              {
                ex with
                ex_outcome = o2;
                ex_retries = ex.ex_retries + r2;
                ex_backoff_us = ex.ex_backoff_us +. b2;
              }
        | Error (Af_deadline _) -> deadline_witness ()
        | same -> (
            (match same with
            | Ok (o2, _, _) when Guard.agree ck o2.R.result o.R.result ->
                Stats.sdc_false_alarm t.stats
            | _ -> confirm_sdc rung);
            (* 2. vote down the remaining rungs *)
            match vote (t.guard.Guard.g_votes - 1) (ex.ex_idx + 1) ex.ex_below with
            | `Agree ex2 -> Device ex2
            | `Deadline -> deadline_witness ()
            | `Spent ->
                if t.resilience.r_allow_degraded then witness `Sdc
                else
                  Failed
                    (Sdc
                       (Printf.sprintf
                          "%s returned %.9g, witness expected %.9g (%s); no \
                           execution within tolerance"
                          (V.name rung.Plan_cache.r_version)
                          o.R.result (Guard.expected ck)
                          (Tolerance.describe (Guard.tolerance ck)))))
    in
    Stats.verify_us t.stats (now_us () -. t0);
    verdict

(* The conclusion both paths share: a served outcome is verified, a
   dead budget is [Deadline_exceeded], and every rung down degrades to
   the host reference or surfaces the last failure. *)
let conclude (t : t) (r : req_state) (d : dispatch) : verdict =
  match d with
  | Served ex ->
      Stats.run_us t.stats ex.ex_run_us;
      verify t r ex
  | Expired msg ->
      Stats.deadline_expire t.stats;
      Obs.Trace.mark "deadline";
      Obs.Log.warn
        ~fields:[ ("arch", r.target.req_arch.Gpusim.Arch.name) ]
        "deadline exceeded: %s" msg;
      Failed (Deadline_exceeded msg)
  | Down last ->
      if t.resilience.r_allow_degraded then Host (`Degraded, None)
      else
        Failed
          (match last with
          | Some (Af_transient msg) -> Transient msg
          | Some (Af_fault msg) -> Version_fault msg
          | Some (Af_deadline _) | None ->
              Version_fault
                (Printf.sprintf "every version of %s is quarantined"
                   (Plan_cache.key_name
                      (key_of t r.target.req_arch
                         (R.input_size r.target.req_input)))))
  | Unplanned e -> Failed e
  | No_device -> Host (`Fleet_down, None)

(* ------------------------------------------------------------------ *)
(* Accounting and the request entry points                            *)
(* ------------------------------------------------------------------ *)

(* A host answer's log line, and the winner label a degraded one counts
   under; the empty input's identity is no degradation *)
let host_winner (reason : reason) ~(witness : V.t option) : string option =
  let fields =
    match witness with Some v -> [ ("version", V.name v) ] | None -> []
  in
  match reason with
  | `Empty -> None
  | `Degraded ->
      Obs.Log.info "every rung down; serving the host reference (degraded)";
      Some "host-reference (degraded)"
  | `Brownout ->
      (match witness with
      | Some _ ->
          Obs.Log.warn ~fields
            "witness rejected a result under brownout; redundant execution \
             shed, serving the witness value (degraded)"
      | None ->
          Obs.Log.warn "brownout level 4: serving the host reference (degraded)");
      Some "host-reference (brownout)"
  | `Sdc ->
      Obs.Log.info
        "confirmed corruption with no in-tolerance execution; serving the \
         witness value (degraded)";
      Some "host-reference (sdc)"
  | `Deadline ->
      Obs.Log.warn ~fields
        "deadline budget died before redundant execution; serving the \
         witness value (degraded)";
      Some "host-reference (deadline)"
  | `Fleet_down ->
      Obs.Log.warn
        "no routable fleet device; serving the host reference (degraded)";
      Some "host-reference (fleet-down)"

let error_kind : error -> string = function
  | Bad_request _ -> "bad-request"
  | Transient _ -> "transient"
  | Version_fault _ -> "version-fault"
  | Cache_corrupt _ -> "cache-corrupt"
  | Sdc _ -> "sdc"
  | Deadline_exceeded _ -> "deadline"

(* The monitor prices the request's latency, and records it, on the
   architecture it ran on: on a fleet that is the device's, not the one
   the request asked for. Only a monitored service computes the
   prediction. *)
let note_monitor (t : t) (m : Monitor.t) (r : req_state)
    (result : (response, error) result) : unit =
  let arch = r.target.req_arch and n = R.input_size r.req.req_input in
  Monitor.note m ~arch:arch.Gpusim.Arch.name ~n ~sdc_confirmed:r.sdc_confirmed
    ~brownout:t.brownout ~fleet:t.fleet
    (match result with
    | Ok resp ->
        Monitor.Served
          {
            latency_us = resp.resp_sim_us;
            predicted_us =
              Option.value ~default:0.0
                (predicted_us t arch resp.resp_version
                   ~tunables:resp.resp_tunables ~n);
            degraded = resp.resp_degraded;
          }
    | Error e -> Monitor.Failed (error_kind e))

(* The one accounting point: build the response, record the outcome
   stats (degradation, winner, fallback, the kernel profile) and note
   the request to the monitor. *)
let account (t : t) (r : req_state) (v : verdict) : (response, error) result =
  let respond ~value ~exact ~sim_us ~version ~tunables ~degraded ~retries
      ~fallback =
    Ok
      {
        resp_value = value;
        resp_exact = exact;
        resp_sim_us = sim_us;
        resp_version = version;
        resp_tunables = tunables;
        resp_hit = r.hit;
        resp_bucket = Plan_cache.bucket_of_size (R.input_size r.req.req_input);
        resp_service_us = now_us () -. r.started_us;
        resp_degraded = degraded;
        resp_retries = retries;
        resp_fallback = fallback;
      }
  in
  let winner, result =
    match v with
    | Failed e -> (None, Error e)
    | Device ex ->
        let rung = ex.ex_rung and o = ex.ex_outcome in
        ( Some (V.name rung.Plan_cache.r_version),
          respond ~value:o.R.result ~exact:o.R.exact
            ~sim_us:(o.R.time_us +. ex.ex_backoff_us)
            ~version:rung.Plan_cache.r_version
            ~tunables:rung.Plan_cache.r_tunables ~degraded:false
            ~retries:ex.ex_retries ~fallback:ex.ex_idx )
    | Host (reason, witness) ->
        (* a witness stands in for its rung; the reference for the
           ladder the request planned, if it got that far *)
        let value, version, fallback =
          match (witness, r.entry) with
          | Some (ex, value), _ ->
              (value, ex.ex_rung.Plan_cache.r_version, ex.ex_idx)
          | None, Some e ->
              ( P.reference_input t.planner r.req.req_input,
                e.Plan_cache.e_version,
                List.length (Plan_cache.ladder e) )
          | None, None ->
              (P.reference_input t.planner r.req.req_input, List.hd t.candidates, 0)
        in
        let winner =
          host_winner reason ~witness:(Option.map (fun _ -> version) witness)
        in
        if winner <> None then begin
          Stats.degrade t.stats;
          Obs.Trace.mark "degraded"
        end;
        ( winner,
          respond ~value ~exact:true ~sim_us:0.0 ~version ~tunables:[]
            ~degraded:(winner <> None) ~retries:0 ~fallback )
  in
  Option.iter (Stats.winner t.stats) winner;
  (match v with
  | Device ex ->
      if ex.ex_idx > 0 then Stats.fallback t.stats;
      (* profiling is the first rung of the brownout ladder: the
         cheapest work to shed, and invisible to the answer *)
      if t.profile then
        if t.brownout >= 1 then Stats.brownout_shed t.stats ~what:"profile"
        else
          Stats.kernel t.stats ~arch:r.target.req_arch.Gpusim.Arch.name
            ~version:(V.name ex.ex_rung.Plan_cache.r_version)
            (Gpusim.Events.totals_of_list
               (List.map
                  (fun (lr : Gpusim.Interp.launch_result) ->
                    lr.Gpusim.Interp.lr_events)
                  ex.ex_outcome.R.launch_results))
  | Host _ | Failed _ -> ());
  (match t.monitor with Some m -> note_monitor t m r result | None -> ());
  result

let validate (req : request) : (unit, error) result =
  match req.req_input with
  | R.Dense _ -> Ok ()
  | R.Synthetic { n; pattern } ->
      if n < 0 then
        Error (Bad_request (Printf.sprintf "negative input size %d" n))
      else
        let plen = Array.length pattern in
        if n > 0 && plen = 0 then
          Error (Bad_request "synthetic input with an empty pattern")
        else if n > 0 && plen land (plen - 1) <> 0 then
          Error
            (Bad_request
               (Printf.sprintf "synthetic pattern length %d is not a power of two"
                  plen))
        else Ok ()

(* validate → shed (brownout level 4) → on a fleet, acquire a device →
   plan → ladder → verify; the returned copy is the one that served *)
let stages (t : t) (r : req_state) : req_state * verdict =
  match validate r.req with
  | Error e ->
      Stats.bad_request t.stats;
      (r, Failed e)
  | Ok () ->
      if R.input_size r.req.req_input = 0 then (r, Host (`Empty, None))
      else if t.brownout >= 4 then begin
        (* the host path sheds everything device-side, the cold
           plan/tune path included — answer before even touching the
           cache *)
        Stats.brownout_shed t.stats ~what:"host-path";
        (r, Host (`Brownout, None))
      end
      else
        let r, d =
          match t.fleet with
          | Some fl -> dispatch_fleet t fl r
          | None -> (r, dispatch t r)
        in
        (r, conclude t r d)

let submit_result ?deadline_us (t : t) (req : request) :
    (response, error) result =
  let budget = budget_of_deadline deadline_us in
  (* the request is accounted inside its root span, so the flight
     recorder captures this request's trace id *)
  let body () =
    let r, v =
      stages t
        {
          req;
          target = req;
          fault = t.fault;
          budget;
          started_us = now_us ();
          entry = None;
          hit = false;
          sdc_confirmed = 0;
        }
    in
    account t r v
  in
  (* one root span per request under a fresh trace id: every span the
     stack records below (lookup, plan, tune, rungs, attempts, verify...)
     lands on this request's track in the exported trace *)
  if not (Obs.Trace.enabled ()) then body ()
  else
    Obs.Trace.with_request
      ~attrs:
        [
          ("arch", req.req_arch.Gpusim.Arch.name);
          ("n", string_of_int (R.input_size req.req_input));
        ]
      ~name:"request" body

let submit ?deadline_us (t : t) (req : request) : response =
  match submit_result ?deadline_us t req with
  | Ok r -> r
  | Error e -> raise (Service_error e)

(* Two requests share one simulation when they target the same
   architecture and carry equal inputs (synthetic inputs compare by
   (n, pattern); dense inputs by contents — same data, same reduction). *)
let same_shape (a : request) (b : request) : bool =
  a.req_arch.Gpusim.Arch.name = b.req_arch.Gpusim.Arch.name
  &&
  match (a.req_input, b.req_input) with
  | R.Dense x, R.Dense y -> x == y || x = y
  | R.Synthetic sx, R.Synthetic sy ->
      sx.n = sy.n && (sx.pattern == sy.pattern || sx.pattern = sy.pattern)
  | _ -> false

let submit_batch_result ?deadline_us (t : t) (reqs : request list) :
    (response, error) result list =
  match reqs with
  | [] -> []
  | [ req ] -> [ submit_result ?deadline_us t req ]
  | _ ->
      (* one representative per shape, in first-seen order *)
      let reps =
        List.fold_left
          (fun reps req ->
            if List.exists (fun rep -> same_shape rep req) reps then reps
            else req :: reps)
          [] reqs
        |> List.rev
      in
      Stats.batch t.stats ~coalesced:(List.length reqs - List.length reps);
      (* each coalesced group gets a fresh budget: the deadline is
         per-request, and coalesced requests share one execution *)
      let served =
        List.map (fun rep -> (rep, submit_result ?deadline_us t rep)) reps
      in
      List.map
        (fun req -> snd (List.find (fun (rep, _) -> same_shape rep req) served))
        reqs

let submit_batch (t : t) (reqs : request list) : response list =
  List.map
    (function Ok r -> r | Error e -> raise (Service_error e))
    (submit_batch_result t reqs)

let report (t : t) : string = Stats.report t.stats
