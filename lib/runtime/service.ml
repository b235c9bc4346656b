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
   response [resp_degraded]. *)

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

(* The service monitor: windows over the stats registry, burn-rate SLOs
   and the flight recorder, driven by a serialized virtual clock that
   advances by each request's observed virtual latency. Optional — a
   service without one behaves (and reports) exactly as before. *)
type monitor = {
  m_recorder : Recorder.t;
  m_latency_slo : Obs.Slo.t;
  m_sdc_slo : Obs.Slo.t;
  m_goodput_slo : Obs.Slo.t;
  m_latency_mult : float;
      (* a request is latency-good when its observed virtual time stays
         within this multiple of the static-cost prediction *)
  m_interactive_max : int;
      (* inputs at or below this size feed the latency SLO *)
  m_snapshot_every : int;  (* metric-snapshot cadence, in requests *)
  mutable m_now_us : float;  (* serialized virtual clock *)
  mutable m_requests : int;
  mutable m_pending_sdc : int;
      (* corruption verdicts land mid-request, before the recorder notes
         it; deferred so the bundle's trigger request is the right one *)
  mutable m_pending_eject : string list;  (* same deferral for ejections *)
  (* what the stats lack: outcomes, virtual latency by class, and the
     brownout, queue-depth and fleet-active gauges *)
  m_req_ok : Obs.Metrics.counter;
  m_req_err : Obs.Metrics.counter;
  m_lat_interactive : Obs.Metrics.histogram;
  m_lat_batch : Obs.Metrics.histogram;
  m_brownout_g : Obs.Metrics.gauge;
  m_queue_depth : Obs.Metrics.gauge;
  m_fleet_healthy : Obs.Metrics.gauge;
}

type t = {
  planner : P.t;
  cache : Plan_cache.t;
  stats : Stats.t;
  candidates : V.t list;
  exact_threshold : int;
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
         tunables) — the health scorer's no-execution baseline *)
  mutable monitor : monitor option;
}

let create ?capacity ?cache ?candidates ?(exact_threshold = 1 lsl 17)
    ?(resilience = default_resilience) ?(guard = Guard.default) ?fault
    ?(jitter_seed = 0) (planner : P.t) : t =
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
    exact_threshold;
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
let guard t = t.guard
let fault t = t.fault
let set_fault t f = t.fault <- f
let profiling t = t.profile
let set_profiling t b = t.profile <- b
let fleet t = t.fleet

let mon (t : t) (f : monitor -> unit) : unit =
  match t.monitor with Some m -> f m | None -> ()

let attach_fleet (t : t) (fl : Fleet.t) : unit =
  Fleet.set_stats fl t.stats;
  (* ejections are deferred into the monitor's pending list: they fire
     mid-request, and the bundle's trigger request must be the one that
     actually pushed the device under the threshold *)
  Fleet.set_on_eject fl (fun d ->
      mon t (fun m ->
          m.m_pending_eject <- Fleet.label d :: m.m_pending_eject));
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

let load_cache ?capacity (path : string) : (Plan_cache.t, error) result =
  match Plan_cache.load_result ?capacity path with
  | Ok c -> Ok c
  | Error msg -> Error (Cache_corrupt msg)

let now_us () = Unix.gettimeofday () *. 1e6

(* fast sampled mode for serving: cost is near-constant in the input size *)
let sampled_opts : Gpusim.Interp.options =
  { Gpusim.Interp.max_blocks = Some 12; loop_cap = Some 24; check_uniform = false }

let opts_for (t : t) (input : R.input) : Gpusim.Interp.options =
  match input with
  | R.Dense a when Array.length a <= t.exact_threshold -> Gpusim.Interp.exact
  | R.Dense _ | R.Synthetic _ -> sampled_opts

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

let breaker_fault (t : t) ~(arch : string) ~(version : string) : unit =
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
   work starts — an answer already computed is never thrown away. *)
type budget = { b_total_us : float; mutable b_spent_us : float }

let budget_of_deadline : float option -> budget option = function
  | None -> None
  | Some d ->
      if Float.is_nan d || d <= 0.0 then
        invalid_arg "Service.submit: deadline_us must be positive";
      Some { b_total_us = d; b_spent_us = 0.0 }

let budget_charge (b : budget option) (us : float) : unit =
  match b with Some b -> b.b_spent_us <- b.b_spent_us +. us | None -> ()

let budget_exhausted : budget option -> bool = function
  | None -> false
  | Some b -> b.b_spent_us >= b.b_total_us

let budget_would_exhaust (b : budget option) (us : float) : bool =
  match b with None -> false | Some b -> b.b_spent_us +. us > b.b_total_us

type attempt_failure =
  | Af_transient of string
  | Af_fault of string
  | Af_deadline of string
      (* the budget died mid-attempt: never charged to the breaker — the
         version did nothing wrong, the client stopped waiting *)

(* One rung: run with bounded exponential-backoff retries over transient
   simulator errors. Backoff is charged to simulated time (the simulator
   has no wall clock of its own) and to the stats. *)
let attempt_rung ?(budget : budget option) (t : t) (req : request)
    (rung : Plan_cache.rung) :
    ((R.outcome * int * float), attempt_failure) result =
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
      let opts = opts_for t req.req_input in
      (* each try is its own "attempt" span (exceptions caught inside, so
         the span also times aborted runs), and each transient retry is a
         "retry" mark — a trace accounts for the full retry schedule *)
      let try_once attempt =
        Obs.Trace.span
          ~attrs:[ ("version", vname); ("attempt", string_of_int attempt) ]
          ~name:"attempt"
        @@ fun () ->
        match
          R.run_compiled ~opts ?fault:t.fault ~fault_version:vname
            ~arch:req.req_arch ~tunables:rung.Plan_cache.r_tunables
            ~input:req.req_input cp
        with
        | o -> `Done o
        | exception Gpusim.Interp.Sim_error msg -> `Transient msg
        | exception Fault.Injected (_, msg) -> `Injected msg
        | exception Invalid_argument msg -> `Invalid msg
      in
      let rec go attempt retries backoff_us =
        match try_once attempt with
        | `Done o when Float.is_nan o.R.result ->
            Error (Af_fault (Printf.sprintf "%s returned a corrupted (NaN) result" vname))
        | `Done o ->
            budget_charge budget o.R.time_us;
            Ok (o, retries, backoff_us)
        | `Transient msg ->
            if attempt <= t.resilience.r_retry_max then begin
              let delay = backoff_delay_us t attempt in
              (* the budget check happens before the sleep: a request
                 whose deadline dies during backoff stops here, without
                 spending the delay or charging the breaker *)
              if budget_would_exhaust budget delay then
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
                budget_charge budget delay;
                go (attempt + 1) (retries + 1) (backoff_us +. delay)
              end
            end
            else
              Error
                (Af_transient
                   (Printf.sprintf "%s: transient retries exhausted (%s)" vname
                      msg))
        | `Injected msg -> Error (Af_fault msg)
        | `Invalid msg -> Error (Af_fault (Printf.sprintf "%s: %s" vname msg))
      in
      go 1 0 0.0)

let response_of_outcome (t : t) (req : request) (rung : Plan_cache.rung)
    ~(hit : bool) ~(fallback : int) ~(retries : int) ~(backoff_us : float)
    ~(started_us : float) (o : R.outcome) : response =
  Stats.winner t.stats (V.name rung.Plan_cache.r_version);
  if fallback > 0 then Stats.fallback t.stats;
  (* profiling is the first rung of the brownout ladder: the cheapest
     work to shed, and invisible to the answer *)
  if t.profile && t.brownout >= 1 then Stats.brownout_shed t.stats ~what:"profile";
  if t.profile && t.brownout < 1 then
    Stats.kernel t.stats ~arch:req.req_arch.Gpusim.Arch.name
      ~version:(V.name rung.Plan_cache.r_version)
      (Gpusim.Events.totals_of_list
         (List.map
            (fun (lr : Gpusim.Interp.launch_result) -> lr.Gpusim.Interp.lr_events)
            o.R.launch_results));
  {
    resp_value = o.R.result;
    resp_exact = o.R.exact;
    resp_sim_us = o.R.time_us +. backoff_us;
    resp_version = rung.Plan_cache.r_version;
    resp_tunables = rung.Plan_cache.r_tunables;
    resp_hit = hit;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = false;
    resp_retries = retries;
    resp_fallback = fallback;
  }

(* The degraded path: when every rung of the ladder is quarantined or
   faulting, compute the answer on the host via the planner's reference
   and say so, rather than failing the request. *)
let degraded_response (t : t) (req : request) (e : Plan_cache.entry)
    ~(hit : bool) ~(started_us : float) : response =
  Stats.degrade t.stats;
  Stats.winner t.stats "host-reference (degraded)";
  Obs.Trace.mark "degraded";
  Obs.Log.info "every rung down; serving the host reference (degraded)";
  {
    resp_value = P.reference_input t.planner req.req_input;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = e.Plan_cache.e_version;
    resp_tunables = [];
    resp_hit = hit;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = true;
    resp_retries = 0;
    resp_fallback = List.length (Plan_cache.ladder e);
  }

(* Brownout level 4, the last ladder step: the device path itself is
   shed — no planning, no tuning, no simulation — and the host reference
   answers every request until the controller lowers the level. *)
let brownout_degraded_response (t : t) (req : request) ~(started_us : float) :
    response =
  Stats.degrade t.stats;
  Stats.winner t.stats "host-reference (brownout)";
  Obs.Trace.mark "degraded";
  Obs.Log.warn "brownout level 4: serving the host reference (degraded)";
  {
    resp_value = P.reference_input t.planner req.req_input;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = List.hd t.candidates;
    resp_tunables = [];
    resp_hit = false;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = true;
    resp_retries = 0;
    resp_fallback = 0;
  }

(* ------------------------------------------------------------------ *)
(* The SDC guard: witness verification and redundant-execution voting  *)
(* ------------------------------------------------------------------ *)

(* Serving path of last resort for a confirmed corruption: no execution
   agreed with the witness, so the witness itself (host recompute,
   trusted) answers, flagged degraded like the quarantine-exhausted
   path. *)
let sdc_degraded_response (t : t) (req : request) (rung : Plan_cache.rung)
    ~(hit : bool) ~(fallback : int) ~(started_us : float) (value : float) :
    response =
  Stats.degrade t.stats;
  Stats.winner t.stats "host-reference (sdc)";
  Obs.Trace.mark "degraded";
  Obs.Log.info
    "confirmed corruption with no in-tolerance execution; serving the witness \
     value (degraded)";
  {
    resp_value = value;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = rung.Plan_cache.r_version;
    resp_tunables = [];
    resp_hit = hit;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = true;
    resp_retries = 0;
    resp_fallback = fallback;
  }

(* A witness already in hand serves the request when re-execution is off
   the table — the deadline budget died, or the brownout ladder shed
   redundant execution. No breaker is charged on either path: no
   corruption was confirmed, the service just stopped double-checking. *)
let witness_degraded_response (t : t) (req : request) (rung : Plan_cache.rung)
    ~(winner : string) ~(hit : bool) ~(fallback : int) ~(started_us : float)
    (value : float) : response =
  Stats.degrade t.stats;
  Stats.winner t.stats winner;
  Obs.Trace.mark "degraded";
  {
    resp_value = value;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = rung.Plan_cache.r_version;
    resp_tunables = [];
    resp_hit = hit;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = true;
    resp_retries = 0;
    resp_fallback = fallback;
  }

(* Every exact result is checked against the witness before it leaves
   the service. A rejected result is re-executed on its own rung first
   (dual-modular: a one-off flip cannot reproduce — the simulator is
   deterministic modulo injection), then down the ladder within the vote
   budget; the first execution the witness accepts serves the request.
   Each confirmed corruption charges an [Sdc] fault to its version's
   breaker — enough of them quarantine the version exactly like loud
   faults do. A deviation that reproduces bit-for-bit on its own rung is
   a false alarm (charged to the tolerance model, not the version).
   When nothing the ladder produces is acceptable, the witness value
   itself serves (degraded), or [Error (Sdc _)] when degraded mode is
   off: an out-of-tolerance answer is never returned. *)
let verify_and_serve ?(budget : budget option) (t : t) (req : request)
    (e : Plan_cache.entry) ~(hit : bool) ~(started_us : float) (idx : int)
    (rung : Plan_cache.rung) (o : R.outcome) (retries : int)
    (backoff_us : float) : (response, error) result =
  if not (t.guard.Guard.g_enabled && o.R.exact) then
    Ok
      (response_of_outcome t req rung ~hit ~fallback:idx ~retries ~backoff_us
         ~started_us o)
  else begin
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
        ~input:req.req_input ~sample ()
    in
    let finish idx rung o retries backoff_us =
      Stats.verify_us t.stats (now_us () -. t0);
      Ok
        (response_of_outcome t req rung ~hit ~fallback:idx ~retries ~backoff_us
           ~started_us o)
    in
    if Guard.acceptable ck ~got:o.R.result then finish idx rung o retries backoff_us
    else begin
      let arch = req.req_arch.Gpusim.Arch.name in
      (* the witness value is in hand: the deadline/brownout paths below
         serve it directly instead of erroring, and charge no breaker *)
      let serve_witness winner =
        Stats.verify_us t.stats (now_us () -. t0);
        Ok
          (witness_degraded_response t req rung ~winner ~hit ~fallback:idx
             ~started_us (Guard.expected ck))
      in
      let deadline_witness () =
        Stats.deadline_witness_serve t.stats;
        Obs.Log.warn
          ~fields:[ ("version", V.name rung.Plan_cache.r_version) ]
          "deadline budget died before redundant execution; serving the \
           witness value (degraded)";
        serve_witness "host-reference (deadline)"
      in
      let confirm_sdc (r : Plan_cache.rung) =
        let vname = V.name r.Plan_cache.r_version in
        Stats.sdc_catch t.stats;
        mon t (fun m -> m.m_pending_sdc <- m.m_pending_sdc + 1);
        Stats.fault t.stats ~version:vname;
        Obs.Log.info
          ~fields:[ ("arch", arch); ("version", vname) ]
          "silent data corruption confirmed";
        breaker_fault t ~arch ~version:vname
      in
      if t.brownout >= 2 then begin
        (* brownout level 2 sheds redundant execution: the witness value
           serves, and no corruption verdict is reached — the breaker is
           only ever charged on evidence the service actually gathered *)
        Stats.brownout_shed t.stats ~what:"reexec";
        Obs.Log.warn
          ~fields:[ ("version", V.name rung.Plan_cache.r_version) ]
          "witness rejected a result under brownout; redundant execution \
           shed, serving the witness value (degraded)";
        serve_witness "host-reference (brownout)"
      end
      else if budget_exhausted budget then deadline_witness ()
      else begin
        (* 1. dual-modular re-execution on the suspect's own rung *)
        Stats.sdc_reexec t.stats;
        let same =
          Obs.Trace.span
            ~attrs:[ ("version", V.name rung.Plan_cache.r_version) ]
            ~name:"reexec"
            (fun () -> attempt_rung ?budget t req rung)
        in
        match same with
        | Ok (o2, r2, b2) when Guard.acceptable ck ~got:o2.R.result ->
            (* the deviation vanished on re-run: one-off corruption *)
            confirm_sdc rung;
            finish idx rung o2 (retries + r2) (backoff_us +. b2)
        | Error (Af_deadline _) -> deadline_witness ()
        | _ ->
            let reproduced =
              match same with
              | Ok (o2, _, _) -> Guard.agree ck o2.R.result o.R.result
              | Error _ -> false
            in
            if reproduced then Stats.sdc_false_alarm t.stats
            else confirm_sdc rung;
            (* 2. vote down the remaining rungs *)
            let rec drop n l =
              if n <= 0 then l
              else match l with [] -> [] | _ :: rest -> drop (n - 1) rest
            in
            let rec vote votes cidx rungs =
              if votes <= 0 then `Spent
              else if budget_exhausted budget then `Deadline
              else
                match rungs with
                | [] -> `Spent
                | (c : Plan_cache.rung) :: more ->
                    let vname = V.name c.Plan_cache.r_version in
                    if quarantined t ~arch ~version:vname then
                      vote votes (cidx + 1) more
                    else begin
                      Stats.sdc_reexec t.stats;
                      match
                        Obs.Trace.span
                          ~attrs:[ ("version", vname) ]
                          ~name:"vote"
                          (fun () -> attempt_rung ?budget t req c)
                      with
                      | Ok (o2, r2, b2)
                        when Guard.acceptable ck ~got:o2.R.result ->
                          `Agree (cidx, c, o2, r2, b2)
                      | Ok _ ->
                          confirm_sdc c;
                          vote (votes - 1) (cidx + 1) more
                      | Error (Af_deadline _) -> `Deadline
                      | Error _ ->
                          Stats.fault t.stats ~version:vname;
                          breaker_fault t ~arch ~version:vname;
                          vote (votes - 1) (cidx + 1) more
                    end
            in
            (match
               vote (t.guard.Guard.g_votes - 1) (idx + 1)
                 (drop (idx + 1) (Plan_cache.ladder e))
             with
            | `Agree (cidx, c, o2, r2, b2) -> finish cidx c o2 r2 b2
            | `Deadline -> deadline_witness ()
            | `Spent ->
                Stats.verify_us t.stats (now_us () -. t0);
                if t.resilience.r_allow_degraded then
                  Ok
                    (sdc_degraded_response t req rung ~hit ~fallback:idx
                       ~started_us (Guard.expected ck))
                else
                  Error
                    (Sdc
                       (Printf.sprintf
                          "%s returned %.9g, witness expected %.9g (%s); no \
                           execution within tolerance"
                          (V.name rung.Plan_cache.r_version)
                          o.R.result (Guard.expected ck)
                          (Tolerance.describe (Guard.tolerance ck)))))
      end
    end
  end

(* One ladder execution, stopped before verification: the walk below
   yields the first rung that produced an outcome (plus its retry and
   backoff accounting), a deadline verdict, or "every rung down". The
   single-device path verifies the outcome immediately; the fleet path
   runs one walk per dispatched device and verifies only the winner, so
   a cancelled hedge loser never charges a response to the stats. *)
type executed = {
  ex_idx : int;
  ex_rung : Plan_cache.rung;
  ex_outcome : R.outcome;
  ex_retries : int;
  ex_backoff_us : float;
}

type exec_result =
  | Ex_served of executed
  | Ex_deadline of string
  | Ex_down of attempt_failure option

let execute_ladder ?(budget : budget option) (t : t) (req : request)
    (e : Plan_cache.entry) : exec_result =
  t.tick <- t.tick + 1;
  let arch = req.req_arch.Gpusim.Arch.name in
  let last_failure = ref None in
  let deadline = ref None in
  let rec walk idx = function
    | [] -> None
    | rung :: rest -> (
        let vname = V.name rung.Plan_cache.r_version in
        if budget_exhausted budget then begin
          deadline :=
            Some
              (Printf.sprintf
                 "deadline budget exhausted before rung %d (%s) could run" idx
                 vname);
          None
        end
        else
          let br = breaker_for t arch vname in
          match availability t br with
          | Av_open ->
              Obs.Trace.mark
                ~attrs:[ ("version", vname); ("rung", string_of_int idx) ]
                "rung.quarantined";
              walk (idx + 1) rest
          | (Av_closed | Av_half_open) as avail -> (
              match
                Obs.Trace.span
                  ~attrs:[ ("version", vname); ("rung", string_of_int idx) ]
                  ~name:"rung"
                  (fun () -> attempt_rung ?budget t req rung)
              with
              | Ok (o, retries, backoff_us) ->
                  (* faults accumulate across successes while the breaker is
                     closed (a lightly-faulting version must still trip it
                     eventually); only a successful half-open probe earns a
                     clean slate *)
                  if avail = Av_half_open then breaker_success br;
                  Some (idx, rung, o, retries, backoff_us)
              | Error (Af_deadline msg) ->
                  (* the client stopped waiting, the version did nothing
                     wrong: no fault, no breaker charge, no further rungs *)
                  deadline := Some msg;
                  None
              | Error failure ->
                  Stats.fault t.stats ~version:vname;
                  breaker_fault t ~arch ~version:vname;
                  last_failure := Some failure;
                  walk (idx + 1) rest))
  in
  match walk 0 (Plan_cache.ladder e) with
  | Some (idx, rung, o, retries, backoff_us) ->
      Ex_served
        {
          ex_idx = idx;
          ex_rung = rung;
          ex_outcome = o;
          ex_retries = retries;
          ex_backoff_us = backoff_us;
        }
  | None -> (
      match !deadline with
      | Some msg -> Ex_deadline msg
      | None -> Ex_down !last_failure)

let deadline_error (t : t) ~(arch : string) (msg : string) :
    (response, error) result =
  Stats.deadline_expire t.stats;
  Obs.Trace.mark "deadline";
  Obs.Log.warn ~fields:[ ("arch", arch) ] "deadline exceeded: %s" msg;
  Error (Deadline_exceeded msg)

(* every rung down: degraded host-reference serve, or the last failure *)
let down_result (t : t) (req : request) (e : Plan_cache.entry) ~(hit : bool)
    ~(started_us : float) (last_failure : attempt_failure option) :
    (response, error) result =
  if t.resilience.r_allow_degraded then
    Ok (degraded_response t req e ~hit ~started_us)
  else
    Error
      (match last_failure with
      | Some (Af_transient msg) -> Transient msg
      | Some (Af_fault msg) -> Version_fault msg
      | Some (Af_deadline _) | None ->
          Version_fault
            (Printf.sprintf "every version of %s is quarantined"
               (Plan_cache.key_name
                  (key_of t req.req_arch (R.input_size req.req_input)))))

let serve ?(budget : budget option) (t : t) (req : request)
    (e : Plan_cache.entry) (hit : bool) (started_us : float) :
    (response, error) result =
  let arch = req.req_arch.Gpusim.Arch.name in
  let run_started = now_us () in
  match execute_ladder ?budget t req e with
  | Ex_served ex ->
      Stats.run_us t.stats (now_us () -. run_started);
      verify_and_serve ?budget t req e ~hit ~started_us ex.ex_idx ex.ex_rung
        ex.ex_outcome ex.ex_retries ex.ex_backoff_us
  | Ex_deadline msg -> deadline_error t ~arch msg
  | Ex_down last -> down_result t req e ~hit ~started_us last

(* ------------------------------------------------------------------ *)
(* Fleet serving: routing, per-device dispatch, hedging                 *)
(* ------------------------------------------------------------------ *)

(* The health scorer's baseline: what the static cost model says this
   rung should take on this arch at this size, computed without
   executing anything and memoized per (arch, version, n, tunables).
   A prediction the analyzer cannot produce degrades to ratio 1.0 —
   the device is neither credited nor blamed for it. *)
let predicted_cost (t : t) (arch : Gpusim.Arch.t) (version : V.t)
    ~(tunables : (string * int) list) ~(n : int) : float option =
  let key = (arch.Gpusim.Arch.name, V.name version, n, tunables) in
  match Hashtbl.find_opt t.predicted_cache key with
  | Some p -> if Float.is_finite p && p > 0.0 then Some p else None
  | None ->
      let p =
        match P.static_cost ~n ~tunables arch t.planner version with
        | p -> p
        | exception _ -> Float.nan
      in
      Hashtbl.replace t.predicted_cache key p;
      if Float.is_finite p && p > 0.0 then Some p else None

let predicted_us (t : t) (arch : Gpusim.Arch.t) (rung : Plan_cache.rung)
    ~(n : int) : float option =
  predicted_cost t arch rung.Plan_cache.r_version
    ~tunables:rung.Plan_cache.r_tunables ~n

let health_ratio (t : t) (arch : Gpusim.Arch.t) (ex : executed) ~(n : int)
    ~(observed_us : float) : float =
  match predicted_us t arch ex.ex_rung ~n with
  | Some p when observed_us > 0.0 -> p /. observed_us
  | _ -> 1.0

(* the whole fleet is out: the host reference answers — a dead fleet
   degrades, it does not lose requests *)
let fleet_degraded_response (t : t) (req : request) ~(started_us : float) :
    response =
  Stats.degrade t.stats;
  Stats.winner t.stats "host-reference (fleet-down)";
  Obs.Trace.mark "degraded";
  Obs.Log.warn "no routable fleet device; serving the host reference (degraded)";
  {
    resp_value = P.reference_input t.planner req.req_input;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = List.hd t.candidates;
    resp_tunables = [];
    resp_hit = false;
    resp_bucket = Plan_cache.bucket_of_size (R.input_size req.req_input);
    resp_service_us = now_us () -. started_us;
    resp_degraded = true;
    resp_retries = 0;
    resp_fallback = 0;
  }

(* one attempt on one device *)
type fleet_exec =
  | Fx_served of Plan_cache.entry * bool * executed * float
      (* entry, cache hit, winning execution, observed (slowdown-inflated) us *)
  | Fx_deadline of string
  | Fx_down of Plan_cache.entry * bool * attempt_failure option
  | Fx_error of error  (* planning failed; not the device's doing *)

(* Dispatch one request to one device: the request is re-targeted at
   the device's arch (the one plan cache serves the whole heterogeneous
   fleet), the device's private fault stream is armed for the duration,
   the fail-slow profile inflates the observed time, and the health
   scorer is fed the predicted/observed ratio. Verification is NOT run
   here — the hedging layer above picks a winner first. *)
let dispatch_on ?(budget : budget option) (t : t) (fl : Fleet.t)
    (req : request) (d : Fleet.device) : fleet_exec =
  Fleet.begin_dispatch fl d;
  let arch = Fleet.arch d in
  let req = { req with req_arch = arch } in
  let n = R.input_size req.req_input in
  let saved_fault = t.fault in
  (match Fleet.fault_stream d with Some f -> t.fault <- Some f | None -> ());
  let result =
    Obs.Trace.span
      ~attrs:
        [ ("device", Fleet.label d); ("arch", arch.Gpusim.Arch.name) ]
      ~name:"device"
    @@ fun () ->
    match ensure t arch n with
    | Error e -> Fx_error e
    | Ok (entry, hit) -> (
        match execute_ladder ?budget t req entry with
        | Ex_served ex ->
            let slow = Fleet.slowdown d in
            let observed = ex.ex_outcome.R.time_us *. slow in
            (* the straggler's inflation is real time the client waits
               through: charge the deadline budget for it and let the
               response's simulated latency carry it *)
            let ex =
              if slow > 1.0 then begin
                budget_charge budget (observed -. ex.ex_outcome.R.time_us);
                { ex with ex_outcome = { ex.ex_outcome with R.time_us = observed } }
              end
              else ex
            in
            Fleet.charge_busy d observed;
            Fleet.observe fl d
              ~ratio:(health_ratio t arch ex ~n ~observed_us:observed);
            Fx_served (entry, hit, ex, observed)
        | Ex_deadline msg -> Fx_deadline msg
        | Ex_down last ->
            Fleet.observe_failure fl d;
            Fx_down (entry, hit, last))
  in
  t.fault <- saved_fault;
  Fleet.end_dispatch fl d;
  result

let submit_fleet ?(budget : budget option) (t : t) (fl : Fleet.t)
    (req : request) ~(started_us : float) : (response, error) result =
  let run_started = now_us () in
  (* route around devices that fail-stop at the moment of dispatch: the
     death is detected, the device marked dead, and the request bounces
     to the next choice — never lost *)
  let rec acquire () =
    match Fleet.route fl with
    | None -> None
    | Some d ->
        if Fleet.next_dispatch_kills d then begin
          Fleet.mark_dead fl d;
          Fleet.reroute fl;
          acquire ()
        end
        else Some d
  in
  match acquire () with
  | None -> Ok (fleet_degraded_response t req ~started_us)
  | Some d -> (
      match dispatch_on ?budget t fl req d with
      | Fx_error e -> Error e
      | Fx_deadline msg ->
          deadline_error t ~arch:(Fleet.arch d).Gpusim.Arch.name msg
      | Fx_down (entry, hit, last) ->
          (* breakers are per (arch, version) and shared fleet-wide: a
             ladder that is down on this device is down on every device
             of the same arch — degrade like the single-device path *)
          down_result t
            { req with req_arch = Fleet.arch d }
            entry ~hit ~started_us last
      | Fx_served (entry, hit, ex, observed) -> (
          (* hedged execution: past the p95-based deadline, speculate on
             a second device; first answer in virtual time wins and the
             loser is cancelled before verification, charging nothing *)
          let hedged =
            match Fleet.hedge_deadline_us fl with
            | Some dl when observed > dl -> (
                Fleet.hedge_fired fl d ~deadline_us:dl ~observed_us:observed;
                match Fleet.route ~excluding:d ~probe:false fl with
                | None -> None
                | Some d2 -> (
                    match dispatch_on ?budget t fl req d2 with
                    | Fx_served (entry2, hit2, ex2, observed2) ->
                        (* the hedge launched at the deadline: it wins
                           only if deadline + its own latency beats the
                           primary's completion *)
                        let completion2 = dl +. observed2 in
                        if completion2 < observed then begin
                          Fleet.hedge_won fl d2;
                          Some (d2, entry2, hit2, ex2, completion2)
                        end
                        else None
                    | Fx_deadline _ | Fx_down _ | Fx_error _ -> None))
            | Some _ | None -> None
          in
          let dev, entry, hit, ex, completion_us =
            match hedged with
            | Some (d2, e2, h2, ex2, c2) -> (d2, e2, h2, ex2, c2)
            | None -> (d, entry, hit, ex, observed)
          in
          Fleet.note_latency fl completion_us;
          Stats.run_us t.stats (now_us () -. run_started);
          let req = { req with req_arch = Fleet.arch dev } in
          match
            verify_and_serve ?budget t req entry ~hit ~started_us ex.ex_idx
              ex.ex_rung ex.ex_outcome ex.ex_retries ex.ex_backoff_us
          with
          | Ok r -> Ok r
          | Error e -> Error e))

(* ------------------------------------------------------------------ *)
(* Monitoring: windowed metrics, SLO burn rates, flight recorder        *)
(* ------------------------------------------------------------------ *)

let attach_monitor ?(latency_mult = 3.0) ?(interactive_max = 65536)
    ?(snapshot_every = 32) ?(capacity = 128) ?(latency_target = 0.97)
    ?(goodput_target = 0.95) (t : t) : unit =
  let reg = Stats.metrics t.stats in
  let m =
    {
      m_recorder = Recorder.create ~capacity ();
      m_latency_slo =
        Obs.Slo.create
          (Obs.Slo.objective
             ~description:
               "interactive latency within the static-cost envelope"
             ~target:latency_target "latency");
      m_sdc_slo =
        Obs.Slo.create
          (Obs.Slo.objective
             ~description:"confirmed silent corruptions (zero budget)"
             ~target:1.0 "sdc");
      m_goodput_slo =
        Obs.Slo.create
          (Obs.Slo.objective
             ~description:
               "requests served exactly, neither degraded nor errored"
             ~target:goodput_target "goodput");
      m_latency_mult = latency_mult;
      m_interactive_max = interactive_max;
      m_snapshot_every = max 1 snapshot_every;
      m_now_us = 0.0;
      m_requests = 0;
      m_pending_sdc = 0;
      m_pending_eject = [];
      m_req_ok =
        Obs.Metrics.counter reg ~help:"requests answered"
          ~labels:[ ("outcome", "ok") ]
          "tangram_monitor_requests_total";
      m_req_err =
        Obs.Metrics.counter reg
          ~labels:[ ("outcome", "error") ]
          "tangram_monitor_requests_total";
      m_lat_interactive =
        Obs.Metrics.histogram reg ~help:"virtual request latency"
          ~labels:[ ("class", "interactive") ]
          "tangram_monitor_latency_us";
      m_lat_batch =
        Obs.Metrics.histogram reg
          ~labels:[ ("class", "batch") ]
          "tangram_monitor_latency_us";
      m_brownout_g =
        Obs.Metrics.gauge reg ~help:"active brownout level"
          "tangram_monitor_brownout_level";
      m_queue_depth =
        Obs.Metrics.gauge reg ~help:"admission queue depth"
          "tangram_monitor_queue_depth";
      m_fleet_healthy =
        Obs.Metrics.gauge reg ~help:"devices actively serving"
          "tangram_monitor_fleet_active";
    }
  in
  t.monitor <- Some m;
  (* the ring's base snapshot: the first real snapshot diffs against it *)
  Obs.Metrics.snapshot reg ~now_us:0.0

let detach_monitor (t : t) : unit = t.monitor <- None
let monitor_attached (t : t) : bool = Option.is_some t.monitor

let monitor_slo_list (m : monitor) : (string * Obs.Slo.t) list =
  [
    ("latency", m.m_latency_slo);
    ("sdc", m.m_sdc_slo);
    ("goodput", m.m_goodput_slo);
  ]

let monitor_slos_json (m : monitor) : Obs.Json.t =
  Obs.Json.Arr
    (List.map
       (fun (_, s) -> Obs.Slo.state_json s ~now_us:m.m_now_us)
       (monitor_slo_list m))

let fleet_table_json (fl : Fleet.t) : Obs.Json.t =
  Obs.Json.Arr
    (List.map
       (fun d ->
         Obs.Json.Obj
           [
             ("device", Obs.Json.Str (Fleet.label d));
             ("state", Obs.Json.Str (Fleet.state_name (Fleet.dev_state d)));
             ("health", Obs.Json.Num (Fleet.health d));
             ("dispatches", Obs.Json.Num (float_of_int (Fleet.dispatches d)));
           ])
       (Fleet.devices fl))

let window_json (w : Obs.Metrics.window) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("from_us", Obs.Json.Num w.Obs.Metrics.w_from_us);
      ("to_us", Obs.Json.Num w.Obs.Metrics.w_to_us);
      ( "rows",
        Obs.Json.Arr
          (List.map
             (fun (r : Obs.Metrics.window_row) ->
               Obs.Json.Obj
                 ([
                    ("name", Obs.Json.Str r.wr_name);
                    ("kind", Obs.Json.Str (Obs.Metrics.kind_name r.wr_kind));
                    ( "labels",
                      Obs.Json.Obj
                        (List.map
                           (fun (k, v) -> (k, Obs.Json.Str v))
                           r.wr_labels) );
                    ("value", Obs.Json.Num r.wr_value);
                  ]
                 @
                 if r.wr_kind = Obs.Metrics.Histogram then
                   [
                     ("sum", Obs.Json.Num r.wr_sum);
                     ("p50", Obs.Json.Num r.wr_p50);
                     ("p95", Obs.Json.Num r.wr_p95);
                   ]
                 else []))
             w.Obs.Metrics.w_rows) );
    ]

let dump_incident (t : t) (m : monitor) (trigger : Recorder.trigger) : unit =
  Stats.incident t.stats ~kind:(Recorder.trigger_kind trigger);
  (* freeze a window boundary so the bundle's metrics run up to the
     trigger *)
  let reg = Stats.metrics t.stats in
  Obs.Metrics.snapshot reg ~now_us:m.m_now_us;
  let metrics =
    match List.rev (Obs.Metrics.windows reg) with
    | w :: _ -> window_json w
    | [] -> Obs.Json.Null
  in
  let fleet =
    match t.fleet with Some fl -> fleet_table_json fl | None -> Obs.Json.Null
  in
  let inc =
    Recorder.dump m.m_recorder ~now_us:m.m_now_us ~trigger
      ~slos:(monitor_slos_json m) ~fleet ~brownout:t.brownout ~metrics ()
  in
  Obs.Log.warn
    ~fields:
      [
        ("code", "TOBS002");
        ("trigger", Recorder.trigger_kind trigger);
        ("seq", string_of_int inc.Recorder.in_seq);
      ]
    "flight recorder dumped an incident bundle (trigger %s)"
    (Recorder.trigger_kind trigger)

let error_kind : error -> string = function
  | Bad_request _ -> "bad-request"
  | Transient _ -> "transient"
  | Version_fault _ -> "version-fault"
  | Cache_corrupt _ -> "cache-corrupt"
  | Sdc _ -> "sdc"
  | Deadline_exceeded _ -> "deadline"

(* The per-request monitoring step, run inside the request's root span
   (so the recorder captures the right trace id): note the record,
   settle deferred corruption/ejection verdicts, feed the SLOs, step
   the alert state machines and snapshot on cadence. *)
let monitor_note (t : t) (req : request) (result : (response, error) result) :
    unit =
  match t.monitor with
  | None -> ()
  | Some m ->
      let n = R.input_size req.req_input in
      let arch = req.req_arch.Gpusim.Arch.name in
      let caught_sdc = m.m_pending_sdc > 0 in
      let latency_us, predicted, outcome =
        match result with
        | Ok r ->
            let predicted =
              match
                predicted_cost t req.req_arch r.resp_version
                  ~tunables:r.resp_tunables ~n
              with
              | Some p -> p
              | None -> 0.0
            in
            ( r.resp_sim_us,
              predicted,
              if caught_sdc then "sdc-caught"
              else if r.resp_degraded then "degraded"
              else "ok" )
        | Error e -> (0.0, 0.0, error_kind e)
      in
      m.m_requests <- m.m_requests + 1;
      m.m_now_us <- m.m_now_us +. Float.max latency_us 1.0;
      ignore
        (Recorder.note m.m_recorder ~now_us:m.m_now_us ~arch ~n
           ~predicted_us:predicted ~latency_us ~outcome ());
      (* corruption verdicts were deferred to here so the record above
         is the bundle's trigger request *)
      if caught_sdc then begin
        for _ = 1 to m.m_pending_sdc do
          Obs.Slo.observe m.m_sdc_slo ~now_us:m.m_now_us ~good:false
        done;
        m.m_pending_sdc <- 0;
        dump_incident t m Recorder.Sdc
      end
      else Obs.Slo.observe m.m_sdc_slo ~now_us:m.m_now_us ~good:true;
      let interactive = n <= m.m_interactive_max in
      (match result with
      | Ok r ->
          Obs.Metrics.inc m.m_req_ok;
          Obs.Metrics.observe
            (if interactive then m.m_lat_interactive else m.m_lat_batch)
            latency_us;
          if interactive then
            Obs.Slo.observe m.m_latency_slo ~now_us:m.m_now_us
              ~good:
                (predicted <= 0.0
                || latency_us <= m.m_latency_mult *. predicted);
          Obs.Slo.observe m.m_goodput_slo ~now_us:m.m_now_us
            ~good:(not r.resp_degraded)
      | Error _ ->
          Obs.Metrics.inc m.m_req_err;
          Obs.Slo.observe m.m_goodput_slo ~now_us:m.m_now_us ~good:false);
      Obs.Metrics.set m.m_brownout_g (float_of_int t.brownout);
      (match t.fleet with
      | Some fl ->
          Obs.Metrics.set m.m_fleet_healthy
            (float_of_int
               (List.length
                  (List.filter
                     (fun d -> Fleet.dev_state d = Fleet.Active)
                     (Fleet.devices fl))))
      | None -> ());
      List.iter
        (fun (name, slo) ->
          match Obs.Slo.evaluate slo ~now_us:m.m_now_us with
          | Some (Obs.Slo.Fired burn) ->
              Stats.alert t.stats ~slo:name;
              Obs.Trace.mark ~attrs:[ ("slo", name) ] "slo.fired";
              Obs.Log.warn
                ~fields:
                  [
                    ("code", "TOBS001");
                    ("slo", name);
                    ("fast_burn", Printf.sprintf "%.2f" burn.Obs.Slo.br_fast);
                    ("slow_burn", Printf.sprintf "%.2f" burn.Obs.Slo.br_slow);
                  ]
                "SLO burn-rate alert fired: %s" name;
              dump_incident t m (Recorder.Alert name)
          | Some (Obs.Slo.Resolved _) ->
              Obs.Log.info ~fields:[ ("slo", name) ] "SLO alert resolved: %s"
                name
          | None -> ())
        (monitor_slo_list m);
      (* ejections recorded mid-request surface as their own bundles
         once the triggering request is in the ring *)
      List.iter
        (fun dev -> dump_incident t m (Recorder.Eject dev))
        (List.rev m.m_pending_eject);
      m.m_pending_eject <- [];
      if m.m_requests mod m.m_snapshot_every = 0 then
        Obs.Metrics.snapshot (Stats.metrics t.stats) ~now_us:m.m_now_us

let monitor_recorder (t : t) : Recorder.t option =
  Option.map (fun m -> m.m_recorder) t.monitor

let monitor_slos (t : t) : (string * Obs.Slo.t) list =
  match t.monitor with Some m -> monitor_slo_list m | None -> []

let monitor_now_us (t : t) : float =
  match t.monitor with Some m -> m.m_now_us | None -> 0.0

let monitor_snapshot (t : t) : unit =
  mon t (fun m ->
      Obs.Metrics.snapshot (Stats.metrics t.stats) ~now_us:m.m_now_us)

(* the admission queue lives above the service; the monitor owns its
   depth gauge *)
let monitor_queue_depth (t : t) (depth : int) : unit =
  mon t (fun m -> Obs.Metrics.set m.m_queue_depth (float_of_int depth))

(* reduce of nothing is the combining operation's identity, served off the
   host without touching the simulator *)
let empty_response (t : t) (req : request) ~(started_us : float) : response =
  {
    resp_value = P.reference_input t.planner req.req_input;
    resp_exact = true;
    resp_sim_us = 0.0;
    resp_version = List.hd t.candidates;
    resp_tunables = [];
    resp_hit = false;
    resp_bucket = 0;
    resp_service_us = now_us () -. started_us;
    resp_degraded = false;
    resp_retries = 0;
    resp_fallback = 0;
  }

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

let submit_result ?deadline_us (t : t) (req : request) :
    (response, error) result =
  let budget = budget_of_deadline deadline_us in
  let body () =
    let started_us = now_us () in
    match validate req with
    | Error e ->
        Stats.bad_request t.stats;
        Error e
    | Ok () ->
        if R.input_size req.req_input = 0 then
          Ok (empty_response t req ~started_us)
        else if t.brownout >= 4 then begin
          (* the host path sheds everything device-side, the cold
             plan/tune path included — answer before even touching the
             cache *)
          Stats.brownout_shed t.stats ~what:"host-path";
          Ok (brownout_degraded_response t req ~started_us)
        end
        else (
          match t.fleet with
          | Some fl -> submit_fleet ?budget t fl req ~started_us
          | None -> (
              match ensure t req.req_arch (R.input_size req.req_input) with
              | Error e -> Error e
              | Ok (entry, hit) -> serve ?budget t req entry hit started_us))
  in
  (* the monitor notes the result inside the request's root span, so
     the flight recorder captures this request's trace id *)
  let monitored () =
    let result = body () in
    monitor_note t req result;
    result
  in
  (* one root span per request under a fresh trace id: every span the
     stack records below (lookup, plan, tune, rungs, attempts, verify...)
     lands on this request's track in the exported trace *)
  if not (Obs.Trace.enabled ()) then monitored ()
  else
    Obs.Trace.with_request
      ~attrs:
        [
          ("arch", req.req_arch.Gpusim.Arch.name);
          ("n", string_of_int (R.input_size req.req_input));
        ]
      ~name:"request" monitored

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
      (* group indices by shape, preserving first-seen group order *)
      let groups : (request * int list ref) list ref = ref [] in
      List.iteri
        (fun i req ->
          match List.find_opt (fun (rep, _) -> same_shape rep req) !groups with
          | Some (_, idxs) -> idxs := i :: !idxs
          | None -> groups := !groups @ [ (req, ref [ i ]) ])
        reqs;
      let n_reqs = List.length reqs in
      Stats.batch t.stats ~size:n_reqs
        ~coalesced:(n_reqs - List.length !groups);
      let responses = Array.make n_reqs None in
      List.iter
        (fun (rep, idxs) ->
          (* each coalesced group gets a fresh budget: the deadline is
             per-request, and coalesced requests share one execution *)
          let r = submit_result ?deadline_us t rep in
          List.iter (fun i -> responses.(i) <- Some r) !idxs)
        !groups;
      Array.to_list responses
      |> List.map (function Some r -> r | None -> assert false)

let submit_batch ?deadline_us (t : t) (reqs : request list) : response list =
  List.map
    (function Ok r -> r | Error e -> raise (Service_error e))
    (submit_batch_result ?deadline_us t reqs)

let report (t : t) : string = Stats.report t.stats
