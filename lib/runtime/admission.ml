(* Deadline-aware admission control and load shedding.

   Everything here runs on a virtual clock. An open-loop trace
   ([Trace.arrivals]) stamps each request with a Poisson arrival time in
   virtual microseconds; the replay walks those arrivals through a
   bounded two-priority queue in front of a single virtual server whose
   occupancy is the service's own simulated cost (kernel time plus a
   hit/miss model of the cold plan/tune path). Determinism is the whole
   point: the same seed and config produce the same admissions, sheds,
   deadline verdicts and brownout transitions on every machine, which is
   what lets CI assert on them.

   Protection is three independent valves:
   - admission: a full queue sheds per policy (newest, oldest, or
     cost-aware using [Plan_cache.mem] to predict cold buckets), and
     interactive arrivals may displace queued batch work;
   - deadlines: a request that cannot finish by its deadline is dropped
     at dequeue (no work wasted), and the remaining budget rides into
     [Service.submit_result ?deadline_us] so mid-flight expiry stops
     retries and redundant executions;
   - brownout: a hysteretic controller watches queue depth and the p95
     of recent completion latencies and walks [Service.set_brownout]'s
     ladder up and down, shedding optional work before the queue melts.

   With all three off ([unprotected]) the same replay models a naive
   service: everything is admitted, nothing is shed, and goodput
   (completions within deadline) collapses past saturation. *)

module R = Gpusim.Runner
module P = Synthesis.Planner

type priority = Interactive | Batch

type shed_policy = Reject_newest | Reject_oldest | Cost_aware

let shed_policy_name = function
  | Reject_newest -> "reject-newest"
  | Reject_oldest -> "reject-oldest"
  | Cost_aware -> "cost-aware"

let shed_policy_of_string = function
  | "reject-newest" -> Some Reject_newest
  | "reject-oldest" -> Some Reject_oldest
  | "cost-aware" -> Some Cost_aware
  | _ -> None

type config = {
  a_queue_cap : int;
  a_shed_policy : shed_policy;
  a_deadline_us : float;
  a_enforce_deadline : bool;
  a_brownout : bool;
  a_interactive_max : int;
  a_cost_hit_us : float;
  a_cost_miss_us : float;
}

let default =
  {
    a_queue_cap = 32;
    a_shed_policy = Reject_newest;
    a_deadline_us = 50_000.0;
    a_enforce_deadline = true;
    a_brownout = false;
    (* the paper sweep's small half: everything at or under 64K is
       latency-sensitive, the big crunches are batch *)
    a_interactive_max = 65536;
    (* virtual cost of the paths the simulated kernel time does not
       cover: a warm dispatch is microseconds, a cold plan/tune sweep is
       tens of milliseconds *)
    a_cost_hit_us = 5.0;
    a_cost_miss_us = 20_000.0;
  }

let unprotected cfg =
  {
    cfg with
    a_queue_cap = max cfg.a_queue_cap 1_000_000;
    a_enforce_deadline = false;
    a_brownout = false;
  }

let priority_of (cfg : config) (n : int) : priority =
  if n <= cfg.a_interactive_max then Interactive else Batch

(* one queued request; [i_cost_us] is the predicted virtual cost used by
   the cost-aware policy and the dequeue-time feasibility check *)
type item = {
  i_arrival : float;
  i_deadline_at : float;
  i_prio : priority;
  i_arch : Gpusim.Arch.t;
  i_n : int;
  i_cost_us : float;
}

type summary = {
  a_offered : int;
  a_admitted : int;
  a_shed : int;
  a_expired : int;  (* admitted but dropped at dequeue: infeasible deadline *)
  a_completed : int;  (* served with Ok *)
  a_deadline_errors : int;  (* served with Error Deadline_exceeded *)
  a_failed : int;  (* served with any other Error *)
  a_goodput : int;  (* Ok completions within their deadline *)
  a_goodput_rps : float;  (* goodput per virtual second of makespan *)
  a_violations : int;  (* Ok completions past their deadline *)
  a_interactive_violations : int;
  a_p50_us : float;  (* arrival-to-completion latency, virtual *)
  a_p95_us : float;
  a_makespan_us : float;  (* virtual time from first arrival to drain *)
  a_max_brownout : int;
}

(* percentile over a copy, nearest-rank; mirrors Stats' convention *)
let percentile (xs : float list) (p : float) : float =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) idx))

let predicted_cost_us (cfg : config) (svc : Service.t)
    (arch : Gpusim.Arch.t) (n : int) : float =
  let p = Service.planner svc in
  let k =
    Plan_cache.key ~arch:arch.Gpusim.Arch.name ~op:(P.op_name p)
      ~elem:(P.elem_name p) ~n
  in
  (* a peek, not a lookup: predicting must not perturb LRU recency *)
  if Plan_cache.mem (Service.cache svc) k then cfg.a_cost_hit_us
  else cfg.a_cost_miss_us

(* ------------------------------------------------------------------ *)
(* The brownout controller                                             *)
(* ------------------------------------------------------------------ *)

(* Hysteresis by construction: raise and lower watch different
   thresholds, the controller moves one ladder step at a time, and it
   only reconsiders every [ctl_period] completions — a brief spike
   cannot saw the ladder up and down. *)
let ctl_period = 16
let ctl_window = 64

type controller = {
  ctl_cfg : config;
  ctl_svc : Service.t;
  ctl_ring : float array;  (* last [ctl_window] completion latencies *)
  mutable ctl_filled : int;
  mutable ctl_since : int;  (* completions since the last decision *)
  mutable ctl_max : int;  (* highest level this replay reached *)
}

let controller (cfg : config) (svc : Service.t) : controller =
  {
    ctl_cfg = cfg;
    ctl_svc = svc;
    ctl_ring = Array.make ctl_window 0.0;
    ctl_filled = 0;
    ctl_since = 0;
    ctl_max = Service.brownout_level svc;
  }

let ctl_observe (c : controller) ~(depth : int) (latency_us : float) : unit =
  if c.ctl_cfg.a_brownout then begin
    c.ctl_ring.(c.ctl_filled mod ctl_window) <- latency_us;
    c.ctl_filled <- c.ctl_filled + 1;
    c.ctl_since <- c.ctl_since + 1;
    if c.ctl_since >= ctl_period then begin
      c.ctl_since <- 0;
      let window = min c.ctl_filled ctl_window in
      let recent = Array.to_list (Array.sub c.ctl_ring 0 window) in
      let p95 = percentile recent 95.0 in
      let cap = c.ctl_cfg.a_queue_cap in
      let level = Service.brownout_level c.ctl_svc in
      let deadline = c.ctl_cfg.a_deadline_us in
      if
        (depth > cap * 3 / 4 || p95 > deadline)
        && level < Service.max_brownout
      then begin
        Service.set_brownout c.ctl_svc (level + 1);
        c.ctl_max <- max c.ctl_max (level + 1)
      end
      else if depth < cap / 4 && p95 < deadline /. 2.0 && level > 0 then
        Service.set_brownout c.ctl_svc (level - 1)
    end
  end

(* ------------------------------------------------------------------ *)
(* The bounded two-priority queue                                      *)
(* ------------------------------------------------------------------ *)

(* FIFO per priority, interactive drains first. Capacities are small
   (tens to hundreds), so list-backed queues with O(n) eviction keep the
   policies trivially auditable. *)
type queue = {
  q_cfg : config;
  mutable q_interactive : item list;  (* oldest first *)
  mutable q_batch : item list;
}

let queue (cfg : config) : queue =
  { q_cfg = cfg; q_interactive = []; q_batch = [] }

let depth (q : queue) : int =
  List.length q.q_interactive + List.length q.q_batch

let enqueue (q : queue) (it : item) : unit =
  match it.i_prio with
  | Interactive -> q.q_interactive <- q.q_interactive @ [ it ]
  | Batch -> q.q_batch <- q.q_batch @ [ it ]

let dequeue (q : queue) : item option =
  match q.q_interactive with
  | it :: rest ->
      q.q_interactive <- rest;
      Some it
  | [] -> (
      match q.q_batch with
      | it :: rest ->
          q.q_batch <- rest;
          Some it
      | [] -> None)

(* drop the last element (the newest) of a list *)
let drop_newest (l : 'a list) : 'a * 'a list =
  match List.rev l with
  | [] -> invalid_arg "drop_newest: empty"
  | x :: rev_rest -> (x, List.rev rev_rest)

(* remove the costliest item (first-of-equals, i.e. oldest on ties) *)
let drop_costliest (l : item list) : item * item list =
  match l with
  | [] -> invalid_arg "drop_costliest: empty"
  | hd :: _ ->
      let victim =
        List.fold_left
          (fun best it -> if it.i_cost_us > best.i_cost_us then it else best)
          hd l
      in
      let removed = ref false in
      let rest =
        List.filter
          (fun it ->
            if (not !removed) && it == victim then begin
              removed := true;
              false
            end
            else true)
          l
      in
      (victim, rest)

(* Admit [it] or shed something. Returns the shed item, if any. Batch
   work never displaces queued interactive work; an interactive arrival
   may displace queued batch work under any policy. *)
let offer (q : queue) (it : item) : item option =
  let cfg = q.q_cfg in
  if depth q < cfg.a_queue_cap then begin
    enqueue q it;
    None
  end
  else
    let displace_batch picker =
      let victim, rest = picker q.q_batch in
      q.q_batch <- rest;
      enqueue q it;
      Some victim
    in
    match cfg.a_shed_policy with
    | Reject_newest ->
        (* the newcomer is the newest — unless its priority outranks
           queued batch work, in which case the newest batch item goes *)
        if it.i_prio = Interactive && q.q_batch <> [] then
          displace_batch drop_newest
        else Some it
    | Reject_oldest ->
        (* drop-head: the oldest queued work has waited longest and is
           most likely to miss its deadline anyway *)
        let drop_oldest = function
          | [] -> invalid_arg "drop_oldest: empty"
          | x :: rest -> (x, rest)
        in
        if q.q_batch <> [] then displace_batch drop_oldest
        else if it.i_prio = Interactive && q.q_interactive <> [] then begin
          let victim, rest = drop_oldest q.q_interactive in
          q.q_interactive <- rest;
          enqueue q it;
          Some victim
        end
        else Some it
    | Cost_aware ->
        (* shed the predicted-costliest among the newcomer and the
           queued work it may displace; ties keep the queue (FIFO bias) *)
        let pool =
          match it.i_prio with
          | Interactive -> q.q_batch @ q.q_interactive
          | Batch -> q.q_batch
        in
        let costliest =
          List.fold_left (fun m c -> max m c.i_cost_us) 0.0 pool
        in
        if pool <> [] && costliest > it.i_cost_us then begin
          let from_batch =
            List.exists (fun c -> c.i_cost_us = costliest) q.q_batch
          in
          if from_batch then displace_batch drop_costliest
          else begin
            let victim, rest = drop_costliest q.q_interactive in
            q.q_interactive <- rest;
            enqueue q it;
            Some victim
          end
        end
        else Some it

(* ------------------------------------------------------------------ *)
(* The open-loop replay                                                *)
(* ------------------------------------------------------------------ *)

let validate (cfg : config) : unit =
  if cfg.a_queue_cap < 1 then
    invalid_arg "Admission.replay: queue_cap must be positive";
  if Float.is_nan cfg.a_deadline_us || cfg.a_deadline_us <= 0.0 then
    invalid_arg "Admission.replay: deadline_us must be positive";
  if cfg.a_cost_hit_us < 0.0 || cfg.a_cost_miss_us < 0.0 then
    invalid_arg "Admission.replay: cost model must be non-negative"

let replay ?(config = default) ?(dense_upto = 0) (svc : Service.t)
    (arrivals : (float * (Gpusim.Arch.t * int)) list) : summary =
  validate config;
  let stats = Service.stats svc in
  let q = queue config in
  let ctl = controller config svc in
  let server_free = ref 0.0 in
  let admitted = ref 0 and shed = ref 0 and expired = ref 0 in
  let completed = ref 0 and deadline_errors = ref 0 and failed = ref 0 in
  let goodput = ref 0 and violations = ref 0 and ivio = ref 0 in
  let latencies = ref [] in
  let last_completion = ref 0.0 in
  let shed_one (victim : item) ~(why : string) : unit =
    incr shed;
    Stats.shed_request stats ~interactive:(victim.i_prio = Interactive);
    Obs.Log.warn
      ~fields:
        [
          ("policy", shed_policy_name config.a_shed_policy);
          ("why", why);
          ( "class",
            match victim.i_prio with
            | Interactive -> "interactive"
            | Batch -> "batch" );
          ("n", string_of_int victim.i_n);
          ("cost_us", Printf.sprintf "%.0f" victim.i_cost_us);
        ]
      "request shed (queue full)"
  in
  let serve (it : item) : unit =
    let start = Float.max !server_free it.i_arrival in
    if
      config.a_enforce_deadline
      && start +. it.i_cost_us > it.i_deadline_at
    then begin
      (* deadline-aware dequeue: work that cannot finish in time is
         dropped before it occupies the server *)
      incr expired;
      Stats.deadline_expire stats;
      Obs.Log.warn
        ~fields:
          [
            ("n", string_of_int it.i_n);
            ("waited_us", Printf.sprintf "%.0f" (start -. it.i_arrival));
          ]
        "deadline infeasible at dequeue; request dropped"
    end
    else begin
      Stats.queue_wait_us stats (start -. it.i_arrival);
      let remaining = it.i_deadline_at -. start in
      let deadline_us =
        if config.a_enforce_deadline then Some (Float.max 1.0 remaining)
        else None
      in
      let req =
        {
          Service.req_arch = it.i_arch;
          req_input = Trace.replay_input ~dense_upto it.i_n;
        }
      in
      let result = Service.submit_result ?deadline_us svc req in
      let cost_us =
        match result with
        | Ok r ->
            (* warm dispatch and the degraded host path cost the small
               constant; a real cold miss pays the plan/tune sweep *)
            r.Service.resp_sim_us
            +.
            if r.Service.resp_hit || r.Service.resp_degraded then
              config.a_cost_hit_us
            else config.a_cost_miss_us
        | Error (Service.Deadline_exceeded _) ->
            (* the service burned its budget before answering *)
            Float.max 0.0 remaining
        | Error _ -> config.a_cost_hit_us
      in
      server_free := start +. cost_us;
      let completion = !server_free in
      last_completion := Float.max !last_completion completion;
      let latency = completion -. it.i_arrival in
      latencies := latency :: !latencies;
      (match result with
      | Ok _ ->
          incr completed;
          if completion <= it.i_deadline_at then incr goodput
          else begin
            incr violations;
            if it.i_prio = Interactive then incr ivio
          end
      | Error (Service.Deadline_exceeded _) -> incr deadline_errors
      | Error _ -> incr failed);
      ctl_observe ctl ~depth:(depth q) latency
    end
  in
  List.iter
    (fun (t_arr, (arch, n)) ->
      (* run the server forward through everything that starts before
         this arrival *)
      let rec catch_up () =
        if !server_free <= t_arr then
          match dequeue q with
          | Some it ->
              serve it;
              catch_up ()
          | None -> ()
      in
      catch_up ();
      Option.iter
        (fun m -> Monitor.queue_depth m (depth q))
        (Service.monitor svc);
      let prio = priority_of config n in
      let it =
        {
          i_arrival = t_arr;
          i_deadline_at = t_arr +. config.a_deadline_us;
          i_prio = prio;
          i_arch = arch;
          i_n = n;
          i_cost_us = predicted_cost_us config svc arch n;
        }
      in
      match offer q it with
      | None ->
          incr admitted;
          Stats.admit stats ~interactive:(prio = Interactive)
      | Some victim when victim == it -> shed_one victim ~why:"newcomer"
      | Some victim ->
          (* the newcomer displaced queued work *)
          incr admitted;
          Stats.admit stats ~interactive:(prio = Interactive);
          shed_one victim ~why:"displaced")
    arrivals;
  (* drain *)
  let rec drain () =
    match dequeue q with
    | Some it ->
        serve it;
        drain ()
    | None -> ()
  in
  drain ();
  (* restore full service once the storm has passed *)
  if config.a_brownout && Service.brownout_level svc > 0 then
    Service.set_brownout svc 0;
  let makespan = !last_completion in
  {
    a_offered = List.length arrivals;
    a_admitted = !admitted;
    a_shed = !shed;
    a_expired = !expired;
    a_completed = !completed;
    a_deadline_errors = !deadline_errors;
    a_failed = !failed;
    a_goodput = !goodput;
    a_goodput_rps =
      (if makespan <= 0.0 then 0.0
       else float_of_int !goodput /. (makespan /. 1e6));
    a_violations = !violations;
    a_interactive_violations = !ivio;
    a_p50_us = percentile !latencies 50.0;
    a_p95_us = percentile !latencies 95.0;
    a_makespan_us = makespan;
    a_max_brownout = ctl.ctl_max;
  }

let pp_summary (fmt : Format.formatter) (s : summary) : unit =
  Format.fprintf fmt
    "offered %d  admitted %d  shed %d  expired %d@\n\
     completed %d  deadline errors %d  failed %d@\n\
     goodput %d (%.0f requests/sec)  violations %d (interactive %d)@\n\
     latency p50 %.0f us  p95 %.0f us  makespan %.1f ms  max brownout %d"
    s.a_offered s.a_admitted s.a_shed s.a_expired s.a_completed
    s.a_deadline_errors s.a_failed s.a_goodput s.a_goodput_rps s.a_violations
    s.a_interactive_violations s.a_p50_us s.a_p95_us (s.a_makespan_us /. 1e3)
    s.a_max_brownout
