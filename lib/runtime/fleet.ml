(* A simulated multi-device fleet.

   The fleet owns N device slots, each with its own arch descriptor,
   seeded fault stream, failure profile and in-flight counter. The
   service asks the router for a device per request; the router picks
   the least-loaded device among the healthy ones, spills over to
   suspect devices when no healthy one is routable, and never offers a
   dead, ejected, draining or spare device (ejected devices do get a
   periodic readmission probe — that is how a recovered device earns
   its way back in).

   Health is an EWMA of the predicted/observed latency ratio: the
   static cost model prices each dispatch without executing anything,
   so a fail-slow device shows up as ratio drift (predicted ≪ observed)
   even while it keeps answering correctly — the straggler case plain
   liveness checks miss. The scorer ejects below a threshold and
   readmits above a higher one (hysteresis), so a device oscillating
   around the boundary cannot flap.

   Everything here is deterministic: device death dispatches and flaky
   fault schedules come from seeded streams, routing is a pure function
   of fleet state, and "time" is the simulator's virtual microseconds —
   replays are bit-stable, which the chaos CI depends on. *)

module Fault = Gpusim.Fault

type state = Spare | Active | Draining | Drained | Ejected | Dead

let state_name = function
  | Spare -> "spare"
  | Active -> "active"
  | Draining -> "draining"
  | Drained -> "drained"
  | Ejected -> "ejected"
  | Dead -> "dead"

type device = {
  d_id : int;
  d_arch : Gpusim.Arch.t;
  d_profile : Fault.profile;
  d_fault : Fault.t option;
  mutable d_state : state;
  mutable d_inflight : int;
  mutable d_dispatches : int;  (* lifetime; drives the profile clock *)
  mutable d_health : float;  (* EWMA of predicted/observed, 1.0 = nominal *)
  mutable d_busy_us : float;  (* virtual device-busy time *)
  mutable d_hedge_wins : int;
}

type config = {
  fl_alpha : float;  (* EWMA weight of the newest ratio sample *)
  fl_suspect_below : float;  (* healthy above, suspect (spillover-only) below *)
  fl_eject_below : float;  (* ejected below *)
  fl_readmit_above : float;  (* an ejected device readmits above (> eject: hysteresis) *)
  fl_probe_period : int;  (* fleet dispatches between readmission probes *)
  fl_failure_penalty : float;  (* ratio sample charged for a failed dispatch *)
  fl_hedge_mult : float;  (* hedge deadline = observed p95 x this *)
  fl_hedge_min_samples : int;  (* latency samples before hedging arms *)
}

let default_config =
  {
    fl_alpha = 0.3;
    fl_suspect_below = 0.6;
    fl_eject_below = 0.3;
    fl_readmit_above = 0.7;
    fl_probe_period = 32;
    fl_failure_penalty = 0.0;
    fl_hedge_mult = 2.0;
    fl_hedge_min_samples = 16;
  }

type spec = { sp_arch : Gpusim.Arch.t; sp_profile : Fault.profile; sp_spare : bool }

let spec ?(profile = Fault.Healthy) ?(spare = false) arch =
  { sp_arch = arch; sp_profile = profile; sp_spare = spare }

(* recent observed completion latencies, for the p95 the hedge deadline
   prices against *)
type ring = { r_buf : float array; mutable r_fill : int; mutable r_pos : int }

type t = {
  cfg : config;
  all : device array;
  mutable stats : Stats.t option;
  mutable hedging : bool;
  mutable total : int;  (* total fleet dispatches *)
  lat : ring;
  mutable on_eject : (device -> unit) option;
      (* fired after an ejection is recorded; the service points this at
         the flight recorder so the bundle captures the ejection moment *)
}

(* log-event codes, registered in Device_ir.Diag's registry so
   [tangramc codes] stays the one complete catalogue *)
let event_codes =
  [
    ("TFLT001", "device fail-stopped and was marked dead; the dispatch was rerouted");
    ("TFLT002", "health score crossed the eject threshold: device ejected from the serving pool");
    ("TFLT003", "ejected device recovered through readmission probes and rejoined the pool");
    ("TFLT004", "first attempt overran the hedge deadline: speculative re-dispatch fired");
    ("TFLT005", "device marked to drain: finishes in-flight work, takes no new dispatches");
    ("TFLT006", "warm spare promoted into the serving pool");
  ]

let label (d : device) : string =
  Printf.sprintf "d%d:%s" d.d_id d.d_arch.Gpusim.Arch.name

let check_config (c : config) : unit =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if not (c.fl_alpha > 0.0 && c.fl_alpha <= 1.0) then
    bad "Fleet.create: alpha %g outside (0, 1]" c.fl_alpha;
  if c.fl_eject_below < 0.0 then
    bad "Fleet.create: eject threshold %g negative" c.fl_eject_below;
  if c.fl_suspect_below < c.fl_eject_below then
    bad "Fleet.create: suspect threshold %g below eject threshold %g"
      c.fl_suspect_below c.fl_eject_below;
  if c.fl_readmit_above <= c.fl_eject_below then
    bad "Fleet.create: readmit threshold %g must exceed eject threshold %g (hysteresis)"
      c.fl_readmit_above c.fl_eject_below;
  if c.fl_probe_period < 1 then
    bad "Fleet.create: probe period %d < 1" c.fl_probe_period;
  if c.fl_failure_penalty < 0.0 then
    bad "Fleet.create: failure penalty %g negative" c.fl_failure_penalty;
  if c.fl_hedge_mult <= 0.0 then
    bad "Fleet.create: hedge multiplier %g must be positive" c.fl_hedge_mult;
  if c.fl_hedge_min_samples < 1 then
    bad "Fleet.create: hedge min samples %d < 1" c.fl_hedge_min_samples

let create ?(config = default_config) ?(seed = 0) (specs : spec list) : t =
  check_config config;
  if specs = [] then invalid_arg "Fleet.create: empty device list";
  if List.for_all (fun s -> s.sp_spare) specs then
    invalid_arg "Fleet.create: every device is a spare";
  let all =
    Array.of_list
      (List.mapi
         (fun i s ->
           Fault.check_profile s.sp_profile;
           let fault =
             let rate = Fault.profile_fault_rate s.sp_profile in
             if rate > 0.0 then
               (* flaky devices inject retryable transients from a
                  private stream, decorrelated per slot *)
               Some
                 (Fault.create
                    (Fault.plan ~rate
                       ~mix:[ (Fault.Transient, 1.0) ]
                       ~seed:(seed + (7919 * (i + 1)))
                       ()))
             else None
           in
           {
             d_id = i;
             d_arch = s.sp_arch;
             d_profile = s.sp_profile;
             d_fault = fault;
             d_state = (if s.sp_spare then Spare else Active);
             d_inflight = 0;
             d_dispatches = 0;
             d_health = 1.0;
             d_busy_us = 0.0;
             d_hedge_wins = 0;
           })
         specs)
  in
  {
    cfg = config;
    all;
    stats = None;
    hedging = false;
    total = 0;
    lat = { r_buf = Array.make 512 0.0; r_fill = 0; r_pos = 0 };
    on_eject = None;
  }

let st (t : t) (f : Stats.t -> unit) : unit =
  match t.stats with Some s -> f s | None -> ()

let set_stats (t : t) (stats : Stats.t) : unit =
  t.stats <- Some stats;
  (* seed every device's row so the report shows the whole fleet, idle
     slots included *)
  Array.iter
    (fun d ->
      Stats.fleet_state stats ~device:(label d) ~health:d.d_health
        (state_name d.d_state))
    t.all

let set_hedging (t : t) (b : bool) : unit = t.hedging <- b
let hedging (t : t) : bool = t.hedging
let set_on_eject (t : t) (f : device -> unit) : unit = t.on_eject <- Some f

(* ------------------------------------------------------------------ *)
(* Lifecycle transitions                                               *)
(* ------------------------------------------------------------------ *)

let event (t : t) (d : device) ~(code : string) ~(mark : string) fmt =
  Printf.ksprintf
    (fun msg ->
      Obs.Trace.mark
        ~attrs:[ ("code", code); ("device", label d) ]
        mark;
      Obs.Log.warn
        ~fields:
          [
            ("code", code);
            ("device", label d);
            ("state", state_name d.d_state);
            ("health", Printf.sprintf "%.3f" d.d_health);
          ]
        "%s" msg;
      ignore t)
    fmt

let set_state (t : t) (d : device) (s : state) : unit =
  d.d_state <- s;
  st t (fun x ->
      Stats.fleet_state x ~device:(label d) ~health:d.d_health (state_name s))

let promote_spare (t : t) : unit =
  match Array.find_opt (fun d -> d.d_state = Spare) t.all with
  | None -> ()
  | Some sp ->
      set_state t sp Active;
      st t Stats.fleet_promote;
      event t sp ~code:"TFLT006" ~mark:"fleet.promote"
        "warm spare %s promoted into the serving pool" (label sp)

let mark_dead (t : t) (d : device) : unit =
  set_state t d Dead;
  st t Stats.fleet_dead;
  event t d ~code:"TFLT001" ~mark:"fleet.dead"
    "device %s fail-stopped at dispatch %d; marked dead" (label d)
    (d.d_dispatches + 1);
  promote_spare t

let eject (t : t) (d : device) : unit =
  set_state t d Ejected;
  st t (fun x -> Stats.fleet_eject x ~device:(label d));
  event t d ~code:"TFLT002" ~mark:"fleet.eject"
    "device %s ejected: health %.3f below %.2f" (label d) d.d_health
    t.cfg.fl_eject_below;
  promote_spare t;
  match t.on_eject with Some f -> f d | None -> ()

let readmit (t : t) (d : device) : unit =
  set_state t d Active;
  st t (fun x -> Stats.fleet_readmit x ~device:(label d));
  event t d ~code:"TFLT003" ~mark:"fleet.readmit"
    "device %s readmitted: health %.3f above %.2f" (label d) d.d_health
    t.cfg.fl_readmit_above

let drain (t : t) (id : int) : unit =
  match Array.find_opt (fun d -> d.d_id = id) t.all with
  | None -> invalid_arg (Printf.sprintf "Fleet.drain: no device %d" id)
  | Some d -> (
      match d.d_state with
      | Dead | Draining | Drained -> ()
      | Spare | Active | Ejected ->
          set_state t d (if d.d_inflight = 0 then Drained else Draining);
          st t Stats.fleet_drain;
          event t d ~code:"TFLT005" ~mark:"fleet.drain"
            "device %s draining: %d in flight, taking no new work" (label d)
            d.d_inflight;
          promote_spare t)

(* the operator's inverse of drain/eject: a drained or ejected (not
   dead) device rejoins the pool with a clean bill of health *)
let activate (t : t) (id : int) : unit =
  match Array.find_opt (fun d -> d.d_id = id) t.all with
  | None -> invalid_arg (Printf.sprintf "Fleet.activate: no device %d" id)
  | Some d -> (
      match d.d_state with
      | Dead -> invalid_arg (Printf.sprintf "Fleet.activate: device %d is dead" id)
      | Active | Draining -> ()
      | Spare | Drained | Ejected ->
          d.d_health <- 1.0;
          set_state t d Active)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let less_loaded (a : device) (b : device) : bool =
  (a.d_inflight, a.d_dispatches, a.d_id) < (b.d_inflight, b.d_dispatches, b.d_id)

let pick (pool : device list) : device option =
  List.fold_left
    (fun best d ->
      match best with
      | None -> Some d
      | Some b -> if less_loaded d b then Some d else best)
    None pool

let routable ?excluding (d : device) : bool =
  d.d_state = Active
  && match excluding with Some e -> e.d_id <> d.d_id | None -> true

(* Least-loaded among the healthy; spillover to suspect devices when no
   healthy one is routable; never a dead, draining, ejected or spare
   device. Every [fl_probe_period]-th dispatch instead probes the
   lowest-health ejected or suspect device (probes carry real traffic —
   the observation they produce is what keeps the score converging:
   back above readmission for a recovered device, down through the
   ejection threshold for a fail-slow one that regular routing has
   stopped feeding). When nothing is routable, a warm spare is promoted
   and routing retried once. *)
let route ?excluding ?(probe = true) (t : t) : device option =
  let candidates () =
    Array.to_list t.all |> List.filter (routable ?excluding)
  in
  let probe_target =
    if probe && t.total > 0 && t.total mod t.cfg.fl_probe_period = 0 then begin
      let lowest_health pool =
        List.fold_left
          (fun best d ->
            match best with
            | None -> Some d
            | Some b ->
                if (d.d_health, d.d_id) < (b.d_health, b.d_id) then Some d
                else best)
          None pool
      in
      let probeable state_ok =
        Array.to_list t.all
        |> List.filter (fun d ->
               state_ok d
               && match excluding with Some e -> e.d_id <> d.d_id | None -> true)
      in
      (* suspect devices first: they are still undecided and the scorer
         must converge them; ejected devices (already decided) are only
         probed for recovery once no suspect is waiting *)
      match
        lowest_health
          (probeable (fun d ->
               d.d_state = Active && d.d_health < t.cfg.fl_suspect_below))
      with
      | Some d -> Some d
      | None -> lowest_health (probeable (fun d -> d.d_state = Ejected))
    end
    else None
  in
  match probe_target with
  | Some d -> Some d
  | None -> (
      let actives =
        match candidates () with
        | [] ->
            promote_spare t;
            candidates ()
        | l -> l
      in
      match
        List.filter (fun d -> d.d_health >= t.cfg.fl_suspect_below) actives
      with
      | [] -> pick actives (* spillover to suspect *)
      | healthy -> pick healthy)

(* ------------------------------------------------------------------ *)
(* Dispatch accounting and the health scorer                           *)
(* ------------------------------------------------------------------ *)

(* would the device's fail-stop profile kill it on its next dispatch?
   checked before [begin_dispatch], so a dying device never receives
   the request — the router bounces it to another device instead *)
let next_dispatch_kills (d : device) : bool =
  Fault.profile_dead d.d_profile ~dispatch:(d.d_dispatches + 1)

let reroute (t : t) : unit = st t Stats.fleet_reroute

let begin_dispatch (t : t) (d : device) : unit =
  t.total <- t.total + 1;
  d.d_dispatches <- d.d_dispatches + 1;
  d.d_inflight <- d.d_inflight + 1;
  st t (fun x -> Stats.fleet_dispatch x ~device:(label d))

let end_dispatch (t : t) (d : device) : unit =
  d.d_inflight <- Stdlib.max 0 (d.d_inflight - 1);
  if d.d_state = Draining && d.d_inflight = 0 then set_state t d Drained

(* throughput multiplier of the in-progress dispatch (1-based clock) *)
let slowdown (d : device) : float =
  Fault.profile_slowdown d.d_profile ~dispatch:d.d_dispatches

let fault_stream (d : device) : Fault.t option = d.d_fault
let charge_busy (d : device) (us : float) : unit =
  d.d_busy_us <- d.d_busy_us +. us

(* EWMA update from one dispatch's predicted/observed ratio (1.0 = as
   fast as the static cost model predicted; 0.1 = 10x slow). The sample
   is clamped to [0, 2] so one lucky dispatch cannot whitewash a
   straggler. Crossing the eject threshold ejects; an ejected device
   crossing the (higher) readmit threshold on probe traffic readmits. *)
let observe (t : t) (d : device) ~(ratio : float) : unit =
  let r = Float.max 0.0 (Float.min 2.0 ratio) in
  let a = t.cfg.fl_alpha in
  d.d_health <- ((1.0 -. a) *. d.d_health) +. (a *. r);
  st t (fun x ->
      Stats.fleet_health x ~device:(label d) ~state:(state_name d.d_state)
        d.d_health);
  match d.d_state with
  | Active | Draining ->
      if d.d_state = Active && d.d_health < t.cfg.fl_eject_below then eject t d
  | Ejected -> if d.d_health >= t.cfg.fl_readmit_above then readmit t d
  | Spare | Drained | Dead -> ()

(* a dispatch that produced no answer (every rung down on this device)
   is the worst possible health sample *)
let observe_failure (t : t) (d : device) : unit =
  observe t d ~ratio:t.cfg.fl_failure_penalty

(* ------------------------------------------------------------------ *)
(* Hedged execution                                                    *)
(* ------------------------------------------------------------------ *)

let note_latency (t : t) (us : float) : unit =
  let r = t.lat in
  r.r_buf.(r.r_pos) <- us;
  r.r_pos <- (r.r_pos + 1) mod Array.length r.r_buf;
  if r.r_fill < Array.length r.r_buf then r.r_fill <- r.r_fill + 1

let observed_p95_us (t : t) : float option =
  let r = t.lat in
  if r.r_fill = 0 then None
  else begin
    let sorted = Array.sub r.r_buf 0 r.r_fill in
    Array.sort compare sorted;
    let idx = int_of_float (ceil (0.95 *. float_of_int r.r_fill)) - 1 in
    Some sorted.(Stdlib.max 0 (Stdlib.min (r.r_fill - 1) idx))
  end

(* the speculative re-dispatch deadline: p95 of recently observed
   completion latencies times the configured multiplier; None until
   hedging is on and enough samples have accumulated *)
let hedge_deadline_us (t : t) : float option =
  if (not t.hedging) || t.lat.r_fill < t.cfg.fl_hedge_min_samples then None
  else
    match observed_p95_us t with
    | None -> None
    | Some p95 -> Some (p95 *. t.cfg.fl_hedge_mult)

let hedge_fired (t : t) (d : device) ~(deadline_us : float)
    ~(observed_us : float) : unit =
  st t Stats.fleet_hedge_fired;
  Obs.Trace.mark
    ~attrs:[ ("code", "TFLT004"); ("device", label d) ]
    "fleet.hedge";
  Obs.Log.info
    ~fields:
      [
        ("code", "TFLT004");
        ("device", label d);
        ("observed_us", Printf.sprintf "%.1f" observed_us);
        ("deadline_us", Printf.sprintf "%.1f" deadline_us);
      ]
    "hedge fired: %s took %.1f us against a %.1f us deadline" (label d)
    observed_us deadline_us

let hedge_won (t : t) (d : device) : unit =
  d.d_hedge_wins <- d.d_hedge_wins + 1;
  st t (fun x -> Stats.fleet_hedge_won x ~device:(label d))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let devices (t : t) : device list = Array.to_list t.all
let find (t : t) (id : int) : device option =
  Array.find_opt (fun d -> d.d_id = id) t.all

let id (d : device) = d.d_id
let arch (d : device) = d.d_arch
let profile (d : device) = d.d_profile
let dev_state (d : device) = d.d_state
let health (d : device) = d.d_health
let dispatches (d : device) = d.d_dispatches
let busy_us (d : device) = d.d_busy_us
let hedge_wins (d : device) = d.d_hedge_wins

(* injected-faulty devices the scorer has not yet taken out of the
   serving pool — the bench's acceptance gate requires this empty *)
let undetected_faulty (t : t) : device list =
  Array.to_list t.all
  |> List.filter (fun d ->
         (match d.d_profile with
         | Fault.Fail_stop _ | Fault.Fail_slow _ | Fault.Flaky _ -> true
         | Fault.Healthy | Fault.Recovering _ -> false)
         && match d.d_state with
            | Active | Draining | Spare -> true
            | Dead | Ejected | Drained -> false)
