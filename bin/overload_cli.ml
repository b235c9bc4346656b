(* Overload-resilience flags of tangramc serve: --rate-rps turns the
   serve path into an open-loop replay through the admission queue, and
   --deadline-us/--queue-cap/--shed-policy/--brownout configure the
   protection valves. *)

open Cmdliner

type t = {
  rate_rps : float option;
  deadline_us : float;
  queue_cap : int;
  shed_policy : string;
  brownout : bool;
  no_deadline : bool;
}

let rate_rps_arg =
  let doc =
    "Replay the trace open-loop at this offered load (requests per virtual \
     second, Poisson arrivals) through the admission queue, instead of the \
     closed-loop batched replay. Prints the admission summary next to the \
     metrics report."
  in
  Arg.(
    value & opt (some float) None & info [ "rate-rps" ] ~doc ~docv:"RPS")

let deadline_us_arg =
  let doc =
    "Per-request deadline budget in virtual microseconds (open-loop mode \
     only)."
  in
  Arg.(
    value
    & opt float Tangram.Admission.default.Tangram.Admission.a_deadline_us
    & info [ "deadline-us" ] ~doc ~docv:"US")

let queue_cap_arg =
  let doc = "Admission queue capacity (open-loop mode only)." in
  Arg.(
    value
    & opt int Tangram.Admission.default.Tangram.Admission.a_queue_cap
    & info [ "queue-cap" ] ~doc ~docv:"N")

let shed_policy_arg =
  let doc =
    "Load-shedding policy when the queue is full: reject-newest, \
     reject-oldest or cost-aware."
  in
  Arg.(
    value & opt string "reject-newest"
    & info [ "shed-policy" ] ~doc ~docv:"POLICY")

let brownout_arg =
  let doc =
    "Run the brownout controller: shed optional work (profiling, redundant \
     re-execution, witness sampling, the device path itself) step by step \
     when the queue or latency says the service is melting."
  in
  Arg.(value & flag & info [ "brownout" ] ~doc)

let no_deadline_arg =
  let doc =
    "Measure deadlines but do not enforce them (the unprotected baseline)."
  in
  Arg.(value & flag & info [ "no-deadline" ] ~doc)

let term : t Term.t =
  let mk rate_rps deadline_us queue_cap shed_policy brownout no_deadline =
    { rate_rps; deadline_us; queue_cap; shed_policy; brownout; no_deadline }
  in
  Term.(
    const mk $ rate_rps_arg $ deadline_us_arg $ queue_cap_arg $ shed_policy_arg
    $ brownout_arg $ no_deadline_arg)

(** The parsed flags as an admission config. Exits with a usage error
    (2) on an unknown shed policy or a non-positive deadline/capacity,
    matching cmdliner's own convention. *)
let config ~(exe : string) (t : t) : Tangram.Admission.config =
  let policy =
    match Tangram.Admission.shed_policy_of_string t.shed_policy with
    | Some p -> p
    | None ->
        Printf.eprintf
          "%s: unknown shed policy %S (reject-newest|reject-oldest|cost-aware)\n"
          exe t.shed_policy;
        exit 2
  in
  if t.deadline_us <= 0.0 then begin
    Printf.eprintf "%s: --deadline-us must be positive\n" exe;
    exit 2
  end;
  if t.queue_cap < 1 then begin
    Printf.eprintf "%s: --queue-cap must be positive\n" exe;
    exit 2
  end;
  {
    Tangram.Admission.default with
    Tangram.Admission.a_queue_cap = t.queue_cap;
    a_shed_policy = policy;
    a_deadline_us = t.deadline_us;
    a_enforce_deadline = not t.no_deadline;
    a_brownout = t.brownout;
  }

(** Run the open-loop replay for a trace spec and print the admission
    summary. *)
let run_open_loop ~(exe : string) (t : t) ~(rate_rps : float)
    ?(dense_upto = 0) (svc : Tangram.Service.t) (spec : Tangram.Trace.spec) :
    Tangram.Admission.summary =
  if rate_rps <= 0.0 then begin
    Printf.eprintf "%s: --rate-rps must be positive\n" exe;
    exit 2
  end;
  let config = config ~exe t in
  let arrivals = Tangram.Trace.arrivals ~rate_rps spec in
  let summary = Tangram.Admission.replay ~config ~dense_upto svc arrivals in
  Format.printf "open-loop at %.0f rps (%s%s%s):@\n%a@\n@\n" rate_rps
    (Tangram.Admission.shed_policy_name config.Tangram.Admission.a_shed_policy)
    (if config.Tangram.Admission.a_enforce_deadline then
       Printf.sprintf ", deadline %.0f us"
         config.Tangram.Admission.a_deadline_us
     else ", deadline unenforced")
    (if config.Tangram.Admission.a_brownout then ", brownout" else "")
    Tangram.Admission.pp_summary summary;
  summary
