(* The black-box flight recorder.

   A fixed-capacity ring holds a lightweight record of the last N
   served requests — virtual completion time, trace id, shape, outcome,
   predicted and observed latency. Recording is O(1) and allocation-
   light on purpose: the expensive artifact (the span tree) is NOT
   captured per request; only the trace id is, and the tree is
   extracted from [Obs.Trace]'s ring lazily at incident time, when cost
   no longer matters.

   When something goes wrong — an SLO alert fires, the guard confirms a
   silent corruption, the fleet ejects a device — [dump] freezes the
   ring into a self-contained JSON incident bundle: the triggering
   request (with its span tree if the trace ring still holds it), the
   surrounding request window, the SLO table, the fleet health table,
   the active brownout level and the latest metric snapshot. The bundle
   is everything a postmortem needs without a live process to query —
   the flight-recorder contract.

   Bundles accumulate in a bounded list (oldest evicted) and can be
   written to disk by the CLI's --incident-dir. *)

module Json = Obs.Json

type record = {
  rc_seq : int;
  rc_now_us : float;  (** virtual completion time *)
  rc_tid : int;  (** trace id; 0 when tracing was off *)
  rc_arch : string;
  rc_n : int;
  rc_predicted_us : float;
  rc_latency_us : float;
  rc_outcome : string;
}

type trigger = Alert of string | Sdc | Eject of string

let trigger_kind = function
  | Alert _ -> "alert"
  | Sdc -> "sdc"
  | Eject _ -> "device-eject"

let trigger_detail = function
  | Alert slo -> [ ("slo", Json.Str slo) ]
  | Sdc -> []
  | Eject device -> [ ("device", Json.Str device) ]

type incident = {
  in_seq : int;  (** sequence number of the triggering request *)
  in_now_us : float;
  in_trigger : trigger;
  in_json : Json.t;
}

type t = {
  ring : record option array;
  mutable head : int;
  mutable size : int;
  mutable seq : int;
  keep : int;
  mutable incs : incident list;  (** newest first, length <= keep *)
  mutable dumped : int;  (** lifetime incident count *)
}

let default_capacity = 128
let default_keep = 16

let create ?(capacity = default_capacity) ?(keep_incidents = default_keep) ()
    : t =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be positive";
  if keep_incidents < 1 then
    invalid_arg "Recorder.create: keep_incidents must be positive";
  { ring = Array.make capacity None; head = 0; size = 0; seq = 0;
    keep = keep_incidents; incs = []; dumped = 0 }

let capacity (t : t) : int = Array.length t.ring

let note (t : t) ~(now_us : float) ~(arch : string) ~(n : int)
    ~(predicted_us : float) ~(latency_us : float) ~(outcome : string) : record =
  t.seq <- t.seq + 1;
  let r =
    { rc_seq = t.seq; rc_now_us = now_us; rc_tid = Obs.Trace.current_tid ();
      rc_arch = arch; rc_n = n; rc_predicted_us = predicted_us;
      rc_latency_us = latency_us; rc_outcome = outcome }
  in
  let cap = Array.length t.ring in
  t.ring.(t.head) <- Some r;
  t.head <- (t.head + 1) mod cap;
  if t.size < cap then t.size <- t.size + 1;
  r

(* buffered records, oldest first *)
let records (t : t) : record list =
  let cap = Array.length t.ring in
  let start = (t.head - t.size + cap) mod cap in
  List.init t.size (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some r -> r
      | None -> assert false)

let last (t : t) : record option =
  if t.size = 0 then None
  else t.ring.((t.head - 1 + Array.length t.ring) mod Array.length t.ring)

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let record_json (r : record) : Json.t =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int r.rc_seq));
      ("now_us", Json.Num r.rc_now_us);
      ("tid", Json.Num (float_of_int r.rc_tid));
      ("arch", Json.Str r.rc_arch);
      ("n", Json.Num (float_of_int r.rc_n));
      ("predicted_us", Json.Num r.rc_predicted_us);
      ("latency_us", Json.Num r.rc_latency_us);
      ("outcome", Json.Str r.rc_outcome);
    ]

let rec span_json (n : Obs.Trace.node) : Json.t =
  Json.Obj
    [
      ("name", Json.Str n.Obs.Trace.n_name);
      ("start_us", Json.Num n.n_start_us);
      ("dur_us", Json.Num n.n_dur_us);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) n.n_attrs));
      ( "marks",
        Json.Arr
          (List.map
             (fun (name, attrs) ->
               Json.Obj
                 (("name", Json.Str name)
                 :: List.map (fun (k, v) -> (k, Json.Str v)) attrs))
             n.n_marks) );
      ("children", Json.Arr (List.map span_json n.n_children));
    ]

(* the trigger request's span tree, rebuilt from the trace ring by
   trace id; Null when tracing was off or the ring already evicted it *)
let span_tree_of_tid (tid : int) : Json.t =
  if tid = 0 || not (Obs.Trace.enabled ()) then Json.Null
  else
    match
      List.find_opt
        (fun (n : Obs.Trace.node) -> n.Obs.Trace.n_tid = tid)
        (Obs.Trace.forest ())
    with
    | Some n -> span_json n
    | None -> Json.Null

let schema = "tangram-incident/1"

let dump (t : t) ~(now_us : float) ~(trigger : trigger) ?(slos = Json.Null)
    ?(fleet = Json.Null) ?(brownout = 0) ?(metrics = Json.Null) () : incident =
  let trigger_rec = last t in
  let seq = match trigger_rec with Some r -> r.rc_seq | None -> t.seq in
  let request =
    match trigger_rec with
    | None -> Json.Null
    | Some r -> (
        match record_json r with
        | Json.Obj fields ->
            Json.Obj (fields @ [ ("spans", span_tree_of_tid r.rc_tid) ])
        | other -> other)
  in
  let bundle =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("seq", Json.Num (float_of_int seq));
        ("now_us", Json.Num now_us);
        ( "trigger",
          Json.Obj
            (("kind", Json.Str (trigger_kind trigger))
            :: trigger_detail trigger) );
        ("request", request);
        ("window", Json.Arr (List.map record_json (records t)));
        ("slos", slos);
        ("fleet", fleet);
        ("brownout", Json.Num (float_of_int brownout));
        ("metrics", metrics);
        ("trace_dropped", Json.Num (float_of_int (Obs.Trace.dropped ())));
      ]
  in
  let inc =
    { in_seq = seq; in_now_us = now_us; in_trigger = trigger; in_json = bundle }
  in
  t.dumped <- t.dumped + 1;
  t.incs <- inc :: t.incs;
  (let rec take k = function
     | [] -> []
     | _ when k = 0 -> []
     | x :: rest -> x :: take (k - 1) rest
   in
   t.incs <- take t.keep t.incs);
  inc

(* newest first *)
let incidents (t : t) : incident list = t.incs
let incidents_dumped (t : t) : int = t.dumped

(* ------------------------------------------------------------------ *)
(* Bundle validation (the test/CI contract)                            *)
(* ------------------------------------------------------------------ *)

let validate_bundle (doc : Json.t) : (unit, string) result =
  let mem k = Json.member k doc in
  let require k =
    match mem k with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "missing key %S" k)
  in
  let ( let* ) = Result.bind in
  let* () =
    match Option.bind (mem "schema") Json.to_str with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "unknown schema %S" s)
    | None -> Error "missing schema"
  in
  let* () = require "seq" in
  let* () = require "now_us" in
  let* () =
    match Option.bind (mem "trigger") (Json.member "kind") with
    | Some (Json.Str ("alert" | "sdc" | "device-eject")) -> Ok ()
    | Some (Json.Str k) -> Error (Printf.sprintf "unknown trigger kind %S" k)
    | _ -> Error "missing trigger.kind"
  in
  let* () =
    match Option.bind (mem "window") Json.to_list with
    | Some _ -> Ok ()
    | None -> Error "missing window array"
  in
  let* () = require "request" in
  let* () = require "brownout" in
  Ok ()

let validate_bundle_string (src : string) : (unit, string) result =
  match Json.of_string src with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> validate_bundle doc

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let incident_to_string (inc : incident) : string = Json.to_string inc.in_json

let save_incident (inc : incident) (path : string) : unit =
  let oc = open_out path in
  output_string oc (incident_to_string inc);
  output_char oc '\n';
  close_out oc

(* one file per retained incident: <dir>/incident-<seq>-<kind>.json;
   returns the written paths, oldest incident first *)
let save_all (t : t) (dir : string) : string list =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.rev_map
    (fun inc ->
      let path =
        Filename.concat dir
          (Printf.sprintf "incident-%04d-%s.json" inc.in_seq
             (trigger_kind inc.in_trigger))
      in
      save_incident inc path;
      path)
    t.incs
