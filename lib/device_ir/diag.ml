(* Structured diagnostics shared by the device-IR checkers (Validate,
   Race). One record per finding; stable codes; text and JSON renderers
   so the CLI, the service and the tests all print the same thing. *)

type severity = Error | Warn

type t = {
  code : string;
  severity : severity;
  kernel : string;
  loc : string;
  message : string;
}

let make ?(loc = "") ~code ~severity ~kernel message =
  { code; severity; kernel; loc; message }

let severity_name = function Error -> "error" | Warn -> "warning"

let to_string d =
  let where = if d.loc = "" then d.kernel else d.kernel ^ " @ " ^ d.loc in
  Printf.sprintf "%s[%s] %s: %s" (severity_name d.severity) d.code where d.message

let json d =
  Obs.Json.Obj
    [
      ("code", Obs.Json.Str d.code);
      ("severity", Obs.Json.Str (severity_name d.severity));
      ("kernel", Obs.Json.Str d.kernel);
      ("loc", Obs.Json.Str d.loc);
      ("message", Obs.Json.Str d.message);
    ]

let list_json ds = Obs.Json.Arr (List.map json ds)
let to_json d = Obs.Json.to_string (json d)
let list_to_json ds = Obs.Json.to_string (list_json ds)

let render ds = String.concat "\n" (List.map to_string ds)

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warn) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let summary ds =
  let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  match (List.length (errors ds), List.length (warnings ds)) with
  | 0, 0 -> "clean"
  | ne, 0 -> plural ne "error"
  | 0, nw -> plural nw "warning"
  | ne, nw -> plural ne "error" ^ ", " ^ plural nw "warning"

let compare_t a b =
  let sev = function Error -> 0 | Warn -> 1 in
  match compare (sev a.severity) (sev b.severity) with
  | 0 -> (
      match compare a.code b.code with
      | 0 -> (
          match compare a.kernel b.kernel with
          | 0 -> compare a.loc b.loc
          | c -> c)
      | c -> c)
  | c -> c

let sort ds = List.stable_sort compare_t ds

let dedup ds =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun d ->
      let key = (d.code, d.kernel, d.loc) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ds

(* ------------------------------------------------------------------ *)
(* Code registry                                                       *)
(* ------------------------------------------------------------------ *)

type info = {
  r_code : string;
  r_severity : severity;
  r_source : string;
  r_meaning : string;
}

(* every stable code any checker can emit, in catalogue order; the
   [tangramc codes] listing and the registry-completeness test both read
   this table *)
let registry : info list =
  let e = Error and w = Warn in
  let mk r_code r_severity r_source r_meaning =
    { r_code; r_severity; r_source; r_meaning }
  in
  [
    mk "TVAL001" e "validate" "malformed device IR (unbound name, bad shape, or ill-typed construct)";
    mk "TSAN001" e "race" "write/write race: two threads store to the same location in one barrier phase";
    mk "TSAN002" e "race" "read/write race: a load may observe a concurrent store from another thread";
    mk "TSAN003" e "race" "lost update: non-atomic read-modify-write of a contended location";
    mk "TSAN004" e "race" "barrier under thread-divergent control flow (deadlock)";
    mk "TSAN005" e "race" "out-of-warp or malformed shuffle exchange";
    mk "TLINT001" w "race" "redundant back-to-back barrier with no memory traffic between";
    mk "TLINT002" w "race" "barrier that only orders warp-private traffic (warp-synchronous by construction)";
    mk "TLINT003" w "race" "atomic on a provably single-writer location";
    mk "TSYM001" e "prove" "symbolic result term refutes equivalence with the reference reduction";
    mk "TSYM002" e "prove" "symbolic execution aborted: program outside the provable fragment";
    mk "TSYM003" e "prove" "unsynchronized cross-warp or cross-block hazard found during proof";
    mk "TSYM004" e "prove" "shuffle with invalid width or out-of-warp geometry found during proof";
    mk "TPERF010" w "access" "uncoalesced global access: strided or scattered lane addresses need multiple transactions per warp";
    mk "TPERF011" w "access" "n-way shared-memory bank conflict: the access replays once per conflicting address";
    mk "TPERF012" w "access" "non-affine index escape: data-dependent address defeats the static coalescing/bank analysis";
    mk "TFLT001" w "fleet" "device fail-stopped and was marked dead; in-flight dispatch rerouted";
    mk "TFLT002" w "fleet" "health score crossed the ejection threshold: device taken out of the serving pool";
    mk "TFLT003" w "fleet" "ejected device passed readmission probes and rejoined the serving pool";
    mk "TFLT004" w "fleet" "first attempt overran the hedge deadline: speculative re-dispatch fired";
    mk "TFLT005" w "fleet" "device marked to drain: finishing in-flight work, taking no new dispatches";
    mk "TFLT006" w "fleet" "warm spare promoted into the serving pool";
    mk "TOBS001" w "obs" "SLO burn-rate alert fired: fast and slow windows both exceed the firing threshold";
    mk "TOBS002" w "obs" "flight recorder dumped an incident bundle (alert, confirmed corruption or device ejection)";
    mk "TOBS003" w "obs" "trace ring overflowed: the exported trace is known-incomplete";
    mk "TOBS004" w "obs" "benchmark cell regressed beyond tolerance against the committed baseline";
  ]

let lookup code = List.find_opt (fun r -> r.r_code = code) registry
let registered code = lookup code <> None

let registry_json () =
  Obs.Json.Arr
    (List.map
       (fun r ->
         Obs.Json.Obj
           [
             ("code", Obs.Json.Str r.r_code);
             ("severity", Obs.Json.Str (severity_name r.r_severity));
             ("source", Obs.Json.Str r.r_source);
             ("meaning", Obs.Json.Str r.r_meaning);
           ])
       registry)

exception Failed of t list

let () =
  Printexc.register_printer (function
    | Failed ds ->
        Some
          (Printf.sprintf "Diag.Failed (%s)\n%s" (summary ds) (render ds))
    | _ -> None)

let fail_on_errors ds =
  match errors ds with [] -> () | errs -> raise (Failed errs)
