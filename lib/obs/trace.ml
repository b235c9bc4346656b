(* Span-based tracing with a ring-buffered in-memory sink.

   The service opens one root span per request under a fresh trace id
   ([with_request]); every nested operation — plan-cache lookup,
   planning, tuning sweep, each compile, each simulated kernel run,
   retries, fallback-rung descents, SDC re-executions, witness checks —
   wraps itself in [span], and instantaneous facts (a retry fired, a
   rung was quarantined) are [mark]ed. Events land in a fixed-capacity
   ring in strict chronological order; when tracing is disabled every
   entry point is a single load-and-branch, so the instrumentation can
   stay in the hot paths permanently.

   Export is Chrome trace_event JSON (B/E duration events plus "i"
   instants), loadable in Perfetto / chrome://tracing. The trace id is
   the Chrome [tid], so each request renders as its own track. The ring
   may have overwritten the B of a still-buffered E (oldest events go
   first): the exporter drops such orphan Es and synthesizes Es for
   spans still open at export time, so the emitted file is always
   balanced and monotone — which the CI validator re-checks from the
   file alone. *)

type ph = B | E | I

type event = {
  ev_ph : ph;
  ev_name : string;
  ev_tid : int;
  ev_ts : float;  (** microseconds *)
  ev_attrs : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false
let enabled () : bool = !enabled_flag

let default_capacity = 1 lsl 18

type ring = {
  mutable buf : event option array;
  mutable head : int;  (** next write position *)
  mutable size : int;
  mutable dropped : int;  (** events overwritten since the last [clear] *)
}

let ring =
  { buf = Array.make default_capacity None; head = 0; size = 0; dropped = 0 }

let tid_counter = ref 0
let cur_tid = ref 0
let current_tid () : int = !cur_tid

(* The clock is injectable (golden tests run on a fake one); recorded
   timestamps are clamped monotone so a stepping wall clock cannot
   produce an invalid trace, and rebased to the first recorded event so
   a trace's timestamps stay small — epoch microseconds (~1.8e15) would
   shed sub-millisecond precision through a double and its JSON
   rendering. *)
let clock = ref (fun () -> Unix.gettimeofday () *. 1e6)
let last_ts = ref neg_infinity
let base_ts = ref None

let set_clock (c : unit -> float) : unit =
  clock := c;
  last_ts := neg_infinity;
  base_ts := None

let now () : float =
  let raw = !clock () in
  let base =
    match !base_ts with
    | Some b -> b
    | None ->
        base_ts := Some raw;
        raw
  in
  let t = raw -. base in
  let t = if t > !last_ts then t else !last_ts in
  last_ts := t;
  t

let clear () : unit =
  Array.fill ring.buf 0 (Array.length ring.buf) None;
  ring.head <- 0;
  ring.size <- 0;
  ring.dropped <- 0;
  tid_counter := 0;
  cur_tid := 0;
  last_ts := neg_infinity;
  base_ts := None

let set_capacity (n : int) : unit =
  if n < 1 then invalid_arg "Obs.Trace.set_capacity: capacity must be positive";
  ring.buf <- Array.make n None;
  clear ();
  (* a large ring leaves major-GC work behind; do it now rather than in
     the first allocation of whatever is traced next *)
  ignore (Gc.major_slice 0)

let capacity () : int = Array.length ring.buf
let dropped () : int = ring.dropped

let set_enabled (b : bool) : unit = enabled_flag := b

let push (ev : event) : unit =
  let cap = Array.length ring.buf in
  if ring.buf.(ring.head) <> None then ring.dropped <- ring.dropped + 1;
  ring.buf.(ring.head) <- Some ev;
  ring.head <- (ring.head + 1) mod cap;
  if ring.size < cap then ring.size <- ring.size + 1

(** Buffered events, oldest first (chronological by construction). *)
let events () : event list =
  let cap = Array.length ring.buf in
  let start = (ring.head - ring.size + cap) mod cap in
  List.init ring.size (fun i ->
      match ring.buf.((start + i) mod cap) with
      | Some ev -> ev
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let span ?(attrs : (string * string) list = []) ~(name : string)
    (f : unit -> 'a) : 'a =
  if not !enabled_flag then f ()
  else begin
    let tid = !cur_tid in
    push { ev_ph = B; ev_name = name; ev_tid = tid; ev_ts = now (); ev_attrs = attrs };
    Fun.protect
      ~finally:(fun () ->
        push { ev_ph = E; ev_name = name; ev_tid = tid; ev_ts = now (); ev_attrs = [] })
      f
  end

let mark ?(attrs : (string * string) list = []) (name : string) : unit =
  if !enabled_flag then
    push { ev_ph = I; ev_name = name; ev_tid = !cur_tid; ev_ts = now (); ev_attrs = attrs }

let fresh_tid () : int =
  incr tid_counter;
  !tid_counter

let with_request ?(attrs : (string * string) list = []) ~(name : string)
    (f : unit -> 'a) : 'a =
  if not !enabled_flag then f ()
  else begin
    let parent = !cur_tid in
    cur_tid := fresh_tid ();
    Fun.protect
      ~finally:(fun () -> cur_tid := parent)
      (fun () -> span ~attrs ~name f)
  end

(* ------------------------------------------------------------------ *)
(* Matching: balanced view of the ring                                 *)
(* ------------------------------------------------------------------ *)

(* Pair up B/E events per trace id. Orphan Es (their B was overwritten)
   are dropped; spans still open when this runs get a synthetic E at the
   newest buffered timestamp. The result is a balanced, chronological
   event list. *)
let balanced_events () : event list =
  let evs = Array.of_list (events ()) in
  let n = Array.length evs in
  let keep = Array.make n true in
  let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  Array.iteri
    (fun i ev ->
      match ev.ev_ph with
      | I -> ()
      | B -> (
          let s = stack_of ev.ev_tid in
          s := i :: !s)
      | E -> (
          let s = stack_of ev.ev_tid in
          match !s with
          | top :: rest -> ignore top; s := rest
          | [] -> keep.(i) <- false))
    evs;
  let tail = ref [] in
  let close_ts = if n = 0 then 0.0 else evs.(n - 1).ev_ts in
  (* synthesize closes innermost-first per tid; cross-tid order does not
     matter for balance, and timestamps tie at the newest event *)
  Hashtbl.iter
    (fun _tid s ->
      List.iter
        (fun i ->
          let b = evs.(i) in
          tail :=
            { ev_ph = E; ev_name = b.ev_name; ev_tid = b.ev_tid; ev_ts = close_ts;
              ev_attrs = [] }
            :: !tail)
        !s)
    stacks;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then kept := evs.(i) :: !kept
  done;
  !kept @ List.rev !tail

(* ------------------------------------------------------------------ *)
(* Span trees (for tests and the profiler)                             *)
(* ------------------------------------------------------------------ *)

type node = {
  n_name : string;
  n_tid : int;
  n_start_us : float;
  n_dur_us : float;
  n_attrs : (string * string) list;
  n_marks : (string * (string * string) list) list;
      (** instants recorded directly under this span, oldest first *)
  n_children : node list;
}

let forest () : node list =
  (* per-tid stacks of open nodes; children accumulate reversed *)
  let open_stacks :
      (int, (event * node list ref * (string * (string * string) list) list ref) list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let stack_of tid =
    match Hashtbl.find_opt open_stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add open_stacks tid s;
        s
  in
  let roots = ref [] in
  List.iter
    (fun ev ->
      let s = stack_of ev.ev_tid in
      match ev.ev_ph with
      | B -> s := (ev, ref [], ref []) :: !s
      | I -> (
          match !s with
          | (_, _, marks) :: _ -> marks := (ev.ev_name, ev.ev_attrs) :: !marks
          | [] -> ())
      | E -> (
          match !s with
          | (b, children, marks) :: rest ->
              s := rest;
              let node =
                {
                  n_name = b.ev_name;
                  n_tid = b.ev_tid;
                  n_start_us = b.ev_ts;
                  n_dur_us = ev.ev_ts -. b.ev_ts;
                  n_attrs = b.ev_attrs;
                  n_marks = List.rev !marks;
                  n_children = List.rev !children;
                }
              in
              (match !s with
              | (_, parent_children, _) :: _ ->
                  parent_children := node :: !parent_children
              | [] -> roots := node :: !roots)
          | [] -> ()))
    (balanced_events ());
  List.rev !roots

let rec fold_nodes (f : 'a -> node -> 'a) (acc : 'a) (nodes : node list) : 'a =
  List.fold_left (fun acc n -> fold_nodes f (f acc n) n.n_children) acc nodes

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let pid = 1

let event_to_json (ev : event) : Json.t =
  let base =
    [
      ("name", Json.Str ev.ev_name);
      ("cat", Json.Str "tangram");
      ("ph", Json.Str (match ev.ev_ph with B -> "B" | E -> "E" | I -> "i"));
      ("ts", Json.Num ev.ev_ts);
      ("pid", Json.Num (float_of_int pid));
      ("tid", Json.Num (float_of_int ev.ev_tid));
    ]
  in
  let base =
    match ev.ev_ph with I -> base @ [ ("s", Json.Str "t") ] | B | E -> base
  in
  let base =
    match ev.ev_attrs with
    | [] -> base
    | attrs ->
        base @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)) ]
  in
  Json.Obj base

let to_chrome_json () : string =
  (* a lossless trace emits exactly the historical two-key document (the
     golden file pins those bytes); only a ring that actually overwrote
     events grows the droppedEvents marker, which [validate_chrome]
     ignores and [chrome_dropped] reads back *)
  let base =
    [
      ("traceEvents", Json.Arr (List.map event_to_json (balanced_events ())));
      ("displayTimeUnit", Json.Str "ms");
    ]
  in
  let doc =
    if ring.dropped > 0 then
      base @ [ ("droppedEvents", Json.Num (float_of_int ring.dropped)) ]
    else base
  in
  Json.to_string (Json.Obj doc)

(* events the exporting ring had already overwritten, recorded in the
   document itself; 0 for a complete trace (or a pre-marker file) *)
let chrome_dropped (src : string) : int =
  match Json.of_string src with
  | Error _ -> 0
  | Ok doc -> (
      match Option.bind (Json.member "droppedEvents" doc) Json.to_float with
      | Some n when n > 0.0 -> int_of_float n
      | _ -> 0)

let chrome_dropped_file (path : string) : int =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    src
  with
  | src -> chrome_dropped src
  | exception Sys_error _ -> 0

let save (path : string) : unit =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Validation (the CI contract)                                        *)
(* ------------------------------------------------------------------ *)

(* Check a Chrome trace-event document the way the CI job does: the
   [traceEvents] array exists; every event carries ph/ts/pid/tid (and a
   name on B and i); timestamps never decrease in file order; and B/E
   events nest and balance per (pid, tid), names matching LIFO. Returns
   the event count. *)
let validate_chrome (src : string) : (int, string) result =
  match Json.of_string src with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_list with
      | None -> Error "missing traceEvents array"
      | Some evs -> (
          let stacks : (int * int, string list ref) Hashtbl.t =
            Hashtbl.create 16
          in
          let last = ref neg_infinity in
          let check i ev =
            let str name = Option.bind (Json.member name ev) Json.to_str in
            let num name = Option.bind (Json.member name ev) Json.to_float in
            let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt in
            match (str "ph", num "ts", num "pid", num "tid") with
            | None, _, _, _ -> fail "missing ph"
            | _, None, _, _ -> fail "missing ts"
            | _, _, None, _ -> fail "missing pid"
            | _, _, _, None -> fail "missing tid"
            | Some ph, Some ts, Some pid, Some tid -> (
                if ts < !last then fail "timestamp %g goes backwards (last %g)" ts !last
                else begin
                  last := ts;
                  let key = (int_of_float pid, int_of_float tid) in
                  let stack =
                    match Hashtbl.find_opt stacks key with
                    | Some s -> s
                    | None ->
                        let s = ref [] in
                        Hashtbl.add stacks key s;
                        s
                  in
                  match ph with
                  | "B" -> (
                      match str "name" with
                      | None -> fail "B event without a name"
                      | Some name ->
                          stack := name :: !stack;
                          Ok ())
                  | "E" -> (
                      match !stack with
                      | [] -> fail "E event with no open B on tid %g" tid
                      | _ :: rest ->
                          stack := rest;
                          Ok ())
                  | "i" | "I" ->
                      if str "name" = None then fail "instant event without a name"
                      else Ok ()
                  | other -> fail "unsupported phase %S" other
                end)
          in
          let rec go i = function
            | [] -> Ok ()
            | ev :: rest -> (
                match check i ev with Ok () -> go (i + 1) rest | Error _ as e -> e)
          in
          match go 0 evs with
          | Error _ as e -> e
          | Ok () ->
              let unbalanced = ref None in
              Hashtbl.iter
                (fun (pid, tid) s ->
                  match !s with
                  | [] -> ()
                  | name :: _ when !unbalanced = None ->
                      unbalanced :=
                        Some
                          (Printf.sprintf
                             "unclosed span %S on pid %d tid %d" name pid tid)
                  | _ -> ())
                stacks;
              (match !unbalanced with
              | Some msg -> Error msg
              | None -> Ok (List.length evs))))

let validate_chrome_file (path : string) : (int, string) result =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    src
  with
  | src -> validate_chrome src
  | exception Sys_error msg -> Error msg
