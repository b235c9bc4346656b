(* The plan cache: memoized outcomes of version selection and tuning.

   Keyed by (architecture, operation, element type, size bucket) — the
   quadruple Figures 7-10 show the winning version actually depends on.
   Bounded LRU with eviction counting; persists to an s-expression file
   (versions by stable name, tunables inline, compiled programs dropped
   and lazily rebuilt by the service after a load). *)

module V = Synthesis.Version
module S = Device_ir.Serialize

(* ------------------------------------------------------------------ *)
(* Size buckets                                                        *)
(* ------------------------------------------------------------------ *)

let bucket_of_size (n : int) : int =
  let rec go b k = if k <= 1 then b else go (b + 1) (k lsr 1) in
  go 0 n

let bucket_lo (b : int) : int = 1 lsl b
let bucket_hi (b : int) : int = (1 lsl (b + 1)) - 1
let representative_size = bucket_lo

(* ------------------------------------------------------------------ *)
(* Keys and entries                                                    *)
(* ------------------------------------------------------------------ *)

type key = { k_arch : string; k_op : string; k_elem : string; k_bucket : int }

let key ~arch ~op ~elem ~n =
  { k_arch = arch; k_op = op; k_elem = elem; k_bucket = bucket_of_size n }

let key_name (k : key) : string =
  Printf.sprintf "%s/%s/%s/#%d" k.k_arch k.k_op k.k_elem k.k_bucket

(* one rung of the bucket's fallback ladder: a surviving candidate with
   its tuned parameters, fastest first *)
type rung = {
  r_version : V.t;
  r_tunables : (string * int) list;
  r_time_us : float;
}

type entry = {
  e_version : V.t;
  e_tunables : (string * int) list;
  e_compiled : Gpusim.Runner.compiled_program option;
  e_tuned_n : int;
  e_tune_time_us : float;
  e_ranking : rung list;
      (** every surviving candidate, fastest first; [e_version] is its head
          (empty for entries predating the ranking format) *)
}

(* the ladder the service walks: the ranking, or the bare winner for
   legacy entries saved without one *)
let ladder (e : entry) : rung list =
  match e.e_ranking with
  | [] ->
      [ { r_version = e.e_version; r_tunables = e.e_tunables; r_time_us = 0.0 } ]
  | rungs -> rungs

(* ------------------------------------------------------------------ *)
(* The LRU table                                                       *)
(* ------------------------------------------------------------------ *)

type slot = { mutable s_entry : entry; mutable s_stamp : int }

type t = {
  cap : int;
  table : (key, slot) Hashtbl.t;
  mutable tick : int;
  mutable evicted : int;
  mutable journal : (string * out_channel) option;
      (** attached verdict journal: file path + open append channel *)
}

let default_capacity = 64

let create ?(capacity = default_capacity) () : t =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    cap = capacity;
    table = Hashtbl.create (2 * capacity);
    tick = 0;
    evicted = 0;
    journal = None;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let evictions t = t.evicted

let touch (t : t) (s : slot) : unit =
  t.tick <- t.tick + 1;
  s.s_stamp <- t.tick

let find (t : t) (k : key) : entry option =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some s ->
      touch t s;
      Some s.s_entry

(* recency is deliberately not refreshed: admission-control cost
   prediction peeks at many keys it will never serve, and letting those
   peeks reorder the LRU would evict entries the server still needs *)
let mem (t : t) (k : key) : bool = Hashtbl.mem t.table k

let evict_lru (t : t) : unit =
  let victim =
    Hashtbl.fold
      (fun k s acc ->
        match acc with
        | Some (_, stamp) when stamp <= s.s_stamp -> acc
        | _ -> Some (k, s.s_stamp))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evicted <- t.evicted + 1

(* filled in by the persistence section below, where the serializer
   lives; a no-op until a journal is attached *)
let journal_append : (t -> key -> entry -> unit) ref = ref (fun _ _ _ -> ())

let add (t : t) (k : key) (e : entry) : unit =
  (match Hashtbl.find_opt t.table k with
  | Some s ->
      s.s_entry <- e;
      touch t s
  | None ->
      if Hashtbl.length t.table >= t.cap then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.add t.table k { s_entry = e; s_stamp = t.tick });
  if t.journal <> None then !journal_append t k e

let entries (t : t) : (key * entry) list =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.table []
  |> List.sort (fun (_, a) (_, b) -> compare a.s_stamp b.s_stamp)
  |> List.map (fun (k, s) -> (k, s.s_entry))

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun s -> raise (S.Parse_error s)) fmt

let sexp_of_tunables (tunables : (string * int) list) : S.sexp =
  S.List
    (S.Atom "tunables"
    :: List.map
         (fun (name, v) -> S.List [ S.Atom name; S.Atom (string_of_int v) ])
         tunables)

let sexp_of_rung (r : rung) : S.sexp =
  S.List
    [
      S.Atom "rung";
      S.List [ S.Atom "version"; S.Atom (V.name r.r_version) ];
      S.List [ S.Atom "time-us"; S.Atom (Printf.sprintf "%.17g" r.r_time_us) ];
      sexp_of_tunables r.r_tunables;
    ]

let sexp_of_entry (k : key) (e : entry) : S.sexp =
  S.List
    [
      S.Atom "entry";
      S.List [ S.Atom "arch"; S.Atom k.k_arch ];
      S.List [ S.Atom "op"; S.Atom k.k_op ];
      S.List [ S.Atom "elem"; S.Atom k.k_elem ];
      S.List [ S.Atom "bucket"; S.Atom (string_of_int k.k_bucket) ];
      S.List [ S.Atom "version"; S.Atom (V.name e.e_version) ];
      S.List [ S.Atom "tuned-n"; S.Atom (string_of_int e.e_tuned_n) ];
      S.List
        [ S.Atom "tune-time-us"; S.Atom (Printf.sprintf "%.17g" e.e_tune_time_us) ];
      sexp_of_tunables e.e_tunables;
      S.List (S.Atom "ranking" :: List.map sexp_of_rung e.e_ranking);
    ]

let to_string (t : t) : string =
  let body =
    S.List
      (S.Atom "plan-cache"
      :: S.List [ S.Atom "capacity"; S.Atom (string_of_int t.cap) ]
      :: List.map (fun (k, e) -> sexp_of_entry k e) (entries t))
  in
  S.sexp_to_string body ^ "\n"

(* the full search space (extensions included), indexed by stable name *)
let version_by_name : (string, V.t) Hashtbl.t Lazy.t =
  lazy
    (let tbl = Hashtbl.create 128 in
     List.iter (fun v -> Hashtbl.replace tbl (V.name v) v)
       (V.enumerate ~extensions:true ());
     tbl)

let resolve_version (name : string) : V.t =
  match Hashtbl.find_opt (Lazy.force version_by_name) name with
  | Some v -> v
  | None -> (
      (* synthesized exchanges live outside the stock enumeration; a cache
         written after a synthesis sweep may legitimately name one *)
      match List.find_opt (fun v -> V.name v = name) (V.synthesized ()) with
      | Some v -> v
      | None -> fail "plan-cache: unknown version %S" name)

let field (fields : S.sexp list) (name : string) : S.sexp list option =
  List.find_map
    (function
      | S.List (S.Atom n :: rest) when n = name -> Some rest
      | _ -> None)
    fields

let atom_field (fields : S.sexp list) (name : string) : string =
  match field fields name with
  | Some [ S.Atom a ] -> a
  | _ -> fail "plan-cache: missing or malformed field %S" name

let int_field fields name =
  match int_of_string_opt (atom_field fields name) with
  | Some i -> i
  | None -> fail "plan-cache: field %S is not an integer" name

let float_field fields name =
  match float_of_string_opt (atom_field fields name) with
  | Some f -> f
  | None -> fail "plan-cache: field %S is not a number" name

let tunables_of_items (items : S.sexp list) : (string * int) list =
  List.map
    (function
      | S.List [ S.Atom name; S.Atom v ] -> (
          match int_of_string_opt v with
          | Some i -> (name, i)
          | None -> fail "plan-cache: tunable %S is not an integer" name)
      | _ -> fail "plan-cache: malformed tunable binding")
    items

let tunables_field (fields : S.sexp list) : (string * int) list =
  match field fields "tunables" with
  | None -> fail "plan-cache: missing tunables"
  | Some items -> tunables_of_items items

let rung_of_sexp (sexp : S.sexp) : rung =
  match sexp with
  | S.List (S.Atom "rung" :: fields) ->
      {
        r_version = resolve_version (atom_field fields "version");
        r_tunables = tunables_field fields;
        r_time_us = float_field fields "time-us";
      }
  | _ -> fail "plan-cache: expected a (rung ...) form"

let entry_of_sexp (sexp : S.sexp) : key * entry =
  match sexp with
  | S.List (S.Atom "entry" :: fields) ->
      let k =
        {
          k_arch = atom_field fields "arch";
          k_op = atom_field fields "op";
          k_elem = atom_field fields "elem";
          k_bucket = int_field fields "bucket";
        }
      in
      let version = resolve_version (atom_field fields "version") in
      let tunables = tunables_field fields in
      let ranking =
        (* entries saved before the ranking format load as a one-rung
           ladder (the winner alone: no fallback, but still servable) *)
        match field fields "ranking" with
        | None ->
            [ { r_version = version; r_tunables = tunables; r_time_us = 0.0 } ]
        | Some items -> List.map rung_of_sexp items
      in
      let e =
        {
          e_version = version;
          e_tunables = tunables;
          e_compiled = None;
          e_tuned_n = int_field fields "tuned-n";
          e_tune_time_us = float_field fields "tune-time-us";
          e_ranking = ranking;
        }
      in
      (k, e)
  | _ -> fail "plan-cache: expected an (entry ...) form"

let of_string (src : string) : t =
  match S.parse_sexp src with
  | S.List (S.Atom "plan-cache" :: fields) ->
      let capacity =
        match field fields "capacity" with
        | Some [ S.Atom a ] ->
            Option.value ~default:default_capacity (int_of_string_opt a)
        | _ -> default_capacity
      in
      let t = create ~capacity () in
      List.iter
        (function
          | S.List (S.Atom "entry" :: _) as s ->
              let k, e = entry_of_sexp s in
              add t k e
          | _ -> ())
        fields;
      t
  | _ -> fail "plan-cache: expected a (plan-cache ...) form"

(* ------------------------------------------------------------------ *)
(* Crash safety: checksummed snapshots, atomic renames, a verdict      *)
(* journal                                                             *)
(* ------------------------------------------------------------------ *)

(* plain table-driven CRC-32 (the IEEE 802.3 polynomial) *)
let crc_table : int32 array Lazy.t =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) : int32 =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor tbl.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let temp_file (path : string) : string = path ^ ".tmp"
let journal_file (path : string) : string = path ^ ".journal"

let remove_if_exists (p : string) : unit =
  try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ()

let fsync_out (oc : out_channel) : unit =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* The snapshot header: a comment-shaped first line carrying the body's
   CRC-32 and length, so torn or bit-rotted snapshots are detected at
   load instead of silently parsing into garbage. *)
let snapshot_header (body : string) : string =
  Printf.sprintf "; plan-cache crc32 %08lx %d\n" (crc32 body) (String.length body)

(* Verify and strip the header. Headerless input (legacy snapshots,
   hand-written files, raw [to_string] output) passes through
   unchecked. *)
let verify_snapshot (src : string) : string =
  match String.index_opt src '\n' with
  | Some nl when String.length src >= 2 && src.[0] = ';' -> (
      let header = String.sub src 0 nl in
      let body = String.sub src (nl + 1) (String.length src - nl - 1) in
      match
        Scanf.sscanf_opt header "; plan-cache crc32 %lx %d" (fun c n -> (c, n))
      with
      | None -> src
      | Some (c, n) ->
          if String.length body <> n then
            fail "plan-cache: snapshot truncated (%d bytes, header says %d)"
              (String.length body) n
          else if crc32 body <> c then
            fail "plan-cache: snapshot checksum mismatch (file corrupt)"
          else body)
  | _ -> src

(* one journal record: a self-checksummed length-prefixed (entry ...) *)
let journal_record (k : key) (e : entry) : string =
  let body = S.sexp_to_string (sexp_of_entry k e) in
  Printf.sprintf "plan-journal %08lx %d\n%s\n" (crc32 body)
    (String.length body) body

let () =
  journal_append :=
    fun (t : t) (k : key) (e : entry) ->
      match t.journal with
      | None -> ()
      | Some (_, oc) ->
          output_string oc (journal_record k e);
          (* a verdict is durable the moment it is recorded: a crash
             between here and the next save must not re-tune the bucket *)
          fsync_out oc

let open_journal (jpath : string) : out_channel =
  open_out_gen [ Open_append; Open_creat ] 0o644 jpath

let attach_journal (t : t) (path : string) : unit =
  (match t.journal with Some (_, oc) -> close_out oc | None -> ());
  t.journal <- Some (journal_file path, open_journal (journal_file path))

let detach_journal (t : t) : unit =
  match t.journal with
  | None -> ()
  | Some (_, oc) ->
      close_out oc;
      t.journal <- None

(* Replay journal records on top of a loaded snapshot. Each record is
   independently checksummed: a corrupt one is skipped with a warning
   (torn tail writes after a crash are expected), never fatal. A record
   whose *header* is unreadable ends the replay — record boundaries are
   gone past that point. *)
let replay_journal (t : t) (jpath : string) : int =
  let ic = open_in_bin jpath in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let warn fmt =
    Printf.ksprintf (fun m -> Obs.Log.warn ~fields:[ ("path", jpath) ] "%s" m) fmt
  in
  let replayed = ref 0 in
  let pos = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < String.length src do
    match String.index_from_opt src !pos '\n' with
    | None ->
        warn "truncated journal header at byte %d; discarding tail" !pos;
        stop := true
    | Some nl -> (
        let header = String.sub src !pos (nl - !pos) in
        match
          Scanf.sscanf_opt header "plan-journal %lx %d" (fun c n -> (c, n))
        with
        | None ->
            warn "corrupt journal header at byte %d; discarding tail" !pos;
            stop := true
        | Some (c, n) ->
            if n < 0 || nl + 1 + n > String.length src then begin
              warn "truncated journal record at byte %d; discarding tail" !pos;
              stop := true
            end
            else begin
              let body = String.sub src (nl + 1) n in
              (if crc32 body <> c then
                 warn "checksum mismatch in journal record at byte %d; skipped"
                   !pos
               else
                 match entry_of_sexp (S.parse_sexp body) with
                 | k, e ->
                     add t k e;
                     incr replayed
                 | exception S.Parse_error m ->
                     warn "unparseable journal record at byte %d (%s); skipped"
                       !pos m);
              (* step over the record and its trailing newline *)
              pos := nl + 1 + n;
              if !pos < String.length src && src.[!pos] = '\n' then incr pos
            end)
  done;
  !replayed

let save (t : t) (path : string) : unit =
  let body = to_string t in
  let tmp = temp_file path in
  let oc = open_out tmp in
  output_string oc (snapshot_header body);
  output_string oc body;
  fsync_out oc;
  close_out oc;
  (* the rename is the commit point: readers see either the old snapshot
     or the new one, never a half-written file *)
  Sys.rename tmp path;
  (* the snapshot now covers every journaled verdict *)
  match t.journal with
  | Some (jpath, oc) when jpath = journal_file path ->
      close_out oc;
      remove_if_exists jpath;
      t.journal <- Some (jpath, open_journal jpath)
  | _ -> remove_if_exists (journal_file path)

let load (path : string) : t =
  (* a leftover temp file is a save that never reached its commit
     point — stale by definition, removed so it cannot be mistaken for
     state *)
  remove_if_exists (temp_file path);
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let t = of_string (verify_snapshot src) in
  let jpath = journal_file path in
  if Sys.file_exists jpath then ignore (replay_journal t jpath);
  t

(* ------------------------------------------------------------------ *)
(* Non-raising parsing: a corrupt or truncated cache file must degrade  *)
(* a service to a cold start, not kill it                               *)
(* ------------------------------------------------------------------ *)

let of_string_result (src : string) : (t, string) result =
  match of_string src with
  | t -> Ok t
  | exception S.Parse_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let load_result (path : string) : (t, string) result =
  match load path with
  | t -> Ok t
  | exception S.Parse_error msg -> Error (path ^ ": " ^ msg)
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated cache file")
  | exception Invalid_argument msg -> Error (path ^ ": " ^ msg)
