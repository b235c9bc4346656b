(* Windowed time-series instruments on the virtual clock.

   A registry owns instruments — counters, gauges and HDR-style
   log-bucketed histograms, each indexed by (name, label set) — plus a
   fixed-capacity ring of snapshots. Recording never touches a
   clock: windows exist only because somebody calls [snapshot ~now_us]
   at the virtual times they care about, and [windows] then diffs
   adjacent snapshots into per-window deltas and quantiles. That keeps
   every reading a pure function of (recorded values, snapshot times) —
   deterministic across machines, which is what lets CI assert on the
   series.

   Like [Trace], a disabled registry costs one load-and-branch per
   recording call, so the instrumentation can live in the hot paths
   permanently ([bench obs] prices and enforces this).

   Registries merge ([merge]): counters, histogram buckets and gauges
   add, so the planned per-domain sharding item can keep one registry
   per domain and fold them into a fleet-wide view at report time. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* ------------------------------------------------------------------ *)
(* Prometheus lexical rules                                            *)
(* ------------------------------------------------------------------ *)

let valid_metric_name (s : string) : bool =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let valid_label_name (s : string) : bool =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* label-value body escaping per the text exposition format: backslash,
   double quote and newline *)
let escape_label_value (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* HDR-style log buckets                                               *)
(* ------------------------------------------------------------------ *)

(* 8 sub-buckets per octave over (1, 2^60]: bucket 0 holds values <= 1,
   bucket i has upper bound 2^(i/8). Quantiles read the crossing
   bucket's upper bound, so the relative error is bounded by
   2^(1/8) - 1 (~9%) regardless of the value's magnitude — the HDR
   trade: fixed memory, bounded relative error, mergeable by plain
   bucket addition. *)
let sub_buckets = 8
let hist_buckets = (60 * sub_buckets) + 1

let bucket_of (v : float) : int =
  if not (v > 1.0) then 0
  else
    let e = Float.log2 v in
    max 1
      (min (hist_buckets - 1)
         (int_of_float (Float.ceil (float_of_int sub_buckets *. e))))

let bucket_upper (i : int) : float =
  if i = 0 then 1.0 else Float.exp2 (float_of_int i /. float_of_int sub_buckets)

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

type hist_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_buckets : int array;
}

type state =
  | Scounter of { mutable c : float }
  | Sgauge of { mutable g : float }
  | Shist of hist_state

type value =
  | Vcounter of float
  | Vgauge of float
  | Vhist of { vh_count : int; vh_sum : float; vh_buckets : int array }

type instrument = {
  i_name : string;
  i_help : string;
  i_labels : (string * string) list;
  i_kind : kind;
  i_state : state;
  i_reg : t;
}

and snapshot = {
  sn_now_us : float;
  sn_rows : (instrument * value) list;  (** registration order *)
}

and t = {
  mutable enabled : bool;
  mutable insts : instrument list;  (** newest first *)
  index : (string * (string * string) list, instrument) Hashtbl.t;
  snaps : snapshot option array;
  mutable snap_head : int;  (** next write position *)
  mutable snap_size : int;
}

type counter = instrument
type gauge = instrument
type histogram = instrument

let default_snapshots = 64

let create ?(snapshots = default_snapshots) ?(enabled = true) () : t =
  if snapshots < 2 then
    invalid_arg "Metrics.create: the snapshot ring needs at least 2 slots";
  {
    enabled;
    insts = [];
    index = Hashtbl.create 64;
    snaps = Array.make snapshots None;
    snap_head = 0;
    snap_size = 0;
  }

let set_enabled (t : t) (b : bool) : unit = t.enabled <- b
let enabled (t : t) : bool = t.enabled

let instruments (t : t) : instrument list = List.rev t.insts

let rec sorted_labels = function
  | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted_labels rest
  | _ -> true

(* label sets are keyed in name order; callers that already pass them
   sorted skip the sort, so a lookup costs one hash of (name, labels) *)
let canonical labels =
  if sorted_labels labels then labels
  else List.sort (fun (a, _) (b, _) -> compare a b) labels

let register (t : t) (kind : kind) ~(help : string)
    ~(labels : (string * string) list) (name : string) : instrument =
  let labels = canonical labels in
  match Hashtbl.find_opt t.index (name, labels) with
  | Some i ->
      if i.i_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_name i.i_kind));
      i
  | None ->
      if not (valid_metric_name name) then
        invalid_arg (Printf.sprintf "Metrics: illegal metric name %S" name);
      List.iter
        (fun (k, _) ->
          if not (valid_label_name k) then
            invalid_arg (Printf.sprintf "Metrics: illegal label name %S" k))
        labels;
      let state =
        match kind with
        | Counter -> Scounter { c = 0.0 }
        | Gauge -> Sgauge { g = 0.0 }
        | Histogram ->
            Shist
              {
                h_count = 0;
                h_sum = 0.0;
                h_max = 0.0;
                h_buckets = Array.make hist_buckets 0;
              }
      in
      let i = { i_name = name; i_help = help; i_labels = labels; i_kind = kind;
                i_state = state; i_reg = t } in
      Hashtbl.add t.index (name, labels) i;
      t.insts <- i :: t.insts;
      i

let remove (t : t) ?(labels = []) (name : string) : unit =
  let labels = canonical labels in
  match Hashtbl.find_opt t.index (name, labels) with
  | None -> ()
  | Some i ->
      Hashtbl.remove t.index (name, labels);
      t.insts <- List.filter (fun j -> j != i) t.insts

let counter (t : t) ?(help = "") ?(labels = []) (name : string) : counter =
  register t Counter ~help ~labels name

let gauge (t : t) ?(help = "") ?(labels = []) (name : string) : gauge =
  register t Gauge ~help ~labels name

let histogram (t : t) ?(help = "") ?(labels = []) (name : string) : histogram =
  register t Histogram ~help ~labels name

(* ------------------------------------------------------------------ *)
(* Recording (one load-and-branch when the registry is disabled)       *)
(* ------------------------------------------------------------------ *)

let inc ?(by = 1.0) (c : counter) : unit =
  if c.i_reg.enabled then
    match c.i_state with
    | Scounter s -> if by > 0.0 then s.c <- s.c +. by
    | Sgauge _ | Shist _ -> assert false

let set (g : gauge) (v : float) : unit =
  if g.i_reg.enabled then
    match g.i_state with
    | Sgauge s -> s.g <- v
    | Scounter _ | Shist _ -> assert false

let observe (h : histogram) (v : float) : unit =
  if h.i_reg.enabled then
    match h.i_state with
    | Shist s ->
        s.h_count <- s.h_count + 1;
        s.h_sum <- s.h_sum +. v;
        if v > s.h_max then s.h_max <- v;
        let b = s.h_buckets in
        let i = bucket_of v in
        b.(i) <- b.(i) + 1
    | Scounter _ | Sgauge _ -> assert false

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let counter_value (c : counter) : float =
  match c.i_state with Scounter s -> s.c | _ -> assert false

let gauge_value (g : gauge) : float =
  match g.i_state with Sgauge s -> s.g | _ -> assert false

let hist_count (h : histogram) : int =
  match h.i_state with Shist s -> s.h_count | _ -> assert false

let hist_sum (h : histogram) : float =
  match h.i_state with Shist s -> s.h_sum | _ -> assert false

(* nearest-rank percentile over bucket counts, reading the crossing
   bucket's upper bound; a known true maximum caps the answer (the top
   bucket's bound can overshoot it) *)
let quantile_of_buckets ?(maxv = infinity) (buckets : int array) (count : int)
    (p : float) : float =
  if count = 0 then 0.0
  else begin
    let rank =
      max 1
        (min count (int_of_float (Float.ceil (p /. 100.0 *. float_of_int count))))
    in
    let rec go i acc =
      if i >= Array.length buckets then
        if maxv < infinity then maxv else bucket_upper (Array.length buckets - 1)
      else
        let acc = acc + buckets.(i) in
        if acc >= rank then Float.min (bucket_upper i) maxv
        else go (i + 1) acc
    in
    go 0 0
  end

let quantile (h : histogram) (p : float) : float =
  match h.i_state with
  | Shist s -> quantile_of_buckets ~maxv:s.h_max s.h_buckets s.h_count p
  | _ -> assert false

let family (t : t) (name : string) : ((string * string) list * float) list =
  List.filter_map
    (fun i ->
      if i.i_name <> name then None
      else
        Some
          ( i.i_labels,
            match i.i_state with
            | Scounter s -> s.c
            | Sgauge s -> s.g
            | Shist s -> float_of_int s.h_count ))
    t.insts
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Snapshots and windows                                               *)
(* ------------------------------------------------------------------ *)

let value_of (i : instrument) : value =
  match i.i_state with
  | Scounter s -> Vcounter s.c
  | Sgauge s -> Vgauge s.g
  | Shist s ->
      Vhist
        { vh_count = s.h_count; vh_sum = s.h_sum;
          vh_buckets = Array.copy s.h_buckets }

let snapshot (t : t) ~(now_us : float) : unit =
  if t.enabled then begin
    let snap =
      { sn_now_us = now_us;
        sn_rows = List.rev_map (fun i -> (i, value_of i)) t.insts }
    in
    let cap = Array.length t.snaps in
    t.snaps.(t.snap_head) <- Some snap;
    t.snap_head <- (t.snap_head + 1) mod cap;
    if t.snap_size < cap then t.snap_size <- t.snap_size + 1
  end

let snapshots (t : t) : snapshot list =
  let cap = Array.length t.snaps in
  let start = (t.snap_head - t.snap_size + cap) mod cap in
  List.init t.snap_size (fun k ->
      match t.snaps.((start + k) mod cap) with
      | Some s -> s
      | None -> assert false)

let n_snapshots (t : t) : int = t.snap_size

type window_row = {
  wr_name : string;
  wr_labels : (string * string) list;
  wr_kind : kind;
  wr_value : float;
      (** counter delta over the window / gauge value at window end /
          histogram count delta *)
  wr_sum : float;  (** histogram sum delta, 0 otherwise *)
  wr_p50 : float;  (** histogram quantiles over the window's samples *)
  wr_p95 : float;
}

type window = {
  w_from_us : float;
  w_to_us : float;
  w_rows : window_row list;
}

(* diff one snapshot pair; instruments born after the older snapshot
   diff against a zero base *)
let diff_snaps (a : snapshot) (b : snapshot) : window =
  let base i =
    List.find_map (fun (j, v) -> if j == i then Some v else None) a.sn_rows
  in
  let row (i, v) =
    match (v, base i) with
    | Vcounter now, prev ->
        let was = match prev with Some (Vcounter w) -> w | _ -> 0.0 in
        Some
          { wr_name = i.i_name; wr_labels = i.i_labels; wr_kind = Counter;
            wr_value = now -. was; wr_sum = 0.0; wr_p50 = 0.0; wr_p95 = 0.0 }
    | Vgauge now, _ ->
        Some
          { wr_name = i.i_name; wr_labels = i.i_labels; wr_kind = Gauge;
            wr_value = now; wr_sum = 0.0; wr_p50 = 0.0; wr_p95 = 0.0 }
    | Vhist now, prev ->
        let wc, ws, wb =
          match prev with
          | Some (Vhist w) -> (w.vh_count, w.vh_sum, Some w.vh_buckets)
          | _ -> (0, 0.0, None)
        in
        let dcount = now.vh_count - wc in
        let dbuckets =
          match wb with
          | None -> now.vh_buckets
          | Some wb ->
              Array.init (Array.length now.vh_buckets) (fun k ->
                  now.vh_buckets.(k) - wb.(k))
        in
        Some
          { wr_name = i.i_name; wr_labels = i.i_labels; wr_kind = Histogram;
            wr_value = float_of_int dcount; wr_sum = now.vh_sum -. ws;
            wr_p50 = quantile_of_buckets dbuckets dcount 50.0;
            wr_p95 = quantile_of_buckets dbuckets dcount 95.0 }
  in
  { w_from_us = a.sn_now_us; w_to_us = b.sn_now_us;
    w_rows = List.filter_map row b.sn_rows }

let windows (t : t) : window list =
  let rec pairs = function
    | a :: (b :: _ as rest) -> diff_snaps a b :: pairs rest
    | _ -> []
  in
  pairs (snapshots t)

(* ------------------------------------------------------------------ *)
(* Merging (per-domain shard aggregation)                              *)
(* ------------------------------------------------------------------ *)

let merge ~(into : t) (src : t) : unit =
  List.iter
    (fun i ->
      let dst =
        register into i.i_kind ~help:i.i_help ~labels:i.i_labels i.i_name
      in
      match (i.i_state, dst.i_state) with
      | Scounter s, Scounter d -> d.c <- d.c +. s.c
      | Sgauge s, Sgauge d -> d.g <- d.g +. s.g
      | Shist s, Shist d ->
          d.h_count <- d.h_count + s.h_count;
          d.h_sum <- d.h_sum +. s.h_sum;
          if s.h_max > d.h_max then d.h_max <- s.h_max;
          Array.iteri (fun k n -> d.h_buckets.(k) <- d.h_buckets.(k) + n)
            s.h_buckets
      | _ -> assert false)
    (instruments src)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let render_labels (labels : (string * string) list) : string =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let render_number (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* instrument values keep 12 significant digits: simulated-backoff sums
   and health scores are not round numbers *)
let render_value = Json.number_to_string

let to_prometheus ?windows:(with_windows = true) (t : t) : string =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let insts =
    List.sort
      (fun a b ->
        match compare a.i_name b.i_name with
        | 0 -> compare a.i_labels b.i_labels
        | c -> c)
      (instruments t)
  in
  let seen_header = Hashtbl.create 16 in
  let header name kind_str help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then pr "# HELP %s %s\n" name help;
      pr "# TYPE %s %s\n" name kind_str
    end
  in
  List.iter
    (fun i ->
      match i.i_state with
      | Scounter s ->
          header i.i_name "counter" i.i_help;
          pr "%s%s %s\n" i.i_name (render_labels i.i_labels) (render_value s.c)
      | Sgauge s ->
          header i.i_name "gauge" i.i_help;
          pr "%s%s %s\n" i.i_name (render_labels i.i_labels) (render_value s.g)
      | Shist s ->
          header i.i_name "histogram" i.i_help;
          (* cumulative buckets; only occupied le bounds are emitted,
             plus the mandatory +Inf *)
          let cum = ref 0 in
          Array.iteri
            (fun k n ->
              if n > 0 then begin
                cum := !cum + n;
                pr "%s_bucket%s %d\n" i.i_name
                  (render_labels
                     (i.i_labels
                     @ [ ("le", render_number (bucket_upper k)) ]))
                  !cum
              end)
            s.h_buckets;
          pr "%s_bucket%s %d\n" i.i_name
            (render_labels (i.i_labels @ [ ("le", "+Inf") ]))
            s.h_count;
          pr "%s_sum%s %s\n" i.i_name (render_labels i.i_labels)
            (render_value s.h_sum);
          pr "%s_count%s %d\n" i.i_name (render_labels i.i_labels) s.h_count)
    insts;
  if with_windows then
    List.iteri
      (fun k (w : window) ->
        List.iter
          (fun (r : window_row) ->
            let wl suffix v =
              let fam = r.wr_name ^ "_window" ^ suffix in
              header fam "gauge"
                (Printf.sprintf "windowed series of %s" r.wr_name);
              pr "%s%s %s\n" fam
                (render_labels
                   (r.wr_labels
                   @ [
                       ("w", string_of_int k);
                       ("from_us", render_number w.w_from_us);
                       ("to_us", render_number w.w_to_us);
                     ]))
                (render_number v)
            in
            match r.wr_kind with
            | Counter | Gauge -> wl "" r.wr_value
            | Histogram ->
                wl "_count" r.wr_value;
                wl "_p50" r.wr_p50;
                wl "_p95" r.wr_p95)
          w.w_rows)
      (windows t);
  Buffer.contents buf
