(* Synthetic request traces and the replay driver.

   Traces are deterministic (a splitmix-style LCG seeded explicitly);
   the replay submits batches through the service and reports throughput
   plus the cache hit/miss delta, which is what `tangramc serve` and the
   bench `service` subcommand print. *)

module R = Gpusim.Runner

type spec = {
  t_requests : int;
  t_seed : int;
  t_sizes : int list;
  t_archs : Gpusim.Arch.t list;
}

let paper_sizes =
  [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576; 4194304; 16777216;
    67108864; 268435456 ]

let default ?(requests = 1000) ?(seed = 42) ?(archs = Gpusim.Arch.presets) () :
    spec =
  { t_requests = requests; t_seed = seed; t_sizes = paper_sizes; t_archs = archs }

(* 64-bit LCG (Knuth's MMIX multiplier); the top bits feed selection *)
let lcg (state : int64) : int64 =
  Int64.add (Int64.mul state 6364136223846793005L) 1442695040888963407L

let pick (state : int64) (pool : 'a array) : 'a =
  let bits = Int64.to_int (Int64.shift_right_logical state 33) in
  pool.(bits mod Array.length pool)

let generate (spec : spec) : (Gpusim.Arch.t * int) list =
  if spec.t_sizes = [] || spec.t_archs = [] then
    invalid_arg "Trace.generate: empty size or architecture pool";
  let sizes = Array.of_list spec.t_sizes in
  let archs = Array.of_list spec.t_archs in
  let state = ref (lcg (Int64.of_int spec.t_seed)) in
  List.init spec.t_requests (fun _ ->
      let s1 = lcg !state in
      let s2 = lcg s1 in
      state := s2;
      (pick s1 archs, pick s2 sizes))

(* Open-loop arrivals: the same request stream as [generate], each
   request stamped with a virtual arrival time drawn from a Poisson
   process (exponential inter-arrivals) at [rate_rps]. The timestamp
   stream derives from its own seeded LCG state — [generate]'s
   (arch, size) draws are bit-identical with or without timestamps. *)
let arrivals ?(rate_rps = 1000.0) (spec : spec) :
    (float * (Gpusim.Arch.t * int)) list =
  if Float.is_nan rate_rps || rate_rps <= 0.0 then
    invalid_arg "Trace.arrivals: rate_rps must be positive";
  let reqs = generate spec in
  (* golden-ratio offset decorrelates the clock stream from the
     request stream without touching it *)
  let state =
    ref (lcg (Int64.add (Int64.of_int spec.t_seed) 0x9E3779B97F4A7C15L))
  in
  let now = ref 0.0 in
  List.map
    (fun req ->
      let s = !state in
      state := lcg s;
      let u =
        float_of_int (Int64.to_int (Int64.shift_right_logical s 34))
        /. 1073741824.0
      in
      (* u in [0,1); 1-u in (0,1] keeps log finite *)
      let dt_us = -.Float.log (1.0 -. u) /. rate_rps *. 1e6 in
      now := !now +. dt_us;
      (!now, req))
    reqs

type summary = {
  s_requests : int;
  s_wall_us : float;
  s_rps : float;
  s_hits : int;
  s_misses : int;
  s_degraded : int;
  s_failed : int;
}

(* one shared pattern: same-size requests are same-shape, so they
   coalesce within a batch *)
let pattern = Array.init 64 (fun i -> float_of_int (i land 7))

(* dense inputs are memoized per size: same-size requests share the one
   array, so coalescing still sees them as same-shape *)
let dense_pool : (int, float array) Hashtbl.t = Hashtbl.create 8

let dense_input (n : int) : float array =
  match Hashtbl.find_opt dense_pool n with
  | Some a -> a
  | None ->
      let a = Array.init n (fun i -> pattern.(i land 63)) in
      Hashtbl.add dense_pool n a;
      a

let replay_input ~(dense_upto : int) (n : int) : R.input =
  (* sizes up to [dense_upto] materialize as dense inputs, which run in
     exact mode and so pass through the service's witness verification;
     larger sizes stay synthetic/sampled *)
  if n <= dense_upto then R.Dense (dense_input n) else R.Synthetic { n; pattern }

let rec chunks (k : int) = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take k [] l in
      batch :: chunks k rest

let replay ?(batch_size = 64) ?(dense_upto = 0) (svc : Service.t)
    (trace : (Gpusim.Arch.t * int) list) : summary =
  if batch_size < 1 then invalid_arg "Trace.replay: batch_size must be positive";
  let stats = Service.stats svc in
  let hits0 = Stats.hits stats and misses0 = Stats.misses stats in
  let batches =
    chunks batch_size
      (List.map
         (fun (arch, n) ->
           { Service.req_arch = arch; req_input = replay_input ~dense_upto n })
         trace)
  in
  let degraded = ref 0 and failed = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i batch ->
      (* trace id 0 (outside any request) — per-request root spans open
         inside submit; the batch span shows dispatch boundaries *)
      Obs.Trace.span
        ~attrs:
          [
            ("batch", string_of_int i);
            ("requests", string_of_int (List.length batch));
          ]
        ~name:"batch"
      @@ fun () ->
      List.iter
        (function
          | Ok r -> if r.Service.resp_degraded then incr degraded
          | Error _ -> incr failed)
        (Service.submit_batch_result svc batch))
    batches;
  let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let requests = List.length trace in
  {
    s_requests = requests;
    s_wall_us = wall_us;
    s_rps =
      (if requests = 0 || wall_us <= 0.0 then 0.0
       else float_of_int requests /. (wall_us /. 1e6));
    s_hits = Stats.hits stats - hits0;
    s_misses = Stats.misses stats - misses0;
    s_degraded = !degraded;
    s_failed = !failed;
  }

let pp_summary (fmt : Format.formatter) (s : summary) : unit =
  Format.fprintf fmt
    "%d requests in %.1f ms  (%.0f requests/sec; lookups: %d hits, %d misses)"
    s.s_requests (s.s_wall_us /. 1e3) s.s_rps s.s_hits s.s_misses;
  if s.s_degraded > 0 || s.s_failed > 0 then
    Format.fprintf fmt "  [%d degraded, %d failed]" s.s_degraded s.s_failed
