(* Device-fleet flags shared by tangramc's serve and monitor commands:
   --devices builds an N-slot fleet and routes the serve path through
   it, --device-profile seeds failure profiles on individual slots,
   --spares adds warm spares and --hedge arms speculative re-dispatch.
   Each command composes [term] into its own command line. *)

open Cmdliner

type t = {
  devices : int;
  profiles : string list;
  spares : int;
  hedge : float option;
  fleet_seed : int;
}

let devices_arg =
  let doc =
    "Serve through a simulated fleet of $(docv) devices (health-aware \
     least-loaded routing, fail-slow detection, live drain/recovery). 0 \
     (the default) keeps the single-device path."
  in
  Arg.(value & opt int 0 & info [ "devices" ] ~doc ~docv:"N")

let profiles_arg =
  let doc =
    "Seed a failure profile on device $(i,IDX) (repeatable). $(i,SPEC) is \
     one of: healthy; fail-stop@N (dies on its Nth dispatch); \
     fail-slow@ONSETxFACTOR or fail-slow@ONSETxFACTOR+RAMP (throughput \
     degrades FACTORx from dispatch ONSET, ramping over RAMP dispatches); \
     flaky@RATE (intermittent transient faults); \
     recovering@UNTILxFACTOR (slow until dispatch UNTIL, then nominal)."
  in
  Arg.(
    value & opt_all string [] & info [ "device-profile" ] ~doc ~docv:"IDX=SPEC")

let spares_arg =
  let doc =
    "Add $(docv) warm-spare devices: they serve nothing until a death, \
     ejection or drain promotes them into the pool."
  in
  Arg.(value & opt int 0 & info [ "spares" ] ~doc ~docv:"K")

let hedge_arg =
  let doc =
    "Arm hedged execution: a first attempt whose latency overruns \
     $(docv) x the observed p95 is speculatively re-dispatched to a \
     second device; the first answer wins."
  in
  Arg.(
    value
    & opt ~vopt:(Some 2.0) (some float) None
    & info [ "hedge" ] ~doc ~docv:"MULT")

let fleet_seed_arg =
  let doc = "Seed for the fleet's private fault streams." in
  Arg.(value & opt int 42 & info [ "fleet-seed" ] ~doc ~docv:"SEED")

let term : t Term.t =
  let mk devices profiles spares hedge fleet_seed =
    { devices; profiles; spares; hedge; fleet_seed }
  in
  Term.(
    const mk $ devices_arg $ profiles_arg $ spares_arg $ hedge_arg
    $ fleet_seed_arg)

let usage_error = Obs_cli.usage_error

(** [IDX=SPEC] -> (index, profile); exits with a usage error (2) on a
    malformed assignment, matching cmdliner's own convention. *)
let parse_profile ~(exe : string) (s : string) : int * Tangram.Fault.profile =
  match String.index_opt s '=' with
  | None ->
      usage_error ~exe "--device-profile %S: expected IDX=SPEC" s
  | Some eq -> (
      let idx_s = String.sub s 0 eq in
      let spec_s = String.sub s (eq + 1) (String.length s - eq - 1) in
      match int_of_string_opt idx_s with
      | None -> usage_error ~exe "--device-profile %S: bad device index" s
      | Some idx -> (
          match Tangram.Fault.profile_of_string spec_s with
          | Ok p -> (idx, p)
          | Error msg -> usage_error ~exe "--device-profile %S: %s" s msg))

(** Build the fleet the flags describe and route [svc] through it; no
    change to [svc] when [--devices] was 0. All devices share [arch]. *)
let attach ~(exe : string) (t : t) ~(arch : Tangram.Arch.t)
    (svc : Tangram.Service.t) : unit =
  if t.devices < 0 then usage_error ~exe "--devices must be non-negative";
  if t.spares < 0 then usage_error ~exe "--spares must be non-negative";
  (match t.hedge with
  | Some m when m <= 0.0 -> usage_error ~exe "--hedge must be positive"
  | _ -> ());
  if t.devices = 0 then begin
    if t.profiles <> [] then
      usage_error ~exe "--device-profile needs --devices";
    if t.spares > 0 then usage_error ~exe "--spares needs --devices";
    if t.hedge <> None then usage_error ~exe "--hedge needs --devices"
  end
  else begin
    let profiles = Array.make t.devices Tangram.Fault.Healthy in
    List.iter
      (fun s ->
        let idx, p = parse_profile ~exe s in
        if idx < 0 || idx >= t.devices then
          usage_error ~exe
            "--device-profile %S: device index out of range (0..%d)" s
            (t.devices - 1);
        profiles.(idx) <- p)
      t.profiles;
    let specs =
      List.init t.devices (fun i ->
          Tangram.Fleet.spec ~profile:profiles.(i) arch)
      @ List.init t.spares (fun _ -> Tangram.Fleet.spec ~spare:true arch)
    in
    let config =
      match t.hedge with
      | Some m ->
          { Tangram.Fleet.default_config with Tangram.Fleet.fl_hedge_mult = m }
      | None -> Tangram.Fleet.default_config
    in
    let fleet =
      try Tangram.Fleet.create ~config ~seed:t.fleet_seed specs
      with Invalid_argument msg -> usage_error ~exe "%s" msg
    in
    Tangram.Fleet.set_hedging fleet (t.hedge <> None);
    Tangram.Service.attach_fleet svc fleet;
    Printf.printf "fleet armed: %d devices + %d spares on %s%s%s\n" t.devices
      t.spares arch.Tangram.Arch.name
      (match t.hedge with
      | Some m -> Printf.sprintf ", hedging at %gx p95" m
      | None -> "")
      (if t.profiles = [] then ""
       else
         ", profiles "
         ^ String.concat " "
             (List.map
                (fun s ->
                  let idx, p = parse_profile ~exe s in
                  Printf.sprintf "d%d=%s" idx (Tangram.Fault.profile_name p))
                t.profiles))
  end
