(* Bring-your-own spectrum: a user-defined reduction through the whole
   pipeline.

   Run with: dune exec examples/custom_spectrum.exe

   The paper's framework is not reduction-sum-specific: any spectrum
   written as the six codelet shapes goes through the same passes,
   enumeration, tuning and simulation. This example defines a
   sum-of-squares spectrum (the squared L2 norm) from scratch. Two things
   to note:

   - the map part ([in[i] * in[i]]) lives inside the codelets; the atomic
     API, the shuffle detection and the shared-atomic qualifiers apply
     untouched;
   - sum-of-squares is {i not} self-combining: its per-thread and per-block
     partial results must be {b summed}, not squared again, so the compound
     codelets call [return sum(map)] and the unit includes the built-in
     [sum] spectrum as the combiner. The planner picks the combiner up from
     that spectrum call and uses its cooperative codelets as finishers. *)

let source =
  {|
__codelet __tag(scalar)
float sumsq(const Array<1,float> in) {
  unsigned len = in.Size();
  float accum = 0.0;
  for (unsigned i = 0; i < len; i++) {
    accum += in[i] * in[i];
  }
  return accum;
}

__codelet __tag(compound_tiled)
float sumsq(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(tiled);
  Sequence inc(tiled);
  Sequence end(tiled);
  Map map(sumsq, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sum(map);
}

__codelet __tag(compound_strided)
float sumsq(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(strided);
  Sequence inc(strided);
  Sequence end(strided);
  Map map(sumsq, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sum(map);
}

__codelet __coop __tag(coop_tree)
float sumsq(const Array<1,float> in) {
  Vector vthread();
  __shared float tmp[in.Size()];
  __shared float partial[vthread.MaxSize()];
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0.0;
    tmp[vthread.ThreadId()] = val;
  }
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
    if (vthread.LaneId() == 0) {
      partial[vthread.VectorId()] = val;
    }
    if (vthread.VectorId() == 0) {
      val = vthread.ThreadId() <= in.Size() / vthread.MaxSize() ? partial[vthread.LaneId()] : 0.0;
      for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
        val += vthread.LaneId() + offset < vthread.Size() ? partial[vthread.ThreadId() + offset] : 0.0;
        partial[vthread.ThreadId()] = val;
      }
    }
  }
  return val;
}

__codelet __coop __tag(shared_v1)
float sumsq(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicAdd float tmp;
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
  tmp = val;
  return tmp;
}

__codelet __coop __tag(shared_v2)
float sumsq(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicAdd float partial;
  __shared float tmp[in.Size()];
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] * in[vthread.ThreadId()] : 0.0;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0.0;
    tmp[vthread.ThreadId()] = val;
  }
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
    if (vthread.LaneId() == 0) {
      partial = val;
    }
    if (vthread.VectorId() == 0) {
      val = partial;
    }
  }
  return val;
}
|}

(* the combiner spectrum rides along in the same unit *)
let source = source ^ Tangram.Builtins.sum_source

let () =
  let ctx = Tangram.create ~source () in
  let input = Array.init 50_000 (fun i -> sin (float_of_int i *. 0.01)) in
  let expected = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 input in
  Printf.printf "custom spectrum 'sumsq' (squared L2 norm), %d elements\n"
    (Array.length input);
  (* the passes found the same variants they find for sum *)
  let variants =
    Passes.Driver.all_variants (Tangram.plan ctx).Tangram.Planner.unit_info
  in
  Printf.printf "pass-generated variants : %d (%s)\n" (List.length variants)
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf "%s:%s" v.Tangram.Driver.v_spectrum
              v.Tangram.Driver.v_name)
          variants));
  List.iter
    (fun arch ->
      let version, _ = Tangram.select ctx ~arch ~n:(Array.length input) in
      let o = Tangram.reduce_outcome ctx ~arch input in
      let ok = Float.abs (o.Tangram.Runner.result -. expected) < 1e-2 in
      Printf.printf "  %-8s picks %s%s : %.4f (host %.4f) in %.2f us  %s\n"
        arch.Tangram.Arch.generation
        (match Tangram.Version.figure6_label version with
        | Some l -> Printf.sprintf "(%s) " l
        | None -> "")
        (Tangram.Version.name version) o.Tangram.Runner.result expected
        o.Tangram.Runner.time_us
        (if ok then "OK" else "WRONG");
      assert ok)
    Tangram.Arch.presets
