(* The paper's codelet library for the [sum] reduction spectrum, written in
   the Tangram surface syntax of this reproduction:

   - [scalar]           — Figure 1(a): atomic autonomous serial sum;
   - [compound_tiled]   — Figure 1(b) with tiled access sequences;
   - [compound_strided] — Figure 1(b) with strided access sequences;
   - [coop_tree]        — Figure 1(c): cooperative tree-based summation;
   - [shared_v1]        — Figure 3(a): single shared accumulator updated
                          atomically by all threads of all vectors;
   - [shared_v2]        — Figure 3(b): per-vector tree, leaders atomically
                          update one shared accumulator.

   A [max] spectrum with the same six shapes exercises the
   atomicMax-generating path; the synthesis planner treats any spectrum
   with this structure uniformly. *)

let sum_source =
  {|
// Figure 1(a): atomic autonomous codelet.
__codelet __tag(scalar)
float sum(const Array<1,float> in) {
  unsigned len = in.Size();
  float accum = 0.0;
  for (unsigned i = 0; i < len; i++) {
    accum += in[i];
  }
  return accum;
}

// Figure 1(b), tiled access pattern.
__codelet __tag(compound_tiled)
float sum(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(tiled);
  Sequence inc(tiled);
  Sequence end(tiled);
  Map map(sum, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sum(map);
}

// Figure 1(b), strided access pattern.
__codelet __tag(compound_strided)
float sum(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(strided);
  Sequence inc(strided);
  Sequence end(strided);
  Map map(sum, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sum(map);
}

// Figure 1(c): atomic cooperative codelet (tree-based summation).
__codelet __coop __tag(coop_tree)
float sum(const Array<1,float> in) {
  Vector vthread();
  __shared float tmp[in.Size()];
  __shared float partial[vthread.MaxSize()];
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0.0;
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

// Figure 3(a): cooperative codelet, single accumulator updated atomically
// by all threads of all vectors.
__codelet __coop __tag(shared_v1)
float sum(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicAdd float tmp;
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0.0;
  tmp = val;
  return tmp;
}

// Figure 3(b): cooperative codelet, per-vector tree then an atomic update
// of the single accumulator by the first lane of each vector.
__codelet __coop __tag(shared_v2)
float sum(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicAdd float partial;
  __shared float tmp[in.Size()];
  float val = 0.0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0.0;
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

(* The same six shapes for a max-reduction spectrum: exercises the
   atomicMax API and the Min/Max lowering paths. The neutral element of max
   over the simulator's finite inputs is a very negative float. *)
let max_source =
  {|
__codelet __tag(scalar)
float maxval(const Array<1,float> in) {
  unsigned len = in.Size();
  float accum = -3.0e38;
  for (unsigned i = 0; i < len; i++) {
    accum = in[i] > accum ? in[i] : accum;
  }
  return accum;
}

__codelet __tag(compound_tiled)
float maxval(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(tiled);
  Sequence inc(tiled);
  Sequence end(tiled);
  Map map(maxval, partition(in, p, start, inc, end));
  map.atomicMax();
  return maxval(map);
}

__codelet __tag(compound_strided)
float maxval(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(strided);
  Sequence inc(strided);
  Sequence end(strided);
  Map map(maxval, partition(in, p, start, inc, end));
  map.atomicMax();
  return maxval(map);
}

__codelet __coop __tag(coop_tree)
float maxval(const Array<1,float> in) {
  Vector vthread();
  __shared float tmp[in.Size()];
  __shared float partial[vthread.MaxSize()];
  float val = -3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : -3.0e38;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    float other = -3.0e38;
    other = vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : -3.0e38;
    val = other > val ? other : val;
    tmp[vthread.ThreadId()] = val;
  }
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
    if (vthread.LaneId() == 0) {
      partial[vthread.VectorId()] = val;
    }
    if (vthread.VectorId() == 0) {
      val = vthread.ThreadId() <= in.Size() / vthread.MaxSize() ? partial[vthread.LaneId()] : -3.0e38;
      for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
        float other = -3.0e38;
        other = vthread.LaneId() + offset < vthread.Size() ? partial[vthread.ThreadId() + offset] : -3.0e38;
        val = other > val ? other : val;
        partial[vthread.ThreadId()] = val;
      }
    }
  }
  return val;
}

__codelet __coop __tag(shared_v1)
float maxval(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicMax float tmp;
  float val = -3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : -3.0e38;
  tmp = val;
  return tmp;
}

__codelet __coop __tag(shared_v2)
float maxval(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicMax float partial;
  __shared float tmp[in.Size()];
  float val = -3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : -3.0e38;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    float other = -3.0e38;
    other = vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : -3.0e38;
    val = other > val ? other : val;
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

(* An integer sum spectrum: the same six shapes over Array<1,int>,
   exercising the integer element-type paths (int literals, exact
   arithmetic, CUDA "int" emission). *)
let int_sum_source =
  {|
__codelet __tag(scalar)
int sumi(const Array<1,int> in) {
  unsigned len = in.Size();
  int accum = 0;
  for (unsigned i = 0; i < len; i++) {
    accum += in[i];
  }
  return accum;
}

__codelet __tag(compound_tiled)
int sumi(const Array<1,int> in) {
  __tunable unsigned p;
  Sequence start(tiled);
  Sequence inc(tiled);
  Sequence end(tiled);
  Map map(sumi, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sumi(map);
}

__codelet __tag(compound_strided)
int sumi(const Array<1,int> in) {
  __tunable unsigned p;
  Sequence start(strided);
  Sequence inc(strided);
  Sequence end(strided);
  Map map(sumi, partition(in, p, start, inc, end));
  map.atomicAdd();
  return sumi(map);
}

__codelet __coop __tag(coop_tree)
int sumi(const Array<1,int> in) {
  Vector vthread();
  __shared int tmp[in.Size()];
  __shared int partial[vthread.MaxSize()];
  int val = 0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0;
    tmp[vthread.ThreadId()] = val;
  }
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
    if (vthread.LaneId() == 0) {
      partial[vthread.VectorId()] = val;
    }
    if (vthread.VectorId() == 0) {
      val = vthread.ThreadId() <= in.Size() / vthread.MaxSize() ? partial[vthread.LaneId()] : 0;
      for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
        val += vthread.LaneId() + offset < vthread.Size() ? partial[vthread.ThreadId() + offset] : 0;
        partial[vthread.ThreadId()] = val;
      }
    }
  }
  return val;
}

__codelet __coop __tag(shared_v1)
int sumi(const Array<1,int> in) {
  Vector vthread();
  __shared _atomicAdd int tmp;
  int val = 0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0;
  tmp = val;
  return tmp;
}

__codelet __coop __tag(shared_v2)
int sumi(const Array<1,int> in) {
  Vector vthread();
  __shared _atomicAdd int partial;
  __shared int tmp[in.Size()];
  int val = 0;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 0;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    val += vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 0;
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

(* A min-reduction spectrum (float), the mirror image of [max_source]:
   exercises the atomicMin paths. *)
let min_source =
  {|
__codelet __tag(scalar)
float minval(const Array<1,float> in) {
  unsigned len = in.Size();
  float accum = 3.0e38;
  for (unsigned i = 0; i < len; i++) {
    accum = in[i] < accum ? in[i] : accum;
  }
  return accum;
}

__codelet __tag(compound_tiled)
float minval(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(tiled);
  Sequence inc(tiled);
  Sequence end(tiled);
  Map map(minval, partition(in, p, start, inc, end));
  map.atomicMin();
  return minval(map);
}

__codelet __tag(compound_strided)
float minval(const Array<1,float> in) {
  __tunable unsigned p;
  Sequence start(strided);
  Sequence inc(strided);
  Sequence end(strided);
  Map map(minval, partition(in, p, start, inc, end));
  map.atomicMin();
  return minval(map);
}

__codelet __coop __tag(coop_tree)
float minval(const Array<1,float> in) {
  Vector vthread();
  __shared float tmp[in.Size()];
  __shared float partial[vthread.MaxSize()];
  float val = 3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 3.0e38;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    float other = 3.0e38;
    other = vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 3.0e38;
    val = other < val ? other : val;
    tmp[vthread.ThreadId()] = val;
  }
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {
    if (vthread.LaneId() == 0) {
      partial[vthread.VectorId()] = val;
    }
    if (vthread.VectorId() == 0) {
      val = vthread.ThreadId() <= in.Size() / vthread.MaxSize() ? partial[vthread.LaneId()] : 3.0e38;
      for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
        float other = 3.0e38;
        other = vthread.LaneId() + offset < vthread.Size() ? partial[vthread.ThreadId() + offset] : 3.0e38;
        val = other < val ? other : val;
        partial[vthread.ThreadId()] = val;
      }
    }
  }
  return val;
}

__codelet __coop __tag(shared_v1)
float minval(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicMin float tmp;
  float val = 3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 3.0e38;
  tmp = val;
  return tmp;
}

__codelet __coop __tag(shared_v2)
float minval(const Array<1,float> in) {
  Vector vthread();
  __shared _atomicMin float partial;
  __shared float tmp[in.Size()];
  float val = 3.0e38;
  val = vthread.ThreadId() < in.Size() ? in[vthread.ThreadId()] : 3.0e38;
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {
    float other = 3.0e38;
    other = vthread.LaneId() + offset < vthread.Size() ? tmp[vthread.ThreadId() + offset] : 3.0e38;
    val = other < val ? other : val;
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

(** Memoised parse+check of a source unit. *)
let load =
  let cache : (string, (Ast.codelet * Check.info) list) Hashtbl.t =
    Hashtbl.create 4
  in
  fun (src : string) ->
    match Hashtbl.find_opt cache src with
    | Some u -> u
    | None ->
        let u = Check.check_unit (Parser.parse_unit src) in
        Hashtbl.add cache src u;
        u

let sum_unit () = load sum_source
let max_unit () = load max_source
let int_sum_unit () = load int_sum_source
let min_unit () = load min_source

(** Find the codelet with the given [__tag] in a checked unit. *)
let find_tag (u : (Ast.codelet * Check.info) list) ~(tag : string) :
    Ast.codelet * Check.info =
  match List.find_opt (fun (c, _) -> c.Ast.c_tag = Some tag) u with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "no codelet tagged %S" tag)
