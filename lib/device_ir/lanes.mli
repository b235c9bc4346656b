(** Warp arithmetic, defined once for every warp-synchronous walker:
    {!Gpusim.Interp}, the {!Access} walk (which {!Race} also runs) and
    {!Symbolic.Eval}. A lane set is a [bool array] mask read over the
    first [lanes] lanes of a warp. The rules are int loops over a
    module-level scratch array and allocate nothing. *)

val warp_size : int

(** Lanes of warp [w] in a block of [nthreads] threads: 32, or fewer in
    the block's last warp. *)
val lanes_in_warp : nthreads:int -> int -> int

val active : bool array -> int -> int

(** 128-byte global transactions of one warp access: the distinct
    segments ([idx lsr 5], 4-byte elements) its active lanes touch. *)
val segments : int array -> bool array -> int -> int

(** {!segments} of a vector load: each lane touches [idx .. idx+width-1]
    ([width] at most 4). *)
val vec_segments : int array -> bool array -> int -> width:int -> int

(** Shared-memory replays of one warp access: the most distinct
    addresses any of the 32 banks ([idx land 31]) receives, at least 1. *)
val bank_degree : int array -> bool array -> int -> int

(** Transactions of one warp atomic: the distinct addresses its active
    lanes update. *)
val atomic_distinct : int array -> bool array -> int -> int

(** Same-address conflicts of one warp atomic: the most active lanes on
    one address (0 with no lane active). *)
val atomic_worst : int array -> bool array -> int -> int

(** Returned by {!shfl_src} for a source outside the warp. *)
val out_of_warp : int

(** The lane whose value [lane] reads in a shuffle of [mode] with lane
    operand [delta] over sub-warps of [width] lanes: a down/up/xor source
    outside the lane's sub-warp reads its own value, a source outside
    the 32-lane warp is {!out_of_warp}. *)
val shfl_src : Ir.shuffle_mode -> lane:int -> delta:int -> width:int -> int
