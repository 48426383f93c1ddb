(** Reference Level-3 BLAS.

    [dgemm_naive] is the semantics oracle.  {!nest} is Goto's
    block-partitioned algorithm — the one the paper's GEMM kernel
    plugs into — written once over an {!executor}.  One nest, three
    executors: {!dgemm_blocked} packs A and B into the exact layouts
    the generated micro-kernel expects and invokes a micro-kernel
    callback per packed pair (by default the reference micro-kernel;
    in tests, the simulated generated assembly); the simulated and
    native blocked drivers supply generated packing and micro-kernels.

    SYMM, SYRK, SYR2K, TRMM and TRSM follow the standard cast-onto-GEMM
    decompositions of Goto & van de Geijn; TRSM's small triangular
    solves do not map onto GEMM — the structural reason AUGEM loses
    only TRSM in the paper's Table 6. *)

val dgemm_naive : alpha:float -> beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Pack an mc x kc block of A at (i0, l0) into the micro-kernel layout
    A[l*mc + i]. *)
val pack_a :
  Matrix.t -> i0:int -> l0:int -> mc:int -> kc:int -> float array -> unit

(** Pack a kc x nc block of B at (l0, j0) into the per-column stream
    layout B[j*kc + l]. *)
val pack_b :
  Matrix.t -> l0:int -> j0:int -> kc:int -> nc:int -> float array -> unit

(** The reference micro-kernel over packed operands (the semantics of
    the paper's Figure 12 kernel). *)
val micro_kernel_ref :
  mc:int ->
  kc:int ->
  nc:int ->
  pa:float array ->
  pb:float array ->
  c_data:float array ->
  c_off:int ->
  ldc:int ->
  unit

type micro_kernel =
  mc:int ->
  kc:int ->
  nc:int ->
  pa:float array ->
  pb:float array ->
  c_data:float array ->
  c_off:int ->
  ldc:int ->
  unit

type blocking = {
  bk_mc : int;
  bk_kc : int;
  bk_nc : int;
}

val default_blocking : blocking

(** What one worker does, keyed by block coordinates: C's columns
    [j0, j0 + nc) := beta * C's; pack the kc x nc panel of B at
    (l0, j0) into the worker's packed-B buffer and multiply it by alpha;
    pack the mc x kc block of A at (i0, l0) into the worker's own
    packed-A buffer, from element [at]; the C tile at (i0, j0) +=
    packed A (the block from element [at]) * packed B.  Under [Rows],
    [at] is always 0. *)
type worker = {
  scale_c : float -> j0:int -> nc:int -> unit;
  pack_b : l0:int -> j0:int -> kc:int -> nc:int -> unit;
  scale_b : float -> kc:int -> nc:int -> unit;
  pack_a : i0:int -> l0:int -> mc:int -> kc:int -> at:int -> unit;
  micro : i0:int -> j0:int -> mc:int -> kc:int -> nc:int -> at:int -> unit;
}

(** [fork n slice] runs [slice w] exactly once for every [w < n],
    possibly concurrently, and returns when all have returned. *)
type fork = int -> (int -> unit) -> unit

(** The fork that runs every slice on its caller, in index order. *)
val direct : fork

(** The workers of one pass and the fork that runs them.  An executor
    owns its operands, packing buffers and element rounding.  Under
    [Rows] every worker's micro-kernel reads the packed-B buffer that
    worker 0 fills; under [Columns] each worker reads its own. *)
type executor = {
  workers : worker array;
  fork : fork;
}

(** How a pass shares its work among workers.

    - [Rows w]: worker 0, the caller, scales all of C, then packs and
      scales each kc x nc panel of B; the [w] workers share the panel's
      ic blocks.  [Rows 1] is the serial nest.
    - [Columns {workers; chunks}], for a K within one kc panel: each
      worker claims the next unclaimed chunk [(j0, nc)] of C's columns
      and does all of its work alone: scales those columns of C, packs
      and scales their B into its own packed-B buffer, and runs every
      ic block over it.  A worker packs the ic blocks of A on its first
      chunk of a pass, block [i0] from element [i0 * k] of its packed-A
      buffer, and its later chunks reuse them: however the chunks fall
      among the workers, a pass packs A at most once per worker. *)
type schedule =
  | Rows of int
  | Columns of {
      workers : int;
      chunks : (int * int) array;
    }

(** The workers a pass under the schedule uses. *)
val schedule_workers : schedule -> int

(** [check_blocking ~who blocking] raises [Invalid_argument], prefixed
    by [who], unless every dimension of [blocking] is positive. *)
val check_blocking : who:string -> blocking -> unit

(** [schedule blocking ~nr ~workers ~m ~n ~k] shares an m x n x k
    product among at most [workers] workers, for a micro-kernel whose
    register tile is [nr >= 1] columns wide, under a [blocking] that
    {!check_blocking} accepts.

    It picks columns when K fits one kc panel, C is at least as wide as
    it is tall (m <= n) and there are two or more workers.  Such a
    product is bound by C's memory traffic, and row blocks would have
    both cores write every cache line that straddles a block boundary.
    The chunks are about four per worker, each a multiple of [nr]
    columns wide, cut at nc panel boundaries; only the last chunk of a
    panel is narrower.  So every column meets the micro-kernel's
    register tiles exactly as in the serial nest.  The workers are
    capped by the chunks.

    Otherwise it shares row blocks, the workers capped by the ic blocks
    of C.  Either way a single worker gets [Rows 1]. *)
val schedule :
  blocking -> nr:int -> workers:int -> m:int -> n:int -> k:int -> schedule

(** [nest ~who ~blocking ~schedule ~alpha ~beta a b c] validates the
    shapes, the blocking and a column schedule's K, raising
    [Invalid_argument] prefixed by [who], and returns the jc/pc/ic loop
    nest for C := alpha*A*B + beta*C under [schedule].  Each application to an
    executor, which holds as many workers as the schedule says, runs
    one full pass; passes must not overlap.

    Under [Rows], a worker claims the next unclaimed ic block of the
    current panel from a shared cursor, so a fast worker takes more
    blocks; the fork returns before the next [pack_b].  A panel with a
    single block, [Rows 1], and every pass with [alpha = 0] run on the
    caller without a fork.  Under [Columns], one fork covers the pass.

    Every block is one the serial nest runs, with the same packed
    operands, and the pc panels of each C tile follow one another in
    the serial order: the result does not depend on the schedule, on
    how many workers there are or on which worker ran which block. *)
val nest :
  who:string ->
  blocking:blocking ->
  schedule:schedule ->
  alpha:float ->
  beta:float ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  executor ->
  unit

(** [packed_sizes blocking schedule a b] is the element count of one
    worker's packed-A buffer and of one packed-B buffer for A * B under
    [blocking] and [schedule].  Under [Rows]: one block,
    min(mc,m)·min(kc,k), and min(kc,k)·min(nc,n).  Under [Columns]:
    every ic block, m·k, and k times the widest chunk.  Every executor
    sizes its packing buffers by it. *)
val packed_sizes : blocking -> schedule -> Matrix.t -> Matrix.t -> int * int

(** C := alpha*A*B + beta*C: {!nest} over the reference executor, on
    one worker ([Rows 1]). *)
val dgemm_blocked :
  ?blocking:blocking ->
  ?kernel:micro_kernel ->
  alpha:float ->
  beta:float ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  unit

(** C := alpha*A*B + beta*C.  SYMM, SYRK, SYR2K, TRMM and TRSM run
    their GEMM work through the one they are given: by default
    {!dgemm_blocked} with its own defaults; a closure over
    [Blocked.gemm] or [Native_blocked.gemm] runs it on a plan's
    generated kernels. *)
type gemm =
  alpha:float -> beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

val transpose : Matrix.t -> Matrix.t

type side =
  | Left
  | Right

(** SYMM over a symmetric A (lower storage), cast onto GEMM. *)
val dsymm :
  ?gemm:gemm ->
  side:side ->
  alpha:float ->
  beta:float ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  unit

(** C := alpha*A*A^T + beta*C, lower triangle. *)
val dsyrk :
  ?gemm:gemm ->
  alpha:float ->
  beta:float ->
  Matrix.t ->
  Matrix.t ->
  unit

(** C := alpha*(A*B^T + B*A^T) + beta*C, lower triangle. *)
val dsyr2k :
  ?gemm:gemm ->
  alpha:float ->
  beta:float ->
  Matrix.t ->
  Matrix.t ->
  Matrix.t ->
  unit

(** B := alpha*L*B, L lower-triangular; off-diagonal work through
    GEMM. *)
val dtrmm :
  ?gemm:gemm ->
  alpha:float ->
  Matrix.t ->
  Matrix.t ->
  unit

(** B := alpha*L^-1*B via the paper's two-step decomposition: small
    diagonal solves (not GEMM-accelerated) plus GEMM trailing
    updates. *)
val dtrsm :
  ?gemm:gemm ->
  alpha:float ->
  Matrix.t ->
  Matrix.t ->
  unit
