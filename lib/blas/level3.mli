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

(** What one worker does to an ic block, keyed by block coordinates:
    pack the mc x kc block of A at (i0, l0) into the worker's own
    packed-A buffer; the C tile at (i0, j0) += packed A * packed B. *)
type worker = {
  pack_a : i0:int -> l0:int -> mc:int -> kc:int -> unit;
  micro : i0:int -> j0:int -> mc:int -> kc:int -> nc:int -> unit;
}

(** [fork n slice] runs [slice w] exactly once for every [w < n],
    possibly concurrently, and returns when all have returned. *)
type fork = int -> (int -> unit) -> unit

(** The fork that runs every slice on its caller, in index order. *)
val direct : fork

(** The steps of one macro-kernel pass.  The caller runs the shared
    ones: C := beta*C; pack the kc x nc panel of B at (l0, j0); packed
    B := alpha * packed B.  Each packed-B panel's ic blocks go to the
    [workers] (at least one) through [fork].  An executor owns its
    operands, packing buffers and element rounding. *)
type executor = {
  scale_c : float -> unit;
  pack_b : l0:int -> j0:int -> kc:int -> nc:int -> unit;
  scale_b : float -> kc:int -> nc:int -> unit;
  workers : worker array;
  fork : fork;
}

(** [nest ~who ~blocking ~alpha ~beta a b c] validates the shapes and
    the blocking, raising [Invalid_argument] prefixed by [who], and
    returns the jc/pc/ic loop nest for C := alpha*A*B + beta*C.  Each
    application to an executor runs one full pass; passes must not
    overlap.

    Within a panel, a worker claims the next unclaimed ic block from a
    shared cursor, so a fast worker takes more blocks.  The fork
    returns before the next [pack_b], every block is the one the serial
    nest runs, and the pc panels of each C tile follow one another in
    the serial order: the result does not depend on how many workers
    there are or which worker ran which block.  A panel with a single
    block, and an executor with a single worker, run on the caller
    without a fork; so does every pass with [alpha = 0]. *)
val nest :
  who:string -> blocking:blocking -> alpha:float -> beta:float ->
  Matrix.t -> Matrix.t -> Matrix.t -> executor -> unit

(** [packed_sizes blocking a b] is the element count of one packed-A
    block and of one packed-B panel for A * B under [blocking]:
    min(mc,m)·min(kc,k) and min(kc,k)·min(nc,n).  Every executor sizes
    its packing buffers by it. *)
val packed_sizes : blocking -> Matrix.t -> Matrix.t -> int * int

(** C := alpha*A*B + beta*C: {!nest} over the reference executor. *)
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
