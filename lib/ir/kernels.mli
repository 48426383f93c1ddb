(** The "simple C implementations" the paper feeds to AUGEM (its
    Figures 12, 15, 16 and 17), expressed directly in the IR, plus the
    extension kernels this reproduction adds.  The {!Parser} accepts
    the same programs as C text. *)

(** Helper for building canonical counted loops
    [for (v = from; v < below; v += step)]. *)
val loop :
  string ->
  from:Ast.expr ->
  below:Ast.expr ->
  ?step:Ast.expr ->
  Ast.stmt list ->
  Ast.stmt

val gemm : Ast.kernel
(** Figure 12: the GEMM micro-kernel over packed A (A[l*Mc+i]) and
    per-column-packed B (B[j*Kc+l]), accumulating into C. *)

val gemm_packed : Ast.kernel
(** GEMM over a row-major-packed B block (B[l*N+j]) — the interleaved
    layout GotoBLAS produces, the precondition of the Shuf method. *)

val gemv : Ast.kernel
(** Figure 15: column-sweep GEMV, y += A(:, i) * x\[i\]. *)

val axpy : Ast.kernel
(** Figure 16: AXPY, Y\[i\] += X\[i\] * alpha. *)

val dot : Ast.kernel
(** Figure 17: DOT, res += X\[i\] * Y\[i\], result in a 1-element
    output buffer. *)

val ger : Ast.kernel
(** Extension: rank-1 update A += alpha x y^T (Table 6's GER). *)

val scal : Ast.kernel
(** Extension: DSCAL, X *= alpha (the svSCAL template). *)

val copy : Ast.kernel
(** Extension: DCOPY, Y = X (the svCOPY template). *)

val pack_a : Ast.kernel
(** Blocked-GEMM packing: copy an Mc x Kc block of A (leading
    dimension LDA) into the contiguous A\[l*Mc+i\] layout the GEMM
    micro-kernel consumes.  Unit-stride inner copy — svCOPY shaped. *)

val pack_b : Ast.kernel
(** Blocked-GEMM packing: copy a Kc x Nc block of B (leading
    dimension LDB) into the per-column B\[j*Kc+l\] layout.  Unit-stride
    inner copy — svCOPY shaped. *)

val retype : Ast.dtype -> Ast.kernel -> Ast.kernel
(** [retype Float k] rewrites every FP parameter and declaration of
    [k] to single precision and renames the d-prefixed function to its
    s-prefixed BLAS sibling ([dgemm_kernel] -> [sgemm_kernel]).
    [retype Double] is the identity. *)

(** Kernel identifiers used across the tuner, library models, harness
    and CLI.  A [name] identifies the algorithm; the element precision
    is carried separately (an [Ast.Float]/[Ast.Double] value, usually
    an optional [?fp] argument defaulting to double). *)
type name = Gemm | Gemv | Axpy | Dot | Ger | Scal | Copy | Pack_a | Pack_b

val names : name list

val all : (name * Ast.kernel) list
(** The double-precision kernel set. *)

val all_for : Ast.dtype -> (name * Ast.kernel) list
(** The kernel set at a given FP element type. *)

val kernel_of_name : ?fp:Ast.dtype -> name -> Ast.kernel
val name_to_string : ?fp:Ast.dtype -> name -> string
val name_of_string : string -> name option
