(** Performance model for the six higher-level DLA routines of paper
    Table 6, decomposed exactly as the numeric implementations in
    [Augem_blas.Level3]: SYMM/SYRK/SYR2K/TRMM cast their flops onto the
    GEMM kernel (with a small routine-shape factor); TRSM adds the
    diagonal-block solve that AUGEM translates straightforwardly — the
    paper's stated reason it loses TRSM; GER is Level-1-kernel bound. *)

type routine =
  | SYMM
  | SYRK
  | SYR2K
  | TRMM
  | TRSM
  | GER

val all : routine list
val name : routine -> string

(** Fraction of peak a library's small triangular solve sustains. *)
val solve_efficiency : Library.id -> float

(** Predicted MFLOPS of one routine at one size (m = n; k as in the
    paper's sweep).  Applied to the library, arch and routine alone it
    analyses the routine's kernel once for every size it is then
    given. *)
val predict :
  Library.id -> Augem_machine.Arch.t -> routine -> m:int -> k:int -> float

(** Mean over the paper's Table 6 size sweep. *)
val average : Library.id -> Augem_machine.Arch.t -> routine -> float
