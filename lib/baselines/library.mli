(** Models of the comparison BLAS libraries (paper section 5): the
    platform vendor library (Intel MKL 11.0 / AMD ACML 5.3), ATLAS
    3.11.8 and GotoBLAS2 1.13.

    MKL and ACML are closed source and GotoBLAS's kernels are
    hand-written assembly, so each library is modelled as a
    kernel-generation policy through our own back end plus structural
    attributes (see DESIGN.md): ISA reach (GotoBLAS2 predates AVX/FMA —
    generated SSE2-only), register blocking quality, per-kernel
    software-prefetch behaviour, and one global software-quality
    factor per library. *)

type id =
  | AUGEM
  | Vendor  (** MKL on Intel platforms, ACML on AMD *)
  | ATLAS
  | GotoBLAS

val all : id list
val display_name : Augem_machine.Arch.t -> id -> string

(** The machine as the library sees it (GotoBLAS: SSE2-only variant). *)
val effective_arch : Augem_machine.Arch.t -> id -> Augem_machine.Arch.t

(** Global software-quality factor (packing, edge handling, interface
    overheads) — the only fitted constant per library. *)
val efficiency : id -> float

(** Does this library's implementation of the kernel software-prefetch? *)
val prefetches : id -> Augem_machine.Arch.t -> Augem_ir.Kernels.name -> bool

(** The modelled library's kernel for an architecture (memoized).
    AUGEM's configuration comes from the auto-tuner; the others use the
    fixed policies above. *)
val generate :
  id ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  Augem_machine.Arch.t * Augem_machine.Insn.program

(** The hot loop of {!generate}'s kernel, analysed on the library's
    effective arch. *)
val analyze :
  id -> Augem_machine.Arch.t -> Augem_ir.Kernels.name -> Augem_sim.Perf.loop

(** Predicted MFLOPS of one library on one workload.  Applied to the
    library, arch and kernel alone it analyses the kernel once, and the
    function it returns predicts any number of workloads from that
    analysis. *)
val predict :
  id ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  Augem_sim.Perf.workload ->
  float
