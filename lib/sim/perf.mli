(** MFLOPS predictor: combines the cycle-level steady-state cost of a
    kernel's hot loop ({!Cycle_sim}) with the streaming-bandwidth bound
    of the memory system ({!Mem_model}) — the compute-roof /
    bandwidth-roof reasoning that governs dense linear algebra.

    Absolute numbers are those of the modelled microarchitectures; the
    benchmarks compare libraries on the same model, so relative
    positions are what carries over from the paper. *)

type workload =
  | W_gemm of { m : int; n : int; k : int }
  | W_gemv of { m : int; n : int }
  | W_axpy of { n : int }
  | W_dot of { n : int }

val workload_flops : workload -> float

(** Elements touched — the work unit for kernels that perform no
    arithmetic (DCOPY), whose "MFLOPS" figure is then millions of
    elements per second. *)
val workload_elements : workload -> float

type estimate = {
  e_mflops : float;
  e_compute_cycles : float;
  e_memory_cycles : float;
  e_flops : float;
  e_level : Mem_model.level;  (** residency of the working set *)
  e_cycles_per_iter : float;  (** hot loop steady state *)
  e_flops_per_iter : int;
}

exception No_hot_loop of string

(** A program's hot loop ({!Cycle_sim.hot_loop}), analysed on
    [lp_arch] with flops and bytes counted at [lp_et].  Every
    prediction reads one: a caller that predicts a program at several
    sizes or under several drivers analyses it once. *)
type loop = {
  lp_arch : Augem_machine.Arch.t;
  lp_et : Augem_machine.Etype.t;
  lp_info : Cycle_sim.loop_info;
}

(** Analyse a generated program's hot loop.  [pipeline_model] selects
    out-of-order (default) or in-order core modelling (see
    {!Cycle_sim.steady_cycles}); [et] the element type flops,
    footprints and traffic are accounted in (default f64).  Raises
    {!No_hot_loop} when the program has no innermost loop that computes
    or loads. *)
val analyze :
  ?pipeline_model:[ `Out_of_order | `In_order ] ->
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_machine.Insn.program ->
  loop

(** Predict the performance of an analysed program on a workload. *)
val predict : loop -> workload -> estimate

(** Predict the full blocked GEMM driver (packing + jc/pc/ic
    macro-kernel loops around the given micro-kernel) under an
    explicit MC/KC/NC blocking.  Only meaningful for {!W_gemm}
    workloads (raises [Invalid_argument] otherwise).  DRAM traffic
    follows Goto's analysis: packed B moved once, the A block repacked
    once per NC pass, C touched once per KC pass; micro-kernel panel
    loads are in-cache and already inside the hot loop's cycle
    count. *)
val predict_blocked :
  loop -> blocking:Mem_model.blocking -> workload -> estimate

(** Predict the unblocked path: the micro-kernel streaming over the
    full matrices with register tiling only, re-reading A for every
    [nr]-wide column strip.  The baseline the blocked driver is gated
    against.  The compute and memory legs serialize (no overlap):
    without blocking the operands are not cache-resident and the
    out-of-order window cannot hide DRAM miss latency.  Only
    meaningful for {!W_gemm} workloads. *)
val predict_streamed : loop -> ?nr:int -> workload -> estimate
