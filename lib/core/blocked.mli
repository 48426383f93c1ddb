(** The blocked DGEMM driver: Goto's jc/pc/ic macro-kernel loop nest
    over NC/KC/MC cache blocks where every inner routine — pack-A,
    pack-B and the micro-kernel — is AUGEM-generated assembly executed
    on the functional simulator.  The full generated GEMM the paper
    deploys inside OpenBLAS.

    A {!plan} holds four generated kernels: the micro-kernel, the two
    packing kernels and SCAL.  The native executor
    ([Native_blocked.gemm_runner]) scales C by beta and the packed B
    panel by alpha with SCAL; this simulated executor and the reference
    keep their OCaml scaling loops, because they are the oracles the
    native result is checked against.

    One nest, three executors: the loop nest is
    {!Augem_blas.Level3.nest}, shared with the reference
    {!Augem_blas.Level3.dgemm_blocked}, so a differential run against
    that reference with the same simulated micro-kernel is bit-exact
    ({!check}). *)

type plan = {
  pl_arch : Augem_machine.Arch.t;
  pl_et : Augem_machine.Etype.t;
      (** scalar precision the plan's kernels compute in *)
  pl_blocking : Augem_sim.Mem_model.blocking;  (** tuned MC/KC/NC *)
  pl_mr : int;
  pl_nr : int;
  pl_micro : Augem_machine.Insn.program;
  pl_micro_config : Augem_autotune.Tuner.candidate;
  pl_pack_a : Augem_machine.Insn.program;
  pl_pack_b : Augem_machine.Insn.program;
  pl_scal : Augem_machine.Insn.program;
      (** X := alpha * X; the native executor's beta and alpha scaling *)
  pl_micro_ties : Augem_autotune.Tuner.blocked_member list;
      (** the micro-kernel's exact-tie set, in space order, the plan's
          micro-kernel, blocking and register tile first *)
  pl_pack_a_ties :
    (Augem_autotune.Tuner.candidate * Augem_machine.Insn.program) list;
  pl_pack_b_ties :
    (Augem_autotune.Tuner.candidate * Augem_machine.Insn.program) list;
  pl_scal_ties :
    (Augem_autotune.Tuner.candidate * Augem_machine.Insn.program) list;
      (** likewise for pack-A, pack-B and SCAL: every candidate the
          cycle model scores exactly like the plan's kernel, which is
          first.  [Native_blocked.load] times the members of each set
          against each other *)
  pl_blocked_mflops : float;
      (** predicted MFLOPS of the blocked driver on the tuning workload;
          every member of [pl_micro_ties] has this score *)
  pl_streamed_mflops : float;
      (** predicted MFLOPS of the unblocked (streaming) baseline, for
          the sweep's own pick *)
  pl_fell_back : bool;
      (** the micro x blocking cross-product was fully discarded, or
          the pack-A, pack-B or SCAL sweep fell back to its safe
          baseline: a degraded plan, never cached by the service *)
}

(** Tune the micro-kernel jointly with its blocking triple
    ({!Augem_autotune.Tuner.tune_blocked}), then the two packing kernels
    and SCAL ({!Augem_autotune.Tuner.tuned}, memoized per process), all
    through the staged-lowering pipeline.  [?et] selects the scalar
    precision (default f64): an f32 plan generates SGEMM kernels,
    derives its blocking with 4-byte elements, and simulates with f32
    lane semantics. *)
val plan :
  ?et:Augem_machine.Etype.t ->
  ?jobs:int -> ?workload:Augem_sim.Perf.workload -> Augem_machine.Arch.t ->
  plan

(** [pick p ~micro ~pack_a ~pack_b ~scal] is [p] running these members
    of its tie sets: the kernels, the micro-kernel's configuration,
    blocking and register tile are theirs, and each set holds only its
    pick.  The predicted figures stay [p]'s. *)
val pick :
  plan ->
  micro:Augem_autotune.Tuner.blocked_member ->
  pack_a:Augem_autotune.Tuner.candidate * Augem_machine.Insn.program ->
  pack_b:Augem_autotune.Tuner.candidate * Augem_machine.Insn.program ->
  scal:Augem_autotune.Tuner.candidate * Augem_machine.Insn.program ->
  plan

(** [drop_ties p] is [p] with each tie set cut to its first member, the
    kernel [p] runs: the plan the model answered, without the members
    only [Native_blocked.load] times. *)
val drop_ties : plan -> plan

(** The safe-baseline plan, generated without a sweep: the baseline
    micro-kernel with the analytically-derived blocking, and baseline
    packing and SCAL kernels.  Always [pl_fell_back]; the service
    degrades to it. *)
val baseline_plan :
  ?et:Augem_machine.Etype.t ->
  ?workload:Augem_sim.Perf.workload -> Augem_machine.Arch.t -> plan

type stats = {
  st_micro_calls : int;
  st_pack_a_calls : int;
  st_pack_b_calls : int;
  st_insns : int;  (** instructions interpreted across all three kernels *)
}

val default_fuel : int

(** [gemm p a b c] computes C := alpha * A * B + beta * C with the
    plan's generated kernels on the simulator.  [?blocking] overrides
    the plan's triple (it is a runtime parameter of the generated code;
    tests use small triples to force multi-block trips on small
    matrices).  Raises [Augem_sim.Exec_sim.Sim_error] on a kernel
    fault, [Invalid_argument] on shape mismatch or a non-positive
    blocking. *)
val gemm :
  ?fuel:int ->
  ?blocking:Augem_sim.Mem_model.blocking ->
  ?alpha:float ->
  ?beta:float ->
  plan ->
  Augem_blas.Matrix.t ->
  Augem_blas.Matrix.t ->
  Augem_blas.Matrix.t ->
  stats

(** The blocking a run uses — [?blocking] if given, else the plan's
    tuned triple — as {!Augem_blas.Level3.nest} takes it. *)
val nest_blocking :
  ?blocking:Augem_sim.Mem_model.blocking -> plan -> Augem_blas.Level3.blocking

(** [operands ~et ~seed ~m ~n ~k] is seeded random A (m x k), B (k x n)
    and C0 (m x n), every element narrowed to [et]. *)
val operands :
  et:Augem_machine.Etype.t -> seed:int -> m:int -> n:int -> k:int ->
  Augem_blas.Matrix.t * Augem_blas.Matrix.t * Augem_blas.Matrix.t

(** Cycle-model prediction of the plan's blocked driver on a workload. *)
val predict : plan -> Augem_sim.Perf.workload -> Augem_sim.Perf.estimate

(** Cycle-model prediction of the unblocked streaming baseline. *)
val predict_streamed :
  plan -> Augem_sim.Perf.workload -> Augem_sim.Perf.estimate

(** The result comparison shared by {!check} and
    [Native_blocked.check]: [a] against [b], bit-exact when [tol = 0.]
    and otherwise within the relative [tol] of
    {!Augem_blas.Matrix.approx_equal} (scaled by [a]).  The error is
    ["<problem>: <what> (max |diff| = ..., tol ...)"]. *)
val agree :
  problem:string -> what:string -> tol:float ->
  Augem_blas.Matrix.t -> Augem_blas.Matrix.t -> (unit, string) result

(** ["m=.. n=.. k=.. alpha=.. beta=.."], the [problem] of {!agree}. *)
val problem : m:int -> n:int -> k:int -> alpha:float -> beta:float -> string

(** Differential check on one shape: the generated blocked driver must
    match {!Augem_blas.Level3.dgemm_naive} within [tol] {i and} agree
    bit-exactly with the reference macro-kernel
    ({!Augem_blas.Level3.dgemm_blocked}, reference packing) driving the
    same simulated micro-kernel — same block schedule, same packed
    layouts, same FP order, so any deviation is a packing or loop-nest
    bug rather than rounding.

    [tol] defaults to the relative, element-type- and K-scaled
    tolerance {!Augem_machine.Etype.tol} (the naive reference
    accumulates in f64, so the rounding gap grows with the reduction
    length and the element epsilon); pass an explicit value to
    override. *)
val check :
  ?fuel:int ->
  ?blocking:Augem_sim.Mem_model.blocking ->
  ?tol:float ->
  ?seed:int ->
  plan ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  (stats, string) result
