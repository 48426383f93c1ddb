(** Verification harness: runs generated assembly kernels on the
    functional simulator against the reference BLAS on randomized
    inputs — the end-to-end correctness gate for every kernel,
    architecture and tuning configuration. *)

(** Problem shape for the matrix kernels. *)
type shape = {
  sh_m : int;
  sh_n : int;
  sh_k : int;
  sh_ld_slack : int;  (** extra leading-dimension padding *)
}

val default_shape : shape

(** Deterministic pseudo-random inputs in [-1, 1): [fill seed n].  The
    exact sequence is part of the harness contract — independent
    executors reproduce identical inputs from the same seed. *)
val fill : int -> int -> float array

(** Narrow an array to the element type ([Etype.round] per element);
    identity at f64. *)
val nar : Augem_machine.Etype.t -> float array -> float array

(** Relative closeness: |a-b| <= tol * (1 + |a| + |b|).  [tol] 0 demands
    bit-equality. *)
val close : ?tol:float -> float -> float -> bool

val arrays_close : ?tol:float -> float array -> float array -> bool

type outcome = {
  ok : bool;
  detail : string;  (** "ok" or a failure description *)
  sim_result : Augem_sim.Exec_sim.result option;
}

(** Default per-call instruction budget for the functional simulator
    ([fuel] below).  Regular harness shapes execute a few thousand
    instructions; the budget exists so a diverging mutant or
    pathological configuration fails fast instead of hanging. *)
val default_fuel : int

(** How a verify driver executes the kernel under test: the functional
    simulator by default ({!sim_runner}), or a plugged-in backend such
    as the native JIT's differential runner, which executes both and
    cross-checks the outputs.  [run] receives the element type, the
    instruction budget (meaningful to the simulator only), the program
    and its arguments; it returns the simulator result when one was
    produced. *)
type runner = {
  run_name : string;
  run :
    et:Augem_machine.Etype.t ->
    fuel:int ->
    Augem_machine.Insn.program ->
    Augem_sim.Exec_sim.arg list ->
    (Augem_sim.Exec_sim.result option, string) result;
}

val sim_runner : runner

val verify_gemm :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  ?packed:bool ->
  ?seed:int ->
  ?shape:shape ->
  Augem_machine.Insn.program ->
  outcome

(** [?m]/[?n] override the shape-derived dimensions (used for
    degenerate unit and empty shapes). *)
val verify_gemv :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  ?seed:int ->
  ?shape:shape ->
  ?m:int ->
  ?n:int ->
  Augem_machine.Insn.program ->
  outcome

val verify_axpy :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  ?seed:int ->
  ?n:int ->
  ?alpha:float ->
  Augem_machine.Insn.program ->
  outcome

val verify_dot :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int -> ?seed:int -> ?n:int -> Augem_machine.Insn.program -> outcome

val verify_ger :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  ?seed:int ->
  ?shape:shape ->
  ?m:int ->
  ?n:int ->
  Augem_machine.Insn.program ->
  outcome

val verify_scal :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  ?seed:int ->
  ?n:int ->
  ?alpha:float ->
  Augem_machine.Insn.program ->
  outcome

val verify_copy :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int -> ?seed:int -> ?n:int -> Augem_machine.Insn.program -> outcome

(** Pack-A panel kernel against {!Augem_blas.Level3.pack_a}:
    mc = [sh_m], kc = [sh_k], lda = mc + [sh_ld_slack]. *)
val verify_pack_a :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int -> ?seed:int -> ?shape:shape -> Augem_machine.Insn.program -> outcome

(** Pack-B panel kernel against {!Augem_blas.Level3.pack_b}:
    kc = [sh_k], nc = [sh_n], ldb = kc + [sh_ld_slack]. *)
val verify_pack_b :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int -> ?seed:int -> ?shape:shape -> Augem_machine.Insn.program -> outcome

(** The degenerate-shape sweep for a kernel: labelled thunks covering
    unit dimensions and (where the contract allows) zero-length
    vectors.  [verify] runs these after the regular shapes; they are
    exported so the regression suite can exercise them in isolation. *)
val degenerate_cases :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int ->
  Augem_ir.Kernels.name ->
  Augem_machine.Insn.program ->
  (string * (unit -> outcome)) list

(** Verify a program implementing the named kernel over several shapes,
    including ones that exercise every remainder loop, plus degenerate
    shapes (unit dimensions, zero-length vectors) where every main loop
    is skipped. *)
val verify :
  ?runner:runner ->
  ?et:Augem_machine.Etype.t ->
  ?fuel:int -> Augem_ir.Kernels.name -> Augem_machine.Insn.program -> outcome
