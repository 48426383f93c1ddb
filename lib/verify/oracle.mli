(** Per-pass differential oracle over the transformation pipeline.

    [Pipeline.apply] is a fold over named passes; this module replays
    that fold one pass at a time, running the IR interpreter
    ({!Augem_ir.Eval}) on randomized inputs after every step and
    re-typechecking the intermediate kernel.  The outputs of every
    intermediate kernel must agree (within a floating-point tolerance,
    since accumulator expansion legally reassociates sums) with the
    untransformed source kernel.  On divergence the oracle reports
    {i which pass} miscompiled, with a line diff of the IR before and
    after the guilty pass — turning "the pipeline is wrong somewhere"
    into a one-pass bug report. *)

(** Why a pass was convicted. *)
type reason =
  | R_crash of string  (** the pass itself raised *)
  | R_type_error of string  (** output kernel failed to re-typecheck *)
  | R_eval_fault of string  (** interpreter fault on the output kernel *)
  | R_diverged of string  (** outputs differ from the source kernel *)

type divergence = {
  div_pass : string;  (** name of the guilty pass *)
  div_pass_index : int;  (** 0-based position in the pass list *)
  div_reason : reason;
  div_before : Augem_ir.Ast.kernel;  (** kernel entering the pass *)
  div_after : Augem_ir.Ast.kernel option;
      (** kernel leaving the pass ([None] if the pass crashed) *)
  div_diff : string;  (** pretty-printed before/after line diff *)
}

val reason_to_string : reason -> string

(** Multi-line report: pass name, reason, and the IR diff. *)
val divergence_to_string : divergence -> string

(** Randomized argument sets for a kernel, derived from its parameter
    list: every [int] parameter gets the same small size, [double]
    parameters a fixed scalar, and pointer parameters a deterministic
    pseudo-random buffer large enough for quadratic subscripts.  One
    argument set per element of [sizes] (default [[4; 7]]). *)
val default_inputs :
  ?sizes:int list -> ?seed:int -> Augem_ir.Ast.kernel -> Augem_ir.Eval.arg list list

(** Run the pass list differentially.  Buffers in [inputs] are copied
    before every run, never mutated.  Returns the fully transformed
    kernel, or the first divergence.  Raises [Invalid_argument] if the
    {i source} kernel already faults on the inputs (the oracle needs a
    healthy reference). *)
val check_passes :
  ?tol:float ->
  inputs:Augem_ir.Eval.arg list list ->
  Augem_ir.Ast.kernel ->
  (string * (Augem_ir.Ast.kernel -> Augem_ir.Ast.kernel)) list ->
  (Augem_ir.Ast.kernel, divergence) result

(** [check kernel config]: differential check of the exact pass
    sequence [Pipeline.apply kernel config] would run, on
    {!default_inputs} (or explicit [inputs]). *)
val check :
  ?tol:float ->
  ?inputs:Augem_ir.Eval.arg list list ->
  Augem_ir.Ast.kernel ->
  Augem_transform.Pipeline.config ->
  (Augem_ir.Ast.kernel, divergence) result

(** Checked drop-in for [Pipeline.apply]: same result on success, but
    every intermediate pass is verified; the first miscompiling pass is
    reported via [Error] instead of silently flowing downstream. *)
val apply_checked :
  ?tol:float ->
  ?inputs:Augem_ir.Eval.arg list list ->
  Augem_ir.Ast.kernel ->
  Augem_transform.Pipeline.config ->
  (Augem_ir.Ast.kernel, divergence) result

(** Static machine-code verification of the final generated program:
    run the {!Augem_analysis.Asmcheck} lint suite under the precise
    entry configuration of the kernel signature ([params]), or the
    conservative ABI configuration when the signature is unknown.
    Complements the dynamic differential check: the oracle convicts
    miscompiling IR passes, this convicts malformed machine code. *)
val check_static :
  avx:bool ->
  ?params:Augem_ir.Ast.param list ->
  Augem_machine.Insn.program ->
  Augem_analysis.Asmcheck.finding list
