(** The Optimized C Kernel Generator (paper section 2.1): applies the
    five source-to-source optimizations in order — loop unroll&jam,
    loop unrolling (with optional reduction-accumulator expansion),
    strength reduction, scalar replacement and data prefetching — under
    a tuning configuration the auto-tuner searches over. *)

type config = {
  jam : (string * int) list;
      (** outer loops to unroll&jam, applied in list order *)
  inner_unroll : (string * int) option;  (** innermost loop unrolling *)
  expand_reduction : int option;
      (** partial-accumulator expansion ways for the unrolled loop's
          reductions; reassociates FP sums as hand-written kernels do *)
  strength_reduce : bool;
  scalar_replace : bool;
  prefetch : Prefetch.config option;
}

(** Strength reduction, scalar replacement and prefetching on; no
    unrolling. *)
val default : config

val config_to_string : config -> string

(** A source pass with its human-readable name (e.g. ["unroll&jam j:4"],
    ["scalar-replacement"]). *)
type pass = string * (Augem_ir.Ast.kernel -> Augem_ir.Ast.kernel)

(** The passes before prefetching: unroll&jam, unrolling, strength
    reduction and scalar replacement.  None reads [prefetch], so
    configurations that differ only in it run the same ones. *)
val before_prefetch : config -> pass list

(** The prefetch pass (when configured) and the closing
    simplification. *)
val from_prefetch : config -> pass list

(** The pass sequence a configuration denotes, in application order:
    [before_prefetch] then [from_prefetch].  [apply] folds this list;
    the per-pass differential oracle walks it to localize
    miscompiles. *)
val passes : config -> pass list

(** Apply the configured passes; the result is simplified and
    type-checked. *)
val apply : Augem_ir.Ast.kernel -> config -> Augem_ir.Ast.kernel
