(** x86-64 register model: 16 general-purpose registers and 16 SIMD
    registers (xmm0-15 / ymm0-15 — one file). *)

type gpr =
  | Rax
  | Rbx
  | Rcx
  | Rdx
  | Rsi
  | Rdi
  | Rbp
  | Rsp
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

val all_gprs : gpr list
val gpr_name : gpr -> string

val gpr_name32 : gpr -> string
(** 32-bit sub-register spelling (eax, r8d, ...), used by movd. *)

val gpr_index : gpr -> int

(** System V AMD64: integer/pointer argument registers, in order. *)
val argument_gprs : gpr list

val callee_saved : gpr list

(** SIMD register index, 0..15. *)
type vreg = int

val vreg_count : int

(** Either register file, for dependence analysis. *)
type t =
  | Gp of gpr
  | Vr of vreg

val name : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
