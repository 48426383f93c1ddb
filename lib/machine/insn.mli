(** The assembly instruction set generated by AUGEM's back end: a
    faithful subset of x86-64 with SSE2/SSE3/AVX/FMA3/FMA4 floating
    point.  Every constructor corresponds to one machine instruction
    ({!Att} prints the concrete mnemonics) and the functional simulator
    executes them exactly.

    Register-register FP operations are in three-operand form
    [dst = src1 op src2]; instruction selection guarantees [dst = src1]
    whenever the target uses SSE two-operand encodings, and the printer
    checks that invariant. *)

(** Vector width: scalar double, 2 packed, 4 packed. *)
type vwidth =
  | W64
  | W128
  | W256

val lanes : vwidth -> int
(** Double-precision lanes (the historic view; [lanes_of Etype.F64]). *)

val lanes_of : Etype.t -> vwidth -> int
(** Lanes of a vector of the given element type.  [W64] is one scalar
    lane for either precision; W128/W256 divide by the element size
    (f32: 4/8 lanes, f64: 2/4). *)

val width_bits : vwidth -> int

type scale =
  | S1
  | S2
  | S4
  | S8

val scale_value : scale -> int

(** [disp(base, index, scale)], displacement in bytes. *)
type mem = {
  base : Reg.gpr;
  index : (Reg.gpr * scale) option;
  disp : int;
}

val mem : ?index:Reg.gpr * scale -> ?disp:int -> Reg.gpr -> mem

type cond =
  | Clt
  | Cle
  | Cgt
  | Cge
  | Ceq
  | Cne

type prefetch_kind =
  | Pf_t0  (** prefetcht0 *)
  | Pf_w  (** prefetchw *)

(** Register-register FP operations. *)
type fpop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fxor  (** xorpd; [dst = src1 = src2] is the zeroing idiom *)
  | Fmov  (** register move; src2 ignored *)
  | Fma231  (** vfmadd231pd: dst += src1 * src2 *)
  | Fhadd  (** haddpd *)
  | Funpckl  (** unpcklpd *)
  | Funpckh  (** unpckhpd *)

type t =
  | Vop of { op : fpop; w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg }
  | Vfma4 of { w : vwidth; dst : Reg.vreg; a : Reg.vreg; b : Reg.vreg; c : Reg.vreg }
      (** vfmaddpd: dst = a*b + c, dst may be a fourth register *)
  | Vload of { w : vwidth; dst : Reg.vreg; src : mem }
  | Vstore of { w : vwidth; src : Reg.vreg; dst : mem }
  | Vbroadcast of { w : vwidth; dst : Reg.vreg; src : mem }
      (** movddup / vbroadcastsd: one double replicated to all lanes *)
  | Vshuf of { w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
      (** shufpd semantics per 128-bit lane *)
  | Vblend of { w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
  | Vperm128 of { dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
  | Vextract128 of { dst : Reg.vreg; src : Reg.vreg; lane : int }
  | Movq_xr of { dst : Reg.vreg; src : Reg.gpr }  (** movq r64 -> xmm *)
  | Movri of Reg.gpr * int
  | Movabs of Reg.gpr * int64  (** 64-bit immediates (double bits) *)
  | Movrr of Reg.gpr * Reg.gpr
  | Loadq of Reg.gpr * mem
  | Storeq of mem * Reg.gpr
  | Addri of Reg.gpr * int
  | Addrr of Reg.gpr * Reg.gpr
  | Subri of Reg.gpr * int
  | Subrr of Reg.gpr * Reg.gpr
  | Imulrr of Reg.gpr * Reg.gpr
  | Imulri of Reg.gpr * Reg.gpr * int  (** dst = src * imm *)
  | Shlri of Reg.gpr * int
  | Negr of Reg.gpr
  | Lea of Reg.gpr * mem
  | Cmprr of Reg.gpr * Reg.gpr
  | Cmpri of Reg.gpr * int
  | Label of string
  | Jmp of string
  | Jcc of cond * string
  | Push of Reg.gpr
  | Pop of Reg.gpr
  | Ret
  | Vzeroupper
      (** zero bits 255:128 of every ymm register — the AVX->SSE
          transition fence emitted before [Ret] when a kernel touched
          256-bit state *)
  | Prefetch of prefetch_kind * mem
  | Comment of string

type program = {
  prog_name : string;
  prog_insns : t list;
}

(** Execution-unit classes for the scheduler and cycle model. *)
type unit_class =
  | U_fp_add
  | U_fp_mul
  | U_fp_fma
  | U_fp_shuf
  | U_load
  | U_store
  | U_int
  | U_branch
  | U_none

val unit_of : t -> unit_class
val mem_reads : mem -> Reg.t list

(** Registers read / written, for dependence analysis (the xor zeroing
    idiom reads nothing; FMA3 reads its destination). *)
val reads : t -> Reg.t list

val writes : t -> Reg.t list
val sets_flags : t -> bool
val reads_flags : t -> bool

(** Flops of one dynamic instance for element type [et] (default
    [F64]; FMA counts 2 per lane). *)
val flops : ?et:Etype.t -> t -> int

