(* The assembly instruction set generated by AUGEM's back end.  This is
   a faithful subset of x86-64 with SSE2/SSE3/AVX/FMA3/FMA4 floating
   point: every constructor corresponds to one machine instruction (the
   AT&T printer in [Att] gives the concrete mnemonics), and the
   functional simulator in [lib/sim] executes them exactly.

   Vector operations carry an explicit width:
     - [W64]  : scalar double (movsd / addsd / ...)
     - [W128] : 2 packed doubles (SSE: movapd / addpd / ...)
     - [W256] : 4 packed doubles (AVX: vmovapd / vaddpd / ...)

   Register-register FP ops are represented in three-operand form
   [dst = src1 op src2].  Instruction selection guarantees [dst = src1]
   whenever the target mode is SSE (two-operand encodings); the printer
   checks this invariant. *)

type vwidth =
  | W64
  | W128
  | W256

let lanes = function W64 -> 1 | W128 -> 2 | W256 -> 4
let width_bits = function W64 -> 64 | W128 -> 128 | W256 -> 256

(* Lanes of a vector of element type [et]: W64 is "one scalar lane"
   regardless of precision (movsd/movss), the packed widths divide by
   the element size.  [lanes] above is the f64 view kept for the
   existing call sites. *)
let lanes_of (et : Etype.t) = function
  | W64 -> 1
  | w -> width_bits w / Etype.bits et

type scale =
  | S1
  | S2
  | S4
  | S8

let scale_value = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

(* disp(base, index, scale) *)
type mem = {
  base : Reg.gpr;
  index : (Reg.gpr * scale) option;
  disp : int; (* bytes *)
}

let mem ?index ?(disp = 0) base = { base; index; disp }

type cond =
  | Clt
  | Cle
  | Cgt
  | Cge
  | Ceq
  | Cne

type prefetch_kind =
  | Pf_t0 (* prefetcht0: read, all cache levels *)
  | Pf_w (* prefetchw: intent to write *)

(* Binary / ternary FP operations on registers. *)
type fpop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fxor (* xorpd, used to zero accumulators: dst = src1 ^ src2 *)
  | Fmov (* register move; src2 ignored *)
  | Fma231 (* FMA3 vfmadd231pd: dst = dst + src1 * src2 *)
  | Fhadd (* haddpd: dst = (src1[0]+src1[1], src2[0]+src2[1]) per lane pair *)
  | Funpckl (* unpcklpd: dst = (src1[0], src2[0]) per 128-bit lane *)
  | Funpckh (* unpckhpd: dst = (src1[1], src2[1]) per 128-bit lane *)

type t =
  (* --- SIMD / FP --- *)
  | Vop of { op : fpop; w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg }
  | Vfma4 of { w : vwidth; dst : Reg.vreg; a : Reg.vreg; b : Reg.vreg; c : Reg.vreg }
      (* FMA4 vfmaddpd: dst = a * b + c (dst may be a fourth register) *)
  | Vload of { w : vwidth; dst : Reg.vreg; src : mem }
  | Vstore of { w : vwidth; src : Reg.vreg; dst : mem }
  | Vbroadcast of { w : vwidth; dst : Reg.vreg; src : mem }
      (* movddup / vbroadcastsd: load one double, replicate to all lanes *)
  | Vshuf of { w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
      (* shufpd semantics per 128-bit lane *)
  | Vblend of { w : vwidth; dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
      (* blendpd: bit i of imm selects src2 for lane i *)
  | Vperm128 of { dst : Reg.vreg; src1 : Reg.vreg; src2 : Reg.vreg; imm : int }
      (* vperm2f128 (W256 only) *)
  | Vextract128 of { dst : Reg.vreg; src : Reg.vreg; lane : int }
      (* vextractf128 (W256 -> W128) *)
  | Movq_xr of { dst : Reg.vreg; src : Reg.gpr }
      (* movq %r64 -> %xmm (lane 0) *)
  (* --- general purpose --- *)
  | Movri of Reg.gpr * int
  | Movabs of Reg.gpr * int64 (* full 64-bit immediate (double bit patterns) *)
  | Movrr of Reg.gpr * Reg.gpr (* dst, src *)
  | Loadq of Reg.gpr * mem
  | Storeq of mem * Reg.gpr
  | Addri of Reg.gpr * int
  | Addrr of Reg.gpr * Reg.gpr
  | Subri of Reg.gpr * int
  | Subrr of Reg.gpr * Reg.gpr
  | Imulrr of Reg.gpr * Reg.gpr
  | Imulri of Reg.gpr * Reg.gpr * int (* dst = src * imm *)
  | Shlri of Reg.gpr * int
  | Negr of Reg.gpr
  | Lea of Reg.gpr * mem
  | Cmprr of Reg.gpr * Reg.gpr
  | Cmpri of Reg.gpr * int
  (* --- control --- *)
  | Label of string
  | Jmp of string
  | Jcc of cond * string
  | Push of Reg.gpr
  | Pop of Reg.gpr
  | Ret
  | Vzeroupper
      (* zero bits 255:128 of every ymm register: the mandatory
         AVX->SSE transition fence before returning from a kernel that
         touched 256-bit state *)
  (* --- memory hints --- *)
  | Prefetch of prefetch_kind * mem
  | Comment of string

type program = {
  prog_name : string;
  prog_insns : t list;
}

(* Classification used by the scheduler and the cycle model. *)
type unit_class =
  | U_fp_add
  | U_fp_mul
  | U_fp_fma
  | U_fp_shuf (* shuffle/blend/permute port *)
  | U_load
  | U_store
  | U_int
  | U_branch
  | U_none (* labels, comments *)

let unit_of = function
  | Vop { op = Fadd | Fsub | Fhadd; _ } -> U_fp_add
  | Vop { op = Fmul | Fdiv; _ } -> U_fp_mul
  | Vop { op = Fma231; _ } | Vfma4 _ -> U_fp_fma
  | Vop { op = Fxor | Fmov | Funpckl | Funpckh; _ } -> U_fp_shuf
  | Vshuf _ | Vblend _ | Vperm128 _ | Vextract128 _ | Movq_xr _ -> U_fp_shuf
  | Vload _ | Vbroadcast _ -> U_load
  | Vstore _ -> U_store
  | Prefetch _ -> U_load
  | Movri _ | Movabs _ | Movrr _ | Loadq _ | Storeq _ | Addri _ | Addrr _
  | Subri _ | Subrr _ | Imulrr _ | Imulri _ | Shlri _ | Negr _ | Lea _
  | Cmprr _ | Cmpri _ ->
      U_int
  | Jmp _ | Jcc _ | Push _ | Pop _ | Ret -> U_branch
  | Vzeroupper -> U_fp_shuf
  | Label _ | Comment _ -> U_none

(* Registers read / written, for dependence analysis. *)
let mem_reads (m : mem) : Reg.t list =
  Reg.Gp m.base :: (match m.index with None -> [] | Some (r, _) -> [ Reg.Gp r ])

let reads : t -> Reg.t list = function
  | Vop { op = Fxor; dst = _; src1; src2; _ } when src1 = src2 ->
      [] (* zeroing idiom breaks the dependence *)
  | Vop { op = Fmov; src1; _ } -> [ Reg.Vr src1 ]
  | Vop { op = Fma231; dst; src1; src2; _ } ->
      [ Reg.Vr dst; Reg.Vr src1; Reg.Vr src2 ]
  | Vop { src1; src2; _ } -> [ Reg.Vr src1; Reg.Vr src2 ]
  | Vfma4 { a; b; c; _ } -> [ Reg.Vr a; Reg.Vr b; Reg.Vr c ]
  | Vload { src; _ } | Vbroadcast { src; _ } -> mem_reads src
  | Vstore { src; dst; _ } -> Reg.Vr src :: mem_reads dst
  | Vshuf { src1; src2; _ } | Vblend { src1; src2; _ }
  | Vperm128 { src1; src2; _ } ->
      [ Reg.Vr src1; Reg.Vr src2 ]
  | Vextract128 { src; _ } -> [ Reg.Vr src ]
  | Movq_xr { src; _ } -> [ Reg.Gp src ]
  | Movri _ | Movabs _ -> []
  | Movrr (_, s) -> [ Reg.Gp s ]
  | Loadq (_, m) -> mem_reads m
  | Storeq (m, s) -> Reg.Gp s :: mem_reads m
  | Addri (r, _) | Subri (r, _) | Shlri (r, _) | Negr r -> [ Reg.Gp r ]
  | Addrr (d, s) | Subrr (d, s) | Imulrr (d, s) -> [ Reg.Gp d; Reg.Gp s ]
  | Imulri (_, s, _) -> [ Reg.Gp s ]
  | Lea (_, m) -> mem_reads m
  | Cmprr (a, b) -> [ Reg.Gp a; Reg.Gp b ]
  | Cmpri (a, _) -> [ Reg.Gp a ]
  | Jmp _ | Jcc _ | Label _ | Ret | Vzeroupper | Comment _ -> []
  | Push r -> [ Reg.Gp r; Reg.Gp Reg.Rsp ]
  | Pop _ -> [ Reg.Gp Reg.Rsp ]
  | Prefetch (_, m) -> mem_reads m

let writes : t -> Reg.t list = function
  | Vop { dst; _ } -> [ Reg.Vr dst ]
  | Vfma4 { dst; _ } -> [ Reg.Vr dst ]
  | Vload { dst; _ } | Vbroadcast { dst; _ } -> [ Reg.Vr dst ]
  | Vstore _ -> []
  | Vshuf { dst; _ } | Vblend { dst; _ } | Vperm128 { dst; _ }
  | Vextract128 { dst; _ } | Movq_xr { dst; _ } ->
      [ Reg.Vr dst ]
  | Movri (d, _) | Movabs (d, _) | Movrr (d, _) | Loadq (d, _) -> [ Reg.Gp d ]
  | Storeq _ -> []
  | Addri (d, _) | Addrr (d, _) | Subri (d, _) | Subrr (d, _)
  | Imulrr (d, _) | Imulri (d, _, _) | Shlri (d, _) | Negr d | Lea (d, _) ->
      [ Reg.Gp d ]
  | Cmprr _ | Cmpri _ -> [] (* flags handled separately *)
  (* [Vzeroupper] clears the upper lanes of every vector register, but
     modelling that as a write to all 16 vregs would serialise the
     scheduler; the dirty-upper discipline is checked structurally by
     [Asmcheck] instead. *)
  | Jmp _ | Jcc _ | Label _ | Ret | Vzeroupper | Comment _ | Prefetch _ -> []
  | Push _ -> [ Reg.Gp Reg.Rsp ]
  | Pop r -> [ Reg.Gp r; Reg.Gp Reg.Rsp ]

let sets_flags = function Cmprr _ | Cmpri _ -> true | _ -> false
let reads_flags = function Jcc _ -> true | _ -> false

(* FLOPs contributed by one dynamic instance, for element type [et]
   (default double precision, the historic behaviour). *)
let flops ?(et = Etype.F64) = function
  | Vop { op = Fadd | Fsub | Fmul | Fdiv; w; _ } -> lanes_of et w
  | Vop { op = Fhadd; w; _ } -> lanes_of et w
  | Vop { op = Fma231; w; _ } | Vfma4 { w; _ } -> 2 * lanes_of et w
  | _ -> 0
