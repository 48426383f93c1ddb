(* x86-64 register model: 16 general-purpose registers and 16 SIMD
   registers (xmm0-15 / ymm0-15, same file). *)

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

let all_gprs =
  [ Rax; Rbx; Rcx; Rdx; Rsi; Rdi; Rbp; Rsp; R8; R9; R10; R11; R12; R13; R14;
    R15 ]

let gpr_name = function
  | Rax -> "rax"
  | Rbx -> "rbx"
  | Rcx -> "rcx"
  | Rdx -> "rdx"
  | Rsi -> "rsi"
  | Rdi -> "rdi"
  | Rbp -> "rbp"
  | Rsp -> "rsp"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

(* 32-bit sub-register names, for movd (the f32 bit-pattern move). *)
let gpr_name32 = function
  | Rax -> "eax"
  | Rbx -> "ebx"
  | Rcx -> "ecx"
  | Rdx -> "edx"
  | Rsi -> "esi"
  | Rdi -> "edi"
  | Rbp -> "ebp"
  | Rsp -> "esp"
  | R8 -> "r8d"
  | R9 -> "r9d"
  | R10 -> "r10d"
  | R11 -> "r11d"
  | R12 -> "r12d"
  | R13 -> "r13d"
  | R14 -> "r14d"
  | R15 -> "r15d"

let gpr_index r =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = r then i else go (i + 1) rest
  in
  go 0 all_gprs

(* System V AMD64 calling convention. *)
let argument_gprs = [ Rdi; Rsi; Rdx; Rcx; R8; R9 ]
let callee_saved = [ Rbx; Rbp; R12; R13; R14; R15 ]

type vreg = int (* 0..15: xmm<i> or ymm<i> depending on width *)

let vreg_count = 16

type t =
  | Gp of gpr
  | Vr of vreg

let name = function
  | Gp g -> "%" ^ gpr_name g
  | Vr i -> Printf.sprintf "%%v%d" i

let compare = compare
let equal (a : t) (b : t) = a = b
