(* Executable-memory runtime and host-capability probe.

   [Exec_buf] owns one W^X code mapping: the bytes are copied into
   fresh RW pages which are flipped to R|X before any call
   ([jit_stubs.c]); release unmaps.  [Cpu] answers "can this host
   decode the program at all" — the mandatory gate before jumping into
   generated code, because executing an AVX instruction on a host
   without OS-enabled YMM state is an invalid-opcode fault, not a wrong
   answer. *)

open Augem_machine

external jit_map : string -> int * int = "augem_jit_map"
external jit_unmap : int -> int -> unit = "augem_jit_unmap"
external jit_cpu_features : unit -> int = "augem_jit_cpu_features"

(* entry point, eight integer-class arguments, four FP arguments, fp32 *)
external jit_call :
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  bool ->
  unit = "augem_jit_call_byte" "augem_jit_call"
[@@noalloc]

external jit_ba_addr :
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t -> int64 = "augem_jit_ba_addr"

external monotonic_ns : unit -> int64 = "augem_jit_monotonic_ns"

module Cpu = struct
  type feature =
    | SSE2
    | AVX
    | FMA3
    | FMA4

  let feature_name = function
    | SSE2 -> "sse2"
    | AVX -> "avx"
    | FMA3 -> "fma3"
    | FMA4 -> "fma4"

  let bit = function SSE2 -> 1 | AVX -> 2 | FMA3 -> 4 | FMA4 -> 8

  (* cpuid is stable for the process lifetime; probe once *)
  let mask = lazy (jit_cpu_features ())

  let have (f : feature) = Lazy.force mask land bit f <> 0

  let describe () : (string * bool) list =
    List.map (fun f -> (feature_name f, have f)) [ SSE2; AVX; FMA3; FMA4 ]

  (* Missing features out of a requirement list. *)
  let missing (req : feature list) : feature list =
    List.filter (fun f -> not (have f)) req
end

(* The ISA extensions a program actually needs on this encoding path:
   VEX encodings (the [avx] flag) and any 256-bit register require AVX;
   FMA3/FMA4 come from the instructions themselves.  SSE2 is the x86-64
   baseline and always required. *)
let required_features ~(avx : bool) (p : Insn.program) : Cpu.feature list =
  let needs_avx = ref avx
  and needs_fma3 = ref false
  and needs_fma4 = ref false in
  List.iter
    (fun i ->
      match i with
      | Insn.Vop { op = Insn.Fma231; _ } -> needs_fma3 := true
      | Insn.Vfma4 _ -> needs_fma4 := true
      | Insn.Vop { w = Insn.W256; _ }
      | Insn.Vload { w = Insn.W256; _ }
      | Insn.Vstore { w = Insn.W256; _ }
      | Insn.Vbroadcast { w = Insn.W256; _ }
      | Insn.Vshuf { w = Insn.W256; _ }
      | Insn.Vblend { w = Insn.W256; _ }
      | Insn.Vperm128 _ | Insn.Vextract128 _ | Insn.Vzeroupper ->
          needs_avx := true
      | _ -> ())
    p.Insn.prog_insns;
  Cpu.SSE2 :: (if !needs_avx then [ Cpu.AVX ] else [])
  @ (if !needs_fma3 then [ Cpu.FMA3 ] else [])
  @ if !needs_fma4 then [ Cpu.FMA4 ] else []

module Exec_buf = struct
  type t = {
    addr : int;
    mapped : int;  (* page-rounded mapping size *)
    code_len : int;
    mutable live : bool;
  }

  let release (t : t) =
    if t.live then begin
      t.live <- false;
      jit_unmap t.addr t.mapped
    end

  (* Map [code] executable.  The returned buffer is unmapped by the GC
     finalizer if the caller never releases it explicitly. *)
  let load (code : string) : t =
    let addr, mapped = jit_map code in
    let t = { addr; mapped; code_len = String.length code; live = true } in
    Gc.finalise release t;
    t

  let check_live (t : t) =
    if not t.live then failwith "jit: invoke on a released code buffer"

  (* Call the entry point with eight integer-class and four FP
     arguments (SysV AMD64: 6 integer registers + 2 stack slots,
     xmm0-3); arguments the kernel does not take are ignored.  [fp32]
     narrows the FP arguments to single precision.  Allocates nothing,
     so a loop nest can call it once per block. *)
  let call (t : t) ~fp32 i0 i1 i2 i3 i4 i5 i6 i7 d0 d1 d2 d3 =
    check_live t;
    jit_call t.addr i0 i1 i2 i3 i4 i5 i6 i7 d0 d1 d2 d3 fp32

  let int_arg (a : int64 array) n =
    if n < Array.length a then Int64.to_int a.(n) else 0

  (* [call] with the arguments in arrays: up to 8 integer-class and 4 FP
     arguments, missing ones passed as zero. *)
  let invoke (t : t) ~(iargs : int64 array) ~(dargs : float array)
      ~(fp32 : bool) : unit =
    let ni = Array.length iargs and nd = Array.length dargs in
    if ni > 8 then failwith "jit: more than 8 integer-class arguments";
    if nd > 4 then failwith "jit: more than 4 FP arguments";
    check_live t;
    let i = iargs in
    jit_call t.addr (int_arg i 0) (int_arg i 1) (int_arg i 2) (int_arg i 3)
      (int_arg i 4) (int_arg i 5) (int_arg i 6) (int_arg i 7)
      (if nd > 0 then dargs.(0) else 0.0)
      (if nd > 1 then dargs.(1) else 0.0)
      (if nd > 2 then dargs.(2) else 0.0)
      (if nd > 3 then dargs.(3) else 0.0)
      fp32
end
