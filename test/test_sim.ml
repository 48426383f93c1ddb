(* The functional simulator: per-instruction semantics (shuffles,
   blends, FMA, stack discipline, control flow) and the cycle model's
   sanity properties. *)

module Insn = Augem.Machine.Insn
module Reg = Augem.Machine.Reg
module Arch = Augem.Machine.Arch
module Exec = Augem.Sim.Exec_sim
module Cycle = Augem.Sim.Cycle_sim
module Mem = Augem.Sim.Mem_model
module Cache = Augem.Sim.Cache_sim

(* run a straight-line snippet writing lane values of register [out]
   into the result buffer *)
let run_snippet ?(nlanes = 4) (body : Insn.t list) ~(out : int) :
    float array =
  let buf = Array.make nlanes 0. in
  let prog =
    Insn.
      {
        prog_name = "snippet";
        prog_insns =
          body
          @ [
              Vstore
                { w = (if nlanes = 4 then W256 else W128);
                  src = out;
                  dst = mem Reg.Rdi };
              Ret;
            ];
      }
  in
  let _ = Exec.call prog [ Exec.Abuf buf ] in
  buf

(* load constants into a vector register from a buffer *)
let with_consts (values : float array) (k : int -> Insn.t list) :
    Insn.t list * Exec.arg list =
  ignore values;
  ignore k;
  ([], [])

let test_shufpd () =
  (* xmm0 = (1,2); xmm1 = (3,4); shufpd imm=1 -> (xmm0[1], xmm1[0]) = (2,3) *)
  let buf_in = [| 1.; 2.; 3.; 4. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W128; dst = 0; src = mem Reg.Rdi };
            Vload { w = W128; dst = 1; src = mem ~disp:16 Reg.Rdi };
            Vshuf { w = W128; dst = 2; src1 = 0; src2 = 1; imm = 1 };
            Vstore { w = W128; src = 2; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 2 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "shufpd" [| 2.; 3. |] out

let test_blendpd () =
  let buf_in = [| 1.; 2.; 3.; 4. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W128; dst = 0; src = mem Reg.Rdi };
            Vload { w = W128; dst = 1; src = mem ~disp:16 Reg.Rdi };
            Vblend { w = W128; dst = 2; src1 = 0; src2 = 1; imm = 2 };
            Vstore { w = W128; src = 2; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 2 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "blendpd $2" [| 1.; 4. |] out

let test_broadcast_and_unpck () =
  let buf_in = [| 7.; 9. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vbroadcast { w = W256; dst = 0; src = mem ~disp:8 Reg.Rdi };
            Vstore { w = W256; src = 0; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 4 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "vbroadcastsd" [| 9.; 9.; 9.; 9. |] out

let test_extract_and_hadd () =
  let buf_in = [| 1.; 2.; 3.; 4. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W256; dst = 0; src = mem Reg.Rdi };
            Vextract128 { dst = 1; src = 0; lane = 1 };
            (* hadd: (v1[0]+v1[1], v1[0]+v1[1]) with both sources = v1 *)
            Vop { op = Fhadd; w = W128; dst = 2; src1 = 1; src2 = 1 };
            Vstore { w = W128; src = 2; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 2 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "extract+hadd" [| 7.; 7. |] out

let test_vperm2f128 () =
  let buf_in = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W256; dst = 0; src = mem Reg.Rdi };
            Vload { w = W256; dst = 1; src = mem ~disp:32 Reg.Rdi };
            (* imm 0x21: low = src1 high (3,4); high = src2 low (5,6) *)
            Vperm128 { dst = 2; src1 = 0; src2 = 1; imm = 0x21 };
            (* low nibble 8: zeroed; high nibble 3: src2 high *)
            Vperm128 { dst = 3; src1 = 0; src2 = 1; imm = 0x38 };
            Vstore { w = W256; src = 2; dst = mem Reg.Rsi };
            Vstore { w = W256; src = 3; dst = mem ~disp:32 Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 8 9. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "vperm2f128"
    [| 3.; 4.; 5.; 6.; 0.; 0.; 7.; 8. |] out

let test_vblend_256 () =
  let buf_in = [| 1.; 2.; 3.; 4.; 10.; 20.; 30.; 40. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W256; dst = 0; src = mem Reg.Rdi };
            Vload { w = W256; dst = 1; src = mem ~disp:32 Reg.Rdi };
            Vblend { w = W256; dst = 2; src1 = 0; src2 = 1; imm = 0b0101 };
            Vstore { w = W256; src = 2; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 4 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "vblendpd" [| 10.; 2.; 30.; 4. |] out

let test_scalar_upper_lane_semantics () =
  (* vaddsd: lane 0 computed, upper lanes from src1 *)
  let buf_in = [| 1.; 2.; 3.; 4.; 100.; 0.; 0.; 0. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W256; dst = 0; src = mem Reg.Rdi };
            Vload { w = W64; dst = 1; src = mem ~disp:32 Reg.Rdi };
            Vop { op = Fadd; w = W64; dst = 2; src1 = 0; src2 = 1 };
            Vstore { w = W256; src = 2; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 4 9. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 0.))) "vaddsd upper lanes"
    [| 101.; 2.; 3.; 4. |] out

let test_fma_semantics () =
  let buf_in = [| 2.; 3.; 5.; 7.; 11.; 13.; 17.; 19. |] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W128; dst = 0; src = mem Reg.Rdi };
            Vload { w = W128; dst = 1; src = mem ~disp:16 Reg.Rdi };
            Vload { w = W128; dst = 2; src = mem ~disp:32 Reg.Rdi };
            (* dst += src1*src2: v2 = v2 + v0*v1 = (11+2*5, 13+3*7) *)
            Vop { op = Fma231; w = W128; dst = 2; src1 = 0; src2 = 1 };
            (* FMA4: v3 = v0*v1 + v2 *)
            Vfma4 { w = W128; dst = 3; a = 0; b = 1; c = 2 };
            Vstore { w = W128; src = 2; dst = mem Reg.Rsi };
            Vstore { w = W128; src = 3; dst = mem ~disp:16 Reg.Rsi };
            Ret;
          ];
      }
  in
  let out = Array.make 4 0. in
  let _ = Exec.call prog [ Exec.Abuf buf_in; Exec.Abuf out ] in
  Alcotest.(check (array (float 1e-12))) "fma3 then fma4"
    [| 21.; 34.; 31.; 55. |] out

let test_control_flow_and_stack () =
  (* compute sum 1..n with a loop, push/pop around it *)
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Push Reg.Rbx;
            Movri (Reg.Rax, 0); (* acc *)
            Movri (Reg.Rbx, 1); (* i *)
            Label ".Lloop";
            Cmprr (Reg.Rbx, Reg.Rdi);
            Jcc (Cgt, ".Ldone");
            Addrr (Reg.Rax, Reg.Rbx);
            Addri (Reg.Rbx, 1);
            Jmp ".Lloop";
            Label ".Ldone";
            Movq_xr { dst = 0; src = Reg.Rax };
            Pop Reg.Rbx;
            Ret;
          ];
      }
  in
  let st = Exec.create () in
  let _ = Exec.run st prog in
  (* rdi = 0 by default: loop does not run; rerun with an argument *)
  let st = Exec.create () in
  Exec.set_gpr st Reg.Rdi 10L;
  let _ = Exec.run st prog in
  Alcotest.(check int64) "sum 1..10" 55L (Exec.get_gpr st Reg.Rax)

let test_movabs_double () =
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Movabs (Reg.Rax, Int64.bits_of_float (-3.25));
            Movq_xr { dst = 0; src = Reg.Rax };
            Vstore { w = W64; src = 0; dst = mem Reg.Rdi };
            Ret;
          ];
      }
  in
  let out = [| 0. |] in
  let _ = Exec.call prog [ Exec.Abuf out ] in
  Alcotest.(check (float 0.)) "negative literal" (-3.25) out.(0)

let test_stack_args () =
  (* more than 6 integer args: the 7th arrives on the stack *)
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Push Reg.Rbp;
            Movrr (Reg.Rbp, Reg.Rsp);
            Loadq (Reg.Rax, mem ~disp:16 Reg.Rbp);
            Movq_xr { dst = 0; src = Reg.Rax };
            Vstore { w = W64; src = 0; dst = mem Reg.Rdi };
            Pop Reg.Rbp;
            Ret;
          ];
      }
  in
  let out = [| 0. |] in
  let _ =
    Exec.call prog
      Exec.[ Abuf out; Aint 1; Aint 2; Aint 3; Aint 4; Aint 5; Aint 42 ]
  in
  Alcotest.(check (float 0.)) "7th argument via stack"
    (Int64.float_of_bits 42L) out.(0)

let test_fault_on_unaligned () =
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [ Vload { w = W64; dst = 0; src = mem ~disp:4 Reg.Rdi }; Ret ];
      }
  in
  match Exec.call prog [ Exec.Abuf [| 1.0 |] ] with
  | exception Exec.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected unaligned fault"

(* --- cycle model ---------------------------------------------------------- *)

let gemm_prog arch =
  let cfg =
    { Augem.Transform.Pipeline.default with jam = [ ("j", 2); ("i", 8) ] }
  in
  (Augem.generate ~arch ~config:cfg Augem.Ir.Kernels.Gemm).Augem.g_program

let test_hot_loop_detection () =
  let arch = Arch.sandy_bridge in
  let p = gemm_prog arch in
  match Cycle.hot_loop arch p with
  | None -> Alcotest.fail "no hot loop found"
  | Some li ->
      Alcotest.(check int) "flops/iter of 2x8 avx kernel" 32
        li.Cycle.li_flops;
      Alcotest.(check bool) "has prefetches" true (li.Cycle.li_prefetches > 0)

let test_steady_cycles_bounds () =
  let arch = Arch.sandy_bridge in
  let p = gemm_prog arch in
  match Cycle.hot_loop arch p with
  | None -> Alcotest.fail "no hot loop"
  | Some li ->
      (* lower bound: 4 ymm multiplies on one pipe = 4 cycles *)
      Alcotest.(check bool) "cycles >= mul throughput bound" true
        (li.Cycle.li_cycles >= 4.0);
      Alcotest.(check bool) "cycles bounded above" true
        (li.Cycle.li_cycles <= 40.0)

let test_efficiency_monotone_in_isa () =
  (* the same blocking is less efficient on an SSE-only machine *)
  let sse =
    { Arch.sandy_bridge with Arch.name = "snb-sse-test"; simd = Arch.SSE;
      fma = Arch.No_fma; vec_bits = 128; native_fp_bits = 128 }
  in
  let e_avx = Cycle.kernel_efficiency Arch.sandy_bridge (gemm_prog Arch.sandy_bridge) in
  let e_sse = Cycle.kernel_efficiency sse (gemm_prog sse) in
  Alcotest.(check bool) "both positive" true (e_avx > 0.2 && e_sse > 0.2);
  (* both near their own peaks: efficiency relative to peak comparable *)
  Alcotest.(check bool) "avx kernel efficient" true (e_avx > 0.5)

let test_mem_model_residency () =
  let a = Arch.sandy_bridge in
  Alcotest.(check string) "small in L1" "L1"
    (Mem.level_name (Mem.residency a 1024));
  Alcotest.(check string) "big in DRAM" "DRAM"
    (Mem.level_name (Mem.residency a (512 * 1024 * 1024)))

let test_mem_model_prefetch_helps () =
  let a = Arch.piledriver in
  let c1 = Mem.stream_cycles a ~working_set:(64 * 1024 * 1024) ~traffic:1e6 ~prefetch:true in
  let c2 = Mem.stream_cycles a ~working_set:(64 * 1024 * 1024) ~traffic:1e6 ~prefetch:false in
  Alcotest.(check bool) "prefetch reduces stream time" true (c1 < c2)

let test_cache_sim_basics () =
  let c = Cache.create_cache ~name:"t" ~size_bytes:1024 ~ways:2 ~line:64 in
  (* 1024/(2*64) = 8 sets *)
  Alcotest.(check bool) "cold miss" false (Cache.access_line c 0);
  Alcotest.(check bool) "hit" true (Cache.access_line c 0);
  (* two lines mapping to set 0: 0 and 8; both fit (2 ways) *)
  Alcotest.(check bool) "second way" false (Cache.access_line c 8);
  Alcotest.(check bool) "both resident" true (Cache.access_line c 0);
  (* third conflicting line evicts LRU (line 8) *)
  Alcotest.(check bool) "conflict miss" false (Cache.access_line c 16);
  Alcotest.(check bool) "line 0 kept (MRU)" true (Cache.access_line c 0);
  Alcotest.(check bool) "line 8 evicted" false (Cache.access_line c 8)

let test_cache_hierarchy_locality () =
  (* streaming a small buffer twice: second pass hits in L1 *)
  let h = Cache.of_arch Arch.sandy_bridge in
  for _pass = 1 to 2 do
    for i = 0 to 255 do
      Cache.access h ~addr:(8 * i) ~bytes:8 ~store:false
    done
  done;
  let levels, dram = Cache.stats h in
  let l1 = List.hd levels in
  (* 32 cold line misses; 480 hits *)
  Alcotest.(check int) "l1 misses" 32 l1.Cache.ls_misses;
  Alcotest.(check int) "dram fetches" 32 dram;
  Alcotest.(check bool) "l1 hit rate high" true (Cache.hit_rate l1 > 0.9)

let test_cache_on_generated_kernel () =
  (* an L1-resident AXPY has a high hit rate; each 64-byte line is
     touched 8 times (8 doubles) *)
  let arch = Arch.sandy_bridge in
  let g = Augem.tuned ~arch Augem.Ir.Kernels.Axpy in
  let h = Cache.of_arch arch in
  let n = 512 in
  let x = Array.init n float_of_int and y = Array.make n 1.0 in
  let _ =
    Exec.call ~on_access:(Cache.access h) g.Augem.g_program
      Exec.[ Aint n; Adouble 2.0; Abuf x; Abuf y ]
  in
  let levels, _ = Cache.stats h in
  Alcotest.(check bool) "L1 hit rate > 70%" true
    (Cache.hit_rate (List.hd levels) > 0.7)

let test_perf_monotone_in_size () =
  (* GEMM MFLOPS grows with problem size (overhead amortizes) *)
  let arch = Arch.sandy_bridge in
  let p = gemm_prog arch in
  let at m = (Augem.Sim.Perf.predict arch p (Augem.Sim.Perf.W_gemm { m; n = m; k = 256 })).Augem.Sim.Perf.e_mflops in
  Alcotest.(check bool) "1024 < 4096" true (at 1024 < at 4096 +. 1.0)

(* A load or store reports the bytes it touches, lanes x element size:
   a scalar f32 access 4 bytes, not its W64 width's 8, and a W256 f32
   store 32. *)
let test_access_bytes () =
  let seen = ref [] in
  let prog =
    Insn.
      {
        prog_name = "t";
        prog_insns =
          [
            Vload { w = W64; dst = 0; src = mem Reg.Rdi };
            Vstore { w = W64; src = 0; dst = mem Reg.Rsi };
            Vstore { w = W256; src = 0; dst = mem Reg.Rsi };
            Ret;
          ];
      }
  in
  let _ =
    Exec.call ~et:Augem.Machine.Etype.F32
      ~on_access:(fun ~addr:_ ~bytes ~store -> seen := (bytes, store) :: !seen)
      prog
      [ Exec.Abuf (Array.make 8 1.0); Exec.Abuf (Array.make 8 0.0) ]
  in
  Alcotest.(check (list (pair int bool)))
    "(bytes, store) per access"
    [ (4, false); (4, true); (32, true) ]
    (List.rev !seen)

let suite =
  [
    Alcotest.test_case "shufpd" `Quick test_shufpd;
    Alcotest.test_case "blendpd" `Quick test_blendpd;
    Alcotest.test_case "vbroadcastsd" `Quick test_broadcast_and_unpck;
    Alcotest.test_case "vextractf128 + haddpd" `Quick test_extract_and_hadd;
    Alcotest.test_case "vperm2f128" `Quick test_vperm2f128;
    Alcotest.test_case "vblendpd 256" `Quick test_vblend_256;
    Alcotest.test_case "scalar op upper lanes" `Quick
      test_scalar_upper_lane_semantics;
    Alcotest.test_case "FMA3 and FMA4" `Quick test_fma_semantics;
    Alcotest.test_case "control flow and stack" `Quick
      test_control_flow_and_stack;
    Alcotest.test_case "movabs double literal" `Quick test_movabs_double;
    Alcotest.test_case "stack-passed arguments" `Quick test_stack_args;
    Alcotest.test_case "unaligned access faults" `Quick test_fault_on_unaligned;
    Alcotest.test_case "hot loop detection" `Quick test_hot_loop_detection;
    Alcotest.test_case "steady-state cycle bounds" `Quick
      test_steady_cycles_bounds;
    Alcotest.test_case "efficiency across ISAs" `Quick
      test_efficiency_monotone_in_isa;
    Alcotest.test_case "cache residency" `Quick test_mem_model_residency;
    Alcotest.test_case "prefetch improves streaming" `Quick
      test_mem_model_prefetch_helps;
    Alcotest.test_case "cache sim LRU/associativity" `Quick
      test_cache_sim_basics;
    Alcotest.test_case "cache hierarchy locality" `Quick
      test_cache_hierarchy_locality;
    Alcotest.test_case "cache stats on generated kernel" `Quick
      test_cache_on_generated_kernel;
    Alcotest.test_case "MFLOPS monotone in size" `Quick
      test_perf_monotone_in_size;
    Alcotest.test_case "access bytes are lanes x element size" `Quick
      test_access_bytes;
  ]
