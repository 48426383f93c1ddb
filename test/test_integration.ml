(* End-to-end integration: the generated assembly micro-kernel running
   inside the Goto-blocked GEMM driver on the functional simulator,
   the C-text front end feeding the whole pipeline, and the Table-6
   routine path. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Mat = A.Blas.Matrix
module L3 = A.Blas.Level3
module Exec = A.Sim.Exec_sim

let sim_kernel prog : L3.micro_kernel =
 fun ~mc ~kc ~nc ~pa ~pb ~c_data ~c_off ~ldc ->
  let len = min (ldc * nc) (Array.length c_data - c_off) in
  let view = Array.sub c_data c_off len in
  let _ =
    Exec.call prog
      Exec.[ Aint mc; Aint kc; Aint nc; Aint ldc; Abuf pa; Abuf pb; Abuf view ]
  in
  Array.blit view 0 c_data c_off len

let tuned_gemm_prog arch = (A.tuned ~arch Kernels.Gemm).A.g_program

let test_blocked_gemm_with_simulated_kernel () =
  let arch = Arch.sandy_bridge in
  let kernel = sim_kernel (tuned_gemm_prog arch) in
  List.iter
    (fun (m, k, n) ->
      let a = Mat.random ~seed:m m k in
      let b = Mat.random ~seed:(k + 7) k n in
      let c1 = Mat.random ~seed:(n + 3) m n in
      let c2 = Mat.copy c1 in
      L3.dgemm_naive ~alpha:1.0 ~beta:1.0 a b c1;
      L3.dgemm_blocked
        ~blocking:{ L3.bk_mc = 16; bk_kc = 12; bk_nc = 8 }
        ~kernel ~alpha:1.0 ~beta:1.0 a b c2;
      Alcotest.(check bool)
        (Printf.sprintf "blocked+simulated %dx%dx%d" m k n)
        true
        (Mat.approx_equal ~tol:1e-10 c1 c2))
    [ (16, 12, 8); (17, 13, 9); (32, 24, 16); (5, 3, 2); (40, 1, 7) ]

let prop_blocked_sim_random_shapes =
  QCheck.Test.make ~name:"blocked GEMM with simulated kernel, random shapes"
    ~count:6
    QCheck.(
      make
        ~print:(fun (m, k, n) -> Printf.sprintf "%dx%dx%d" m k n)
        Gen.(triple (int_range 1 24) (int_range 1 20) (int_range 1 16)))
    (fun (m, k, n) ->
      let arch = Arch.piledriver in
      let kernel = sim_kernel (tuned_gemm_prog arch) in
      let a = Mat.random ~seed:(m * 3) m k in
      let b = Mat.random ~seed:(k * 5) k n in
      let c1 = Mat.random ~seed:(n * 7) m n in
      let c2 = Mat.copy c1 in
      L3.dgemm_naive ~alpha:1.0 ~beta:1.0 a b c1;
      L3.dgemm_blocked
        ~blocking:{ L3.bk_mc = 8; bk_kc = 6; bk_nc = 4 }
        ~kernel ~alpha:1.0 ~beta:1.0 a b c2;
      Mat.approx_equal ~tol:1e-10 c1 c2)

let test_trsm_with_simulated_kernel () =
  (* the paper's TRSM decomposition: simulated GEMM kernel handles the
     trailing update *)
  let arch = Arch.sandy_bridge in
  let kernel = sim_kernel (tuned_gemm_prog arch) in
  let n = 70 and rhs = 5 in
  let l = Mat.random_lower ~seed:91 n in
  let b = Mat.random ~seed:92 n rhs in
  let x = Mat.copy b in
  let blocking = { L3.bk_mc = 16; bk_kc = 12; bk_nc = 8 } in
  L3.dtrsm ~gemm:(L3.dgemm_blocked ~blocking ~kernel) ~alpha:1.0 l x;
  let x' = Mat.copy x in
  L3.dtrmm ~alpha:1.0 l x';
  Alcotest.(check bool) "L(trsm) = b" true (Mat.approx_equal ~tol:1e-7 x' b)

let test_c_text_to_simulated_execution () =
  let source =
    {|
void saxpby(int n, double a, double b, double* X, double* Y)
{
  int i;
  double t;
  for (i = 0; i < n; i += 1) {
    t = X[i] * a;
    Y[i] = Y[i] + t;
    Y[i] = Y[i] + X[i] * b;
  }
}
|}
  in
  match A.Ir.Parser.parse_kernel_result source with
  | Error m -> Alcotest.fail m
  | Ok k ->
      let cfg =
        { A.Transform.Pipeline.default with inner_unroll = Some ("i", 4) }
      in
      let optimized = A.Transform.Pipeline.apply k cfg in
      let prog = A.Codegen.Emit.generate ~arch:Arch.piledriver optimized in
      let n = 11 in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let y = Array.make n 1.0 in
      let _ =
        Exec.call prog
          Exec.[ Aint n; Adouble 2.0; Adouble 3.0; Abuf x; Abuf y ]
      in
      let expected = Array.init n (fun i -> 1.0 +. (5.0 *. x.(i))) in
      Alcotest.(check bool) "y = 1 + 5x" true
        (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) expected y)

let test_assembly_listing_sane () =
  let g = A.tuned ~arch:Arch.piledriver Kernels.Gemm in
  let asm = A.assembly g in
  List.iter
    (fun needle ->
      let found =
        let rec go i =
          i + String.length needle <= String.length asm
          && (String.sub asm i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true found)
    [ "dgemm_kernel:"; "vfmadd231pd"; "prefetcht0"; "ret"; ".globl" ]

(* --- the encoder against GNU as ------------------------------------------ *)

module Insn = A.Machine.Insn
module Et = A.Machine.Etype
module Enc = A.Jit.Encoder

(* The encoder deliberately emits the IR's flags-neutral add/sub as lea
   (see encoder.ml); [as] gets the equivalent lea text so the byte
   comparison stays meaningful for those instructions too. *)
let flags_neutral (i : Insn.t) : Insn.t =
  match i with
  | Insn.Addri (r, n) ->
      Insn.Lea (r, { Insn.base = r; index = None; disp = n })
  | Insn.Addrr (d, s) ->
      let base, index = if s = A.Machine.Reg.Rsp then (s, d) else (d, s) in
      Insn.Lea (d, { Insn.base; index = Some (index, Insn.S1); disp = 0 })
  | Insn.Subri (r, n) ->
      Insn.Lea (r, { Insn.base = r; index = None; disp = -n })
  | i -> i

let on_path tool =
  let path = Option.value ~default:"" (Sys.getenv_opt "PATH") in
  List.exists
    (fun dir -> Sys.file_exists (Filename.concat dir tool))
    (String.split_on_char ':' path)

(* The .text bytes [as] and [objcopy] make of the listing [asm] of the
   program [label], through files in [dir]. *)
let gas_bytes dir ~label asm =
  let file ext = Filename.concat dir ("prog" ^ ext) in
  Out_channel.with_open_text (file ".s") (fun oc -> output_string oc asm);
  let q ext = Filename.quote (file ext) in
  let cmd =
    Printf.sprintf "as %s -o %s && objcopy -O binary --only-section=.text %s %s"
      (q ".s") (q ".o") (q ".o") (q ".bin")
  in
  if Sys.command cmd <> 0 then Alcotest.failf "%s: as or objcopy failed" label;
  In_channel.with_open_bin (file ".bin") In_channel.input_all

(* Every program the default tuning spaces generate for the nine
   kernels, on every extended arch at both precisions, encodes to the
   bytes [as] makes of its listing.  The first mismatch fails the test
   with 16 bytes of each side from 4 before the first differing byte. *)
let test_encoder_matches_gas () =
  match List.find_opt (fun t -> not (on_path t)) [ "as"; "objcopy" ] with
  | Some tool -> Printf.printf "skipped: %s not found\n" tool
  | None ->
      let dir = Filename.temp_dir "augem-gas" "" in
      let remove () =
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      in
      Fun.protect ~finally:remove @@ fun () ->
      let checked = ref 0 in
      let check (arch : Arch.t) et kernel (cand : A.Tuner.candidate) =
        match
          A.generate ~et ~arch ~config:cand.A.Tuner.cand_config
            ~opts:cand.A.Tuner.cand_opts kernel
        with
        | exception _ -> () (* the candidate does not fit the machine *)
        | g ->
            let label =
              Printf.sprintf "%s %s %s [%s]" arch.Arch.name (Et.name et)
                (Kernels.name_to_string kernel)
                (A.Transform.Pipeline.config_to_string cand.A.Tuner.cand_config)
            in
            let prog = g.A.g_program in
            let ours =
              (Enc.encode_program ~avx:(arch.Arch.simd = Arch.AVX) ~et prog)
                .Enc.enc_code
            in
            let insns = List.map flags_neutral prog.Insn.prog_insns in
            let listing =
              A.assembly
                { g with A.g_program = { prog with Insn.prog_insns = insns } }
            in
            let theirs = gas_bytes dir ~label listing in
            incr checked;
            if not (String.equal ours theirs) then begin
              let n = min (String.length ours) (String.length theirs) in
              let rec first i =
                if i < n && ours.[i] = theirs.[i] then first (i + 1) else i
              in
              let d = first 0 in
              let window s =
                let lo = max 0 (d - 4) in
                Enc.to_hex (String.sub s lo (min 16 (String.length s - lo)))
              in
              Alcotest.failf
                "%s: encoder and as differ at byte %d (%d vs %d bytes)\n\
                \  encoder: %s\n\
                \  as:      %s"
                label d (String.length ours) (String.length theirs)
                (window ours) (window theirs)
            end
      in
      List.iter
        (fun arch ->
          List.iter
            (fun et ->
              List.iter
                (fun kernel ->
                  List.iter (check arch et kernel) (A.Tuner.space_for kernel))
                Kernels.names)
            [ Et.F64; Et.F32 ])
        Arch.extended;
      if !checked = 0 then Alcotest.fail "no program checked";
      Printf.printf "%d programs: encoder bytes = as bytes\n" !checked

let suite =
  [
    Alcotest.test_case "blocked GEMM with simulated kernel" `Slow
      test_blocked_gemm_with_simulated_kernel;
    Alcotest.test_case "TRSM with simulated kernel" `Slow
      test_trsm_with_simulated_kernel;
    Alcotest.test_case "C text to simulated execution" `Quick
      test_c_text_to_simulated_execution;
    Alcotest.test_case "assembly listing" `Quick test_assembly_listing_sane;
    Alcotest.test_case "encoder bytes = GNU as bytes" `Slow
      test_encoder_matches_gas;
    QCheck_alcotest.to_alcotest prop_blocked_sim_random_shapes;
  ]
