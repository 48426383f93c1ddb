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

(* --- the tuning sweep's shared work against the one-candidate paths ----- *)

module Tuner = A.Tuner
module Pipeline = A.Transform.Pipeline
module Diag = A.Verify.Diag
module Asmcheck = A.Analysis.Asmcheck
module Cycle = A.Sim.Cycle_sim

(* A program's listing or a discard's diagnostic: what a sweep sees. *)
let outcome_text et (arch : Arch.t) = function
  | Ok prog ->
      A.Machine.Att.program_to_string ~et ~avx:(arch.Arch.simd = Arch.AVX) prog
  | Error d -> Diag.to_string d

(* Every default space on every extended arch at both precisions, each
   candidate lowered alone: (arch, precision, kernel, its source, the
   candidates with their outcomes). *)
let corpus =
  lazy
    (List.concat_map
       (fun arch ->
         List.concat_map
           (fun et ->
             List.map
               (fun name ->
                 let kernel =
                   Kernels.kernel_of_name ?fp:(Tuner.fp_of_et et) name
                 in
                 ( arch, et, name, kernel,
                   List.map
                     (fun c ->
                       (c, Tuner.generate_candidate_diag arch name kernel c))
                     (Tuner.space_for name) ))
               Kernels.names)
           [ Et.F64; Et.F32 ])
       Arch.extended)

let programs () =
  List.concat_map
    (fun (arch, et, _, kernel, cands) ->
      List.filter_map
        (function _, Ok p -> Some (arch, et, kernel, p) | _, Error _ -> None)
        cands)
    (Lazy.force corpus)

(* (a) Lowering a space by prefetch-sibling groups gives every
   candidate the program or the diagnostic it gets alone: on every
   default space, and on a GEMM space whose groups mix prefetches that
   cover stores with ones that do not, one of them out of vector
   registers. *)
let test_grouped_lowering () =
  let check what et arch name kernel alone =
    List.iter2
      (fun (c, a) g ->
        Alcotest.(check string)
          (what ^ " " ^ Pipeline.config_to_string c.Tuner.cand_config)
          (outcome_text et arch a) (outcome_text et arch g))
      alone
      (Tuner.generate_candidates_diag arch name kernel (List.map fst alone))
  in
  List.iter
    (fun (arch, et, name, kernel, alone) ->
      check
        (Printf.sprintf "%s %s %s" arch.Arch.name (Et.name et)
           (Kernels.name_to_string name))
        et arch name kernel alone)
    (Lazy.force corpus);
  let group j i =
    List.map
      (fun prefetch ->
        {
          Tuner.cand_config =
            { Pipeline.default with jam = [ ("j", j); ("i", i) ]; prefetch };
          cand_opts = A.Codegen.Emit.default_options;
        })
      [
        Some { A.Transform.Prefetch.pf_distance = 8; pf_stores = false };
        None;
        Some { A.Transform.Prefetch.pf_distance = 4; pf_stores = true };
      ]
  in
  let arch = Arch.haswell and gemm = Kernels.kernel_of_name Kernels.Gemm in
  (* interleaved, so each group's members are apart in the space *)
  let space =
    List.concat (List.map2 (fun a b -> [ a; b ]) (group 6 16) (group 6 8))
  in
  let alone =
    List.map
      (fun c -> (c, Tuner.generate_candidate_diag arch Kernels.Gemm gemm c))
      space
  in
  Alcotest.(check (list bool)) "j:6,i:16 out of registers, j:6,i:8 lowers"
    [ false; true; false; true; false; true ]
    (List.map (fun (_, o) -> Result.is_ok o) alone);
  check "stores off" Et.F64 arch Kernels.Gemm gemm alone

(* (b) The hot loop is the first-seen maximum over every innermost
   loop's analysis, by flops then bytes loaded, on every corpus
   program. *)
let test_hot_loop_is_first_max () =
  List.iter
    (fun (arch, et, (kernel : A.Ir.Ast.kernel), prog) ->
      let first_max =
        List.fold_left
          (fun best (li : Cycle.loop_info) ->
            match best with
            | Some (b : Cycle.loop_info)
              when b.li_flops > li.li_flops
                   || (b.li_flops = li.li_flops
                      && b.li_load_bytes >= li.li_load_bytes) ->
                best
            | _ -> Some li)
          None (Cycle.analyze ~et arch prog)
      in
      if Cycle.hot_loop ~et arch prog <> first_max then
        Alcotest.failf "%s %s %s: hot loop differs from analyze's"
          arch.Arch.name (Et.name et) kernel.A.Ir.Ast.k_name)
    (programs ())

(* (c) The lint's findings, pinned: none on any corpus program, and on
   every asm-level mutant of each ({!Faults.enumerate_asm}) the
   findings the checker gave when it computed reaching definitions for
   every program, digested in corpus order. *)
let test_lint_findings_pinned () =
  let buf = Buffer.create (1 lsl 22) in
  let mutants = ref 0 in
  List.iter
    (fun (arch, _, (kernel : A.Ir.Ast.kernel), prog) ->
      let avx = arch.Arch.simd = Arch.AVX in
      let config = Asmcheck.config_for ~avx ~params:kernel.A.Ir.Ast.k_params in
      (match Asmcheck.check ~config prog with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s on %s: %s" kernel.A.Ir.Ast.k_name arch.Arch.name
            (Asmcheck.finding_to_string f));
      List.iter
        (fun f ->
          incr mutants;
          List.iter
            (fun x ->
              Buffer.add_string buf (Asmcheck.finding_to_string x);
              Buffer.add_char buf '\n')
            (Asmcheck.check ~config (A.Verify.Faults.apply prog f));
          Buffer.add_string buf "--\n")
        (A.Verify.Faults.enumerate_asm ~avx ~entry:config.Asmcheck.cfg_entry
           prog))
    (programs ());
  Alcotest.(check int) "mutants" 40501 !mutants;
  Alcotest.(check string) "findings digest" "9636bc3ae41738d365d828d734b17709"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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
    Alcotest.test_case "grouped lowering = each candidate alone" `Slow
      test_grouped_lowering;
    Alcotest.test_case "hot loop = first max over analyze" `Slow
      test_hot_loop_is_first_max;
    Alcotest.test_case "lint findings pinned on corpus mutants" `Slow
      test_lint_findings_pinned;
  ]
