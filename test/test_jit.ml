(* The x86-64 encoder and the native execution path.

   Encoding is locked by golden byte tables (golden/enc_*.hex): every
   opcode x operand-form x precision the kernel corpus emits is
   rendered to hex and compared as one string, the same mechanism as
   the AT&T printer's att_table.txt.  Regenerate after an intentional
   encoder change with

     dune exec test/main.exe -- gengold test/golden

   from the repository root.  Branch assembly is covered by label
   round-trip tests (encode -> decode displacement -> same target),
   including a deliberately out-of-range rel8 forced to rel32, and the
   flags-hazard audit's rejections.  The native differential tests
   skip on hosts without the required SIMD features. *)

module A = Augem
module Enc = A.Jit.Encoder
module Insn = A.Machine.Insn
module Reg = A.Machine.Reg
module Et = A.Machine.Etype
module Arch = A.Machine.Arch
module K = A.Ir.Kernels

(* --- golden table builders --------------------------------------------- *)

let row buf label body =
  Buffer.add_string buf (Printf.sprintf "%-40s| %s\n" label body)

let enc_row buf ~avx ~et label i =
  let body =
    try Enc.to_hex (Enc.encode_insn ~avx ~et i)
    with Enc.Encode_error m -> "<encode_error: " ^ m ^ ">"
  in
  row buf label body

let modes = [ ("avx", true); ("sse", false) ]
let ets = [ Et.F64; Et.F32 ]
let widths = Insn.[ ("w64", W64); ("w128", W128); ("w256", W256) ]

(* Vector register-register forms: every fpop at every width and
   precision, in both encodings, at low and high (REX-requiring)
   register numbers, plus the whole-register move/shuffle family. *)
let vec_table () =
  let buf = Buffer.create 16384 in
  let fpops =
    Insn.[ ("fadd", Fadd); ("fsub", Fsub); ("fmul", Fmul); ("fdiv", Fdiv);
           ("fxor", Fxor); ("fmov", Fmov); ("fma231", Fma231);
           ("fhadd", Fhadd); ("funpckl", Funpckl); ("funpckh", Funpckh) ]
  in
  List.iter
    (fun (mn, avx) ->
      List.iter
        (fun et ->
          List.iter
            (fun (wn, w) ->
              List.iter
                (fun (opn, op) ->
                  List.iter
                    (fun (rn, dst, src1, src2) ->
                      enc_row buf ~avx ~et
                        (Printf.sprintf "%s %s %s %s %s" mn (Et.name et) wn
                           opn rn)
                        (Insn.Vop { op; w; dst; src1; src2 }))
                    (* low regs; high regs (REX/VEX R,X,B); the mova
                       store-form special case (high src, low dst) *)
                    [ ("lo", 1, 2, 3); ("hi", 9, 10, 11); ("mix", 1, 9, 2) ])
                fpops;
              List.iter
                (fun (rn, dst, a, b, c) ->
                  enc_row buf ~avx ~et
                    (Printf.sprintf "%s %s %s fma4 %s" mn (Et.name et) wn rn)
                    (Insn.Vfma4 { w; dst; a; b; c }))
                [ ("lo", 1, 2, 3, 4); ("hi", 9, 10, 11, 12) ];
              List.iter
                (fun (opn, i) ->
                  enc_row buf ~avx ~et
                    (Printf.sprintf "%s %s %s %s" mn (Et.name et) wn opn)
                    i)
                [
                  ("vshuf", Insn.Vshuf { w; dst = 1; src1 = 2; src2 = 3; imm = 1 });
                  ("vblend", Insn.Vblend { w; dst = 1; src1 = 2; src2 = 3; imm = 5 });
                ])
            widths;
          List.iter
            (fun (opn, i) ->
              enc_row buf ~avx ~et
                (Printf.sprintf "%s %s %s" mn (Et.name et) opn)
                i)
            [
              ("vperm128", Insn.Vperm128 { dst = 1; src1 = 2; src2 = 3; imm = 0x21 });
              ("vextract128", Insn.Vextract128 { dst = 1; src = 9; lane = 1 });
              ("movq_xr lo", Insn.Movq_xr { dst = 1; src = Reg.Rax });
              ("movq_xr hi", Insn.Movq_xr { dst = 9; src = Reg.R13 });
            ])
        ets)
    modes;
  Buffer.contents buf

(* Vector memory forms: loads, stores and broadcasts over every
   addressing-mode corner the ModRM/SIB encoder special-cases (rsp and
   r12 force a SIB byte; rbp and r13 force an explicit displacement;
   index scaling). *)
let mem_table () =
  let buf = Buffer.create 16384 in
  let mems =
    Reg.
      [
        ("(rbx)", { Insn.base = Rbx; index = None; disp = 0 });
        ("8(rbx)", { Insn.base = Rbx; index = None; disp = 8 });
        ("1024(rbx)", { Insn.base = Rbx; index = None; disp = 1024 });
        ("-8(r14)", { Insn.base = R14; index = None; disp = -8 });
        ("(rsp)", { Insn.base = Rsp; index = None; disp = 0 });
        ("(rbp)", { Insn.base = Rbp; index = None; disp = 0 });
        ("(r12)", { Insn.base = R12; index = None; disp = 0 });
        ("(r13)", { Insn.base = R13; index = None; disp = 0 });
        ( "16(rbx,rcx,8)",
          { Insn.base = Rbx; index = Some (Rcx, Insn.S8); disp = 16 } );
        ( "(rbx,r9,4)",
          { Insn.base = Rbx; index = Some (R9, Insn.S4); disp = 0 } );
        ( "(r13,rdx,2)",
          { Insn.base = R13; index = Some (Rdx, Insn.S2); disp = 0 } );
      ]
  in
  List.iter
    (fun (mn, avx) ->
      List.iter
        (fun et ->
          List.iter
            (fun (wn, w) ->
              List.iter
                (fun (memn, m) ->
                  enc_row buf ~avx ~et
                    (Printf.sprintf "%s %s %s vload %s" mn (Et.name et) wn memn)
                    (Insn.Vload { w; dst = 4; src = m });
                  enc_row buf ~avx ~et
                    (Printf.sprintf "%s %s %s vstore %s" mn (Et.name et) wn
                       memn)
                    (Insn.Vstore { w; src = 12; dst = m });
                  enc_row buf ~avx ~et
                    (Printf.sprintf "%s %s %s vbcast %s" mn (Et.name et) wn
                       memn)
                    (Insn.Vbroadcast { w; dst = 4; src = m }))
                mems)
            widths)
        ets)
    modes;
  Buffer.contents buf

(* Integer/control forms.  Precision- and SIMD-mode-independent, so one
   pass; includes the flags-neutral lea encoding of add/sub, the rax
   accumulator short form of cmp, imm8 vs imm32 selection, and the
   rsp-index swap in register adds. *)
let gpr_table () =
  let buf = Buffer.create 8192 in
  let m_rbx8 = { Insn.base = Reg.Rbx; index = None; disp = 8 } in
  let m_sib =
    { Insn.base = Reg.Rcx; index = Some (Reg.Rdx, Insn.S8); disp = 32 }
  in
  let rows =
    Reg.
      [
        ("movri rax 42", Insn.Movri (Rax, 42));
        ("movri r13 42", Insn.Movri (R13, 42));
        ("movri rbx -1", Insn.Movri (Rbx, -1));
        ("movabs rcx", Insn.Movabs (Rcx, 0x1234_5678_9abc_def0L));
        ("movrr rbx rcx", Insn.Movrr (Rbx, Rcx));
        ("movrr r8 r15", Insn.Movrr (R8, R15));
        ("loadq rbx 8(rbx)", Insn.Loadq (Rbx, m_rbx8));
        ("loadq r9 sib", Insn.Loadq (R9, m_sib));
        ("storeq 8(rbx) rbx", Insn.Storeq (m_rbx8, Rbx));
        ("storeq sib r9", Insn.Storeq (m_sib, R9));
        ("addri rbx 8", Insn.Addri (Rbx, 8));
        ("addri rax 128", Insn.Addri (Rax, 128));
        ("addri r12 8", Insn.Addri (R12, 8));
        ("addri rbp -8", Insn.Addri (Rbp, -8));
        ("addrr rbx rcx", Insn.Addrr (Rbx, Rcx));
        ("addrr rbx rsp", Insn.Addrr (Rbx, Rsp));
        ("addrr rsp rsp", Insn.Addrr (Rsp, Rsp));
        ("subri rbx 8", Insn.Subri (Rbx, 8));
        ("subri rax 300", Insn.Subri (Rax, 300));
        ("subrr rbx rcx", Insn.Subrr (Rbx, Rcx));
        ("imulrr rbx rcx", Insn.Imulrr (Rbx, Rcx));
        ("imulri rbx rcx 24", Insn.Imulri (Rbx, Rcx, 24));
        ("imulri rbx rcx 300", Insn.Imulri (Rbx, Rcx, 300));
        ("shlri rbx 1", Insn.Shlri (Rbx, 1));
        ("shlri rbx 3", Insn.Shlri (Rbx, 3));
        ("negr rbx", Insn.Negr (Rbx));
        ("lea rbx 8(rbx)", Insn.Lea (Rbx, m_rbx8));
        ("lea r9 sib", Insn.Lea (R9, m_sib));
        ("cmprr rbx rcx", Insn.Cmprr (Rbx, Rcx));
        ("cmpri rbx 8", Insn.Cmpri (Rbx, 8));
        ("cmpri rax 128", Insn.Cmpri (Rax, 128));
        ("push rbx", Insn.Push Rbx);
        ("push r12", Insn.Push R12);
        ("pop rbx", Insn.Pop Rbx);
        ("pop r12", Insn.Pop R12);
        ("ret", Insn.Ret);
        ("vzeroupper", Insn.Vzeroupper);
        ("prefetcht0 8(rbx)", Insn.Prefetch (Insn.Pf_t0, m_rbx8));
        ("prefetchw sib", Insn.Prefetch (Insn.Pf_w, m_sib));
        ("comment", Insn.Comment "elided");
      ]
  in
  List.iter (fun (l, i) -> enc_row buf ~avx:true ~et:Et.F64 l i) rows;
  Buffer.contents buf

(* Branch assembly through [encode_program]: whole programs with
   backward and forward targets at each condition code, plus the rel8
   -> rel32 relaxation.  Each program dumps its code bytes and its
   fixup records. *)
let prog name insns = { Insn.prog_name = name; prog_insns = insns }

let pad n =
  (* 10 encoded bytes each: enough to push a branch out of rel8 range *)
  List.init n (fun _ -> Insn.Movabs (Reg.Rax, 0x0102_0304_0506_0708L))

let cond_name =
  Insn.(
    function
    | Clt -> "l" | Cle -> "le" | Cgt -> "g" | Cge -> "ge" | Ceq -> "e"
    | Cne -> "ne")

let branch_programs () =
  let back cc =
    prog
      ("back_" ^ cond_name cc)
      [
        Insn.Label "top"; Insn.Addri (Reg.Rbx, 8); Insn.Cmprr (Reg.Rbx, Reg.Rcx);
        Insn.Jcc (cc, "top"); Insn.Ret;
      ]
  in
  let fwd cc =
    prog
      ("fwd_" ^ cond_name cc)
      [
        Insn.Cmprr (Reg.Rbx, Reg.Rcx); Insn.Jcc (cc, "out");
        Insn.Movri (Reg.Rax, 1); Insn.Label "out"; Insn.Ret;
      ]
  in
  let ccs = Insn.[ Clt; Cle; Cgt; Cge; Ceq; Cne ] in
  List.map back ccs @ List.map fwd ccs
  @ [
      prog "jmp_back" [ Insn.Label "top"; Insn.Jmp "top"; Insn.Ret ];
      prog "jmp_fwd" [ Insn.Jmp "out"; Insn.Label "out"; Insn.Ret ];
      (* long branches: the pad forces every rel8 out of range *)
      prog "long_back"
        ([ Insn.Label "top" ] @ pad 20
        @ [ Insn.Cmprr (Reg.Rbx, Reg.Rcx); Insn.Jcc (Insn.Clt, "top");
            Insn.Ret ]);
      prog "long_fwd"
        ([ Insn.Cmprr (Reg.Rbx, Reg.Rcx); Insn.Jcc (Insn.Cge, "out") ]
        @ pad 20
        @ [ Insn.Label "out"; Insn.Ret ]);
    ]

let branch_table () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun p ->
      let e = Enc.encode_program ~avx:true ~et:Et.F64 p in
      row buf p.Insn.prog_name (Enc.to_hex e.Enc.enc_code);
      List.iter
        (fun (f : Enc.fixup) ->
          row buf
            (Printf.sprintf "  fixup %s" f.Enc.fx_label)
            (Printf.sprintf "at=%d size=%d next=%d target=%d" f.Enc.fx_at
               f.Enc.fx_size f.Enc.fx_next
               (Enc.resolve_fixup e f)))
        e.Enc.enc_fixups)
    (branch_programs ());
  Buffer.contents buf

let tables =
  [
    ("enc_vec.hex", vec_table);
    ("enc_mem.hex", mem_table);
    ("enc_gpr.hex", gpr_table);
    ("enc_branch.hex", branch_table);
  ]

(* Regeneration entry point (main.ml's `gengold DIR` subcommand). *)
let write_golden dir =
  List.iter
    (fun (base, build) ->
      let path = Filename.concat dir base in
      Out_channel.with_open_bin path (fun oc -> output_string oc (build ()));
      Printf.printf "wrote %s\n" path)
    tables

let golden_path base =
  let candidates =
    [ Filename.concat "golden" base;
      Filename.concat (Filename.concat "test" "golden") base ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> Alcotest.failf "golden file %s not found" base

let test_golden base build () =
  let expected =
    In_channel.with_open_bin (golden_path base) In_channel.input_all
  in
  Alcotest.(check string)
    (base ^ " matches golden (regenerate: test/main.exe gengold test/golden)")
    expected (build ())

(* --- label fixups: encode -> decode -> same target ---------------------- *)

(* Every fixup in every branch program must decode back to the byte
   offset of its label: the round-trip inverse of branch assembly,
   independent of the golden bytes. *)
let test_fixup_roundtrip () =
  List.iter
    (fun p ->
      let e = Enc.encode_program ~avx:true ~et:Et.F64 p in
      Alcotest.(check bool)
        (p.Insn.prog_name ^ ": has fixups")
        true
        (e.Enc.enc_fixups <> []);
      List.iter
        (fun (f : Enc.fixup) ->
          let target =
            match List.assoc_opt f.Enc.fx_label e.Enc.enc_labels with
            | Some t -> t
            | None ->
                Alcotest.failf "%s: fixup label %s not in enc_labels"
                  p.Insn.prog_name f.Enc.fx_label
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s resolves" p.Insn.prog_name f.Enc.fx_label)
            target
            (Enc.resolve_fixup e f))
        e.Enc.enc_fixups)
    (branch_programs ())

(* The pad in long_back/long_fwd places the target > 127 bytes away:
   relaxation must have widened those displacement fields to rel32
   (and kept the short ones at rel8). *)
let test_fixup_relaxation () =
  let sizes name =
    let p =
      List.find (fun p -> String.equal p.Insn.prog_name name)
        (branch_programs ())
    in
    let e = Enc.encode_program ~avx:true ~et:Et.F64 p in
    List.map (fun (f : Enc.fixup) -> f.Enc.fx_size) e.Enc.enc_fixups
  in
  Alcotest.(check (list int)) "short backward loop stays rel8" [ 1 ]
    (sizes "back_l");
  Alcotest.(check (list int)) "long backward branch widened to rel32" [ 4 ]
    (sizes "long_back");
  Alcotest.(check (list int)) "long forward branch widened to rel32" [ 4 ]
    (sizes "long_fwd")

(* --- flags-hazard audit ------------------------------------------------- *)

(* sub/imul/shl/neg have no flags-neutral encoding; one of them between
   a cmp and its jcc would silently redirect the branch on hardware, so
   the encoder must reject the program outright. *)
let test_flags_audit_rejects () =
  let bad =
    prog "bad"
      [
        Insn.Label "top"; Insn.Cmprr (Reg.Rbx, Reg.Rcx);
        Insn.Subrr (Reg.Rdx, Reg.Rsi); Insn.Jcc (Insn.Clt, "top"); Insn.Ret;
      ]
  in
  (match Enc.encode_program ~avx:true ~et:Et.F64 bad with
  | exception Enc.Encode_error _ -> ()
  | _ -> Alcotest.fail "sub between cmp and jcc must be rejected");
  (* the flags-neutral lea encodings must NOT trip the audit *)
  let ok =
    prog "ok"
      [
        Insn.Label "top"; Insn.Cmprr (Reg.Rbx, Reg.Rcx);
        Insn.Addri (Reg.Rdx, 8); Insn.Addrr (Reg.Rsi, Reg.Rdi);
        Insn.Subri (Reg.R8, 16); Insn.Jcc (Insn.Clt, "top"); Insn.Ret;
      ]
  in
  ignore (Enc.encode_program ~avx:true ~et:Et.F64 ok);
  (* a jcc with no reaching cmp at all is equally unprovable *)
  let orphan = prog "orphan" [ Insn.Label "top"; Insn.Jcc (Insn.Ceq, "top") ] in
  match Enc.encode_program ~avx:true ~et:Et.F64 orphan with
  | exception Enc.Encode_error _ -> ()
  | _ -> Alcotest.fail "jcc without a reaching cmp must be rejected"

(* --- native execution (host-gated) -------------------------------------- *)

let native_guard () =
  if not (A.Native_check.host_supported ()) then begin
    Printf.printf "skipped: host CPU lacks SSE2+AVX\n";
    false
  end
  else true

(* The full guarded path on every kernel, every modelled arch and both
   precisions: lint gate, feature check, JIT, then the three-way
   differential (native vs simulator vs reference BLAS) over the harness
   sweep.  A Skip is only legal when cpuid reports a feature missing, so
   a host with SSE2+AVX must run at least one combination. *)
let test_native_differential () =
  if native_guard () then begin
    let checked = ref 0 in
    List.iter
      (fun (arch : Arch.t) ->
        List.iter
          (fun et ->
            List.iter
              (fun kernel ->
                let cand = A.Tuner.safe_baseline in
                let g =
                  A.generate ~et ~arch ~config:cand.A.Tuner.cand_config
                    ~opts:cand.A.Tuner.cand_opts kernel
                in
                match A.Native_check.check ~arch ~et kernel g.A.g_program with
                | A.Native_check.Pass -> incr checked
                | A.Native_check.Skip m ->
                    Printf.printf "%s %s %s: skipped (%s)\n" arch.Arch.name
                      (K.name_to_string kernel) (Et.name et) m
                | A.Native_check.Fail m ->
                    Alcotest.failf "%s %s %s: %s" arch.Arch.name
                      (K.name_to_string kernel) (Et.name et) m)
              K.[ Gemm; Gemv; Axpy; Dot; Ger; Scal; Copy; Pack_a; Pack_b ])
          [ Et.F64; Et.F32 ])
      Arch.extended;
    if !checked = 0 then
      Alcotest.fail "host claims SSE2+AVX but every differential check skipped"
  end

(* Rejected programs must never reach executable memory: a kernel with
   a flags hazard comes back Fail/Rejected from the gate, not loaded. *)
let test_native_gate_rejects () =
  if native_guard () then begin
    let bad =
      prog "bad"
        [
          Insn.Label "top"; Insn.Cmprr (Reg.Rbx, Reg.Rcx);
          Insn.Subrr (Reg.Rdx, Reg.Rsi); Insn.Jcc (Insn.Clt, "top"); Insn.Ret;
        ]
    in
    match A.Native_check.load ~avx:true ~et:Et.F64 bad with
    | A.Native_check.Ready _ -> Alcotest.fail "hazardous program was loaded"
    | A.Native_check.Rejected _ | A.Native_check.Unsupported _ -> ()
  end

(* --- Clock.rounds ------------------------------------------------------- *)

(* Three thunks that log their calls, the n-th call of each (from 0)
   spinning for at least n ms.  Five rounds run each thunk five times,
   round r starting at thunk r mod 3.  Each thunk keeps four samples in
   round order, none of them its untimed first call's: the k-th spans
   at least k + 1 ms. *)
let test_rounds () =
  let module Clock = A.Jit.Clock in
  let log = ref [] in
  let thunk i =
    let calls = ref 0 in
    fun () ->
      log := i :: !log;
      let until =
        Int64.add (Clock.now_ns ()) (Int64.of_int (!calls * 1_000_000))
      in
      while Int64.compare (Clock.now_ns ()) until < 0 do
        ()
      done;
      incr calls
  in
  let samples =
    Clock.rounds ~warmup:1 ~rounds:4 [ thunk 0; thunk 1; thunk 2 ]
  in
  Alcotest.(check (list int)) "order of calls"
    [ 0; 1; 2; 1; 2; 0; 2; 0; 1; 0; 1; 2; 1; 2; 0 ]
    (List.rev !log);
  List.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "thunk %d: samples" i) 4
        (Array.length s);
      Array.iteri
        (fun k x ->
          if x < float_of_int (k + 1) *. 1e-3 then
            Alcotest.failf "thunk %d, sample %d: %g s, want >= %d ms" i k x
              (k + 1))
        s)
    samples

let suite =
  List.map
    (fun (base, build) ->
      Alcotest.test_case ("golden " ^ base) `Quick (test_golden base build))
    tables
  @ [
      Alcotest.test_case "label fixups round-trip" `Quick
        test_fixup_roundtrip;
      Alcotest.test_case "rel8 -> rel32 relaxation" `Quick
        test_fixup_relaxation;
      Alcotest.test_case "flags-hazard audit" `Quick test_flags_audit_rejects;
      Alcotest.test_case "native three-way differential" `Slow
        test_native_differential;
      Alcotest.test_case "native gate rejects hazards" `Quick
        test_native_gate_rejects;
      Alcotest.test_case "rounds rotate and keep every timed sample" `Quick
        test_rounds;
    ]
