(* augem — command-line front end.

     augem generate --kernel gemm --arch sandybridge [--jam j:4,i:8] ...
     augem tune     --kernel gemm --arch piledriver
     augem phases   --kernel gemv --arch sandybridge
     augem verify   --kernel dot  --arch sandybridge
     augem compile  --arch sandybridge file.c
     augem platforms

   [compile] accepts a simple C kernel (the subset of Figures 12/15-17)
   from a file or stdin and prints the generated assembly. *)

open Cmdliner
module A = Augem

let arch_conv =
  let parse s =
    match A.Machine.Arch.by_name_result s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt a -> Fmt.string fmt a.A.Machine.Arch.name)

let kernel_conv =
  let parse s =
    match A.Ir.Kernels.name_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown kernel %s" s))
  in
  Arg.conv (parse, fun fmt k -> Fmt.string fmt (A.Ir.Kernels.name_to_string k))

let precision_conv =
  let parse s =
    match A.Machine.Etype.of_name s with
    | Some et -> Ok et
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown precision %s (valid: f32, f64)" s))
  in
  Arg.conv (parse, fun fmt et -> Fmt.string fmt (A.Machine.Etype.name et))

let precision_arg =
  Arg.(
    value
    & opt precision_conv A.Machine.Etype.F64
    & info [ "precision" ] ~docv:"PREC"
        ~doc:"Scalar precision: f64 (default) or f32.")

let arch_arg =
  Arg.(
    value
    & opt arch_conv A.Machine.Arch.sandy_bridge
    & info [ "arch"; "a" ] ~docv:"ARCH" ~doc:"Target architecture.")

let kernel_arg =
  Arg.(
    value
    & opt kernel_conv A.Ir.Kernels.Gemm
    & info [ "kernel"; "k" ] ~docv:"KERNEL"
        ~doc:"DLA kernel: gemm, gemv, axpy, dot, ger, scal or copy.")

(* --jam j:4,i:8 *)
let jam_arg =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.map (fun part ->
               match String.split_on_char ':' part with
               | [ v; f ] -> (v, int_of_string f)
               | _ -> failwith "syntax"))
    with _ -> Error (`Msg "expected VAR:FACTOR[,VAR:FACTOR...]")
  in
  let print fmt l =
    Fmt.string fmt
      (String.concat "," (List.map (fun (v, f) -> Printf.sprintf "%s:%d" v f) l))
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "jam" ] ~docv:"SPEC" ~doc:"Unroll&jam factors, e.g. j:4,i:8.")

let unroll_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ v; f ] -> ( try Ok (v, int_of_string f) with _ -> Error (`Msg "bad factor"))
    | _ -> Error (`Msg "expected VAR:FACTOR")
  in
  Arg.(
    value
    & opt (some (conv (parse, fun fmt (v, f) -> Fmt.pf fmt "%s:%d" v f))) None
    & info [ "unroll" ] ~docv:"SPEC" ~doc:"Innermost unroll, e.g. i:8.")

let prefetch_arg =
  Arg.(
    value
    & opt (some int) (Some 8)
    & info [ "prefetch" ] ~docv:"DIST"
        ~doc:"Prefetch distance in iterations (0 disables).")

let script_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "Transformation script (overrides --jam/--unroll/--prefetch); see \
           the directive language in lib/transform/script.ml.")

let config_of_flags kernel jam unroll prefetch =
  let default_for k =
    match k with
    | A.Ir.Kernels.Gemm -> { A.Transform.Pipeline.default with jam = [ ("j", 4); ("i", 8) ] }
    | A.Ir.Kernels.Gemv ->
        { A.Transform.Pipeline.default with inner_unroll = Some ("j", 8) }
    | A.Ir.Kernels.Axpy ->
        { A.Transform.Pipeline.default with inner_unroll = Some ("i", 8) }
    | A.Ir.Kernels.Dot ->
        { A.Transform.Pipeline.default with inner_unroll = Some ("i", 8);
          expand_reduction = Some 8 }
    | A.Ir.Kernels.Ger | A.Ir.Kernels.Scal | A.Ir.Kernels.Copy
    | A.Ir.Kernels.Pack_a ->
        { A.Transform.Pipeline.default with inner_unroll = Some ("i", 8) }
    | A.Ir.Kernels.Pack_b ->
        { A.Transform.Pipeline.default with inner_unroll = Some ("l", 8) }
  in
  let cfg = default_for kernel in
  let cfg = match jam with None -> cfg | Some j -> { cfg with jam = j } in
  let cfg =
    match unroll with None -> cfg | Some u -> { cfg with inner_unroll = Some u }
  in
  {
    cfg with
    prefetch =
      (match prefetch with
      | None | Some 0 -> None
      | Some d ->
          Some { A.Transform.Prefetch.pf_distance = d; pf_stores = true });
  }

(* The configuration and emit options a subcommand's flags describe: a
   --script file, or else --jam/--unroll/--prefetch over the kernel's
   defaults. *)
let config_of_args kernel jam unroll prefetch = function
  | None ->
      ( config_of_flags kernel jam unroll prefetch,
        A.Codegen.Emit.default_options )
  | Some path -> (
      let src = In_channel.with_open_text path In_channel.input_all in
      match A.Transform.Script.parse src with
      | Ok s -> (s.A.Transform.Script.sc_config, A.opts_of_script s)
      | Error msg ->
          (* msg is "line N: ..." since Script tracks directive lines *)
          Fmt.epr "%s: script error: %s@." path msg;
          exit 1)

(* --- subcommands -------------------------------------------------------- *)

let native_arg =
  Arg.(
    value & flag
    & info [ "native" ]
        ~doc:
          "Also JIT the kernel to executable memory and run the guarded \
           native path: the asmcheck lint gate, a CPU-feature check, and \
           the three-way differential (native vs simulator vs reference \
           BLAS) over the full harness sweep.  Skips gracefully when the \
           host CPU lacks the required SIMD features.")

let generate_cmd =
  let run arch kernel et jam unroll prefetch script native =
    let config, opts = config_of_args kernel jam unroll prefetch script in
    let g = A.generate ~et ~opts ~arch ~config kernel in
    print_string (A.assembly g);
    if native then begin
      let st = A.Native_check.check ~arch ~et kernel g.A.g_program in
      Fmt.epr "native: %s@." (A.Native_check.status_to_string st);
      match st with A.Native_check.Fail _ -> exit 1 | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an assembly kernel")
    Term.(
      const run $ arch_arg $ kernel_arg $ precision_arg $ jam_arg $ unroll_arg
      $ prefetch_arg $ script_arg $ native_arg)

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the tuning sweep across $(docv) domains.  Results are \
           bit-identical for every job count (candidates are evaluated in \
           parallel; the best-candidate selection stays sequential in \
           candidate order).  0 means the recommended domain count for this \
           machine.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist tuning results under $(docv) (content-addressed by \
           architecture, kernel, search-space fingerprint and tuner \
           version), and reuse them across runs.  Also settable via \
           AUGEM_CACHE_DIR.  A corrupt cache file is treated as a miss, \
           never an error.")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable JSON record of the tuning run (best \
           configuration, score, discard histogram, wall-clock, \
           candidates/sec, cache statistics) to $(docv).")

(* Cache-tier accounting for `tune`: the events the serving metrics
   count, handed to Tuner.tuned as its [on_event], folded into counters
   and printed — corrupt entries and failed stores surface their
   structured diagnostics instead of being silent. *)
type tune_cache_counts = {
  mutable tc_memory : int;
  mutable tc_disk_hits : int;
  mutable tc_disk_misses : int;
  mutable tc_corrupt : int;
  mutable tc_swept : int;
  mutable tc_stores : int;
  mutable tc_diags : A.Verify.Diag.t list;
}

let tune_native_arg =
  Arg.(
    value & flag
    & info [ "native" ]
        ~doc:
          "After tuning, rank the answer's exact-tie set on this CPU: \
           every member the cycle model scores equal to the answer, \
           JIT-compiled and timed against the others as \
           Native_blocked.load times a tie set, with the member it would \
           keep marked.  The answer, its score and the tuning caches stay \
           the model's.  Members the host CPU cannot run are reported as \
           skipped.")

let tune_cmd =
  let run arch kernel et jobs cache_dir json_out native =
    let jobs = if jobs <= 0 then A.Team.default_jobs () else jobs in
    (match cache_dir with Some _ -> A.Tuner.set_cache_dir cache_dir | None -> ());
    let tc =
      { tc_memory = 0; tc_disk_hits = 0; tc_disk_misses = 0; tc_corrupt = 0;
        tc_swept = 0; tc_stores = 0; tc_diags = [] }
    in
    let on_event ~arch:_ ~kernel:_ = function
      | A.Tuner.Ev_memory_hit -> tc.tc_memory <- tc.tc_memory + 1
      | A.Tuner.Ev_disk_hit -> tc.tc_disk_hits <- tc.tc_disk_hits + 1
      | A.Tuner.Ev_disk_miss -> tc.tc_disk_misses <- tc.tc_disk_misses + 1
      | A.Tuner.Ev_disk_corrupt d ->
          tc.tc_corrupt <- tc.tc_corrupt + 1;
          tc.tc_diags <- d :: tc.tc_diags
      | A.Tuner.Ev_swept -> tc.tc_swept <- tc.tc_swept + 1
      | A.Tuner.Ev_store -> tc.tc_stores <- tc.tc_stores + 1
      | A.Tuner.Ev_store_error d -> tc.tc_diags <- d :: tc.tc_diags
    in
    let t0 = A.Jit.Clock.now_s () in
    let r = A.Tuner.tuned ~et ~jobs ~on_event arch kernel in
    let wall = A.Jit.Clock.now_s () -. t0 in
    Fmt.pr "best configuration: %s@."
      (A.Transform.Pipeline.config_to_string
         r.A.Tuner.best.A.Tuner.cand_config);
    Fmt.pr "predicted: %.0f MFLOPS (visited %d configurations, %d discarded)@."
      r.A.Tuner.best_score r.A.Tuner.visited r.A.Tuner.discarded;
    Fmt.pr "sweep: %.3f s at jobs=%d (%.1f candidates/sec)@." wall jobs
      (float_of_int r.A.Tuner.visited /. Float.max wall 1e-9);
    if cache_dir <> None || A.Tuner.cache_dir () <> None then
      Fmt.pr
        "cache: %d memory hit(s), %d disk hit(s), %d miss(es), %d corrupt, \
         %d sweep(s), %d store(s)@."
        tc.tc_memory tc.tc_disk_hits tc.tc_disk_misses tc.tc_corrupt
        tc.tc_swept tc.tc_stores;
    List.iter
      (fun d -> Fmt.pr "cache diagnostic: %s@." (A.Verify.Diag.to_string d))
      (List.rev tc.tc_diags);
    if r.A.Tuner.fell_back then
      Fmt.pr "WARNING: whole space discarded; safe baseline in use@.";
    if r.A.Tuner.failure_histogram <> [] then
      Fmt.pr "discard reasons:@.%a@." A.Verify.Diag.pp_histogram
        r.A.Tuner.failure_histogram;
    (match json_out with
    | None -> ()
    | Some path ->
        A.Json.to_file path
          (A.Json.Obj
             [
               ("arch", A.Json.String arch.A.Machine.Arch.name);
               ("kernel", A.Json.String (A.Ir.Kernels.name_to_string kernel));
               ("precision", A.Json.String (A.Machine.Etype.name et));
               ("native", A.Json.Bool native);
               ("jobs", A.Json.Int jobs);
               ("visited", A.Json.Int r.A.Tuner.visited);
               ("discarded", A.Json.Int r.A.Tuner.discarded);
               ("fell_back", A.Json.Bool r.A.Tuner.fell_back);
               ( "best_config",
                 A.Json.String
                   (A.Transform.Pipeline.config_to_string
                      r.A.Tuner.best.A.Tuner.cand_config) );
               ("best_mflops", A.Json.Float r.A.Tuner.best_score);
               ("wall_s", A.Json.Float wall);
               ( "candidates_per_sec",
                 A.Json.Float
                   (float_of_int r.A.Tuner.visited /. Float.max wall 1e-9) );
               ( "failure_histogram",
                 A.Json.Obj
                   (List.map
                      (fun (code, n) -> (code, A.Json.Int n))
                      r.A.Tuner.failure_histogram) );
               ( "cache",
                 A.Json.Obj
                   [
                     ("memory_hits", A.Json.Int tc.tc_memory);
                     ("disk_hits", A.Json.Int tc.tc_disk_hits);
                     ("misses", A.Json.Int tc.tc_disk_misses);
                     ("corrupt", A.Json.Int tc.tc_corrupt);
                     ("sweeps", A.Json.Int tc.tc_swept);
                     ("stores", A.Json.Int tc.tc_stores);
                   ] );
             ]);
        Fmt.pr "wrote %s@." path);
    let g =
      A.generate ~et ~arch ~config:r.A.Tuner.best.A.Tuner.cand_config
        ~opts:r.A.Tuner.best.A.Tuner.cand_opts kernel
    in
    let v = A.verify g in
    Fmt.pr "verification: %s@." v.A.Harness.detail;
    if native then begin
      let members = A.Native_blocked.tie_rates ~et arch kernel r in
      let rates =
        List.filter_map
          (function _, A.Native_check.Ready rate -> Some rate | _ -> None)
          members
      in
      (* [load] keeps a member only when the whole set runs here *)
      let kept =
        if List.length rates = List.length members then
          Some (A.Native_blocked.kept rates)
        else None
      in
      Fmt.pr "native tie set: %d member(s)@." (List.length members);
      List.iteri
        (fun i (c, gated) ->
          Fmt.pr "  %s  model %.0f MFLOPS  %s%s@."
            (A.Transform.Pipeline.config_to_string c.A.Tuner.cand_config)
            r.A.Tuner.best_score
            (match gated with
            | A.Native_check.Ready rate ->
                Printf.sprintf "measured %.0f MFLOPS" (rate /. 1e6)
            | A.Native_check.Unsupported m -> "skipped: " ^ m
            | A.Native_check.Rejected m -> "rejected: " ^ m)
            (if kept = Some i then "  (kept)" else ""))
        members;
      if
        List.exists
          (function _, A.Native_check.Rejected _ -> true | _ -> false)
          members
      then exit 1
    end
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Auto-tune a kernel and report the best configuration")
    Term.(
      const run $ arch_arg $ kernel_arg $ precision_arg $ jobs_arg
      $ cache_dir_arg $ json_out_arg $ tune_native_arg)

let phases_cmd =
  let run arch kernel jam unroll prefetch script =
    let config, opts = config_of_args kernel jam unroll prefetch script in
    let g = A.generate ~opts ~arch ~config kernel in
    Fmt.pr "=== 1. simple C input ===@.%a@.@." A.Ir.Pp.pp_kernel g.A.g_source;
    Fmt.pr "=== 2. optimized low-level C ===@.%a@.@." A.Ir.Pp.pp_kernel
      g.A.g_optimized;
    Fmt.pr "=== 3. template-tagged ===@.%a@.@." A.Ir.Pp.pp_kernel g.A.g_tagged;
    Fmt.pr "=== 4. assembly ===@.%s@." (A.assembly g)
  in
  Cmd.v
    (Cmd.info "phases" ~doc:"Dump every pipeline phase for a kernel")
    Term.(
      const run $ arch_arg $ kernel_arg $ jam_arg $ unroll_arg $ prefetch_arg
      $ script_arg)

let chaos_arg =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "After the end-to-end check, run the hardened verification \
           layer: the per-pass differential oracle (pinpoints which \
           transformation pass miscompiles, if any) and the fault-injection \
           sweep (mutates the generated assembly and reports the harness's \
           fault-detection rate).  Exits non-zero if the detection rate \
           drops below 95%.")

let chaos_asm_arg =
  Arg.(
    value & flag
    & info [ "chaos-asm" ]
        ~doc:
          "Measure the static machine-code checker's sensitivity: inject \
           the asm-level fault classes (dropped saves/restores/push/pop, \
           dropped accumulator zeroing, dropped vzeroupper, retargeted \
           jumps, callee-saved clobbers) and report how many mutants the \
           CFG/dataflow lints catch.  Exits non-zero if the static \
           detection rate drops below 95%.")

let max_faults_arg =
  Arg.(
    value & opt int 256
    & info [ "max-faults" ] ~docv:"N"
        ~doc:"Cap on injected faults for $(b,--chaos).")

let verify_cmd =
  let run arch kernel et jam unroll prefetch chaos chaos_asm max_faults =
    let fp = A.fp_of_et et in
    let config = config_of_flags kernel jam unroll prefetch in
    let g = A.generate ~et ~arch ~config kernel in
    let v = A.verify g in
    Fmt.pr "%s %s on %s: %s@."
      (A.Ir.Kernels.name_to_string ?fp kernel)
      (A.Transform.Pipeline.config_to_string config)
      arch.A.Machine.Arch.name
      (if v.A.Harness.ok then "OK (simulator matches reference BLAS)"
       else "FAILED: " ^ v.A.Harness.detail);
    let chaos_ok =
      if not chaos then true
      else begin
        (* stage 1: per-pass differential oracle over the pipeline *)
        Fmt.pr "@.per-pass differential oracle:@.";
        let source = A.Ir.Kernels.kernel_of_name ?fp kernel in
        let oracle_ok =
          match A.Verify.Oracle.check source config with
          | Ok _ ->
              List.iter
                (fun (name, _) -> Fmt.pr "  pass %-24s ok@." name)
                (A.Transform.Pipeline.passes config);
              true
          | Error d ->
              Fmt.pr "%s@." (A.Verify.Oracle.divergence_to_string d);
              false
        in
        (* stage 2: fault injection against the harness *)
        Fmt.pr "@.fault injection (harness sensitivity):@.";
        let r = A.Chaos.run ~et ~max_faults kernel g.A.g_program in
        Fmt.pr "%a" A.Chaos.pp_report r;
        oracle_ok && A.Chaos.rate r >= 0.95
      end
    in
    let chaos_asm_ok =
      if not chaos_asm then true
      else begin
        (* asm-level fault injection against the static checker *)
        Fmt.pr "@.asm fault injection (static checker sensitivity):@.";
        let r = A.Chaos.run_static ~et ~max_faults ~arch kernel g.A.g_program in
        Fmt.pr "%a" A.Chaos.pp_report r;
        A.Chaos.rate r >= 0.95
      end
    in
    if not (v.A.Harness.ok && chaos_ok && chaos_asm_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the generated kernel on the simulator against the reference; \
          with $(b,--chaos) / $(b,--chaos-asm), also measure the \
          verification layer itself")
    Term.(
      const run $ arch_arg $ kernel_arg $ precision_arg $ jam_arg $ unroll_arg
      $ prefetch_arg $ chaos_arg $ chaos_asm_arg $ max_faults_arg)

let lint_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the findings as a JSON array of objects (code, severity, \
           index, message) on stdout, for CI consumption.  The exit status \
           is unchanged: non-zero iff there are findings.")

let finding_to_json (f : A.Analysis.Asmcheck.finding) : A.Json.t =
  A.Json.Obj
    [
      ("code", A.Json.String (A.Analysis.Asmcheck.lint_name f.A.Analysis.Asmcheck.f_lint));
      ( "severity",
        A.Json.String
          (A.Analysis.Asmcheck.severity_name f.A.Analysis.Asmcheck.f_severity) );
      ("index", A.Json.Int f.A.Analysis.Asmcheck.f_index);
      ("message", A.Json.String f.A.Analysis.Asmcheck.f_detail);
    ]

let lint_cmd =
  let run arch kernel et jam unroll prefetch script json =
    let config, opts = config_of_args kernel jam unroll prefetch script in
    let g = A.generate ~et ~opts ~arch ~config kernel in
    let params =
      (A.Ir.Kernels.kernel_of_name ?fp:(A.fp_of_et et) kernel).A.Ir.Ast.k_params
    in
    let findings =
      A.Verify.Oracle.check_static
        ~avx:(arch.A.Machine.Arch.simd = A.Machine.Arch.AVX)
        ~params g.A.g_program
    in
    let n = List.length g.A.g_program.A.Machine.Insn.prog_insns in
    if json then begin
      print_endline
        (A.Json.to_string (A.Json.List (List.map finding_to_json findings)));
      if findings <> [] then exit 1
    end
    else
      match findings with
      | [] ->
          Fmt.pr "%s on %s: %d instructions, no findings@."
            (A.Ir.Kernels.name_to_string kernel)
            arch.A.Machine.Arch.name n
      | fs ->
          Fmt.pr "%s on %s: %d instructions, %d finding(s)@."
            (A.Ir.Kernels.name_to_string kernel)
            arch.A.Machine.Arch.name n (List.length fs);
          List.iter
            (fun f -> Fmt.pr "  %a@." A.Analysis.Asmcheck.pp_finding f)
            fs;
          exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static machine-code checker (CFG + dataflow lints: \
          undefined reads, ABI/stack discipline, vzeroupper hygiene, SSE \
          encoding invariants, dead/unreachable code) over a generated \
          kernel; exits non-zero if it reports any finding")
    Term.(
      const run $ arch_arg $ kernel_arg $ precision_arg $ jam_arg
      $ unroll_arg $ prefetch_arg $ script_arg $ lint_json_arg)

let compile_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"C source file (defaults to stdin).")
  in
  let run arch file jam unroll prefetch script =
    let source =
      match file with
      | Some f -> In_channel.with_open_text f In_channel.input_all
      | None -> In_channel.input_all In_channel.stdin
    in
    match A.Ir.Parser.parse_kernel_result source with
    | Error msg ->
        Fmt.epr "error: %s@." msg;
        exit 1
    | Ok kernel ->
        let config, opts =
          config_of_args A.Ir.Kernels.Gemm jam unroll prefetch script
        in
        (* without any flag, only the always-safe passes *)
        let config =
          if script = None && jam = None && unroll = None then
            { config with A.Transform.Pipeline.jam = []; inner_unroll = None }
          else config
        in
        let optimized = A.Transform.Pipeline.apply kernel config in
        let prog = A.Codegen.Emit.generate ~arch ~opts optimized in
        let prog = A.Codegen.Schedule.run arch prog in
        print_string
          (A.Machine.Att.program_to_string
             ~avx:(arch.A.Machine.Arch.simd = A.Machine.Arch.AVX)
             prog)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a simple C kernel from file or stdin")
    Term.(
      const run $ arch_arg $ file_arg $ jam_arg $ unroll_arg $ prefetch_arg
      $ script_arg)

let simulate_cmd =
  let n_arg =
    Arg.(
      value & opt int 64
      & info [ "n" ] ~docv:"N"
          ~doc:"Problem size (vector length; matrix dimension for \
                gemm/gemv/ger).")
  in
  let run arch kernel n =
    let g = A.tuned ~arch kernel in
    let caches = A.Sim.Cache_sim.of_arch arch in
    let on_access = A.Sim.Cache_sim.access caches in
    let fill seed len =
      let state = ref seed in
      Array.init len (fun _ ->
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          (float_of_int !state /. 1073741824.0 *. 2.0) -. 1.0)
    in
    let module E = A.Sim.Exec_sim in
    let args =
      match kernel with
      | A.Ir.Kernels.Gemm ->
          let mc = min n 64 and kc = min n 64 and nc = min n 16 in
          E.[ Aint mc; Aint kc; Aint nc; Aint mc; Abuf (fill 1 (mc * kc));
              Abuf (fill 2 (kc * nc)); Abuf (fill 3 (mc * nc)) ]
      | A.Ir.Kernels.Gemv ->
          E.[ Aint n; Aint n; Aint n; Abuf (fill 1 (n * n)); Abuf (fill 2 n);
              Abuf (fill 3 n) ]
      | A.Ir.Kernels.Axpy ->
          E.[ Aint n; Adouble 1.5; Abuf (fill 1 n); Abuf (fill 2 n) ]
      | A.Ir.Kernels.Dot ->
          E.[ Aint n; Abuf (fill 1 n); Abuf (fill 2 n); Abuf [| 0. |] ]
      | A.Ir.Kernels.Ger ->
          E.[ Aint n; Aint n; Aint n; Adouble 1.5; Abuf (fill 1 n);
              Abuf (fill 2 n); Abuf (fill 3 (n * n)) ]
      | A.Ir.Kernels.Scal -> E.[ Aint n; Adouble 1.5; Abuf (fill 1 n) ]
      | A.Ir.Kernels.Copy ->
          E.[ Aint n; Abuf (fill 1 n); Abuf (Array.make n 0.) ]
      | A.Ir.Kernels.Pack_a ->
          let mc = min n 64 and kc = min n 64 in
          E.[ Aint mc; Aint kc; Aint mc; Abuf (fill 1 (mc * kc));
              Abuf (Array.make (mc * kc) 0.) ]
      | A.Ir.Kernels.Pack_b ->
          let kc = min n 64 and nc = min n 16 in
          E.[ Aint kc; Aint nc; Aint kc; Abuf (fill 1 (kc * nc));
              Abuf (Array.make (kc * nc) 0.) ]
    in
    let r = E.call ~on_access g.A.g_program args in
    Fmt.pr "%s (%s, tuned %s), n=%d:@."
      (A.Ir.Kernels.name_to_string kernel)
      arch.A.Machine.Arch.name
      (A.Transform.Pipeline.config_to_string g.A.g_config)
      n;
    Fmt.pr "instructions executed %d, flops %d, loads %d, stores %d, \
            prefetches %d@."
      r.E.r_executed r.E.r_flops r.E.r_loads r.E.r_stores r.E.r_prefetches;
    Fmt.pr "%a" A.Sim.Cache_sim.pp_stats caches
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Execute the tuned kernel on the functional simulator with a \
          cache hierarchy attached, reporting dynamic statistics")
    Term.(const run $ arch_arg $ kernel_arg $ n_arg)

let explain_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the whole trace — stage names, artifact kinds and size \
           counters, wall times, fingerprints, rendered artifacts — as a \
           single JSON object on stdout.")

let explain_cmd =
  let run arch kernel et jam unroll prefetch script json =
    let config, eo = config_of_args kernel jam unroll prefetch script in
    let opts =
      {
        A.Driver.Lower.default_opts with
        A.Driver.Lower.prefer = eo.A.Codegen.Emit.prefer;
        max_width = eo.A.Codegen.Emit.max_width;
        snapshots = true;
      }
    in
    let trace = A.explain ~et ~opts ~arch ~config kernel in
    if json then print_endline (A.Json.to_string (A.trace_to_json trace))
    else begin
      Fmt.pr "lowering %s on %s [%s] (%s): %d stages@.@."
        trace.A.Driver.Trace.tr_kernel trace.A.Driver.Trace.tr_arch
        (A.Machine.Etype.name trace.A.Driver.Trace.tr_et)
        trace.A.Driver.Trace.tr_config
        (List.length trace.A.Driver.Trace.tr_stages);
      List.iter
        (fun (r : A.Driver.Trace.stage_record) ->
          Fmt.pr "=== stage %d: %s (%s) ===@." r.A.Driver.Trace.sr_index
            r.A.Driver.Trace.sr_name r.A.Driver.Trace.sr_kind;
          Fmt.pr "%s  %.3f ms  fingerprint %s@."
            (String.concat "  "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                  r.A.Driver.Trace.sr_stats))
            r.A.Driver.Trace.sr_ms
            (String.sub r.A.Driver.Trace.sr_fingerprint 0 12);
          (match r.A.Driver.Trace.sr_artifact with
          | Some a ->
              Fmt.pr "%s@." a
          | None -> ());
          Fmt.pr "@.")
        trace.A.Driver.Trace.tr_stages
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the staged-lowering driver and dump every stage's artifact \
          (C after each source pass, the template-annotated kernel, the \
          vectorization plan, the emitted instruction stream, the framed \
          and scheduled program) with per-stage size counters, wall times \
          and content fingerprints; $(b,--json) renders the same trace \
          machine-readably")
    Term.(
      const run $ arch_arg $ kernel_arg $ precision_arg $ jam_arg
      $ unroll_arg $ prefetch_arg $ script_arg $ explain_json_arg)

let cache_clear_arg =
  Arg.(
    value & flag
    & info [ "clear" ] ~doc:"Remove every cache entry under the directory.")

let cache_cmd =
  let run cache_dir clear =
    let dir =
      match cache_dir with Some d -> Some d | None -> A.Tuner.cache_dir ()
    in
    match dir with
    | None ->
        Fmt.epr
          "no cache directory configured (use --cache-dir or \
           AUGEM_CACHE_DIR)@.";
        exit 1
    | Some dir ->
        if clear then begin
          let removed = A.Tuning_cache.clear ~dir in
          Fmt.pr "%s: removed %d entr%s@." dir removed
            (if removed = 1 then "y" else "ies")
        end
        else begin
          let entries = A.Tuning_cache.entries ~dir in
          let valid, corrupt =
            List.partition
              (fun e -> Result.is_ok e.A.Tuning_cache.e_key)
              entries
          in
          let bytes =
            List.fold_left
              (fun acc e -> acc + e.A.Tuning_cache.e_bytes)
              0 entries
          in
          Fmt.pr "%s: %d entr%s (%d valid, %d corrupt), %d bytes on disk@."
            dir (List.length entries)
            (if List.length entries = 1 then "y" else "ies")
            (List.length valid) (List.length corrupt) bytes;
          List.iter
            (fun e ->
              match e.A.Tuning_cache.e_key with
              | Ok key ->
                  Fmt.pr "  %s  %6d B  %s@."
                    (Filename.basename e.A.Tuning_cache.e_file)
                    e.A.Tuning_cache.e_bytes key
              | Error why ->
                  Fmt.pr "  %s  %6d B  CORRUPT: %s@."
                    (Filename.basename e.A.Tuning_cache.e_file)
                    e.A.Tuning_cache.e_bytes why)
            entries
        end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect the persistent tuning cache: entries, validity (header \
          and checksum verified without unmarshalling) and size on disk; \
          $(b,--clear) empties it")
    Term.(const run $ cache_dir_arg $ cache_clear_arg)

(* --- the kernel service -------------------------------------------------- *)

module Service = Augem_service

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (serve: bind; request: connect).")

let serve_cmd =
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve stdin/stdout: one JSON request per line, one JSON \
             response per line, EOF shuts down cleanly.  The default when \
             no $(b,--socket) is given.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Tuning-worker domains draining the admission queue.")
  in
  let queue_arg =
    Arg.(
      value & opt int 8
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity; requests beyond it are rejected \
             with a structured E_overload.")
  in
  let lru_arg =
    Arg.(
      value & opt int 64
      & info [ "lru" ] ~docv:"N"
          ~doc:
            "In-memory cache tier capacity (entries), for tuned kernels \
             and for blocked-GEMM plans each.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline: a tune or blocked request still \
             queued after $(docv) is served the safe-baseline kernel or plan \
             with degraded:true instead of waiting for a sweep.  Requests \
             may override with their own deadline_ms.")
  in
  let tune_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "tune-jobs" ] ~docv:"N"
          ~doc:"Intra-sweep parallelism of one tuning job.")
  in
  let breaker_threshold_arg =
    Arg.(
      value & opt int 3
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:
            "Consecutive failures before a key's circuit opens (degraded \
             baseline served until a cooldown probe succeeds); 0 disables \
             circuit breaking.")
  in
  let breaker_cooldown_arg =
    Arg.(
      value & opt float 30_000.
      & info [ "breaker-cooldown-ms" ] ~docv:"MS"
          ~doc:"How long an open circuit waits before admitting a probe.")
  in
  let restart_budget_arg =
    Arg.(
      value & opt int 8
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Worker-domain respawns allowed over the server's lifetime; a \
             worker that dies beyond the budget is not replaced.")
  in
  let no_recover_arg =
    Arg.(
      value & flag
      & info [ "no-recover" ]
          ~doc:
            "Skip the startup cache-recovery scan (quarantining of write \
             debris left by a crashed instance).")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Instead of serving, run the deterministic chaos driver: \
             scripted serve sessions under injected faults (crashes, \
             worker kills, corruption), reproducible from $(docv) alone.  \
             Exits 0 only if every service invariant held.")
  in
  let run stdio socket workers queue lru cache_dir deadline_ms tune_jobs
      breaker_threshold breaker_cooldown_ms restart_budget no_recover
      chaos_seed =
    match chaos_seed with
    | Some seed ->
        let o =
          Service.Chaos_serve.run ~seed
            ~log:(fun l -> Logs.debug (fun m -> m "%s" l))
            ()
        in
        print_string (Service.Chaos_serve.report o);
        exit (if o.Service.Chaos_serve.co_violations = [] then 0 else 1)
    | None ->
        let config =
          {
            Service.Server.cfg_workers = max 1 workers;
            cfg_queue = max 1 queue;
            cfg_lru = max 1 lru;
            cfg_cache_dir =
              (match cache_dir with
              | Some _ -> cache_dir
              | None -> A.Tuner.cache_dir ());
            cfg_deadline_ms = deadline_ms;
            cfg_tune_jobs = max 1 tune_jobs;
            cfg_breaker_threshold = max 0 breaker_threshold;
            cfg_breaker_cooldown_ms = max 0. breaker_cooldown_ms;
            cfg_restart_budget = max 0 restart_budget;
            cfg_recover = not no_recover;
          }
        in
        (* injected delays must really delay in a live server *)
        Augem_resilience.Faultpoint.set_sleeper (fun ms ->
            Thread.delay (ms /. 1000.));
        let t = Service.Server.create ~config () in
        let stop _ = Service.Server.request_stop t in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        (match socket with
        | Some path when not stdio -> Service.Server.serve_socket t path
        | _ -> Service.Server.serve_stdio t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the kernel service: accept line-delimited JSON \
          tune/blocked/ping/stats/shutdown requests (stdio or a Unix-domain \
          socket) and answer with tuned assembly or blocked-GEMM plans plus \
          provenance, through the two-tier cache, \
          single-flight deduplication and the bounded admission queue; \
          with $(b,--chaos-seed), run the deterministic fault-injection \
          harness instead")
    Term.(
      const run $ stdio_arg $ socket_arg $ workers_arg $ queue_arg $ lru_arg
      $ cache_dir_arg $ deadline_arg $ tune_jobs_arg $ breaker_threshold_arg
      $ breaker_cooldown_arg $ restart_budget_arg $ no_recover_arg
      $ chaos_seed_arg)

(* Error classes of one request attempt, each with its own exit code so
   scripts can tell a full queue from a bad request from a dead socket. *)
type request_error =
  | Req_transport of string  (* connect/read failure: exit 6, retryable *)
  | Req_code of string * string  (* structured error: (code, response line) *)

let request_exit_code = function
  | Req_transport _ -> 6
  | Req_code (code, _) ->
      if code = Service.Proto.e_bad_request then 3
      else if code = Service.Proto.e_overload then 4
      else if code = Service.Proto.e_shutting_down then 5
      else 1 (* E_internal and anything unknown *)

let request_retryable = function
  | Req_transport _ -> true (* the server may just be (re)starting *)
  | Req_code (code, _) ->
      (* a full queue drains; a bad request never stops being bad *)
      code = Service.Proto.e_overload

let request_cmd =
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Send a stats request.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping request.")
  in
  let shutdown_arg =
    Arg.(
      value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down.")
  in
  let blocked_arg =
    Arg.(
      value & flag
      & info [ "blocked" ]
          ~doc:
            "Request a full blocked-GEMM plan (tuned micro-kernel, \
             MC/KC/NC blocking, both packing kernels and SCAL) instead \
             of a single kernel.")
  in
  let size_arg =
    Arg.(
      value & opt int 1024
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Problem size m=n=k the blocked plan's blocking sweep \
             optimizes for (with $(b,--blocked)).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) times on E_overload or transport errors \
             (never on E_bad_request), with exponential backoff.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 100.
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Backoff envelope of the first retry; doubles per retry \
             (capped at 50x) with deterministic seeded jitter.")
  in
  let retry_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:
            "Jitter seed: one client replays its exact backoff schedule; \
             differently-seeded clients desynchronize.")
  in
  let run socket kernel arch et stats ping shutdown blocked size deadline_ms
      retries backoff_ms retry_seed =
    let path =
      match socket with
      | Some p -> p
      | None ->
          Fmt.epr "request: --socket PATH is required@.";
          exit 2
    in
    let op =
      if stats then Service.Proto.Op_stats
      else if ping then Service.Proto.Op_ping
      else if shutdown then Service.Proto.Op_shutdown
      else if blocked then
        Service.Proto.Op_blocked
          {
            Service.Proto.bq_arch = arch;
            bq_et = et;
            bq_m = size;
            bq_n = size;
            bq_k = size;
            bq_deadline_ms = deadline_ms;
          }
      else
        Service.Proto.Op_tune
          {
            Service.Proto.tq_kernel = kernel;
            tq_arch = arch;
            tq_et = et;
            tq_space = None;
            tq_deadline_ms = deadline_ms;
          }
    in
    let rq = { Service.Proto.rq_id = A.Json.Int 1; rq_op = op } in
    let attempt () : (string, request_error) result =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with _ -> ());
          Error
            (Req_transport
               (Printf.sprintf "cannot connect to %s: %s" path
                  (Unix.error_message e)))
      | () -> (
          let finally () = try Unix.close fd with _ -> () in
          Fun.protect ~finally (fun () ->
              let oc = Unix.out_channel_of_descr fd in
              let ic = Unix.in_channel_of_descr fd in
              output_string oc
                (A.Json.to_string (Service.Proto.request_to_json rq));
              output_char oc '\n';
              flush oc;
              match In_channel.input_line ic with
              | None -> Error (Req_transport "server closed the connection")
              | exception Sys_error e -> Error (Req_transport e)
              | Some line -> (
                  match A.Json.parse line with
                  | Error e ->
                      Error (Req_transport ("unparsable response: " ^ e))
                  | Ok j ->
                      if A.Json.member "ok" j = Some (A.Json.Bool true) then
                        Ok line
                      else
                        let code =
                          match A.Json.member "error" j with
                          | Some err -> (
                              match A.Json.member "code" err with
                              | Some (A.Json.String c) -> c
                              | _ -> Service.Proto.e_internal)
                          | None -> Service.Proto.e_internal
                        in
                        Error (Req_code (code, line)))))
    in
    let policy =
      {
        Augem_resilience.Retry.r_max = max 0 retries;
        r_base_ms = max 1. backoff_ms;
        r_cap_ms = max 1. backoff_ms *. 50.;
        r_seed = retry_seed;
      }
    in
    let outcome =
      Augem_resilience.Retry.run policy
        ~sleep:(fun ms -> Thread.delay (ms /. 1000.))
        ~on_retry:(fun ~attempt ~delay_ms e ->
          let why =
            match e with
            | Req_transport d -> d
            | Req_code (code, _) -> code
          in
          Fmt.epr "request: attempt %d failed (%s); retrying in %.0f ms@."
            attempt why delay_ms)
        ~retryable:request_retryable attempt
    in
    match outcome with
    | Ok line -> print_endline line
    | Error e ->
        (match e with
        | Req_transport detail -> Fmt.epr "request: %s@." detail
        | Req_code (_, line) -> print_endline line);
        exit (request_exit_code e)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running kernel service over its \
          Unix-domain socket and print the JSON response.  Exit codes \
          classify the failure: 0 success, 1 internal error, 2 usage, 3 \
          bad request, 4 overload, 5 server shutting down, 6 transport \
          failure.  $(b,--retries) retries transient classes (overload, \
          transport) with seeded exponential backoff.")
    Term.(
      const run $ socket_arg $ kernel_arg $ arch_arg $ precision_arg
      $ stats_arg $ ping_arg $ shutdown_arg $ blocked_arg $ size_arg
      $ deadline_arg $ retries_arg $ backoff_arg $ retry_seed_arg)

let platforms_cmd =
  let run () =
    Fmt.pr "%-22s %20s %20s@." "" "Intel" "AMD";
    List.iter
      (fun (label, a, b) -> Fmt.pr "%-22s %20s %20s@." label a b)
      (A.Machine.Arch.table5_rows ())
  in
  Cmd.v
    (Cmd.info "platforms" ~doc:"Print the modelled platform configurations")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "augem" ~version:"1.0.0"
       ~doc:
         "Template-based generation of optimized dense linear algebra \
          assembly kernels (AUGEM, SC'13)")
    [ generate_cmd; tune_cmd; phases_cmd; explain_cmd; verify_cmd; lint_cmd;
      compile_cmd; simulate_cmd; cache_cmd; serve_cmd; request_cmd;
      platforms_cmd ]

let () = exit (Cmd.eval main)
