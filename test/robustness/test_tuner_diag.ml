(* Crash-proof tuner: a sweep over a hostile search space must never
   raise.  A fully-discarded space degrades to the safe baseline with a
   populated failure-reason histogram; individual broken candidates are
   classified into structured diagnostics and the sweep continues. *)

module A = Augem
module Kernels = A.Ir.Kernels
module Pipeline = A.Transform.Pipeline
module Tuner = A.Tuner
module Diag = A.Verify.Diag

let arch = A.Machine.Arch.sandy_bridge

(* Jam factors far beyond the register file: every candidate dies of
   register pressure, none survives. *)
let hostile_space =
  List.map
    (fun j ->
      {
        Tuner.cand_config =
          { Pipeline.default with jam = [ ("j", j); ("i", 64) ] };
        cand_opts = A.Codegen.Emit.default_options;
      })
    [ 32; 64 ]

(* Acceptance criterion: Tuner.tune on a fully-discarded space returns
   the safe-baseline fallback — no exception — with every discard
   recorded and histogrammed, and the fallback program verifying. *)
let test_fully_discarded_space_falls_back () =
  let r = Tuner.tune ~space:hostile_space arch Kernels.Gemm in
  Alcotest.(check bool) "fell back to safe baseline" true r.Tuner.fell_back;
  Alcotest.(check int) "every candidate visited" (List.length hostile_space)
    r.Tuner.visited;
  Alcotest.(check int) "every candidate discarded" (List.length hostile_space)
    r.Tuner.discarded;
  Alcotest.(check int) "one diagnostic per discard" r.Tuner.discarded
    (List.length r.Tuner.failures);
  Alcotest.(check bool) "failure histogram populated" true
    (r.Tuner.failure_histogram <> []);
  let total_in_histogram =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.Tuner.failure_histogram
  in
  Alcotest.(check int) "histogram counts every failure" r.Tuner.discarded
    total_in_histogram;
  Alcotest.(check bool) "baseline config is the safe baseline" true
    (r.Tuner.best = Tuner.safe_baseline);
  let outcome = A.Harness.verify Kernels.Gemm r.Tuner.best_program in
  Alcotest.(check bool)
    ("fallback program verifies: " ^ outcome.A.Harness.detail)
    true outcome.A.Harness.ok

(* A step budget of one instruction discards everything as
   budget-exceeded — and still degrades instead of raising. *)
let test_budget_exhaustion_falls_back () =
  let r = Tuner.tune ~max_insns:1 arch Kernels.Axpy in
  Alcotest.(check bool) "fell back" true r.Tuner.fell_back;
  Alcotest.(check bool) "all failures are budget-exceeded" true
    (List.for_all
       (fun d -> d.Diag.d_code = Diag.E_budget_exceeded)
       r.Tuner.failures);
  match r.Tuner.failure_histogram with
  | [ (code, n) ] ->
      Alcotest.(check string) "single histogram bucket"
        (Diag.code_to_string Diag.E_budget_exceeded) code;
      Alcotest.(check int) "bucket counts every candidate" r.Tuner.discarded n
  | h ->
      Alcotest.failf "expected one histogram bucket, got %d" (List.length h)

(* A healthy sweep keeps its existing behaviour: no fallback, and the
   failure list agrees with the discard counter. *)
let test_healthy_sweep_does_not_fall_back () =
  let r = Tuner.tune arch Kernels.Gemm in
  Alcotest.(check bool) "no fallback" false r.Tuner.fell_back;
  Alcotest.(check int) "failures match discard count" r.Tuner.discarded
    (List.length r.Tuner.failures);
  Alcotest.(check bool) "best score positive" true (r.Tuner.best_score > 0.)

(* The catch-all in candidate generation: a structurally broken kernel
   (reference to an undeclared variable) is classified as a structured
   diagnostic, not an escaped exception. *)
let test_generate_candidate_classifies_broken_kernel () =
  let open A.Ir.Ast in
  let good = Kernels.kernel_of_name Kernels.Axpy in
  let broken =
    {
      good with
      k_body =
        good.k_body @ [ Assign (Lvar "no_such_variable", Int_lit 0) ];
    }
  in
  let cand =
    {
      Tuner.cand_config = { Pipeline.default with inner_unroll = Some ("i", 4) };
      cand_opts = A.Codegen.Emit.default_options;
    }
  in
  match Tuner.generate_candidate_diag arch Kernels.Axpy broken cand with
  | Ok _ -> Alcotest.fail "broken kernel generated successfully"
  | Error d ->
      Alcotest.(check string) "classified as type error"
        (Diag.code_to_string Diag.E_type_error)
        (Diag.code_to_string d.Diag.d_code);
      Alcotest.(check string) "kernel recorded" "axpy" d.Diag.d_kernel;
      Alcotest.(check bool) "detail non-empty" true
        (String.length d.Diag.d_detail > 0)

(* A healthy candidate generates; a register-starved one is rejected
   with a diagnostic rather than an exception. *)
let test_generate_candidate_healthy_and_starved () =
  let kernel = Kernels.kernel_of_name Kernels.Gemm in
  let ok_cand =
    {
      Tuner.cand_config = { Pipeline.default with jam = [ ("j", 2); ("i", 4) ] };
      cand_opts = A.Codegen.Emit.default_options;
    }
  in
  (match Tuner.generate_candidate_diag arch Kernels.Gemm kernel ok_cand with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "healthy candidate rejected: %s" (Diag.to_string d));
  match
    Tuner.generate_candidate_diag arch Kernels.Gemm kernel
      (List.hd hostile_space)
  with
  | Ok _ -> Alcotest.fail "register-starved candidate accepted"
  | Error _ -> ()

(* Regression: candidate generation used to hardcode Kernels.Gemm into
   the diagnostic, mislabelling failures from every other kernel.  A
   register-starved GEMV candidate must be diagnosed as "gemv". *)
let test_generate_candidate_labels_real_kernel () =
  let kernel = Kernels.kernel_of_name Kernels.Gemv in
  let starved =
    {
      Tuner.cand_config =
        { Pipeline.default with jam = [ ("j", 64); ("i", 64) ] };
      cand_opts = A.Codegen.Emit.default_options;
    }
  in
  match Tuner.generate_candidate_diag arch Kernels.Gemv kernel starved with
  | Ok _ -> Alcotest.fail "register-starved gemv candidate accepted"
  | Error d ->
      Alcotest.(check string) "diagnostic names the real kernel" "gemv"
        d.Diag.d_kernel

(* The staged-lowering driver attributes rejections to the lowering
   stage that raised: register starvation surfaces inside the
   instruction-selection stage ("emit-body"), and the step budget is
   enforced on the framed-but-unscheduled program ("emit-frame").  The
   stage name rides on the diagnostic so a sweep's failure histogram
   can be read per stage. *)
let test_rejection_attributes_stage () =
  let gemm = Kernels.kernel_of_name Kernels.Gemm in
  (* register-starved candidate: dies in emit-body *)
  (match
     Tuner.generate_candidate_diag arch Kernels.Gemm gemm
       (List.hd hostile_space)
   with
  | Ok _ -> Alcotest.fail "register-starved candidate accepted"
  | Error d ->
      Alcotest.(check string) "out-of-registers code" "out-of-registers"
        (Diag.code_to_string d.Diag.d_code);
      Alcotest.(check (option string))
        "starvation attributed to emit-body" (Some "emit-body")
        d.Diag.d_stage_name;
      Alcotest.(check bool) "stage name rendered" true
        (let s = Diag.to_string d in
         let re = "emit-body" in
         let n = String.length s and m = String.length re in
         let rec find i = i + m <= n && (String.sub s i m = re || find (i + 1)) in
         find 0));
  (* viable candidate under a tiny step budget: rejected at emit-frame,
     before scheduling *)
  let viable =
    {
      Tuner.cand_config = { Pipeline.default with jam = [ ("j", 4); ("i", 8) ] };
      cand_opts = A.Codegen.Emit.default_options;
    }
  in
  match
    Tuner.generate_candidate_diag arch ~max_insns:5 Kernels.Gemm gemm viable
  with
  | Ok _ -> Alcotest.fail "over-budget candidate accepted"
  | Error d ->
      Alcotest.(check string) "budget code" "budget-exceeded"
        (Diag.code_to_string d.Diag.d_code);
      Alcotest.(check (option string))
        "budget attributed to emit-frame" (Some "emit-frame")
        d.Diag.d_stage_name

(* Diag.histogram sorts descending and aggregates by code. *)
let test_histogram_shape () =
  let mk code =
    Diag.make ~code ~stage:Diag.S_codegen ~kernel:"gemm" ~arch:"snb"
      ~config:"-" ~detail:"-" ()
  in
  let h =
    Diag.histogram
      [
        mk Diag.E_codegen;
        mk Diag.E_out_of_registers;
        mk Diag.E_out_of_registers;
        mk Diag.E_out_of_registers;
        mk Diag.E_budget_exceeded;
        mk Diag.E_budget_exceeded;
      ]
  in
  Alcotest.(check (list (pair string int)))
    "aggregated and sorted descending"
    [
      (Diag.code_to_string Diag.E_out_of_registers, 3);
      (Diag.code_to_string Diag.E_budget_exceeded, 2);
      (Diag.code_to_string Diag.E_codegen, 1);
    ]
    h

(* The blocked sweep over the same hostile space: it falls back through
   the fold [tune] uses, so its failures are [tune]'s in sweep order,
   and its one member is the safe baseline with the derived blocking. *)
let test_blocked_sweep_falls_back () =
  let module Mem_model = A.Sim.Mem_model in
  let bb = Tuner.tune_blocked ~space:hostile_space arch in
  let r = Tuner.tune ~space:hostile_space arch Kernels.Gemm in
  Alcotest.(check bool) "fell back" true bb.Tuner.bb_fell_back;
  Alcotest.(check int) "every candidate visited" 2 bb.Tuner.bb_micro_visited;
  Alcotest.(check (list string))
    "in space order"
    (List.map
       (fun c -> Pipeline.config_to_string c.Tuner.cand_config)
       hostile_space)
    (List.map (fun d -> d.Diag.d_config) bb.Tuner.bb_failures);
  Alcotest.(check (list string))
    "tune's failures, in order"
    (List.map Diag.to_string r.Tuner.failures)
    (List.map Diag.to_string bb.Tuner.bb_failures);
  match bb.Tuner.bb_ties with
  | [ m ] ->
      Alcotest.(check bool) "the safe baseline" true
        (m.Tuner.bm_candidate = Tuner.safe_baseline);
      let mr, nr = Tuner.register_tile Tuner.safe_baseline in
      Alcotest.(check string) "the derived blocking"
        (Mem_model.blocking_to_string
           (Mem_model.derive_blocking ~et:A.Machine.Etype.F64 arch ~mr ~nr))
        (Mem_model.blocking_to_string m.Tuner.bm_blocking)
  | ms -> Alcotest.failf "expected one member, got %d" (List.length ms)

let suite =
  [
    Alcotest.test_case "fully-discarded space falls back" `Quick
      test_fully_discarded_space_falls_back;
    Alcotest.test_case "budget exhaustion falls back" `Quick
      test_budget_exhaustion_falls_back;
    Alcotest.test_case "healthy sweep does not fall back" `Slow
      test_healthy_sweep_does_not_fall_back;
    Alcotest.test_case "broken kernel classified, not raised" `Quick
      test_generate_candidate_classifies_broken_kernel;
    Alcotest.test_case "healthy and starved candidates" `Quick
      test_generate_candidate_healthy_and_starved;
    Alcotest.test_case "diagnostics name the real kernel (gemv)" `Quick
      test_generate_candidate_labels_real_kernel;
    Alcotest.test_case "rejections attribute the lowering stage" `Quick
      test_rejection_attributes_stage;
    Alcotest.test_case "histogram aggregates and sorts" `Quick
      test_histogram_shape;
    Alcotest.test_case "blocked sweep falls back over discards" `Quick
      test_blocked_sweep_falls_back;
  ]
