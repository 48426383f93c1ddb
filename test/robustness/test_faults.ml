(* Mutation meta-test: the harness's fault-detection rate is a
   regression-checked number, not an article of faith.  Every paper
   kernel is generated under its CLI-default configuration, corrupted
   one instruction at a time, and re-verified; the aggregate detection
   rate across all seven kernels must stay at or above 95%. *)

module A = Augem
module Kernels = A.Ir.Kernels
module Pipeline = A.Transform.Pipeline
module Faults = A.Verify.Faults
module Chaos = A.Chaos

let arch = A.Machine.Arch.sandy_bridge

let config_for k =
  match k with
  | Kernels.Gemm -> { Pipeline.default with jam = [ ("j", 4); ("i", 8) ] }
  | Kernels.Gemv -> { Pipeline.default with inner_unroll = Some ("j", 8) }
  | Kernels.Dot ->
      { Pipeline.default with inner_unroll = Some ("i", 8);
        expand_reduction = Some 8 }
  | _ -> { Pipeline.default with inner_unroll = Some ("i", 8) }

let all_kernels = Kernels.[ Gemm; Gemv; Axpy; Dot; Ger; Scal; Copy ]

let program_for k =
  (A.generate ~arch ~config:(config_for k) k).A.g_program

(* The acceptance bar: >= 95% of injected faults detected, aggregated
   over all seven kernels; no single kernel may dip below 90%. *)
let test_detection_rate () =
  let reports =
    List.map
      (fun k -> Chaos.run ~max_faults:200 k (program_for k))
      all_kernels
  in
  List.iter
    (fun r ->
      let rate = Chaos.rate r in
      if rate < 0.90 then
        Alcotest.failf "%s: detection rate %.1f%% below per-kernel floor (%d/%d)"
          r.Chaos.c_kernel (100. *. rate) r.Chaos.c_detected r.Chaos.c_total)
    reports;
  let agg = Chaos.merge reports in
  let rate = Chaos.rate agg in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate detection rate %.2f%% (%d/%d) >= 95%%"
       (100. *. rate) agg.Chaos.c_detected agg.Chaos.c_total)
    true (rate >= 0.95)

(* The same meta-test at single precision for the paper's three f32
   headliners: the looser f32 tolerance must not open detection holes
   (a wrong kernel is wrong by far more than the rounding budget). *)
let test_detection_rate_f32 () =
  let et = A.Machine.Etype.F32 in
  let reports =
    List.map
      (fun k ->
        let prog =
          (A.generate ~et ~arch ~config:(config_for k) k).A.g_program
        in
        Chaos.run ~et ~max_faults:120 k prog)
      Kernels.[ Gemm; Axpy; Dot ]
  in
  List.iter
    (fun r ->
      let rate = Chaos.rate r in
      if rate < 0.90 then
        Alcotest.failf
          "%s: f32 detection rate %.1f%% below per-kernel floor (%d/%d)"
          r.Chaos.c_kernel (100. *. rate) r.Chaos.c_detected r.Chaos.c_total)
    reports;
  let agg = Chaos.merge reports in
  let rate = Chaos.rate agg in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate f32 detection rate %.2f%% (%d/%d) >= 95%%"
       (100. *. rate) agg.Chaos.c_detected agg.Chaos.c_total)
    true (rate >= 0.95)

(* Enumeration is deterministic and covers multiple fault kinds. *)
let test_enumerate_deterministic () =
  let prog = program_for Kernels.Axpy in
  let f1 = Faults.enumerate prog and f2 = Faults.enumerate prog in
  Alcotest.(check bool) "same fault list on re-enumeration" true (f1 = f2);
  Alcotest.(check bool) "non-empty" true (List.length f1 > 0);
  let kinds =
    List.sort_uniq compare
      (List.map (fun f -> Faults.kind_to_string f.Faults.f_kind) f1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "multiple fault kinds enumerated (%s)"
       (String.concat ", " kinds))
    true
    (List.length kinds >= 3)

(* ~unobservable:true strictly widens the enumeration. *)
let test_unobservable_superset () =
  let prog = program_for Kernels.Gemm in
  let base = Faults.enumerate prog in
  let wide = Faults.enumerate ~unobservable:true prog in
  Alcotest.(check bool) "unobservable enumeration is wider" true
    (List.length wide > List.length base);
  List.iter
    (fun f ->
      Alcotest.(check bool) "observable fault also in wide set" true
        (List.mem f wide))
    base

let test_sample_bounds () =
  let prog = program_for Kernels.Dot in
  let all = Faults.enumerate prog in
  let s = Faults.sample ~max:7 prog in
  Alcotest.(check bool) "at most max faults" true (List.length s <= 7);
  Alcotest.(check bool) "sample drawn from enumeration" true
    (List.for_all (fun f -> List.mem f all) s);
  let huge = Faults.sample ~max:100_000 prog in
  Alcotest.(check int) "over-asking returns everything" (List.length all)
    (List.length huge)

(* A fault minted against one program must not silently corrupt a
   different one. *)
let test_stale_fault_rejected () =
  let axpy = program_for Kernels.Axpy in
  let copy = program_for Kernels.Copy in
  let faults = Faults.enumerate axpy in
  let stale =
    List.find_opt
      (fun f ->
        match Faults.apply copy f with
        | _ -> false
        | exception Invalid_argument _ -> true)
      faults
  in
  Alcotest.(check bool) "some axpy fault is stale for copy" true
    (stale <> None)

(* One end-to-end spot check: a specific injected store-drop is caught
   by the harness with a mismatch (not a crash). *)
let test_specific_mutant_detected () =
  let prog = program_for Kernels.Scal in
  let faults = Faults.enumerate prog in
  match
    List.find_opt (fun f -> f.Faults.f_kind = Faults.Drop_store) faults
  with
  | None -> Alcotest.fail "scal enumerates no droppable store"
  | Some f ->
      let mutant = Faults.apply prog f in
      let outcome = A.Harness.verify Kernels.Scal mutant in
      Alcotest.(check bool)
        (Printf.sprintf "dropped store (%s) detected: %s"
           (Faults.describe f) outcome.A.Harness.detail)
        false outcome.A.Harness.ok

(* A copy that runs one element long writes y[n], which the harness
   gives it but no copy may touch.  Adding 1 to n (rdi) on entry to the
   safe-baseline copy program is such a copy; the program itself
   passes. *)
let test_copy_overrun_detected () =
  List.iter
    (fun et ->
      let g =
        A.generate ~et ~arch ~config:A.Tuner.safe_baseline.A.Tuner.cand_config
          Kernels.Copy
      in
      let prog = g.A.g_program in
      let long =
        {
          prog with
          A.Machine.Insn.prog_insns =
            A.Machine.Insn.Addri (A.Machine.Reg.Rdi, 1)
            :: prog.A.Machine.Insn.prog_insns;
        }
      in
      let name = A.Machine.Etype.name et in
      let ok = A.Harness.verify ~et Kernels.Copy prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s copy passes: %s" name ok.A.Harness.detail)
        true ok.A.Harness.ok;
      let outcome = A.Harness.verify ~et Kernels.Copy long in
      Alcotest.(check bool)
        (Printf.sprintf "%s copy of n+1 elements detected: %s" name
           outcome.A.Harness.detail)
        false outcome.A.Harness.ok)
    A.Machine.Etype.[ F64; F32 ]

let suite =
  [
    Alcotest.test_case "aggregate detection rate >= 95%" `Slow
      test_detection_rate;
    Alcotest.test_case "aggregate f32 detection rate >= 95%" `Slow
      test_detection_rate_f32;
    Alcotest.test_case "enumeration is deterministic" `Quick
      test_enumerate_deterministic;
    Alcotest.test_case "unobservable widens enumeration" `Quick
      test_unobservable_superset;
    Alcotest.test_case "sampling respects bounds" `Quick test_sample_bounds;
    Alcotest.test_case "stale faults are rejected" `Quick
      test_stale_fault_rejected;
    Alcotest.test_case "dropped store is detected" `Quick
      test_specific_mutant_detected;
    Alcotest.test_case "copy past its end is detected" `Quick
      test_copy_overrun_detected;
  ]
