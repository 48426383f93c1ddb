(* The empirical tuner: every (architecture, kernel) pair must yield a
   viable, verified configuration; discarded counts reflect register
   pressure; the cache is stable. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner

let archs = [ Arch.sandy_bridge; Arch.piledriver ]
let kernels = Kernels.[ Gemm; Gemv; Axpy; Dot; Ger ]

let test_tuner_finds_config () =
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let r = Tuner.tuned arch k in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s positive score" arch.Arch.name
               (Kernels.name_to_string k))
            true (r.Tuner.best_score > 0.);
          Alcotest.(check bool) "visited some configurations" true
            (r.Tuner.visited > 1))
        kernels)
    archs

let test_tuned_kernels_verify () =
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let r = Tuner.tuned arch k in
          let o = A.Harness.verify k r.Tuner.best_program in
          if not o.A.Harness.ok then
            Alcotest.failf "tuned %s on %s: %s" (Kernels.name_to_string k)
              arch.Arch.name o.A.Harness.detail)
        kernels)
    archs

let test_gemm_discards_big_blockings () =
  (* the gemm space contains configurations that exceed 16 SIMD
     registers; they must be discarded, not crash *)
  let r = Tuner.tune Arch.sandy_bridge Kernels.Gemm in
  Alcotest.(check bool) "some discarded" true (r.Tuner.discarded > 0)

let test_tuner_beats_minimum () =
  (* the tuned gemm must beat the no-unrolling baseline by a wide margin *)
  let arch = Arch.sandy_bridge in
  let r = Tuner.tuned arch Kernels.Gemm in
  let base =
    let cfg = { A.Transform.Pipeline.default with jam = [ ("j", 1); ("i", 1) ] } in
    let g = A.generate ~arch ~config:cfg Kernels.Gemm in
    (A.predict g (Tuner.reference_workload Kernels.Gemm)).A.Sim.Perf.e_mflops
  in
  Alcotest.(check bool)
    (Printf.sprintf "tuned %.0f > 2x scalar %.0f" r.Tuner.best_score base)
    true
    (r.Tuner.best_score > 2.0 *. base)

let test_cache_stable () =
  let r1 = Tuner.tuned Arch.piledriver Kernels.Axpy in
  let r2 = Tuner.tuned Arch.piledriver Kernels.Axpy in
  Alcotest.(check bool) "same result object" true (r1 == r2)

(* [AUGEM_CACHE_DIR=] names no directory: it means no disk tier, not a
   store that fails on every sweep. *)
let test_empty_cache_dir () =
  let saved = Tuner.cache_dir () in
  Fun.protect
    ~finally:(fun () -> Tuner.set_cache_dir saved)
    (fun () ->
      Tuner.set_cache_dir (Some "");
      Alcotest.(check (option string)) "no disk tier" None (Tuner.cache_dir ()))

let test_explicit_workload () =
  let r =
    Tuner.tune ~workload:(A.Sim.Perf.W_gemm { m = 1024; n = 1024; k = 256 })
      Arch.piledriver Kernels.Gemm
  in
  Alcotest.(check bool) "positive" true (r.Tuner.best_score > 0.)

let suite =
  [
    Alcotest.test_case "tuner finds configurations" `Slow
      test_tuner_finds_config;
    Alcotest.test_case "tuned kernels verify" `Slow test_tuned_kernels_verify;
    Alcotest.test_case "register pressure discards" `Slow
      test_gemm_discards_big_blockings;
    Alcotest.test_case "tuned gemm beats scalar baseline" `Quick
      test_tuner_beats_minimum;
    Alcotest.test_case "tuning cache" `Quick test_cache_stable;
    Alcotest.test_case "empty cache dir is no disk tier" `Quick
      test_empty_cache_dir;
    Alcotest.test_case "explicit workload" `Quick test_explicit_workload;
  ]
