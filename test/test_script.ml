(* The transformation-script language (the mini-POET layer). *)

module A = Augem
module Script = A.Script
module Pipeline = A.Transform.Pipeline
module Emit = A.Codegen.Emit

let parse_ok src =
  match Script.parse src with
  | Ok t -> t
  | Error m -> Alcotest.failf "script rejected: %s" m

let test_basic () =
  let t = parse_ok "unroll_jam j 4\nunroll_jam i 8\nprefetch 4\n" in
  Alcotest.(check (list (pair string int)))
    "jam order" [ ("j", 4); ("i", 8) ]
    t.A.Tuner.cand_config.Pipeline.jam;
  match t.A.Tuner.cand_config.Pipeline.prefetch with
  | Some p -> Alcotest.(check int) "distance" 4 p.A.Transform.Prefetch.pf_distance
  | None -> Alcotest.fail "prefetch lost"

let test_comments_and_semicolons () =
  let t =
    parse_ok "# a tuning script\nunroll i 8; expand 8  # reduction\nprefer shuf"
  in
  Alcotest.(check bool) "unroll" true
    (t.A.Tuner.cand_config.Pipeline.inner_unroll = Some ("i", 8));
  Alcotest.(check bool) "expand" true
    (t.A.Tuner.cand_config.Pipeline.expand_reduction = Some 8);
  Alcotest.(check bool) "prefer" true
    (t.A.Tuner.cand_opts.Emit.prefer = A.Codegen.Plan.Prefer_shuf)

let test_switches () =
  let t =
    parse_ok "strength_reduce off\nscalar_replace off\nprefetch off\nwidth 128"
  in
  let cfg = t.A.Tuner.cand_config in
  Alcotest.(check bool) "sr off" false cfg.Pipeline.strength_reduce;
  Alcotest.(check bool) "scalar off" false cfg.Pipeline.scalar_replace;
  Alcotest.(check bool) "pf off" true (cfg.Pipeline.prefetch = None);
  Alcotest.(check bool) "width" true
    (t.A.Tuner.cand_opts.Emit.max_width = Some A.Machine.Insn.W128)

let test_errors () =
  List.iter
    (fun src ->
      match Script.parse src with
      | Ok _ -> Alcotest.failf "accepted bad script: %s" src
      | Error _ -> ())
    [ "unroll_jam j"; "unroll i zero"; "prefetch -3"; "frobnicate 2";
      "width 512"; "strength_reduce maybe" ];
  (* a bad preference names the valid values, as a bad width does *)
  match Script.parse "unroll i 8\nprefer avx" with
  | Error msg ->
      Alcotest.(check string) "bad preference"
        {|line 2: prefer expects auto, vdup or shuf, got "avx"|} msg
  | Ok _ -> Alcotest.fail "accepted prefer avx"

(* Errors carry the 1-based source line of the offending directive, in
   both the [Error] rendering and the structured exception payload. *)
let test_error_line_numbers () =
  let expect_line src line =
    (match Script.parse src with
    | Ok _ -> Alcotest.failf "accepted bad script: %s" src
    | Error msg ->
        let prefix = Printf.sprintf "line %d: " line in
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "expected %S prefix, got %S" prefix msg);
    match Script.parse_exn src with
    | exception Script.Script_error (l, _) ->
        Alcotest.(check int) ("structured line for " ^ String.escaped src) line l
    | _ -> Alcotest.failf "parse_exn accepted bad script: %s" src
  in
  expect_line "frobnicate 2" 1;
  (* blank and comment lines still count toward line numbers *)
  expect_line "unroll_jam j 4\n\n# comment\nunroll i zero" 4;
  (* ';'-separated directives share their source line *)
  expect_line "unroll i 8\nprefetch 4; width 512\nprefer shuf" 2;
  expect_line "unroll_jam j 4\nunroll_jam i" 2

let test_roundtrip () =
  let t =
    parse_ok
      "unroll_jam j 2\nunroll_jam i 8\nunroll l 4\nexpand 4\nprefetch 8\nprefer vdup\nwidth 256\n"
  in
  let t' = parse_ok (Script.to_string t) in
  Alcotest.(check string) "print/parse fixpoint" (Script.to_string t)
    (Script.to_string t')

let test_drives_pipeline () =
  (* a script-configured GEMM generates and verifies *)
  let t = parse_ok "unroll_jam j 2\nunroll_jam i 8\nprefetch 4" in
  let g =
    A.generate ~arch:A.Machine.Arch.piledriver ~config:t.A.Tuner.cand_config
      ~opts:t.A.Tuner.cand_opts A.Ir.Kernels.Gemm
  in
  let v = A.verify g in
  Alcotest.(check bool) "verified" true v.A.Harness.ok

let test_width_cap_respected () =
  let t = parse_ok "unroll_jam j 2\nunroll_jam i 8\nwidth 128" in
  let g =
    A.generate ~arch:A.Machine.Arch.sandy_bridge ~config:t.A.Tuner.cand_config
      ~opts:t.A.Tuner.cand_opts A.Ir.Kernels.Gemm
  in
  let widest =
    List.fold_left
      (fun acc i ->
        match i with
        | A.Machine.Insn.Vop { w; _ } | A.Machine.Insn.Vload { w; _ } ->
            max acc (A.Machine.Insn.width_bits w)
        | _ -> acc)
      0 g.A.g_program.A.Machine.Insn.prog_insns
  in
  Alcotest.(check int) "capped at 128" 128 widest

let suite =
  [
    Alcotest.test_case "basic directives" `Quick test_basic;
    Alcotest.test_case "comments and semicolons" `Quick
      test_comments_and_semicolons;
    Alcotest.test_case "switches" `Quick test_switches;
    Alcotest.test_case "error reporting" `Quick test_errors;
    Alcotest.test_case "errors carry 1-based line numbers" `Quick
      test_error_line_numbers;
    Alcotest.test_case "print/parse round trip" `Quick test_roundtrip;
    Alcotest.test_case "script drives the pipeline" `Quick test_drives_pipeline;
    Alcotest.test_case "width cap respected" `Quick test_width_cap_respected;
  ]
