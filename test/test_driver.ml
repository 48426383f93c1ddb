(* The staged-lowering driver: golden byte-identity against the
   pre-refactor assembly (the refactor moved code, not semantics),
   trace determinism (two runs of the same lowering agree stage by
   stage), the `augem explain` trace contract (enough named stages,
   each with stats, timing, fingerprint and snapshot), and the
   transformation-script fixpoint over every configuration the tuner
   can visit. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Pipeline = A.Transform.Pipeline
module Prefetch = A.Transform.Prefetch
module Script = A.Script
module Trace = A.Driver.Trace
module Lower = A.Driver.Lower

let archs = [ Arch.sandy_bridge; Arch.piledriver ]

(* Short names used by the golden corpus file layout
   (golden/<kernel>-<arch>.s). *)
let short_name = function
  | Kernels.Gemm -> "gemm"
  | Kernels.Gemv -> "gemv"
  | Kernels.Axpy -> "axpy"
  | Kernels.Dot -> "dot"
  | Kernels.Ger -> "ger"
  | Kernels.Scal -> "scal"
  | Kernels.Copy -> "copy"
  | Kernels.Pack_a -> "pack_a"
  | Kernels.Pack_b -> "pack_b"

(* The CLI's per-kernel default configuration (bin/augem_cli.ml,
   [config_of_flags] with no flags): the goldens were captured through
   `augem generate` under exactly these settings. *)
let cli_default_config (k : Kernels.name) : Pipeline.config =
  let base =
    match k with
    | Kernels.Gemm -> { Pipeline.default with jam = [ ("j", 4); ("i", 8) ] }
    | Kernels.Gemv -> { Pipeline.default with inner_unroll = Some ("j", 8) }
    | Kernels.Dot ->
        { Pipeline.default with inner_unroll = Some ("i", 8);
          expand_reduction = Some 8 }
    | Kernels.Axpy | Kernels.Ger | Kernels.Scal | Kernels.Copy
    | Kernels.Pack_a ->
        { Pipeline.default with inner_unroll = Some ("i", 8) }
    | Kernels.Pack_b ->
        { Pipeline.default with inner_unroll = Some ("l", 8) }
  in
  {
    base with
    prefetch = Some { Prefetch.pf_distance = 8; pf_stores = true };
  }

let every_pair f =
  List.iter
    (fun (name, _) -> List.iter (fun arch -> f name arch) archs)
    Kernels.all

(* --- golden byte-identity ---------------------------------------------- *)

(* Both precisions: the f64 corpus is <kernel>-<arch>.s, the f32 corpus
   is the BLAS-style s<kernel>-<arch>.s (captured through `augem
   generate --precision f32` under the same per-kernel defaults). *)
let ets = A.Machine.Etype.[ F64; F32 ]

let golden_base et name (arch : Arch.t) =
  let prefix = match et with A.Machine.Etype.F64 -> "" | F32 -> "s" in
  Printf.sprintf "%s%s-%s.s" prefix (short_name name) arch.Arch.name

let golden_file base =
  (* `dune runtest` runs in the test directory; `dune exec
     test/main.exe` runs at the project root *)
  let candidates =
    [ Filename.concat "golden" base;
      Filename.concat (Filename.concat "test" "golden") base ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> Alcotest.failf "golden file %s not found" base

let test_golden_assembly () =
  List.iter
    (fun et ->
      every_pair (fun name arch ->
          let file = golden_file (golden_base et name arch) in
          let expected = In_channel.with_open_bin file In_channel.input_all in
          let got =
            A.assembly
              (A.generate ~et ~arch ~config:(cli_default_config name) name)
          in
          if not (String.equal expected got) then
            Alcotest.failf
              "%s %s on %s: assembly differs from %s (%d vs %d bytes)"
              (A.Machine.Etype.name et) (short_name name) arch.Arch.name file
              (String.length got) (String.length expected)))
    ets

(* --- trace determinism -------------------------------------------------- *)

let stage_key (r : Trace.stage_record) =
  Printf.sprintf "%d %s %s %s" r.Trace.sr_index r.Trace.sr_name
    r.Trace.sr_kind r.Trace.sr_fingerprint

let test_trace_deterministic () =
  every_pair (fun name arch ->
      let config = cli_default_config name in
      let t1 = A.explain ~arch ~config name in
      let t2 = A.explain ~arch ~config name in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s stage records" (short_name name) arch.Arch.name)
        (List.map stage_key t1.Trace.tr_stages)
        (List.map stage_key t2.Trace.tr_stages);
      if not (Trace.program t1 = Trace.program t2) then
        Alcotest.failf "%s on %s: programs differ between identical runs"
          (short_name name) arch.Arch.name)

(* --- the explain trace contract ----------------------------------------- *)

let test_explain_trace_contract () =
  every_pair (fun name arch ->
      let opts = { Lower.default_opts with Lower.snapshots = true } in
      let t = A.explain ~opts ~arch ~config:(cli_default_config name) name in
      let where = Printf.sprintf "%s/%s" (short_name name) arch.Arch.name in
      let n = List.length t.Trace.tr_stages in
      if n < 8 then Alcotest.failf "%s: only %d stages (want >= 8)" where n;
      let names = Trace.stage_names t in
      Alcotest.(check int)
        (where ^ " stage names unique")
        n
        (List.length (List.sort_uniq String.compare names));
      (* the backend stages are always present, in lowering order *)
      List.iter
        (fun s ->
          if not (List.mem s names) then
            Alcotest.failf "%s: stage %S missing from %s" where s
              (String.concat ", " names))
        [
          "identify-templates"; "plan-vectorization"; "bind-parameters";
          "emit-body"; "emit-frame"; "schedule";
        ];
      List.iter
        (fun (r : Trace.stage_record) ->
          let swhere = Printf.sprintf "%s stage %S" where r.Trace.sr_name in
          if r.Trace.sr_stats = [] then Alcotest.failf "%s: no stats" swhere;
          if r.Trace.sr_ms < 0.0 then
            Alcotest.failf "%s: negative wall time" swhere;
          Alcotest.(check int)
            (swhere ^ " fingerprint is an MD5 hex digest")
            32
            (String.length r.Trace.sr_fingerprint);
          match r.Trace.sr_artifact with
          | Some a when String.length a > 0 -> ()
          | Some _ -> Alcotest.failf "%s: empty snapshot" swhere
          | None -> Alcotest.failf "%s: snapshot missing" swhere)
        t.Trace.tr_stages;
      (* the trace carries the endpoints the CLI renders *)
      if (Trace.program t).A.Machine.Insn.prog_insns = [] then
        Alcotest.failf "%s: empty final program" where)

(* Without snapshots, traces must not retain rendered artifacts — they
   are per-lowering and would dominate memory. *)
let test_no_snapshots_by_default () =
  let t =
    A.explain ~arch:Arch.sandy_bridge
      ~config:(cli_default_config Kernels.Gemm)
      Kernels.Gemm
  in
  List.iter
    (fun (r : Trace.stage_record) ->
      if r.Trace.sr_artifact <> None then
        Alcotest.failf "stage %S retained a snapshot without opts.snapshots"
          r.Trace.sr_name)
    t.Trace.tr_stages

(* --- script fixpoint over the tuner's search spaces ---------------------- *)

(* Every configuration the tuner can visit must survive
   [to_string] |> [parse] exactly: the script language is the exchange
   format for tuning results, so a lossy corner means an unreproducible
   sweep winner. *)
let test_script_fixpoint_over_spaces () =
  let checked = ref 0 in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun c ->
          let src = Script.to_string c in
          match Script.parse src with
          | Error msg ->
              Alcotest.failf "%s candidate failed to re-parse: %s\n%s"
                (short_name name) msg src
          | Ok c' ->
              incr checked;
              if c' <> c then
                Alcotest.failf "%s candidate not a fixpoint:\n%s\nvs\n%s"
                  (short_name name) src (Script.to_string c'))
        (A.Tuner.space_for name))
    Kernels.all;
  Alcotest.(check bool)
    "covered the whole space" true (!checked > 100)

let suite =
  [
    Alcotest.test_case
      "golden assembly byte-identical (9 kernels x 2 arches x 2 precisions)"
      `Quick test_golden_assembly;
    Alcotest.test_case "trace deterministic across runs" `Quick
      test_trace_deterministic;
    Alcotest.test_case "explain trace contract (stages, stats, snapshots)"
      `Quick test_explain_trace_contract;
    Alcotest.test_case "no snapshots unless requested" `Quick
      test_no_snapshots_by_default;
    Alcotest.test_case "script to_string/parse fixpoint over tuner spaces"
      `Quick test_script_fixpoint_over_spaces;
  ]
