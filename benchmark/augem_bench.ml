(* The repository benchmark: runs one seeded workload against the
   public entry points of native execution and of serving, checks every
   output, and prints every metric by name and unit.  The last line of
   standard output is the result:

     {"correct":true,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}

   carrying the end-to-end metrics of the workload's family (GEMM or
   serving, see [Catalog]), or with [--trace 1] the per-layer metrics of
   a separate traced run.  BENCHMARK.json at the repository root
   declares the GEMM workloads and metrics; benchmark/README.md explains
   them all.

     dune exec --release -- benchmark/augem_bench.exe \
       --workload gemm-square-f64 --seed 1 --seconds 10 --trace 0 *)

module A = Augem
module Json = A.Json
module Et = A.Machine.Etype

type workload = {
  name : string;
  tail : float;
      (** the latency percentile of [latency_tail_ms] (serving) or of
          the pass-time tail in the result file (GEMM): the highest of
          p90/p95/p99.9 that leaves at least ten samples beyond it in a
          10 s run on the reference host *)
  run : Setup.ctx -> tail:float -> trace:bool -> Catalog.outcome;
}

let gemm kind et ctx ~tail ~trace = Gemm_workloads.run ctx ~kind ~et ~tail ~trace

let workloads =
  [
    { name = "gemm-square-f64"; tail = 0.90; run = gemm Gemm_workloads.Square Et.F64 };
    { name = "gemm-square-f32"; tail = 0.95; run = gemm Gemm_workloads.Square Et.F32 };
    { name = "gemm-skinny-f64"; tail = 0.90; run = gemm Gemm_workloads.Skinny Et.F64 };
    { name = "gemm-skinny-f32"; tail = 0.90; run = gemm Gemm_workloads.Skinny Et.F32 };
    { name = "serve-cold"; tail = 0.90; run = Serve_workloads.run_cold };
    { name = "serve-mixed"; tail = 0.999; run = Serve_workloads.run_mixed };
  ]

let usage =
  "augem_bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE] \
   [--trace-out FILE] [--scale full|smoke]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. in
  let trace = ref 0 and out = ref "" and trace_out = ref "" and scale = ref "full" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1: a traced run reporting per-layer metrics");
      ("--out", Arg.Set_string out, "FILE also write the result record (JSON) here");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE spans of a traced run, as JSONL (default .bench_results/trace-W-seedN.jsonl)" );
      ("--scale", Arg.Set_string scale, "full|smoke smoke: tiny inputs, for the test suite");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when !seed >= 0 && (!trace = 0 || !trace = 1) && (!scale = "full" || !scale = "smoke") -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Host.pin ();
  let traced = !trace = 1 in
  let trace_out =
    if not traced then None
    else if !trace_out <> "" then Some !trace_out
    else begin
      let dir = ".bench_results" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Some (Printf.sprintf "%s/trace-%s-seed%d.jsonl" dir w.name !seed)
    end
  in
  let ctx =
    { Setup.seed = !seed; seconds = !seconds; smoke = !scale = "smoke"; trace_out }
  in
  let host = Host.record ~seed:!seed in
  print_endline ("host " ^ Json.to_string host);
  let record result detail =
    Json.Obj
      [
        ("workload", Json.String w.name);
        ("seed", Json.Int !seed);
        ("trace", Json.Bool traced);
        ("seconds", Json.Float !seconds);
        ("scale", Json.String !scale);
        ("host", host);
        ("result", result);
        ("detail", Json.Obj detail);
      ]
  in
  let result, detail =
    match w.run ctx ~tail:w.tail ~trace:traced with
    | exception Setup.Skipped reason ->
        (Json.Obj [ ("skipped", Json.Bool true); ("reason", Json.String reason) ], [])
    | o ->
        let result = Catalog.render (Catalog.family_of_workload w.name) ~trace:traced o in
        (match Json.member "metrics" result with
        | Some (Json.Obj ms) ->
            List.iter
              (fun (name, m) ->
                match (Json.member "value" m, Json.member "unit" m) with
                | Some (Json.Float v), Some (Json.String u) ->
                    Printf.printf "%-40s %14.6g %s\n" name v u
                | _ -> ())
              ms
        | _ -> ());
        List.iter
          (fun (k, v) ->
            match v with
            | Json.List (_ :: _) when k = "failures" ->
                print_endline ("failures " ^ Json.to_string v)
            | _ -> ())
          o.Catalog.detail;
        (result, o.Catalog.detail)
  in
  if !out <> "" then Json.to_file !out (record result detail);
  print_endline (Json.to_string result)
