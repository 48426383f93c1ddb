(* Every metric the benchmark reports, with its unit, direction and, for
   end-to-end metrics, the bound by which it may worsen before a change
   counts as a regression.  BENCHMARK.json declares the GEMM family; the
   smoke check holds the two together.

   There are two families of workload.  Each reports the end-to-end
   metrics of its family and, when traced, the per-layer metrics of its
   family.  The serving family is not declared in BENCHMARK.json: on
   the reference host its metrics drift by up to 40% between runs (see
   README.md), more than any bound the benchmark may set. *)

type metric = {
  name : string;
  unit_ : string;
  higher : bool;  (** higher is better *)
  bound : float;  (** end-to-end only; 0 for per-layer metrics *)
}

let e2e name unit_ ~higher bound = { name; unit_; higher; bound }
let layer ?(higher = false) name unit_ = { name; unit_; higher; bound = 0. }

type family = { end_to_end : metric list; per_layer : metric list }

let gemm =
  {
    end_to_end =
      [
        e2e "gflops" "GFLOPS" ~higher:true 0.25;
        e2e "setup_s" "s" ~higher:false 0.25;
        e2e "peak_rss_mib" "MiB" ~higher:false 0.10;
      ];
    per_layer =
      [
        layer "native_blocked.micro.pct" "%" ~higher:true;
        layer "native_blocked.pack_a.pct" "%";
        layer "native_blocked.pack_b.pct" "%";
        layer "native_blocked.alpha_scale.pct" "%";
        layer "native_blocked.beta_scale.pct" "%";
        layer "native_blocked.loop.pct" "%";
        layer "native_blocked.micro.calls" "count";
        layer "native_blocked.pack_a.calls" "count";
        layer "native_blocked.pack_b.calls" "count";
        layer "native_blocked.alpha_scale.elems" "count";
        layer "native_blocked.beta_scale.elems" "count";
        layer "native_blocked.micro.gflops" "GFLOPS" ~higher:true;
        layer "native_blocked.pack_a.gbps_computed" "GB/s" ~higher:true;
        layer "native_blocked.pack_b.gbps_computed" "GB/s" ~higher:true;
        layer "native_blocked.stage.pct" "%";
        layer "gemm.gflops" "GFLOPS" ~higher:true;
        layer "sim.predicted_gflops" "GFLOPS" ~higher:true;
        layer "sim.model_over_measured" "x";
        layer "blocked.plan.setup_pct" "%";
        layer "native_check.load.setup_pct" "%";
        layer "trace.overhead_pct" "%";
      ];
  }

(* The lowering stages [Driver.Lower.run] records, by the first word of
   their name ("unroll&jam i:4" is "unroll-jam"); "other" takes any
   stage a later pipeline adds. *)
let driver_stages =
  [
    "unroll-jam"; "unroll"; "expand-reduction"; "strength-reduction";
    "scalar-replacement"; "prefetch"; "simplify"; "identify-templates";
    "plan-vectorization"; "bind-parameters"; "emit-body"; "emit-frame";
    "schedule"; "other";
  ]

let driver_stage_key (stage_name : string) : string =
  let word =
    match String.index_opt stage_name ' ' with
    | Some i -> String.sub stage_name 0 i
    | None -> stage_name
  in
  let word = String.map (function '&' -> '-' | ch -> ch) word in
  if List.mem word driver_stages then word else "other"

let serve =
  {
    end_to_end =
      [
        e2e "requests_per_s" "1/s" ~higher:true 0.25;
        e2e "latency_p50_ms" "ms" ~higher:false 0.25;
        e2e "latency_tail_ms" "ms" ~higher:false 0.25;
        e2e "setup_s" "s" ~higher:false 0.25;
        e2e "peak_rss_mib" "MiB" ~higher:false 0.25;
      ];
    per_layer =
      [
        layer "proto.parse_request.pct" "%";
        layer "server.handle_request.memory.pct" "%";
        layer "server.handle_request.tuned.pct" "%";
        layer "server.handle_request.coalesced.pct" "%";
        layer "proto.response_line.pct" "%";
        layer "client.loop.pct" "%";
        layer "registry.tier.memory.pct" "%" ~higher:true;
        layer "registry.tier.tuned.pct" "%";
        layer "registry.tier.coalesced.pct" "%";
        layer "registry.compute.pct" "%";
        layer "scheduler.queue_wait.est_pct" "%";
        layer "att.program_to_string.est_pct" "%";
        layer "tuner.visited" "count";
        layer "tuner.discarded.pct" "%";
        layer "tuner.candidates_per_s" "1/s" ~higher:true;
      ]
      @ List.map (fun s -> layer ("driver.stage." ^ s ^ ".pct") "%") driver_stages
      @ [
          layer "sim.score.pct" "%";
          layer "tuner.sweep.other.pct" "%";
          layer "trace.overhead_pct" "%";
        ];
  }

let family_of_workload (w : string) : family =
  if String.starts_with ~prefix:"serve-" w then serve else gemm

(* A workload's result: the metrics it measured, by name. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  detail : (string * Augem.Json.t) list;
      (** what the result file records beyond the metrics *)
}

(* The result line: exactly the family's end-to-end metrics, or its
   per-layer metrics for a traced run, in catalog order. *)
let render (f : family) ~(trace : bool) (o : outcome) : Augem.Json.t =
  let module Json = Augem.Json in
  let declared = if trace then f.per_layer else f.end_to_end in
  let metric m =
    match List.assoc_opt m.name o.values with
    | Some v ->
        (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ])
    | None -> invalid_arg ("metric not measured: " ^ m.name)
  in
  if List.length o.values <> List.length declared then
    invalid_arg "a workload measured a metric outside its family";
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", Json.Obj (List.map metric declared));
    ]
