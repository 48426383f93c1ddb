(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5), plus the extension experiments.

     bench/main.exe [--json-out DIR] [--jobs N] [--smoke] [EXPERIMENT...]

   Each experiment is one row of [experiments] (at the end): a name, its
   full grid and its reduced --smoke grid.  Naming no experiment runs
   all of them, in table order:

     verify        every library kernel re-verified on the simulator
     table5        platform configurations
     fig18..fig21  DGEMM/DGEMV/DAXPY/DDOT MFLOPS vs size, 4 libraries,
                   both CPUs
     full          blocked vs streamed DGEMM (BENCH_full.json)
     full_f32      the same at f32 (BENCH_full_f32.json)
     table6        SYMM/SYRK/SYR2K/TRMM/TRSM/GER average MFLOPS
     sweep         the tuning sweep's wall-clock at jobs 1 and --jobs N,
                   in paired rounds, and one blocked-GEMM sweep per
                   precision at jobs 1
     native        measured wall-clock blocked DGEMM/SGEMM
     ablations     each design choice switched off in isolation
     portability   tuned DGEMM across architectures
     serve         cold vs warm latency of the in-process kernel service

   The figure and table experiments print the series/rows the paper
   reports, followed by the mean speedup summary (the numbers quoted in
   the paper's prose).  Every experiment with an artifact writes
   BENCH_<name>.json into --json-out (default .), which test/smoke
   checks against the artifact's schema.  [serve] runs last, so its
   server's worker domain and client threads never overlap a timed
   experiment.

   Modelled numbers come from the cycle-level + bandwidth model of the
   modelled CPUs (see DESIGN.md): absolute values are the model's, the
   cross-library shape is the reproduction target.  EXPERIMENTS.md
   records paper-vs-measured for every experiment. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Lib = A.Library
module Perf = A.Sim.Perf
module Report = A.Report
module Json = A.Json
module Tuner = A.Tuner
module Etype = A.Machine.Etype
module Routine = Augem_baselines.Routine_model

let archs = [ Arch.sandy_bridge; Arch.piledriver ]

(* --- flags --------------------------------------------------------------- *)

let json_out = ref "."
let jobs_flag = ref (A.Team.default_jobs ())

let write_json name (v : Json.t) =
  let path = Filename.concat !json_out ("BENCH_" ^ name ^ ".json") in
  Json.to_file path v;
  Fmt.pr "wrote %s@." path

let range lo hi step =
  let rec go x acc = if x > hi then List.rev acc else go (x + step) (x :: acc) in
  go lo []

(* --- Table 5 ------------------------------------------------------------- *)

let table5 () =
  Report.pp_table Fmt.stdout ~title:"Table 5: Platforms Configurations"
    ~header:[ "Intel Sandy Bridge"; "AMD Piledriver" ]
    (List.map (fun (l, a, b) -> (l, [ a; b ])) (Arch.table5_rows ()));
  Fmt.pr "@."

(* --- figure sweeps --------------------------------------------------------- *)

let libraries_for arch = List.map (fun id -> (id, Lib.display_name arch id)) Lib.all

let sweep ~(kernel : Kernels.name) ~(workload : int -> Perf.workload)
    ~(sizes : int list) (arch : Arch.t) : Report.series list =
  List.map
    (fun (id, label) ->
      {
        Report.s_label = label;
        s_points =
          List.map (fun s -> (s, Lib.predict id arch kernel (workload s))) sizes;
      })
    (libraries_for arch)

let json_of_series (s : Report.series) : Json.t =
  Json.Obj
    [
      ("label", Json.String s.Report.s_label);
      ( "points",
        Json.List
          (List.map
             (fun (x, y) ->
               Json.Obj [ ("size", Json.Int x); ("mflops", Json.Float y) ])
             s.Report.s_points) );
      ( "mean_mflops",
        (* an empty series has no mean: Null, not a fake 0. *)
        match Report.series_mean s with
        | Some m -> Json.Float m
        | None -> Json.Null );
    ]

(* The paper's prose numbers: AUGEM's mean over a figure vs each other
   library's. *)
let json_of_speedups ~(baseline : string) (series : Report.series list) :
    Json.t =
  match
    List.find_opt (fun s -> String.equal s.Report.s_label baseline) series
  with
  | None -> Json.List []
  | Some base -> (
      match Report.series_mean base with
      | None -> Json.List []
      | Some b ->
          Json.List
            (List.filter_map
               (fun s ->
                 if String.equal s.Report.s_label baseline then None
                 else
                   match Report.series_mean s with
                   | Some m when m > 0. ->
                       Some
                         (Json.Obj
                            [
                              ("baseline", Json.String baseline);
                              ("vs", Json.String s.Report.s_label);
                              ( "percent",
                                Json.Float ((b /. m -. 1.) *. 100.) );
                            ])
                   | Some _ | None -> None)
               series))

let figure ~num ~title ~kernel ~workload ~x_label sizes () : Json.t =
  let arch_objs =
    List.mapi
      (fun i arch ->
        let sub = if i = 0 then "a" else "b" in
        let series = sweep ~kernel ~workload ~sizes arch in
        Report.pp_series_table Fmt.stdout
          ~title:
            (Printf.sprintf "Figure %d%s: %s on %s (MFLOPS)" num sub title
               arch.Arch.model)
          ~x_label series;
        Report.pp_bars Fmt.stdout series;
        Fmt.pr "mean speedups (paper quotes these):@.";
        Report.pp_speedups Fmt.stdout ~baseline:"AUGEM" series;
        Fmt.pr "@.";
        Json.Obj
          [
            ("arch", Json.String arch.Arch.name);
            ("model", Json.String arch.Arch.model);
            ("series", Json.List (List.map json_of_series series));
            ("speedups", json_of_speedups ~baseline:"AUGEM" series);
          ])
      archs
  in
  Json.Obj
    [
      ("experiment", Json.String (Printf.sprintf "fig%d" num));
      ("title", Json.String title);
      ("kernel", Json.String (Kernels.name_to_string kernel));
      ("x_label", Json.String x_label);
      ("arches", Json.List arch_objs);
    ]

let fig18 =
  figure ~num:18 ~title:"DGEMM (m=n, k=256)" ~kernel:Kernels.Gemm
    ~workload:(fun m -> Perf.W_gemm { m; n = m; k = 256 })
    ~x_label:"m=n"

let fig19 =
  figure ~num:19 ~title:"DGEMV (m=n)" ~kernel:Kernels.Gemv
    ~workload:(fun m -> Perf.W_gemv { m; n = m })
    ~x_label:"m=n"

let fig20 =
  figure ~num:20 ~title:"DAXPY" ~kernel:Kernels.Axpy
    ~workload:(fun n -> Perf.W_axpy { n })
    ~x_label:"n"

let fig21 =
  figure ~num:21 ~title:"DDOT" ~kernel:Kernels.Dot
    ~workload:(fun n -> Perf.W_dot { n })
    ~x_label:"n"

(* --- full-matrix blocked GEMM sweep -------------------------------------- *)

module Mem_model = A.Sim.Mem_model

(* The full blocked DGEMM (generated packing + macro-kernel loop nest
   around the tuned micro-kernel) against the unblocked
   micro-kernel-streaming path, on square m=n=k problems.  Before
   reporting model numbers, the generated driver is differentially
   checked on the functional simulator against [dgemm_naive] over
   shapes that force multi-block trips and remainder blocks (a tiny
   blocking override makes small matrices span many blocks — the
   blocking is a runtime parameter of the generated code). *)

(* Awkward shapes: primes, one block exactly, one block + remainder,
   unit.  With blocking 8/6/4 every one of these exercises remainder
   blocks in at least one dimension. *)
let full_check_shapes = [ (17, 13, 11); (8, 6, 6); (9, 5, 7); (1, 1, 1) ]
let full_check_blocking = { Mem_model.bl_mc = 8; bl_kc = 6; bl_nc = 4 }

let blocking_json (b : Mem_model.blocking) : Json.t =
  Json.Obj
    [
      ("mc", Json.Int b.Mem_model.bl_mc);
      ("kc", Json.Int b.Mem_model.bl_kc);
      ("nc", Json.Int b.Mem_model.bl_nc);
    ]

let full_matrix (et : Etype.t) (sizes : int list) () : Json.t =
  let gemm_name = String.uppercase_ascii (Etype.blas_prefix et) ^ "GEMM" in
  Fmt.pr
    "== Full-matrix blocked %s (m=n=k; generated packing + macro-kernel) \
     ==@." gemm_name;
  let largest = List.fold_left max 0 sizes in
  let arch_objs =
    List.map
      (fun (arch : Arch.t) ->
        let plan = A.Blocked.plan ~et ~jobs:!jobs_flag arch in
        let micro = A.Blocked.micro plan in
        let micro_config =
          A.Transform.Pipeline.config_to_string
            micro.Tuner.bm_candidate.Tuner.cand_config
        in
        (* correctness first: the generated blocked driver on the
           simulator vs the reference BLAS, remainder shapes included *)
        let diffs =
          List.map
            (fun (m, n, k) ->
              let r =
                A.Blocked.check ~blocking:full_check_blocking plan ~m ~n ~k ()
              in
              (match r with
              | Ok _ -> ()
              | Error e ->
                  Fmt.pr "BLOCKED DIFFERENTIAL FAIL on %s: %s@." arch.Arch.name
                    e;
                  exit 1);
              Json.Obj
                [
                  ("m", Json.Int m); ("n", Json.Int n); ("k", Json.Int k);
                  ("ok", Json.Bool true);
                ])
            full_check_shapes
        in
        let point f s =
          (s, (f plan (Perf.W_gemm { m = s; n = s; k = s })).Perf.e_mflops)
        in
        let blocked =
          {
            Report.s_label = "AUGEM blocked";
            s_points = List.map (point A.Blocked.predict) sizes;
          }
        in
        let streamed =
          {
            Report.s_label = "unblocked (streamed)";
            s_points = List.map (point A.Blocked.predict_streamed) sizes;
          }
        in
        let series = [ blocked; streamed ] in
        Report.pp_series_table Fmt.stdout
          ~title:
            (Printf.sprintf "Blocked %s (m=n=k) on %s (MFLOPS)" gemm_name
               arch.Arch.model)
          ~x_label:"m=n=k" series;
        Report.pp_bars Fmt.stdout series;
        let at s size =
          match List.assoc_opt size s.Report.s_points with
          | Some v -> v
          | None -> 0.
        in
        let ratio =
          let s = at streamed largest in
          if s > 0. then at blocked largest /. s else 0.
        in
        Fmt.pr
          "blocking %s (mr=%d nr=%d, %s); blocked/streamed at m=n=k=%d: \
           %.1fx@.@."
          (Mem_model.blocking_to_string plan.A.Blocked.pl_blocking)
          micro.Tuner.bm_mr micro.Tuner.bm_nr micro_config largest ratio;
        Json.Obj
          [
            ("arch", Json.String arch.Arch.name);
            ("model", Json.String arch.Arch.model);
            ("blocking", blocking_json plan.A.Blocked.pl_blocking);
            ("mr", Json.Int micro.Tuner.bm_mr);
            ("nr", Json.Int micro.Tuner.bm_nr);
            ("micro_config", Json.String micro_config);
            ("series", Json.List (List.map json_of_series series));
            ("speedup_at_largest", Json.Float ratio);
            ("differential", Json.List diffs);
          ])
      archs
  in
  Json.Obj
    [
      ( "experiment",
        Json.String
          (match et with Etype.F64 -> "full" | Etype.F32 -> "full_f32") );
      ("precision", Json.String (Etype.name et));
      ( "title",
        Json.String
          (Printf.sprintf
             "Full-matrix blocked %s: generated packing + macro-kernel vs \
              unblocked streaming" gemm_name) );
      ("x_label", Json.String "m=n=k");
      ("largest", Json.Int largest);
      ("arches", Json.List arch_objs);
    ]

(* --- native wall-clock blocked GEMM ---------------------------------------- *)

module Native_check = A.Native_check
module Native_blocked = A.Native_blocked
module Clock = A.Jit.Clock

(* Measured (not modelled) MFLOPS: the blocked GEMM driver is JIT-
   compiled to executable memory and timed on this CPU with the
   monotonic-clock helper (warmup + min-of-N).  Results only count
   after the guarded path passes: asmcheck lint, CPU feature check,
   and a differential run against the simulated blocked driver and the
   reference BLAS on remainder-heavy shapes.  When the host CPU lacks
   the required SIMD features the whole experiment is skipped with an
   explicit marker, never silently. *)

(* Pick the first modelled architecture whose generated code this host
   can actually run (piledriver wants FMA4, which modern x86 lacks), and
   return its model plan and that plan loaded into executable memory. *)
let native_arch_for ~(et : Etype.t) :
    (A.Blocked.plan * Native_blocked.native_plan, string) result =
  let rec go = function
    | [] -> Error "no modelled architecture is runnable on this host"
    | arch :: rest -> (
        let plan = A.Blocked.plan ~et ~jobs:!jobs_flag arch in
        match Native_blocked.load plan with
        | Native_check.Ready np -> Ok (plan, np)
        | Native_check.Unsupported _ | Native_check.Rejected _ -> go rest)
  in
  (* prefer the AVX2+FMA3 machine: it is the closest model of a modern
     host and exercises the widest encoder surface *)
  go (Arch.haswell :: archs)

(* A product the native gate adds to the simulated gate's: one kc
   panel and one nc panel, wider than it is tall, so two or more
   workers share its columns (under [full_check_blocking] every gate
   shape takes the row schedule or one worker). *)
let native_column_check =
  ((13, 59, 9), { Mem_model.bl_mc = 8; bl_kc = 16; bl_nc = 60 })

let native_name (et : Etype.t) =
  String.uppercase_ascii (Etype.blas_prefix et) ^ "GEMM"

(* One precision's plan, loaded and checked before anything is timed:
   the loaded plan and its entry's fields, or why it is skipped. *)
let native_load (et : Etype.t) :
    (Native_blocked.native_plan * (string * Json.t) list, string) result =
  let gemm_name = native_name et in
  match native_arch_for ~et with
  | Error m -> Error m
  | Ok (model, np) ->
      let plan = np.Native_blocked.np_plan in
      let arch = plan.A.Blocked.pl_arch in
      (* what ran: each kernel's configuration, kept by the clock from
         the model's exact-tie set of the given size *)
      let kernels =
        List.map
          (fun (name, cand, ties) ->
            let config =
              A.Transform.Pipeline.config_to_string cand.Tuner.cand_config
            in
            Fmt.pr "%s %-6s %s (of %d tied)@." gemm_name name config ties;
            ( name,
              Json.Obj
                [ ("config", Json.String config); ("ties", Json.Int ties) ] ))
          [
            ( "micro",
              (A.Blocked.micro plan).Tuner.bm_candidate,
              List.length model.A.Blocked.pl_micro );
            ( "pack_a",
              plan.A.Blocked.pl_pack_a.Tuner.best,
              List.length model.A.Blocked.pl_pack_a.Tuner.ties );
            ( "pack_b",
              plan.A.Blocked.pl_pack_b.Tuner.best,
              List.length model.A.Blocked.pl_pack_b.Tuner.ties );
            ( "scal",
              plan.A.Blocked.pl_scal.Tuner.best,
              List.length model.A.Blocked.pl_scal.Tuner.ties );
          ]
      in
      (* differential gate before any timing: the simulated gate's
         shapes and blocking, then one product whose columns the
         workers share, native vs simulated vs reference BLAS, with
         both scaling steps bypassed and taken *)
      let diffs =
        List.concat_map
          (fun ((m, n, k), blocking) ->
            List.map
              (fun (alpha, beta) ->
                (match
                   Native_blocked.check ~blocking ~alpha ~beta np ~m ~n ~k ()
                 with
                | Ok () -> ()
                | Error e ->
                    Fmt.pr "NATIVE DIFFERENTIAL FAIL (%s %s): %s@." gemm_name
                      arch.Arch.name e;
                    exit 1);
                Json.Obj
                  [
                    ("m", Json.Int m); ("n", Json.Int n); ("k", Json.Int k);
                    ("blocking", blocking_json blocking);
                    ("alpha", Json.Float alpha); ("beta", Json.Float beta);
                    ("ok", Json.Bool true);
                  ])
              [ (1.0, 1.0); (2.5, -0.5) ])
          (List.map (fun s -> (s, full_check_blocking)) full_check_shapes
          @ [ native_column_check ])
      in
      Ok
        ( np,
          [
            ("arch", Json.String arch.Arch.name);
            ("blocking", blocking_json plan.A.Blocked.pl_blocking);
            ("kernels", Json.Obj kernels);
            ("differential", Json.List diffs);
          ] )

(* Timed rounds at each (size, jobs) point, after one untimed run. *)
let native_rounds = 5

(* The loaded plans' GEMMs at one (m, n, k, jobs) point, timed
   together by [Clock.rounds], staging excluded: one untimed round,
   then [native_rounds] that each run every plan once, which goes first
   rotating, so a burst on a shared host slows both precisions alike.
   Each plan gets its own point's fields, its samples among them.
   Repeated passes accumulate into C (beta = 1), which keeps every
   pass's memory traffic identical. *)
let native_point (nps : Native_blocked.native_plan list) ~m ~n ~k ~jobs :
    (Native_blocked.native_plan * (string * Json.t) list) list =
  let samples =
    Clock.rounds ~warmup:1 ~rounds:native_rounds
      (List.map
         (fun np ->
           let et = np.Native_blocked.np_plan.A.Blocked.pl_et in
           let a, b, c = A.Blocked.operands ~et ~seed:42 ~m ~n ~k in
           fst (Native_blocked.gemm_runner ~jobs np a b c))
         nps)
  in
  List.map2
    (fun np samples ->
      let plan = np.Native_blocked.np_plan in
      let predicted =
        (A.Blocked.predict plan (Perf.W_gemm { m; n; k })).Perf.e_mflops
      in
      let runs = Array.length samples in
      let min_s = Array.fold_left Float.min infinity samples in
      let label =
        if m = n && n = k then string_of_int m
        else Printf.sprintf "%dx%dx%d" m n k
      in
      let mflops =
        2.0 *. float_of_int m *. float_of_int n *. float_of_int k /. min_s
        /. 1e6
      in
      Fmt.pr
        "%-6s %6s  jobs %d  measured %9.0f MFLOPS  (model %9.0f per core; min \
         %.4g s over %d)@."
        (native_name plan.A.Blocked.pl_et) label jobs mflops predicted min_s
        runs;
      ( np,
        [
          ("jobs", Json.Int jobs);
          ("mflops", Json.Float mflops);
          ("predicted_mflops", Json.Float predicted);
          ("runs", Json.Int runs);
          ("min_s", Json.Float min_s);
          ( "mean_s",
            Json.Float
              (Array.fold_left ( +. ) 0.0 samples /. float_of_int runs) );
          ("max_s", Json.Float (Array.fold_left Float.max 0.0 samples));
          ( "samples_s",
            Json.List
              (Array.to_list (Array.map (fun s -> Json.Float s) samples)) );
        ] ))
    nps samples

(* The rank-k updates' depth: one kc panel of every tuned plan, so two
   or more workers share C's columns. *)
let rank_k_depth = 16

let native_bench ~rank_k (sizes : int list) () : Json.t =
  Fmt.pr "== Native blocked GEMM: measured wall-clock MFLOPS ==@.";
  let host = Native_check.host_features () in
  Fmt.pr "host: %s@."
    (String.concat " "
       (List.map (fun (n, b) -> Printf.sprintf "%s=%b" n b) host));
  let host_json =
    Json.Obj (List.map (fun (n, b) -> (n, Json.Bool b)) host)
  in
  if not (Native_check.host_supported ()) then begin
    Fmt.pr "native bench: skipped (host CPU lacks SSE2+AVX)@.@.";
    Json.Obj
      [
        ("experiment", Json.String "native");
        ("skipped", Json.Bool true);
        ("reason", Json.String "host CPU lacks SSE2+AVX");
        ("host", host_json);
      ]
  end
  else begin
    let loaded =
      List.map (fun et -> (et, native_load et)) [ Etype.F64; Etype.F32 ]
    in
    let nps =
      List.filter_map (function _, Ok (np, _) -> Some np | _ -> None) loaded
    in
    (* every size on one core, the figure the per-core model predicts,
       and on the whole team; then a rank-k update of side [rank_k] *)
    let job_counts =
      List.sort_uniq compare [ 1; A.Team.size Native_blocked.team ]
    in
    (* per job count, each plan's point: [shape]'s fields, then its
       timing's *)
    let timed shape ~m ~n ~k =
      List.map
        (fun jobs ->
          List.map
            (fun (np, timing) -> (np, Json.Obj (shape @ timing)))
            (native_point nps ~m ~n ~k ~jobs))
        job_counts
    in
    let points =
      List.concat_map
        (fun size ->
          timed [ ("size", Json.Int size) ] ~m:size ~n:size ~k:size)
        sizes
    in
    let rank_k_points =
      let k = rank_k_depth in
      timed
        [ ("m", Json.Int rank_k); ("n", Json.Int rank_k); ("k", Json.Int k) ]
        ~m:rank_k ~n:rank_k ~k
    in
    List.iter Native_blocked.release nps;
    let precisions =
      List.map
        (fun (et, r) ->
          let fields =
            match r with
            | Error m ->
                Fmt.pr "native %s: skipped (%s)@." (native_name et) m;
                [ ("skipped", Json.Bool true); ("reason", Json.String m) ]
            | Ok (np, fields) ->
                (("skipped", Json.Bool false) :: fields)
                @ [
                    ("points", Json.List (List.map (List.assq np) points));
                    ( "rank_k",
                      Json.List (List.map (List.assq np) rank_k_points) );
                  ]
          in
          Json.Obj
            (("precision", Json.String (Etype.name et))
            :: ("name", Json.String (native_name et))
            :: fields))
        loaded
    in
    Fmt.pr "@.";
    Json.Obj
      [
        ("experiment", Json.String "native");
        ("skipped", Json.Bool false);
        ("host", host_json);
        ("largest", Json.Int (List.fold_left max 0 sizes));
        ("precisions", Json.List precisions);
      ]
  end

(* --- Table 6 ------------------------------------------------------------- *)

let table6 () : Json.t =
  let arch_objs =
    List.map
      (fun arch ->
        let libs = libraries_for arch in
        let cells =
          List.map
            (fun r ->
              ( r,
                List.map (fun (id, _) -> (id, Routine.average id arch r)) libs
              ))
            Routine.all
        in
        Report.pp_table Fmt.stdout
          ~title:
            (Printf.sprintf
               "Table 6: AUGEM vs other BLAS libraries on %s (Mflops, mean)"
               arch.Arch.model)
          ~header:(List.map snd libs)
          (List.map
             (fun (r, row) ->
               ( Routine.name r,
                 List.map (fun (_, v) -> Printf.sprintf "%.2f" v) row ))
             cells);
        Fmt.pr "@.";
        Json.Obj
          [
            ("arch", Json.String arch.Arch.name);
            ("model", Json.String arch.Arch.model);
            ( "rows",
              Json.List
                (List.map
                   (fun (r, row) ->
                     Json.Obj
                       [
                         ("routine", Json.String (Routine.name r));
                         ( "mean_mflops",
                           Json.Obj
                             (List.map
                                (fun (id, v) ->
                                  (Lib.display_name arch id, Json.Float v))
                                row) );
                       ])
                   cells) );
          ])
      archs
  in
  Json.Obj
    [
      ("experiment", Json.String "table6");
      ("title", Json.String "AUGEM vs other BLAS libraries (Mflops, mean)");
      ("arches", Json.List arch_objs);
    ]

(* --- timed tuning sweep ---------------------------------------------------- *)

(* Timed rounds of each job count's sweeps, after one untimed round. *)
let sweep_rounds = 5

let median (samples : float array) : float =
  let s = Array.copy samples in
  Array.sort compare s;
  let n = Array.length s in
  (s.((n - 1) / 2) +. s.(n / 2)) /. 2.0

(* Fresh (unmemoized) sweeps over (arch, kernel) pairs at jobs=1 and
   at the requested job count, the two taking turns by [Clock.rounds]:
   the ROADMAP's perf trajectory for the tuner itself.  Each job
   count's wall-clock is its median round, and the speed-up the median
   of the rounds' jobs=1 over jobs=N ratios, with their spread.  The
   last round's results are checked identical across job counts — the
   parallel sweep's determinism contract, enforced here on every bench
   run, not just in the test suite.  Then one fresh blocked-GEMM sweep
   per [blocked] entry (arch, precision, space) at jobs 1: what a cold
   [Blocked.plan] spends choosing its micro-kernel and blocking. *)
let tuning_sweep
    ~(blocked : (Arch.t * Etype.t * Tuner.candidate list option) list)
    (pairs : (Arch.t * Kernels.name) list) () : Json.t =
  let jobs = !jobs_flag in
  Fmt.pr "== Tuning sweep: wall-clock and candidates/sec ==@.";
  let job_counts = if jobs > 1 then [ 1; jobs ] else [ 1 ] in
  (* each job count's results in its latest round *)
  let latest = List.map (fun _ -> ref []) job_counts in
  let samples =
    Clock.rounds ~warmup:1 ~rounds:sweep_rounds
      (List.map2
         (fun jobs results () ->
           results := List.map (fun (arch, k) -> Tuner.tune ~jobs arch k) pairs)
         job_counts latest)
  in
  let last l = List.nth l (List.length l - 1) in
  let seq_results = !(List.hd latest) and par_results = !(last latest) in
  let candidates =
    List.fold_left (fun acc r -> acc + r.Tuner.visited) 0 seq_results
  in
  (* determinism gate: identical winners, scores, tie sets and
     histograms *)
  List.iteri
    (fun i (seq, par) ->
      let arch, k = List.nth pairs i in
      if
        not
          (seq.Tuner.best = par.Tuner.best
          && seq.Tuner.best_score = par.Tuner.best_score
          && seq.Tuner.ties = par.Tuner.ties
          && seq.Tuner.failure_histogram = par.Tuner.failure_histogram)
      then begin
        Fmt.pr "DETERMINISM FAIL: %s/%s differs between jobs=1 and jobs=%d@."
          arch.Arch.name (Kernels.name_to_string k) jobs;
        exit 1
      end)
    (List.combine seq_results par_results);
  Fmt.pr "%-14s %-8s %10s %10s %9s  %s@." "arch" "kernel" "visited"
    "discarded" "MFLOPS" "best configuration";
  List.iter2
    (fun (arch, k) r ->
      Fmt.pr "%-14s %-8s %10d %10d %9.0f  %s@." arch.Arch.name
        (Kernels.name_to_string k) r.Tuner.visited r.Tuner.discarded
        r.Tuner.best_score
        (A.Transform.Pipeline.config_to_string
           r.Tuner.best.Tuner.cand_config))
    pairs seq_results;
  let rate wall = float_of_int candidates /. Float.max wall 1e-9 in
  let timings =
    List.map2
      (fun jobs samples ->
        let wall = median samples in
        Fmt.pr "jobs=%-2d  %d candidates in %.3f s  (%.1f candidates/sec)@."
          jobs candidates wall (rate wall);
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ("wall_s", Json.Float wall);
            ("candidates", Json.Int candidates);
            ("candidates_per_sec", Json.Float (rate wall));
          ])
      job_counts samples
  in
  (* per round, jobs=1 over jobs=N; all 1 when N is 1 *)
  let ratios =
    Array.map2
      (fun s p -> s /. Float.max p 1e-9)
      (List.hd samples) (last samples)
  in
  let speedup = median ratios
  and speedup_min = Array.fold_left Float.min infinity ratios
  and speedup_max = Array.fold_left Float.max neg_infinity ratios in
  if jobs > 1 then
    Fmt.pr
      "parallel sweep speedup (jobs=%d over jobs=1): %.2fx median, %.2f-%.2fx \
       over %d rounds@."
      jobs speedup speedup_min speedup_max sweep_rounds;
  let blocked_run (arch, et, space) =
    let t0 = Clock.now_ns () in
    let bb = Tuner.tune_blocked ~et ?space ~jobs:1 arch in
    let wall = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9 in
    Fmt.pr "blocked %s %s: %d candidates, %d blockings in %.3f s@."
      arch.Arch.name (Etype.name et) bb.Tuner.bb_micro_visited
      bb.Tuner.bb_blockings_visited wall;
    Json.Obj
      [
        ("arch", Json.String arch.Arch.name);
        ("precision", Json.String (Etype.name et));
        ("candidates", Json.Int bb.Tuner.bb_micro_visited);
        ("blockings", Json.Int bb.Tuner.bb_blockings_visited);
        ("wall_s", Json.Float wall);
      ]
  in
  let blocked = List.map blocked_run blocked in
  Fmt.pr "@.";
  Json.Obj
    [
      ("experiment", Json.String "sweep");
      ("jobs", Json.Int jobs);
      ( "runs",
        Json.List
          (List.map2
             (fun (arch, k) r ->
               Json.Obj
                 [
                   ("arch", Json.String arch.Arch.name);
                   ("kernel", Json.String (Kernels.name_to_string k));
                   ("visited", Json.Int r.Tuner.visited);
                   ("discarded", Json.Int r.Tuner.discarded);
                   ("fell_back", Json.Bool r.Tuner.fell_back);
                   ( "best_config",
                     Json.String
                       (A.Transform.Pipeline.config_to_string
                          r.Tuner.best.Tuner.cand_config) );
                   ("best_mflops", Json.Float r.Tuner.best_score);
                 ])
             pairs seq_results) );
      ("timings", Json.List timings);
      ("speedup", Json.Float speedup);
      ("speedup_min", Json.Float speedup_min);
      ("speedup_max", Json.Float speedup_max);
      ("blocked", Json.List blocked);
    ]

let all_pairs =
  List.concat_map
    (fun arch ->
      List.map (fun k -> (arch, k))
        Kernels.[ Gemm; Gemv; Axpy; Dot; Ger; Scal; Copy ])
    archs

(* --- correctness gate ------------------------------------------------------ *)

(* Before reporting performance, re-verify every library kernel pair on
   the functional simulator.  A benchmark of wrong code is meaningless. *)
let verify_everything () =
  let failures = ref 0 and total = ref 0 in
  List.iter
    (fun arch ->
      List.iter
        (fun kernel ->
          List.iter
            (fun id ->
              incr total;
              let _, prog = Lib.generate id arch kernel in
              let o = A.Harness.verify kernel prog in
              if not o.A.Harness.ok then begin
                incr failures;
                Fmt.pr "VERIFY FAIL: %s %s on %s: %s@."
                  (Lib.display_name arch id)
                  (Kernels.name_to_string kernel)
                  arch.Arch.name o.A.Harness.detail
              end)
            Lib.all)
        Kernels.[ Gemm; Gemv; Axpy; Dot; Ger ])
    archs;
  if !failures = 0 then
    Fmt.pr
      "verification gate: all %d library/kernel/arch combinations match the \
       reference BLAS on the functional simulator@.@."
      !total
  else exit 1

(* --- ablations -------------------------------------------------------------- *)

(* Each design choice the paper (and DESIGN.md) credits is switched off
   in isolation and the predicted performance re-measured. *)

let ablations () =
  Fmt.pr "== Ablations (AUGEM design choices, predicted MFLOPS) ==@.";
  let pipeline = A.Transform.Pipeline.default in
  let gen ?opts arch config kernel =
    (A.generate ?opts ~arch ~config kernel).A.g_program
  in
  let gemm_w = Perf.W_gemm { m = 4096; n = 4096; k = 256 } in
  let axpy_w = Perf.W_axpy { n = 150_000 } in
  let dot_w = Perf.W_dot { n = 150_000 } in
  let pf d = Some { A.Transform.Prefetch.pf_distance = d; pf_stores = true } in
  List.iter
    (fun arch ->
      Fmt.pr "--- %s ---@." arch.Arch.name;
      let p est = est.Perf.e_mflops in
      (* 1. register blocking (unroll&jam) *)
      let blocked = gen arch { pipeline with jam = [ ("j", 4); ("i", 8) ] } Kernels.Gemm in
      let scalar1 = gen arch { pipeline with jam = [ ("j", 1); ("i", 1) ] } Kernels.Gemm in
      Fmt.pr "%-44s %8.0f -> %8.0f@." "gemm: 1x1 -> 4x8 register blocking"
        (p (Perf.predict arch scalar1 gemm_w))
        (p (Perf.predict arch blocked gemm_w));
      (* 2. software prefetch (Level-1, streaming) *)
      let axpy_pf = gen arch { pipeline with inner_unroll = Some ("i", 8); prefetch = pf 8 } Kernels.Axpy in
      let axpy_nopf = gen arch { pipeline with inner_unroll = Some ("i", 8); prefetch = None } Kernels.Axpy in
      Fmt.pr "%-44s %8.0f -> %8.0f@." "axpy: without -> with software prefetch"
        (p (Perf.predict arch axpy_nopf axpy_w))
        (p (Perf.predict arch axpy_pf axpy_w));
      (* 3. reduction accumulator expansion (DOT) *)
      let dot_chain = gen arch { pipeline with inner_unroll = Some ("i", 8) } Kernels.Dot in
      let dot_exp = gen arch { pipeline with inner_unroll = Some ("i", 8); expand_reduction = Some 8 } Kernels.Dot in
      Fmt.pr "%-44s %8.0f -> %8.0f@." "dot: serial chain -> expanded accumulators"
        (p (Perf.predict arch dot_chain dot_w))
        (p (Perf.predict arch dot_exp dot_w));
      (* 4. FMA instruction selection *)
      (if arch.Arch.fma <> Arch.No_fma then begin
         let no_fma = { arch with Arch.name = arch.Arch.name ^ "-nofma"; fma = Arch.No_fma } in
         let with_fma = gen arch { pipeline with jam = [ ("j", 4); ("i", 8) ] } Kernels.Gemm in
         let without = gen no_fma { pipeline with jam = [ ("j", 4); ("i", 8) ] } Kernels.Gemm in
         Fmt.pr "%-44s %8.0f -> %8.0f@." "gemm: Mul+Add -> FMA3 selection"
           (p (Perf.predict no_fma without gemm_w))
           (p (Perf.predict arch with_fma gemm_w))
       end);
      (* 5. static instruction scheduling (on an in-order pipe) *)
      let cfg28 = { pipeline with jam = [ ("j", 2); ("i", 8) ] } in
      let unsched =
        A.Codegen.Emit.generate ~arch
          (A.Transform.Pipeline.apply (Kernels.kernel_of_name Kernels.Gemm) cfg28)
      in
      let sched = A.Codegen.Schedule.run arch unsched in
      let io = `In_order in
      Fmt.pr "%-44s %8.0f -> %8.0f   (in-order pipe model)@."
        "gemm: unscheduled -> list-scheduled"
        (p (Perf.predict ~pipeline_model:io arch unsched gemm_w))
        (p (Perf.predict ~pipeline_model:io arch sched gemm_w));
      (* 6. Vdup vs Shuf vectorization on the packed-B GEMM (W128) *)
      let packed_cfg = { pipeline with jam = [ ("j", 2); ("i", 2) ] } in
      let optimized = A.Transform.Pipeline.apply A.Ir.Kernels.gemm_packed packed_cfg in
      let make prefer =
        let opts = { A.Codegen.Emit.prefer; max_width = Some A.Machine.Insn.W128 } in
        A.Codegen.Schedule.run arch (A.Codegen.Emit.generate ~arch ~opts optimized)
      in
      let vdup = make A.Codegen.Plan.Prefer_auto in
      let shuf = make A.Codegen.Plan.Prefer_shuf in
      Fmt.pr "%-44s %8.0f vs %8.0f@." "packed gemm (128-bit): Vdup vs Shuf method"
        (p (Perf.predict arch vdup gemm_w))
        (p (Perf.predict arch shuf gemm_w));
      Fmt.pr "@.")
    archs

(* --- portability ------------------------------------------------------------ *)

(* The paper's thesis: the same simple C retargets to new
   architectures with zero manual work.  Beyond the two evaluation
   CPUs, the tuner and instruction selector handle a Haswell-class
   machine (AVX2, dual 256-bit FMA) the framework was never written
   for. *)
let portability () =
  Fmt.pr "== Portability: tuned DGEMM across architectures ==@.";
  Fmt.pr "%-14s %-34s %10s %10s  %s@." "arch" "model" "MFLOPS" "peak"
    "tuned configuration";
  List.iter
    (fun (arch : Arch.t) ->
      let g = A.tuned ~arch Kernels.Gemm in
      let v = A.verify g in
      if not v.A.Harness.ok then begin
        Fmt.pr "VERIFY FAIL on %s@." arch.Arch.name;
        exit 1
      end;
      let est =
        A.predict g (Perf.W_gemm { m = 4096; n = 4096; k = 256 })
      in
      Fmt.pr "%-14s %-34s %10.0f %10.0f  %s@." arch.Arch.name arch.Arch.model
        est.Perf.e_mflops (Arch.peak_mflops arch)
        (A.Transform.Pipeline.config_to_string g.A.g_config))
    Arch.extended;
  Fmt.pr "@."

(* --- serving: cold vs warm ------------------------------------------------ *)

module Service = Augem_service

(* Closed-loop clients against an in-process kernel service, through
   the same [handle_line] path the transports use.  Cold phase: one
   first request per (kernel, arch) key, sequential — each misses both
   tiers and pays a full tuning sweep.  Warm phase: [serve_clients]
   threads each issue [serve_requests] requests round-robin over the
   same keys — each is an in-memory hit.  The headline number is the
   cold/warm mean latency ratio; BENCH_serve.json records both
   distributions plus the server's own stats snapshot, so the artifact
   is self-consistent (requests = cold + warm + 1 stats, tiers.memory =
   warm count). *)

let serve_clients = 4
let serve_requests = 25

(* one-candidate spaces keep the cold sweep cheap without changing what
   is measured (a miss still walks queue -> sweep -> store -> insert) *)
let tiny_space kernel =
  match Tuner.space_for kernel with c :: _ -> [ c ] | [] -> []

let serve_smoke_keys =
  [
    (Kernels.Axpy, Arch.sandy_bridge, tiny_space Kernels.Axpy);
    (Kernels.Dot, Arch.piledriver, tiny_space Kernels.Dot);
  ]

let serve_full_keys =
  List.concat_map
    (fun arch ->
      List.map
        (fun k -> (k, arch, Tuner.space_for k))
        [ Kernels.Axpy; Kernels.Dot; Kernels.Scal; Kernels.Gemv ])
    archs

let tune_line (kernel, (arch : Arch.t), space) : string =
  Json.to_string
    (Service.Proto.request_to_json
       {
         Service.Proto.rq_id = Json.String (Kernels.name_to_string kernel);
         rq_op =
           Service.Proto.Op_tune
             {
               Service.Proto.tq_kernel = kernel;
               tq_arch = arch;
               tq_et = Etype.F64;
               tq_space = (if space = [] then None else Some space);
               tq_deadline_ms = None;
             };
       })

let mean_ms samples =
  if samples = [] then 0.
  else List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let phase_json (samples : float list) : Json.t =
  Json.Obj
    [
      ("count", Json.Int (List.length samples));
      ("mean_ms", Json.Float (mean_ms samples));
      ("max_ms", Json.Float (List.fold_left Float.max 0. samples));
    ]

let serve ~mode keys () : Json.t =
  Fmt.pr "== Serving: cold vs warm request latency ==@.";
  let lines = List.map tune_line keys in
  let server = Service.Server.create () in
  (* latency of one request, on the monotonic clock *)
  let request line =
    let t0 = Clock.now_ns () in
    let reply = Service.Server.handle_line server line in
    let ms = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6 in
    match Json.parse reply with
    | Ok j when Json.member "ok" j = Some (Json.Bool true) -> ms
    | _ -> failwith ("serve: request failed: " ^ reply)
  in
  (* cold: sequential first requests, full sweep each *)
  let cold = List.map request lines in
  (* warm: closed-loop clients over the now-resident keys *)
  let warm_m = Mutex.create () in
  let warm = ref [] in
  let client i =
    let mine =
      List.init serve_requests (fun r ->
          request (List.nth lines ((i + r) mod List.length lines)))
    in
    Mutex.protect warm_m (fun () -> warm := mine @ !warm)
  in
  List.iter Thread.join (List.init serve_clients (Thread.create client));
  let stats =
    match
      Json.parse (Service.Server.handle_line server {|{"id":0,"op":"stats"}|})
    with
    | Ok j -> Option.value (Json.member "stats" j) ~default:Json.Null
    | Error _ -> Json.Null
  in
  Service.Server.drain server;
  let cold_ms = mean_ms cold and warm_ms = mean_ms !warm in
  let speedup = if warm_ms > 0. then cold_ms /. warm_ms else 0. in
  Fmt.pr "%d keys, %d clients x %d requests@." (List.length keys)
    serve_clients serve_requests;
  Fmt.pr "cold  %d requests  mean %.2f ms@." (List.length cold) cold_ms;
  Fmt.pr "warm  %d requests  mean %.3f ms@." (List.length !warm) warm_ms;
  Fmt.pr "warm speedup %.1fx@.@." speedup;
  Json.Obj
    [
      ("experiment", Json.String "serve");
      ("mode", Json.String mode);
      ( "kernels",
        Json.List
          (List.map
             (fun (k, (a : Arch.t), _) ->
               Json.String (Kernels.name_to_string k ^ "@" ^ a.Arch.name))
             keys) );
      ("clients", Json.Int serve_clients);
      ("requests_per_client", Json.Int serve_requests);
      ("cold", phase_json cold);
      ("warm", phase_json !warm);
      ("speedup", Json.Float speedup);
      ("stats", stats);
    ]

(* --- main ------------------------------------------------------------------ *)

type experiment = { name : string; full : unit -> unit; smoke : unit -> unit }

(* One row per experiment: its full grid and its --smoke grid (the same
   run where the experiment has no reduced grid).  An [artifact] row
   writes what its runs return to BENCH_<name>.json.  Rows run in this
   order; [serve] stays last. *)
let experiments =
  let row name ?smoke full =
    { name; full; smoke = Option.value smoke ~default:full }
  in
  let artifact name ?smoke full =
    let write run () = write_json name (run ()) in
    row name ?smoke:(Option.map write smoke) (write full)
  in
  let blocked_sizes = [ 256; 512; 1024; 1536; 2048 ] in
  let blocked_smoke_sizes = [ 256; 512; 1024 ] in
  [
    row "verify" verify_everything;
    row "table5" table5;
    artifact "fig18"
      (fig18 (range 1024 6144 256))
      ~smoke:(fig18 [ 1024; 1536 ]);
    artifact "fig19" (fig19 (range 2048 5120 256));
    artifact "fig20" (fig20 (range 100_000 200_000 5_000));
    artifact "fig21" (fig21 (range 100_000 200_000 5_000));
    artifact "full"
      (full_matrix Etype.F64 blocked_sizes)
      ~smoke:(full_matrix Etype.F64 blocked_smoke_sizes);
    artifact "full_f32"
      (full_matrix Etype.F32 blocked_sizes)
      ~smoke:(full_matrix Etype.F32 blocked_smoke_sizes);
    artifact "table6" table6;
    artifact "sweep"
      (tuning_sweep
         ~blocked:
           [ (Arch.haswell, Etype.F64, None); (Arch.haswell, Etype.F32, None) ]
         all_pairs)
      ~smoke:
        (tuning_sweep
           ~blocked:
             [
               ( Arch.sandy_bridge,
                 Etype.F64,
                 Some
                   (List.filteri
                      (fun i _ -> i < 4)
                      (Tuner.space_for Kernels.Gemm)) );
             ]
           [
             (Arch.sandy_bridge, Kernels.Axpy); (Arch.piledriver, Kernels.Dot);
           ]);
    artifact "native"
      (native_bench ~rank_k:1024 [ 256; 512; 1024 ])
      ~smoke:(native_bench ~rank_k:256 [ 128; 256 ]);
    row "ablations" ablations;
    row "portability" portability;
    artifact "serve"
      (serve ~mode:"full" serve_full_keys)
      ~smoke:(serve ~mode:"smoke" serve_smoke_keys);
  ]

let () =
  let names = List.map (fun e -> e.name) experiments in
  let usage =
    "bench/main.exe [--json-out DIR] [--jobs N] [--smoke] [EXPERIMENT...]\n\
     experiments (default: all): " ^ String.concat " " names
  in
  let smoke = ref false in
  let selected = ref [] in
  Arg.parse
    [
      ( "--json-out",
        Arg.Set_string json_out,
        "DIR  write BENCH_*.json artifacts into DIR (default: .)" );
      ( "--jobs",
        Arg.Set_int jobs_flag,
        "N  tuning-sweep parallelism (default: recommended domain count)" );
      ("--smoke", Arg.Set smoke, "  run each experiment's reduced grid");
    ]
    (fun name ->
      if List.mem name names then selected := name :: !selected
      else
        raise
          (Arg.Bad
             (Printf.sprintf "unknown experiment %S (valid: %s)" name
                (String.concat ", " names))))
    usage;
  jobs_flag := max 1 !jobs_flag;
  Tuner.set_jobs !jobs_flag;
  Fmt.pr "AUGEM reproduction benchmark harness@.";
  Fmt.pr "(modelled CPUs; shapes reproduce the paper's figures/tables)@.@.";
  List.iter
    (fun e ->
      if !selected = [] || List.mem e.name !selected then
        (if !smoke then e.smoke else e.full) ())
    experiments
