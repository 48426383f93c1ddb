(* Empirical tuning of the Optimized C Kernel Generator's parameters
   (paper section 2.1: "our Optimized C Kernel Generator automatically
   experiments with different unrolling and unroll&jam configurations
   and selects the best performing configurations based on the
   performance of their optimized code").

   The performance feedback is the cycle-level model of the generated
   assembly on the target architecture (the substitution for the
   paper's wall-clock measurements, documented in DESIGN.md).

   Robustness contract: the sweep must survive arbitrary broken
   candidates — a tuning run over a hostile search space discards, it
   never crashes and never hangs.  Every discarded candidate is
   recorded as a structured Diag.t (error code, stage, kernel, arch,
   config) instead of a bare counter; candidates whose programs blow a
   step budget are discarded before the (program-length-proportional)
   scoring model runs; and a fully-discarded space degrades to a safe
   baseline configuration instead of raising. *)

open Augem_ir
open Augem_transform
module Arch = Augem_machine.Arch
module Insn = Augem_machine.Insn
module Etype = Augem_machine.Etype
module Diag = Augem_verify.Diag
module Team = Augem_parallel.Team

type candidate = {
  cand_config : Pipeline.config;
  cand_opts : Augem_driver.Emit.options;
}

(* The IR precision a scalar element type selects; [None] keeps the
   built-in (f64) kernel text, so f64 sweeps are bit-identical to the
   pre-precision tuner. *)
let fp_of_et : Etype.t -> Ast.dtype option = function
  | Etype.F32 -> Some Ast.Float
  | Etype.F64 -> None

(* The element type of a kernel's own parameter list: diagnostics and
   the performance model follow the kernel, not a separate flag. *)
let et_of_kernel (kernel : Ast.kernel) : Etype.t =
  match
    Ast.fp_type_of_params kernel.Ast.k_params ~p_type:(fun p -> p.Ast.p_type)
  with
  | Ast.Float -> Etype.F32
  | _ -> Etype.F64

let fp_of_kernel (kernel : Ast.kernel) : Ast.dtype option =
  fp_of_et (et_of_kernel kernel)

type result = {
  best : candidate;
  best_program : Insn.program;
  best_score : float; (* predicted MFLOPS on the reference workload *)
  ties : candidate list;
      (* every candidate scoring exactly [best_score], in space order,
         [best] first; no programs, since a result is cached and served
         and only [Native_blocked.load] builds them ([tie_programs]) *)
  visited : int;
  discarded : int; (* register-pressure or generation failures *)
  fell_back : bool; (* the safe baseline was used (space fully discarded) *)
  failures : Diag.t list; (* one record per discarded candidate *)
  failure_histogram : (string * int) list; (* failure counts by code *)
}

let log_src = Logs.Src.create "augem.tuner" ~doc:"AUGEM auto-tuner"

module Log = (val Logs.src_log log_src)

(* --- search spaces ------------------------------------------------------ *)

(* Prefetching variants first, so the first-seen maximum picks one on a
   score tie.  Ties are common: for compute-bound GEMM the model's
   memory leg is negligible, and it scores the prefetch distances of
   the streaming kernels alike.  The order is no claim about speed: on
   an AVX-512 Xeon the prefetch-free GEMM micro-kernel and the wider
   packing copies ran faster than these first picks, so the model's
   exact ties are broken by the clock when a plan is loaded natively
   (see [Native_blocked.load]). *)
let prefetch_opts =
  [ Some { Prefetch.pf_distance = 8; pf_stores = true };
    Some { Prefetch.pf_distance = 4; pf_stores = true };
    None ]

let gemm_space ?(packed = false) () : candidate list =
  let strategies =
    if packed then [ Augem_codegen.Plan.Prefer_auto; Augem_codegen.Plan.Prefer_shuf ]
    else [ Augem_codegen.Plan.Prefer_auto ]
  in
  List.concat_map
    (fun j ->
      List.concat_map
        (fun i ->
          List.concat_map
            (fun pf ->
              List.map
                (fun prefer ->
                  {
                    cand_config =
                      { Pipeline.default with jam = [ ("j", j); ("i", i) ];
                        prefetch = pf };
                    cand_opts =
                      { Augem_driver.Emit.default_options with prefer };
                  })
                strategies)
            prefetch_opts)
        [ 4; 8; 12; 16 ])
    [ 1; 2; 4; 6 ]

let vector_space loop_var ~expand () : candidate list =
  List.concat_map
    (fun u ->
      List.map
        (fun pf ->
          {
            cand_config =
              {
                Pipeline.default with
                inner_unroll = Some (loop_var, u);
                expand_reduction = (if expand then Some u else None);
                prefetch = pf;
              };
            cand_opts = Augem_driver.Emit.default_options;
          })
        prefetch_opts)
    [ 2; 4; 8; 16 ]

let space_for (k : Kernels.name) : candidate list =
  match k with
  | Kernels.Gemm -> gemm_space ()
  | Kernels.Gemv -> vector_space "j" ~expand:false ()
  | Kernels.Axpy -> vector_space "i" ~expand:false ()
  | Kernels.Dot -> vector_space "i" ~expand:true ()
  | Kernels.Ger -> vector_space "i" ~expand:false ()
  | Kernels.Scal -> vector_space "i" ~expand:false ()
  | Kernels.Copy -> vector_space "i" ~expand:false ()
  (* packing kernels are straight copies: unroll the unit-stride inner
     copy loop (i for pack-A, l for pack-B), no reduction to expand *)
  | Kernels.Pack_a -> vector_space "i" ~expand:false ()
  | Kernels.Pack_b -> vector_space "l" ~expand:false ()

(* The graceful-degradation configuration: no unroll&jam, no unrolling,
   no prefetching — just the always-safe scalar passes.  Every kernel
   generates under it on every modelled architecture, so a sweep whose
   whole space is discarded still returns working code. *)
let safe_baseline : candidate =
  {
    cand_config = { Pipeline.default with prefetch = None };
    cand_opts = Augem_driver.Emit.default_options;
  }

(* Reference workload per kernel (a representative point of the
   evaluation sweeps). *)
let reference_workload (k : Kernels.name) : Augem_sim.Perf.workload =
  match k with
  | Kernels.Gemm -> Augem_sim.Perf.W_gemm { m = 4096; n = 4096; k = 256 }
  | Kernels.Gemv -> Augem_sim.Perf.W_gemv { m = 4096; n = 4096 }
  | Kernels.Axpy -> Augem_sim.Perf.W_axpy { n = 150_000 }
  | Kernels.Dot -> Augem_sim.Perf.W_dot { n = 150_000 }
  | Kernels.Ger -> Augem_sim.Perf.W_gemv { m = 4096; n = 4096 }
  | Kernels.Scal -> Augem_sim.Perf.W_axpy { n = 150_000 }
  | Kernels.Copy -> Augem_sim.Perf.W_axpy { n = 150_000 }
  (* packing is a pure streaming copy; score it like DCOPY *)
  | Kernels.Pack_a -> Augem_sim.Perf.W_axpy { n = 150_000 }
  | Kernels.Pack_b -> Augem_sim.Perf.W_axpy { n = 150_000 }

(* --- the loop ----------------------------------------------------------- *)

exception No_viable_configuration of string

(* Step budget: candidates whose generated programs exceed this many
   instructions are discarded before scheduling analysis and the cycle
   model run on them.  Scoring cost is proportional to program length,
   so without the budget one pathological configuration (a huge unroll
   product) can stall the whole sweep. *)
let default_max_insns = 20_000

let diag_of_generation_exn (exn : exn) : Diag.code * string =
  match exn with
  | Augem_codegen.Regfile.Out_of_registers m -> (Diag.E_out_of_registers, m)
  | Augem_codegen.Gpralloc.Gpr_error m -> (Diag.E_gpr_pressure, m)
  | Augem_codegen.Ctx.Codegen_error m -> (Diag.E_codegen, m)
  | Augem_transform.Strength_reduction.Reduction_error m ->
      (Diag.E_strength_reduction, m)
  | Unroll.Unroll_error m -> (Diag.E_unroll, m)
  | Typecheck.Type_error m -> (Diag.E_type_error, m)
  | Augem_analysis.Asmcheck.Lint_error (name, fs) ->
      ( Diag.E_lint,
        Printf.sprintf "%s: %s" name
          (String.concat "; "
             (List.map Augem_analysis.Asmcheck.finding_to_string fs)) )
  | exn -> (Diag.code_of_exn exn, Printexc.to_string exn)

(* Generate one candidate, classifying every failure — including
   exceptions nobody anticipated — instead of letting them abort the
   sweep.  [Lower.program] folds [Lower.run]'s stage list with its
   checks (type check, instruction budget after emit-frame, the lint
   gate on schedule) but builds no trace: a sweep reads only the
   program or the failing stage's name. *)
let generate_candidate_diag (arch : Arch.t) ?(max_insns = default_max_insns)
    (kname : Kernels.name) (kernel : Ast.kernel) (c : candidate) :
    (Insn.program, Diag.t) Stdlib.result =
  let fp = fp_of_kernel kernel in
  let mk ?stage_name code stage detail =
    Diag.make ?stage_name ~code ~stage
      ~kernel:(Kernels.name_to_string ?fp kname)
      ~arch:arch.Arch.name
      ~config:(Pipeline.config_to_string c.cand_config)
      ~detail ()
  in
  let opts =
    {
      Augem_driver.Lower.default_opts with
      Augem_driver.Lower.prefer = c.cand_opts.Augem_driver.Emit.prefer;
      max_width = c.cand_opts.Augem_driver.Emit.max_width;
      max_insns = Some max_insns;
      lint = true;
      schedule = true;
    }
  in
  match
    Augem_driver.Lower.program ~opts ~arch ~config:c.cand_config kernel
  with
  | prog -> Ok prog
  | exception Augem_driver.Lower.Budget_exceeded { stage; len; budget } ->
      Error
        (mk ~stage_name:stage Diag.E_budget_exceeded Diag.S_codegen
           (Printf.sprintf "%d instructions > budget %d" len budget))
  | exception
      Augem_driver.Lower.Stage_failed
        (sname, Augem_analysis.Asmcheck.Lint_error (_, errs)) ->
      (* the static gate on the scheduled program: a candidate the
         checker rejects is discarded like any other structured
         failure, never an exception out of the sweep *)
      Error
        (mk ~stage_name:sname Diag.E_lint Diag.S_asmcheck
           (String.concat "; "
              (List.map Augem_analysis.Asmcheck.finding_to_string errs)))
  | exception Augem_driver.Lower.Stage_failed (sname, exn) ->
      let code, detail = diag_of_generation_exn exn in
      let stage =
        match exn with
        | Unroll.Unroll_error _ | Typecheck.Type_error _
        | Augem_transform.Strength_reduction.Reduction_error _ ->
            Diag.S_pipeline
        | Augem_analysis.Asmcheck.Lint_error _ -> Diag.S_asmcheck
        | _ -> Diag.S_codegen
      in
      Error (mk ~stage_name:sname code stage detail)
  | exception exn ->
      let code, detail = diag_of_generation_exn exn in
      Error (mk code Diag.S_codegen detail)

let score_diag ?(et = Etype.F64) (arch : Arch.t) (kname : Kernels.name)
    (c : candidate) (prog : Insn.program) (w : Augem_sim.Perf.workload) :
    (float, Diag.t) Stdlib.result =
  let mk code detail =
    Diag.make ~code ~stage:Diag.S_score
      ~kernel:(Kernels.name_to_string ?fp:(fp_of_et et) kname)
      ~arch:arch.Arch.name
      ~config:(Pipeline.config_to_string c.cand_config)
      ~detail ()
  in
  match Augem_sim.Perf.predict ~et arch prog w with
  | e -> Ok e.Augem_sim.Perf.e_mflops
  | exception Augem_sim.Perf.No_hot_loop m -> Error (mk Diag.E_no_hot_loop m)
  | exception exn ->
      Error (mk (Diag.code_of_exn exn) (Printexc.to_string exn))

(* Process-wide sweep parallelism: [tune ~jobs] overrides per call;
   [set_jobs] (or the AUGEM_JOBS environment variable) sets the default
   for every sweep, including the internal ones behind the library
   models.  1 = fully sequential, no domain ever spawned. *)
let default_jobs_ref =
  ref
    (match Option.bind (Sys.getenv_opt "AUGEM_JOBS") int_of_string_opt with
    | Some j when j >= 1 -> j
    | _ -> 1)

let set_jobs j = default_jobs_ref := max 1 j
let jobs () = !default_jobs_ref

(* One candidate, generated and scored: the unit of parallel work.
   Pure — all pipeline/codegen/model state is per call — so shards of
   the space can evaluate on separate domains. *)
let evaluate_candidate (arch : Arch.t) ~max_insns (name : Kernels.name)
    (kernel : Ast.kernel) (workload : Augem_sim.Perf.workload)
    (cand : candidate) : (Insn.program * float, Diag.t) Stdlib.result =
  match generate_candidate_diag arch ~max_insns name kernel cand with
  | Error d -> Error d
  | Ok prog -> (
      match
        score_diag ~et:(et_of_kernel kernel) arch name cand prog workload
      with
      | Error d -> Error d
      | Ok s -> Ok (prog, s))

(* One step of the sweep's selection fold over [(score, members)],
   members newest first: the first-seen maximum stays the answer, and
   every later candidate with exactly its score joins its tie set.  A
   NaN score equals nothing, so it replaces the answer as it always
   has. *)
let keep_ties best s member =
  match best with
  | Some (s', _) when s' > s -> best
  | Some (s', ties) when s' = s -> Some (s', member :: ties)
  | _ -> Some (s, [ member ])

let tune ?(et = Etype.F64) ?(workload : Augem_sim.Perf.workload option)
    ?(space : candidate list option) ?(max_insns = default_max_insns)
    ?(jobs : int option) (arch : Arch.t) (name : Kernels.name) : result =
  let kernel = Kernels.kernel_of_name ?fp:(fp_of_et et) name in
  let workload =
    match workload with Some w -> w | None -> reference_workload name
  in
  let space = match space with Some s -> s | None -> space_for name in
  let jobs = match jobs with Some j -> max 1 j | None -> !default_jobs_ref in
  let visited = ref 0 in
  let failures = ref [] in
  let best = ref None in
  let record d =
    failures := d :: !failures;
    Log.debug (fun m -> m "discard: %s" (Diag.to_string d))
  in
  (* Shard the embarrassingly-parallel part (candidate evaluation)
     across domains; Team.map returns per-candidate outcomes in
     candidate order.  The order-sensitive part — the first-seen-
     maximum tie-break the prefetch_opts ordering depends on, and the
     sweep-ordered failure list — stays a sequential fold over that
     ordered list, so ~jobs:n is bit-identical to ~jobs:1. *)
  let evaluated =
    Team.map ~jobs (evaluate_candidate arch ~max_insns name kernel workload)
      space
  in
  List.iter2
    (fun cand outcome ->
      incr visited;
      match outcome with
      | Error d -> record d
      | Ok (prog, s) ->
          Log.debug (fun m ->
              m "%s/%s %s -> %.0f MFLOPS" arch.Arch.name
                (Kernels.name_to_string ?fp:(fp_of_et et) name)
                (Pipeline.config_to_string cand.cand_config)
                s);
          best := keep_ties !best s (cand, prog))
    space evaluated;
  let failures_list = List.rev !failures in
  let finish ~fell_back (s, ties) =
    let cand, prog = List.hd ties in
    {
      best = cand;
      best_program = prog;
      best_score = s;
      ties = List.map fst ties;
      visited = !visited;
      discarded = List.length failures_list;
      fell_back;
      failures = failures_list;
      failure_histogram = Diag.histogram failures_list;
    }
  in
  match !best with
  | Some (s, rev_ties) -> finish ~fell_back:false (s, List.rev rev_ties)
  | None -> (
      (* Graceful degradation: the whole space was discarded.  Fall
         back to the safe baseline rather than raising — a library
         build wants a slow kernel over no kernel. *)
      Log.warn (fun m ->
          m "%s/%s: all %d candidates discarded; falling back to baseline"
            arch.Arch.name
            (Kernels.name_to_string ?fp:(fp_of_et et) name)
            !visited);
      (* the baseline is generated under the default step budget, not
         the caller's: a tight [max_insns] is a candidate filter, and
         must not take the known-small fallback down with it *)
      match
        generate_candidate_diag arch ~max_insns:default_max_insns name kernel
          safe_baseline
      with
      | Ok prog ->
          let s =
            match score_diag ~et arch name safe_baseline prog workload with
            | Ok s -> s
            | Error _ -> 0.0
          in
          finish ~fell_back:true (s, [ (safe_baseline, prog) ])
      | Error d ->
          (* even the baseline will not generate: a genuinely broken
             kernel/arch pair, the one case that still raises *)
          raise
            (No_viable_configuration
               (Printf.sprintf "%s on %s (baseline also failed: %s)"
                  (Kernels.name_to_string ?fp:(fp_of_et et) name)
                  arch.Arch.name (Diag.to_string d))))

(* The members of [r]'s exact-tie set with their programs: the answer's
   own, and the others regenerated.  Generation is deterministic, so
   each is the program the sweep scored.  [Native_blocked.load], which
   times the members, is the one place that builds them. *)
let tie_programs ?(et = Etype.F64) (arch : Arch.t) (name : Kernels.name)
    (r : result) : (candidate * Insn.program) list =
  let kernel = Kernels.kernel_of_name ?fp:(fp_of_et et) name in
  (r.best, r.best_program)
  :: List.filter_map
       (fun c ->
         generate_candidate_diag arch name kernel c
         |> Result.to_option
         |> Option.map (fun prog -> (c, prog)))
       (List.tl r.ties)

(* --- memoized tuning (in-memory L1 + persistent on-disk L2) ------------- *)

(* Bump whenever the sweep's semantics or the marshalled result layout
   change: old on-disk entries then stop being found (their content
   address changes) instead of being misread.  It also guards the
   marshalled [Blocked.plan] layout, which the service persists under
   the same addresses.  5: blocked-GEMM search dimensions and the
   E_strength_reduction diagnostic code (Diag is part of the
   marshalled result).  6: the exact-tie sets in [result] and in the
   plan.  7: the plan holds its packing and SCAL kernels as their
   sweeps' results. *)
let tuner_version = "7"

let candidate_fingerprint (c : candidate) : string =
  let prefer =
    match c.cand_opts.Augem_driver.Emit.prefer with
    | Augem_codegen.Plan.Prefer_auto -> "auto"
    | Augem_codegen.Plan.Prefer_vdup -> "vdup"
    | Augem_codegen.Plan.Prefer_shuf -> "shuf"
  in
  let width =
    match c.cand_opts.Augem_driver.Emit.max_width with
    | None -> "native"
    | Some Insn.W64 -> "w64"
    | Some Insn.W128 -> "w128"
    | Some Insn.W256 -> "w256"
  in
  Printf.sprintf "%s|prefer=%s|width=%s"
    (Pipeline.config_to_string c.cand_config)
    prefer width

(* The search-space fingerprint in the cache key: two sweeps share an
   entry only if they would explore the same candidates in the same
   order. *)
let space_fingerprint (space : candidate list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map candidate_fingerprint space)))

(* --- cache-tier accounting ---------------------------------------------- *)

(* One event per tier decision of [tuned] (and of any other cache built
   on the same fingerprint scheme, via [notify_cache_event]): the tune
   CLI and the serving metrics both subscribe here instead of scraping
   their own counters. *)
type cache_event =
  | Ev_memory_hit
  | Ev_disk_hit
  | Ev_disk_miss
  | Ev_disk_corrupt of Diag.t
  | Ev_swept
  | Ev_store
  | Ev_store_error of Diag.t

let cache_event_to_string = function
  | Ev_memory_hit -> "memory-hit"
  | Ev_disk_hit -> "disk-hit"
  | Ev_disk_miss -> "disk-miss"
  | Ev_disk_corrupt d -> "disk-corrupt: " ^ Diag.to_string d
  | Ev_swept -> "swept"
  | Ev_store -> "store"
  | Ev_store_error d -> "store-error: " ^ Diag.to_string d

type cache_observer = arch:string -> kernel:string -> cache_event -> unit

let observer_mutex = Mutex.create ()
let observer : cache_observer option ref = ref None

let set_cache_observer o =
  Mutex.protect observer_mutex (fun () -> observer := o)

let notify_cache_event ~arch ~kernel (ev : cache_event) : unit =
  match Mutex.protect observer_mutex (fun () -> !observer) with
  | None -> ()
  | Some f -> ( try f ~arch ~kernel ev with _ -> ())

(* Process-wide persistent-cache location: [set_cache_dir] (or the
   AUGEM_CACHE_DIR environment variable); None disables the disk
   layer, and so does an empty name ([AUGEM_CACHE_DIR=]), which names
   no directory a store could create. *)
let no_empty_dir = function Some "" -> None | d -> d
let cache_dir_ref = ref (no_empty_dir (Sys.getenv_opt "AUGEM_CACHE_DIR"))
let set_cache_dir d = cache_dir_ref := no_empty_dir d
let cache_dir () = !cache_dir_ref

(* In-memory memo table, keyed by (arch, kernel, space fingerprint) —
   the fingerprint keeps a caller-supplied space from ever answering
   for the default one.  Guarded by a mutex: [tuned] may be called
   from concurrent domains (two sweeps racing on one key both tune and
   both store — wasteful but correct, because tuning is
   deterministic). *)
let cache : (string * string * string, result) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let tuned ?(et = Etype.F64) ?jobs ?cache_dir:cdir ?space (arch : Arch.t)
    (name : Kernels.name) : result =
  let kernel_s = Kernels.name_to_string ?fp:(fp_of_et et) name in
  let space = match space with Some s -> s | None -> space_for name in
  let fingerprint = space_fingerprint space in
  let key = (arch.Arch.name, kernel_s, fingerprint) in
  let notify ev = notify_cache_event ~arch:arch.Arch.name ~kernel:kernel_s ev in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key) with
  | Some r ->
      notify Ev_memory_hit;
      r
  | None -> (
      let dir = match cdir with Some _ as d -> d | None -> !cache_dir_ref in
      let ckey =
        Option.map
          (fun dir ->
            let keydesc =
              Cache.keydesc ~version:tuner_version ~arch:arch.Arch.name
                ~kernel:kernel_s ~fingerprint
            in
            let digest =
              Cache.digest ~version:tuner_version ~arch:arch.Arch.name
                ~kernel:kernel_s ~fingerprint
            in
            (dir, keydesc, digest))
          dir
      in
      let remember (r : result) =
        Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key r)
      in
      let from_disk =
        match ckey with
        | None -> None
        | Some (dir, keydesc, digest) -> (
            match
              Cache.load ~dir ~arch:arch.Arch.name ~kernel:kernel_s ~keydesc
                ~digest
            with
            | Cache.Hit (r : result) when not r.fell_back ->
                notify Ev_disk_hit;
                remember r;
                Some r
            | Cache.Hit _ | Cache.Miss ->
                (* a persisted fallback result (foreign writer / older
                   version) must not poison this process: re-tune *)
                notify Ev_disk_miss;
                None
            | Cache.Corrupt d ->
                notify (Ev_disk_corrupt d);
                Log.warn (fun m -> m "%s" (Diag.to_string d));
                None)
      in
      match from_disk with
      | Some r -> r
      | None ->
          let r = tune ~et ?jobs ~space arch name in
          notify Ev_swept;
          (* Never memoize or persist a fallback result: a sweep that
             degraded (e.g. under a hostile space or a transient
             budget) must not poison later callers with the slow
             baseline. *)
          if not r.fell_back then begin
            remember r;
            match ckey with
            | None -> ()
            | Some (dir, keydesc, digest) -> (
                match
                  Cache.store ~dir ~arch:arch.Arch.name ~kernel:kernel_s
                    ~keydesc ~digest r
                with
                | None -> notify Ev_store
                | Some d ->
                    notify (Ev_store_error d);
                    Log.warn (fun m -> m "%s" (Diag.to_string d)))
          end;
          r)

(* --- blocked GEMM: micro candidates x MC/KC/NC blocking triples ---------- *)

module Mem_model = Augem_sim.Mem_model

(* The register tile a candidate's unroll&jam configuration produces:
   MR from the i-jam factor, NR from the j-jam factor (the GEMM space
   jams both).  The cache blocks must decompose into this tile. *)
let register_tile (c : candidate) : int * int =
  let factor v =
    match List.assoc_opt v c.cand_config.Pipeline.jam with
    | Some f when f > 0 -> f
    | _ -> 1
  in
  (factor "i", factor "j")

(* Best blocking for one generated micro-kernel under the blocked-GEMM
   performance model: scores every triple in
   {!Mem_model.blocking_candidates} with {!Perf.predict_blocked} and
   keeps the first-seen maximum (the analytically-derived triple is
   first, so it wins score ties). *)
let select_blocking ~(et : Etype.t) (arch : Arch.t) (c : candidate)
    (prog : Insn.program) (w : Augem_sim.Perf.workload) :
    (Mem_model.blocking * float * int, Diag.t) Stdlib.result =
  let mr, nr = register_tile c in
  let blockings = Mem_model.blocking_candidates ~et arch ~mr ~nr in
  let best =
    List.fold_left
      (fun acc b ->
        match Augem_sim.Perf.predict_blocked ~et arch prog ~blocking:b w with
        | e -> (
            let s = e.Augem_sim.Perf.e_mflops in
            match acc with
            | Some (_, s') when s' >= s -> acc
            | _ -> Some (b, s))
        | exception Augem_sim.Perf.No_hot_loop _ -> acc)
      None blockings
  in
  match best with
  | Some (b, s) -> Ok (b, s, List.length blockings)
  | None ->
      Error
        (Diag.make ~code:Diag.E_no_hot_loop ~stage:Diag.S_score
           ~kernel:"gemm_blocked" ~arch:arch.Arch.name
           ~config:(Pipeline.config_to_string c.cand_config)
           ~detail:"no blocking scored: hot loop not analyzable" ())

type blocked_member = {
  bm_candidate : candidate;
  bm_program : Insn.program;  (** its generated micro-kernel *)
  bm_blocking : Mem_model.blocking;  (** its best MC/KC/NC triple *)
  bm_mr : int;
  bm_nr : int;
}

type blocked_result = {
  bb_ties : blocked_member list;
      (** every member scoring exactly [bb_blocked_score], in space
          order, the first-seen maximum first *)
  bb_blocked_score : float;
  bb_streamed_score : float;
  bb_micro_visited : int;
  bb_blockings_visited : int;  (** total (candidate, blocking) pairs *)
  bb_discarded : int;
  bb_failures : Diag.t list;
  bb_failure_histogram : (string * int) list;
}

(* One candidate of the blocked cross-product: generate the
   micro-kernel, then pick its best blocking.  Pure, so the space
   shards across domains exactly like [tune]'s. *)
let evaluate_blocked_candidate (arch : Arch.t) ~max_insns
    (kernel : Ast.kernel) (w : Augem_sim.Perf.workload) (cand : candidate) :
    (Insn.program * Mem_model.blocking * float * int, Diag.t) Stdlib.result =
  match generate_candidate_diag arch ~max_insns Kernels.Gemm kernel cand with
  | Error d -> Error d
  | Ok prog -> (
      match select_blocking ~et:(et_of_kernel kernel) arch cand prog w with
      | Error d -> Error d
      | Ok (b, s, visited) -> Ok (prog, b, s, visited))

(* Tune the full blocked DGEMM: the micro-kernel configuration space
   crossed with the cache-blocking triples each configuration's
   register tile admits — the MC/KC/NC dimensions of the search space
   the blocked driver adds.  Selection is the first-seen maximum over
   the cross-product in space order (bit-identical for every [?jobs]),
   scored by {!Augem_sim.Perf.predict_blocked} on [workload], with its
   exact-tie set; the result also carries the
   {!Augem_sim.Perf.predict_streamed} score of the winner, the unblocked
   baseline the blocked driver is gated against. *)
let tune_blocked ?(et = Etype.F64)
    ?(workload : Augem_sim.Perf.workload option)
    ?(space : candidate list option) ?(max_insns = default_max_insns)
    ?(jobs : int option) (arch : Arch.t) : blocked_result =
  let w =
    match workload with
    | Some w -> w
    | None -> reference_workload Kernels.Gemm
  in
  (match w with
  | Augem_sim.Perf.W_gemm _ -> ()
  | _ -> invalid_arg "Tuner.tune_blocked: workload must be W_gemm");
  let kernel = Kernels.kernel_of_name ?fp:(fp_of_et et) Kernels.Gemm in
  let space =
    match space with Some s -> s | None -> space_for Kernels.Gemm
  in
  let jobs = match jobs with Some j -> max 1 j | None -> !default_jobs_ref in
  let evaluated =
    Team.map ~jobs (evaluate_blocked_candidate arch ~max_insns kernel w) space
  in
  let failures = ref [] in
  let best = ref None in
  let blockings_visited = ref 0 in
  let member cand prog blocking =
    let mr, nr = register_tile cand in
    {
      bm_candidate = cand;
      bm_program = prog;
      bm_blocking = blocking;
      bm_mr = mr;
      bm_nr = nr;
    }
  in
  List.iter2
    (fun cand outcome ->
      match outcome with
      | Error d -> failures := d :: !failures
      | Ok (prog, b, s, visited) ->
          blockings_visited := !blockings_visited + visited;
          best := keep_ties !best s (member cand prog b))
    space evaluated;
  let failures_list = List.rev !failures in
  let finish (s, ties) =
    let best = List.hd ties in
    let streamed =
      match
        Augem_sim.Perf.predict_streamed ~et arch best.bm_program ~nr:best.bm_nr
          w
      with
      | e -> e.Augem_sim.Perf.e_mflops
      | exception Augem_sim.Perf.No_hot_loop _ -> 0.0
    in
    {
      bb_ties = ties;
      bb_blocked_score = s;
      bb_streamed_score = streamed;
      bb_micro_visited = List.length space;
      bb_blockings_visited = !blockings_visited;
      bb_discarded = List.length failures_list;
      bb_failures = failures_list;
      bb_failure_histogram = Diag.histogram failures_list;
    }
  in
  match !best with
  | Some (s, rev_ties) -> finish (s, List.rev rev_ties)
  | None -> (
      (* same graceful degradation as [tune]: a discarded cross-product
         falls back to the safe baseline and the derived blocking *)
      Log.warn (fun m ->
          m "%s/gemm blocked: all %d candidates discarded; falling back"
            arch.Arch.name (List.length space));
      match
        generate_candidate_diag arch ~max_insns:default_max_insns Kernels.Gemm
          kernel safe_baseline
      with
      | Ok prog ->
          let mr, nr = register_tile safe_baseline in
          let blocking = Mem_model.derive_blocking ~et arch ~mr ~nr in
          let s =
            match Augem_sim.Perf.predict_blocked ~et arch prog ~blocking w with
            | e -> e.Augem_sim.Perf.e_mflops
            | exception Augem_sim.Perf.No_hot_loop _ -> 0.0
          in
          finish (s, [ member safe_baseline prog blocking ])
      | Error d ->
          raise
            (No_viable_configuration
               (Printf.sprintf "blocked gemm on %s (baseline also failed: %s)"
                  arch.Arch.name (Diag.to_string d))))
