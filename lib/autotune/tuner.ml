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

let gemm_space : candidate list =
  List.concat_map
    (fun j ->
      List.concat_map
        (fun i ->
          List.map
            (fun pf ->
              {
                cand_config =
                  { Pipeline.default with jam = [ ("j", j); ("i", i) ];
                    prefetch = pf };
                cand_opts = Augem_driver.Emit.default_options;
              })
            prefetch_opts)
        [ 4; 8; 12; 16 ])
    [ 1; 2; 4; 6 ]

let vector_space loop_var ~expand : candidate list =
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
  | Kernels.Gemm -> gemm_space
  | Kernels.Gemv -> vector_space "j" ~expand:false
  | Kernels.Axpy -> vector_space "i" ~expand:false
  | Kernels.Dot -> vector_space "i" ~expand:true
  | Kernels.Ger -> vector_space "i" ~expand:false
  | Kernels.Scal -> vector_space "i" ~expand:false
  | Kernels.Copy -> vector_space "i" ~expand:false
  (* packing kernels are straight copies: unroll the unit-stride inner
     copy loop (i for pack-A, l for pack-B), no reduction to expand *)
  | Kernels.Pack_a -> vector_space "i" ~expand:false
  | Kernels.Pack_b -> vector_space "l" ~expand:false

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

(* The diagnostic a sweep records for a candidate that does not lower:
   the failing stage, the classified code and the detail.  The CLI
   reports a configuration the code generator cannot fit with it too. *)
let lowering_diag (arch : Arch.t) ~(kernel : string) (config : Pipeline.config)
    (exn : exn) : Diag.t =
  let stage_name, exn =
    match exn with
    | Augem_driver.Lower.Stage_failed (name, e) -> (Some name, e)
    | Augem_driver.Lower.Budget_exceeded { stage; _ } -> (Some stage, exn)
    | e -> (None, e)
  in
  let code, stage, detail =
    match exn with
    | Augem_driver.Lower.Budget_exceeded { len; budget; _ } ->
        ( Diag.E_budget_exceeded,
          Diag.S_codegen,
          Printf.sprintf "%d instructions > budget %d" len budget )
    | Augem_codegen.Regfile.Out_of_registers m ->
        (Diag.E_out_of_registers, Diag.S_codegen, m)
    | Augem_codegen.Gpralloc.Gpr_error m ->
        (Diag.E_gpr_pressure, Diag.S_codegen, m)
    | Augem_codegen.Ctx.Codegen_error m -> (Diag.E_codegen, Diag.S_codegen, m)
    | Strength_reduction.Reduction_error m ->
        (Diag.E_strength_reduction, Diag.S_pipeline, m)
    | Unroll.Unroll_error m -> (Diag.E_unroll, Diag.S_pipeline, m)
    | Typecheck.Type_error m -> (Diag.E_type_error, Diag.S_pipeline, m)
    | Augem_analysis.Asmcheck.Lint_error (_, errs) ->
        (* the static gate on the scheduled program: a candidate the
           checker rejects is discarded like any other structured
           failure, never an exception out of the sweep *)
        ( Diag.E_lint,
          Diag.S_asmcheck,
          String.concat "; "
            (List.map Augem_analysis.Asmcheck.finding_to_string errs) )
    | exn -> (Diag.code_of_exn exn, Diag.S_codegen, Printexc.to_string exn)
  in
  Diag.make ?stage_name ~code ~stage ~kernel ~arch:arch.Arch.name
    ~config:(Pipeline.config_to_string config) ~detail ()

(* Generate one candidate, classifying every failure — including
   exceptions nobody anticipated — instead of letting them abort the
   sweep.  [Lower.program] folds [Lower.run]'s stage list with its
   checks (type check, instruction budget after emit-frame, the lint
   gate on schedule) but builds no trace: a sweep reads only the
   program or the failing stage's name. *)
let generate_candidate_diag (arch : Arch.t) ?(max_insns = default_max_insns)
    (kname : Kernels.name) (kernel : Ast.kernel) (c : candidate) :
    (Insn.program, Diag.t) Stdlib.result =
  let opts =
    {
      (Augem_driver.Emit.lower_opts c.cand_opts) with
      Augem_driver.Lower.max_insns = Some max_insns;
      lint = true;
      schedule = true;
    }
  in
  match
    Augem_driver.Lower.program ~opts ~arch ~config:c.cand_config kernel
  with
  | prog -> Ok prog
  | exception exn ->
      (* diagnostics follow the kernel's own precision, not a flag *)
      let fp =
        fp_of_et (Augem_driver.Lower.etype_of_params kernel.Ast.k_params)
      in
      Error
        (lowering_diag arch
           ~kernel:(Kernels.name_to_string ?fp kname)
           c.cand_config exn)

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

(* The one search behind [tune] and [tune_blocked]: generate each
   candidate of [space], then [member] scores its program as a member
   of the answer's set, or discards it.  Both may run on any domain in
   any order, so Team.map shards the space and returns the outcomes in
   space order.  The order-sensitive part (the first-seen-maximum tie-break
   the prefetch_opts ordering depends on, its exact-tie set, and the
   sweep-ordered failure list) stays one sequential fold over that
   list, so ~jobs:n is bit-identical to ~jobs:1.  A fully discarded
   space falls back to [baseline] over the safe baseline's program: a
   library build wants a slow kernel over no kernel.  Returns the
   answer's score, its tie set (the answer first), the failures and
   whether it fell back. *)
let sweep ?jobs ~max_insns ~label (arch : Arch.t) (name : Kernels.name)
    (kernel : Ast.kernel) ~member ~baseline (space : candidate list) =
  let jobs = match jobs with Some j -> max 1 j | None -> !default_jobs_ref in
  let evaluate cand =
    Result.bind (generate_candidate_diag arch ~max_insns name kernel cand)
      (member cand)
  in
  let best, failures =
    List.fold_left2
      (fun (best, failures) cand -> function
        | Error d ->
            Log.debug (fun m -> m "discard: %s" (Diag.to_string d));
            (best, d :: failures)
        | Ok (s, member) ->
            Log.debug (fun m ->
                m "%s/%s %s -> %.0f MFLOPS" arch.Arch.name label
                  (Pipeline.config_to_string cand.cand_config)
                  s);
            (keep_ties best s member, failures))
      (None, []) space
      (Team.map ~jobs evaluate space)
  in
  let failures = List.rev failures in
  match best with
  | Some (s, rev_ties) -> (s, List.rev rev_ties, failures, false)
  | None -> (
      Log.warn (fun m ->
          m "%s/%s: all %d candidates discarded; falling back to baseline"
            arch.Arch.name label (List.length space));
      (* the baseline is generated under the default step budget, not
         the caller's: a tight [max_insns] is a candidate filter, and
         must not take the known-small fallback down with it *)
      match
        generate_candidate_diag arch ~max_insns:default_max_insns name kernel
          safe_baseline
      with
      | Ok prog ->
          let s, member = baseline prog in
          (s, [ member ], failures, true)
      | Error d ->
          (* even the baseline will not generate: a genuinely broken
             kernel/arch pair, the one case that still raises *)
          raise
            (No_viable_configuration
               (Printf.sprintf "%s on %s (baseline also failed: %s)" label
                  arch.Arch.name (Diag.to_string d))))

let tune ?(et = Etype.F64) ?(workload : Augem_sim.Perf.workload option)
    ?(space : candidate list option) ?(max_insns = default_max_insns)
    ?(jobs : int option) (arch : Arch.t) (name : Kernels.name) : result =
  let fp = fp_of_et et in
  let kernel = Kernels.kernel_of_name ?fp name in
  let workload =
    match workload with Some w -> w | None -> reference_workload name
  in
  let space = match space with Some s -> s | None -> space_for name in
  let score cand prog = score_diag ~et arch name cand prog workload in
  let best_score, ties, failures, fell_back =
    sweep ?jobs ~max_insns ~label:(Kernels.name_to_string ?fp name) arch name
      kernel space
      ~member:(fun cand prog ->
        Result.map (fun s -> (s, (cand, prog))) (score cand prog))
      ~baseline:(fun prog ->
        ( Result.value ~default:0.0 (score safe_baseline prog),
          (safe_baseline, prog) ))
  in
  let best, best_program = List.hd ties in
  {
    best;
    best_program;
    best_score;
    ties = List.map fst ties;
    visited = List.length space;
    discarded = List.length failures;
    fell_back;
    failures;
    failure_histogram = Diag.histogram failures;
  }

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

(* [config_to_string] is the display form and shows neither the
   expansion ways nor whether prefetches cover stores, so each is added
   when it moves away from [Pipeline.default]: a candidate that leaves
   both alone keeps the address it has always had. *)
let candidate_fingerprint (c : candidate) : string =
  let cfg = c.cand_config and opts = c.cand_opts in
  String.concat ""
    [
      Pipeline.config_to_string cfg;
      "|prefer=";
      Augem_codegen.Plan.prefer_name opts.Augem_driver.Emit.prefer;
      "|width=";
      (match opts.Augem_driver.Emit.max_width with
      | None -> "native"
      | Some w -> "w" ^ string_of_int (Insn.width_bits w));
      (match cfg.Pipeline.expand_reduction with
      | None -> ""
      | Some ways -> "|expand=" ^ string_of_int ways);
      (match cfg.Pipeline.prefetch with
      | Some { Prefetch.pf_stores = false; _ } -> "|stores=off"
      | _ -> "");
    ]

(* The search-space fingerprint in the cache key: two sweeps share an
   entry only if they would explore the same candidates in the same
   order. *)
let space_fingerprint (space : candidate list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map candidate_fingerprint space)))

(* Every persistent-cache address: the tuner's kernels and the
   service's plans alike. *)
let cache_key ~arch ~name ~fingerprint =
  Cache.key ~version:tuner_version ~arch ~name ~fingerprint

(* --- cache-tier accounting ---------------------------------------------- *)

(* One event per tier decision of [tuned] and of the serving registry. *)
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

type cache_observer = cache_event -> unit

type ('v, 'c) disk_answer = Loaded of 'v | Computed of 'c

(* The persistent tier, once for both memory tiers in front of it; a
   store that crashes (an injected kill included) is a store error,
   never the caller's failure.  See tuner.mli. *)
let through_disk ?dir ~(on_event : cache_observer) ~fell_back ~swept
    (key : Cache.key) ~compute =
  let loaded =
    match dir with
    | None -> None
    | Some dir -> (
        match Cache.load ~dir key with
        | Cache.Hit v when not (fell_back v) ->
            on_event Ev_disk_hit;
            Some v
        | Cache.Hit _ | Cache.Miss ->
            (* a persisted fallback (foreign writer, older version) is
               stale, the same as no entry *)
            on_event Ev_disk_miss;
            None
        | Cache.Corrupt d ->
            on_event (Ev_disk_corrupt d);
            None)
  in
  match loaded with
  | Some v -> Loaded v
  | None ->
      let c = compute () in
      (match swept c with
      | None -> ()
      | Some v -> (
          on_event Ev_swept;
          match dir with
          | Some dir when not (fell_back v) ->
              on_event
                (match Cache.store ~dir key v with
                | None -> Ev_store
                | Some d -> Ev_store_error d
                | exception e ->
                    Ev_store_error
                      (Diag.make ~code:Diag.E_cache_corrupt ~stage:Diag.S_cache
                         ~kernel:key.Cache.k_name ~arch:key.Cache.k_arch
                         ~config:"-"
                         ~detail:("store crashed: " ^ Printexc.to_string e)
                         ()))
          | _ -> ()));
      Computed c

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

let tuned ?(et = Etype.F64) ?jobs ?cache_dir:cdir ?space
    ?(on_event : cache_observer = ignore) (arch : Arch.t) (name : Kernels.name)
    : result =
  let kernel_s = Kernels.name_to_string ?fp:(fp_of_et et) name in
  let space = match space with Some s -> s | None -> space_for name in
  let fingerprint = space_fingerprint space in
  let key = (arch.Arch.name, kernel_s, fingerprint) in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key) with
  | Some r ->
      on_event Ev_memory_hit;
      r
  | None ->
      let (Loaded r | Computed r) =
        through_disk
          ?dir:(match cdir with Some _ -> cdir | None -> !cache_dir_ref)
          ~on_event
          ~fell_back:(fun r -> r.fell_back)
          ~swept:Option.some
          (cache_key ~arch:arch.Arch.name ~name:kernel_s ~fingerprint)
          ~compute:(fun () -> tune ~et ?jobs ~space arch name)
      in
      (* Never memoize a fallback result: a sweep that degraded (e.g.
         under a hostile space or a transient budget) must not poison
         later callers with the slow baseline. *)
      if not r.fell_back then
        Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key r);
      r

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
  bb_fell_back : bool;
  bb_failures : Diag.t list;
}

(* Tune the full blocked DGEMM: the micro-kernel configuration space
   crossed with the cache-blocking triples each configuration's
   register tile admits — the MC/KC/NC dimensions of the search space
   the blocked driver adds.  A candidate's member is its micro-kernel
   with its best blocking ([select_blocking]), scored by
   {!Augem_sim.Perf.predict_blocked} on [workload]; [sweep] picks the
   answer and its exact-tie set.  The result also carries the
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
  let member_of cand prog blocking =
    let mr, nr = register_tile cand in
    {
      bm_candidate = cand;
      bm_program = prog;
      bm_blocking = blocking;
      bm_mr = mr;
      bm_nr = nr;
    }
  in
  (* a sum, so the domains may add in any order *)
  let blockings_visited = Atomic.make 0 in
  let blocked_score, ties, failures, fell_back =
    sweep ?jobs ~max_insns ~label:"blocked gemm" arch Kernels.Gemm kernel space
      ~member:(fun cand prog ->
        Result.map
          (fun (b, s, visited) ->
            ignore (Atomic.fetch_and_add blockings_visited visited);
            (s, member_of cand prog b))
          (select_blocking ~et arch cand prog w))
      ~baseline:(fun prog ->
        let mr, nr = register_tile safe_baseline in
        let blocking = Mem_model.derive_blocking ~et arch ~mr ~nr in
        let s =
          match Augem_sim.Perf.predict_blocked ~et arch prog ~blocking w with
          | e -> e.Augem_sim.Perf.e_mflops
          | exception Augem_sim.Perf.No_hot_loop _ -> 0.0
        in
        (s, member_of safe_baseline prog blocking))
  in
  let best = List.hd ties in
  let streamed =
    match
      Augem_sim.Perf.predict_streamed ~et arch best.bm_program ~nr:best.bm_nr w
    with
    | e -> e.Augem_sim.Perf.e_mflops
    | exception Augem_sim.Perf.No_hot_loop _ -> 0.0
  in
  {
    bb_ties = ties;
    bb_blocked_score = blocked_score;
    bb_streamed_score = streamed;
    bb_micro_visited = List.length space;
    bb_blockings_visited = Atomic.get blockings_visited;
    bb_fell_back = fell_back;
    bb_failures = failures;
  }
