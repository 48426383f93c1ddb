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

(* Prefetch siblings: candidates whose configurations differ only in
   [prefetch], under the same emit options.  They run the same C passes
   before the prefetch pass ([Pipeline.before_prefetch]).  The prefetch
   pass adds only prefetches, which address memory through general
   registers and hold no vector value, so siblings also fit in the
   vector registers or run out of them together. *)
let sibling_key (c : candidate) =
  ({ c.cand_config with Pipeline.prefetch = None }, c.cand_opts)

(* Lower one group of prefetch siblings, classifying every failure —
   including exceptions nobody anticipated — instead of letting them
   abort the sweep.  The passes before prefetching run once for the
   group, and each member folds its own stages from their artifact
   with [Lower.program]'s checks (type check, instruction budget after
   emit-frame, the lint gate on schedule when [lint]) but no trace.
   Once a member runs out of vector registers, the members after it get
   the same diagnostic under their own configuration, unlowered.
   Outcomes come back in [group]'s order. *)
let lower_siblings (arch : Arch.t) ~max_insns ~lint (kname : Kernels.name)
    (kernel : Ast.kernel) (group : candidate list) :
    (Insn.program, Diag.t) Stdlib.result list =
  (* diagnostics follow the kernel's own precision, not a flag *)
  let kernel_s =
    Kernels.name_to_string
      ?fp:(fp_of_et (Augem_driver.Lower.etype_of_params kernel.Ast.k_params))
      kname
  in
  let diag c exn =
    Error (lowering_diag arch ~kernel:kernel_s c.cand_config exn)
  in
  match group with
  | [] -> []
  | first :: _ -> (
      match
        Augem_driver.Lower.before_prefetch ~config:first.cand_config kernel
      with
      | exception exn -> List.map (fun c -> diag c exn) group
      | shared ->
          let lower c =
            let opts =
              {
                (Augem_driver.Emit.lower_opts c.cand_opts) with
                Augem_driver.Lower.max_insns = Some max_insns;
                lint;
                schedule = true;
              }
            in
            Augem_driver.Lower.program_from ~opts ~arch ~config:c.cand_config
              kernel shared
          in
          snd
            (List.fold_left_map
               (fun out_of_registers c ->
                 match out_of_registers with
                 | Some exn -> (out_of_registers, diag c exn)
                 | None -> (
                     match lower c with
                     | prog -> (None, Ok prog)
                     | exception
                         (Augem_driver.Lower.Stage_failed
                            (_, Augem_codegen.Regfile.Out_of_registers _) as
                          exn) ->
                         (Some exn, diag c exn)
                     | exception exn -> (None, diag c exn)))
               None group))

(* Lower [cands] one prefetch-sibling group at a time: [map] runs the
   groups (Team.map may shard them), and [each] sees every member's
   outcome on the domain that lowered it.  Results come back in
   [cands]' order, whatever the grouping. *)
let lower_grouped ~map ~max_insns ~lint (arch : Arch.t)
    (kname : Kernels.name) (kernel : Ast.kernel) ~each
    (cands : candidate list) =
  let rec groups = function
    | [] -> []
    | (_, c) :: _ as rest ->
        let key = sibling_key c in
        let mine, others =
          List.partition (fun (_, c') -> sibling_key c' = key) rest
        in
        mine :: groups others
  in
  groups (List.mapi (fun i c -> (i, c)) cands)
  |> map (fun group ->
         List.map2
           (fun (i, c) outcome -> (i, each c outcome))
           group
           (lower_siblings arch ~max_insns ~lint kname kernel
              (List.map snd group)))
  |> List.concat
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

let generate_candidates_diag (arch : Arch.t) ?(max_insns = default_max_insns)
    (kname : Kernels.name) (kernel : Ast.kernel) (cands : candidate list) =
  lower_grouped ~map:List.map ~max_insns ~lint:true arch kname kernel
    ~each:(fun _ outcome -> outcome)
    cands

(* One candidate: the one-member group. *)
let generate_candidate_diag (arch : Arch.t) ?(max_insns = default_max_insns)
    (kname : Kernels.name) (kernel : Ast.kernel) (c : candidate) :
    (Insn.program, Diag.t) Stdlib.result =
  List.hd (lower_siblings arch ~max_insns ~lint:true kname kernel [ c ])

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
  match Augem_sim.Perf.(predict (analyze ~et arch prog) w) with
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

(* The one search behind [tune] and [tune_blocked]: lower each
   candidate of [space], then [member] scores its program as a member
   of the answer's set, or discards it.  Both may run on any domain in
   any order, so Team.map shards the prefetch-sibling groups
   ([lower_grouped]) and the outcomes come back in space order.  The
   order-sensitive part (the first-seen-maximum tie-break the
   prefetch_opts ordering depends on, its exact-tie set, and the
   sweep-ordered failure list) stays one sequential fold over that
   list, so ~jobs:n is bit-identical to ~jobs:1.  A fully discarded
   space falls back to [baseline] over the safe baseline's program: a
   library build wants a slow kernel over no kernel; [fell_back] and a
   reply's [degraded] say so.  Returns the answer's score, its tie set
   (the answer first), the failures and whether it fell back. *)
let sweep ?jobs ~max_insns ~label (arch : Arch.t) (name : Kernels.name)
    (kernel : Ast.kernel) ~member ~baseline (space : candidate list) =
  let jobs = match jobs with Some j -> max 1 j | None -> !default_jobs_ref in
  let best, failures =
    List.fold_left
      (fun (best, failures) -> function
        | Error d -> (best, d :: failures)
        | Ok (s, member) -> (keep_ties best s member, failures))
      (None, [])
      (lower_grouped ~map:(Team.map ~jobs) ~max_insns ~lint:true arch name
         kernel space
         ~each:(fun cand outcome -> Result.bind outcome (member cand)))
  in
  let failures = List.rev failures in
  match best with
  | Some (s, rev_ties) -> (s, List.rev rev_ties, failures, false)
  | None -> (
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
   own, and the others regenerated through the sweep's grouped
   lowering.  Generation is deterministic, so each is the program the
   sweep scored.  Its lint gate is left off: every caller gates each
   member through [Native_check.load], which lints it, before running
   it.  [Native_blocked.load], which times the members, is the one
   place that builds them. *)
let tie_programs ?(et = Etype.F64) (arch : Arch.t) (name : Kernels.name)
    (r : result) : (candidate * Insn.program) list =
  let kernel = Kernels.kernel_of_name ?fp:(fp_of_et et) name in
  (r.best, r.best_program)
  :: List.filter_map Fun.id
       (lower_grouped ~map:List.map ~max_insns:default_max_insns ~lint:false
          arch name kernel
          ~each:(fun c outcome ->
            Result.to_option (Result.map (fun prog -> (c, prog)) outcome))
          (List.tl r.ties))

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
   deterministic).  The table has no eviction, so its bound is its
   callers': the daemon reaches it only through [Blocked.plan], with
   the default spaces of the packing kernels and SCAL, so at most one
   entry per modelled arch, precision and kernel; a client's own space
   goes to the service registry's bounded LRU instead. *)
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

(* A program's analysed hot loop, [None] when it has none. *)
let analyzed ~et (arch : Arch.t) (prog : Insn.program) =
  match Augem_sim.Perf.analyze ~et arch prog with
  | loop -> Some loop
  | exception Augem_sim.Perf.No_hot_loop _ -> None

(* [predict]'s MFLOPS from an analysed loop; 0 when there is none to
   score. *)
let mflops_of predict = function
  | None -> 0.0
  | Some loop -> (
      match predict loop with
      | e -> e.Augem_sim.Perf.e_mflops
      | exception Augem_sim.Perf.No_hot_loop _ -> 0.0)

(* [select_blocking] on a micro-kernel already analysed: the blockings
   all read the one loop. *)
let best_blocking ~(et : Etype.t) (arch : Arch.t) (c : candidate)
    (loop : Augem_sim.Perf.loop option) (w : Augem_sim.Perf.workload) =
  let mr, nr = register_tile c in
  let blockings = Mem_model.blocking_candidates ~et arch ~mr ~nr in
  let score loop acc b =
    match Augem_sim.Perf.predict_blocked loop ~blocking:b w with
    | e -> (
        let s = e.Augem_sim.Perf.e_mflops in
        match acc with Some (_, s') when s' >= s -> acc | _ -> Some (b, s))
    | exception Augem_sim.Perf.No_hot_loop _ -> acc
  in
  match
    Option.bind loop (fun loop -> List.fold_left (score loop) None blockings)
  with
  | Some (b, s) -> Ok (b, s, List.length blockings)
  | None ->
      Error
        (Diag.make ~code:Diag.E_no_hot_loop ~stage:Diag.S_score
           ~kernel:"gemm_blocked" ~arch:arch.Arch.name
           ~config:(Pipeline.config_to_string c.cand_config)
           ~detail:"no blocking scored: hot loop not analyzable" ())

(* Best blocking for one generated micro-kernel under the blocked-GEMM
   performance model: scores every triple in
   {!Mem_model.blocking_candidates} with {!Perf.predict_blocked} and
   keeps the first-seen maximum (the analytically-derived triple is
   first, so it wins score ties). *)
let select_blocking ~(et : Etype.t) (arch : Arch.t) (c : candidate)
    (prog : Insn.program) (w : Augem_sim.Perf.workload) :
    (Mem_model.blocking * float * int, Diag.t) Stdlib.result =
  best_blocking ~et arch c (analyzed ~et arch prog) w

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
  (* each member carries its analysed loop, so the streamed score
     reads the answer's without analysing it again *)
  let blocked_score, ties, failures, fell_back =
    sweep ?jobs ~max_insns ~label:"blocked gemm" arch Kernels.Gemm kernel space
      ~member:(fun cand prog ->
        let loop = analyzed ~et arch prog in
        Result.map
          (fun (b, s, visited) ->
            ignore (Atomic.fetch_and_add blockings_visited visited);
            (s, (member_of cand prog b, loop)))
          (best_blocking ~et arch cand loop w))
      ~baseline:(fun prog ->
        let mr, nr = register_tile safe_baseline in
        let blocking = Mem_model.derive_blocking ~et arch ~mr ~nr in
        let loop = analyzed ~et arch prog in
        let s =
          mflops_of (fun l -> Augem_sim.Perf.predict_blocked l ~blocking w) loop
        in
        (s, (member_of safe_baseline prog blocking, loop)))
  in
  let best, loop = List.hd ties in
  let streamed =
    mflops_of (fun l -> Augem_sim.Perf.predict_streamed l ~nr:best.bm_nr w) loop
  in
  let ties = List.map fst ties in
  {
    bb_ties = ties;
    bb_blocked_score = blocked_score;
    bb_streamed_score = streamed;
    bb_micro_visited = List.length space;
    bb_blockings_visited = Atomic.get blockings_visited;
    bb_fell_back = fell_back;
    bb_failures = failures;
  }
