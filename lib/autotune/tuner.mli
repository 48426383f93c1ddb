(** Empirical tuning of the Optimized C Kernel Generator's parameters
    (paper section 2.1: the generator "automatically experiments with
    different unrolling and unroll&jam configurations and selects the
    best performing configurations based on the performance of their
    optimized code").

    The performance feedback is the cycle-level model of the generated
    assembly (the substitution for the paper's wall-clock measurements,
    see DESIGN.md).

    Robustness contract: the sweep survives arbitrary broken
    candidates.  Every discarded configuration is recorded as a
    structured {!Augem_verify.Diag.t} (never a bare counter or an
    escaped exception); oversized programs are rejected by a step
    budget before the scoring model runs on them; and a fully-discarded
    space degrades to {!safe_baseline} instead of raising. *)

(** One configuration of the generator: the source passes and the emit
    options.  {!Script} writes it as text and the service's [space]
    entries as JSON. *)
type candidate = {
  cand_config : Augem_transform.Pipeline.config;
  cand_opts : Augem_driver.Emit.options;
}

type result = {
  best : candidate;
  best_program : Augem_machine.Insn.program;
  best_score : float;  (** predicted MFLOPS on the reference workload *)
  ties : candidate list;
      (** the exact-tie set of the answer: every candidate whose score
          equals [best_score] to the last bit, in space order, [best]
          first; a fell-back result's set is the baseline alone.  The
          members' programs are not kept: results are cached and
          served, and [Native_blocked.load], the one reader that runs
          them, builds them with {!tie_programs} *)
  visited : int;
  discarded : int;
  fell_back : bool;
      (** the whole space was discarded and {!safe_baseline} was used *)
  failures : Augem_verify.Diag.t list;
      (** one structured record per discarded candidate, in sweep order *)
  failure_histogram : (string * int) list;
      (** failure counts keyed by diagnostic code, descending *)
}

(** The IR precision of a scalar element type: [Some Float] for f32,
    [None] (the built-in f64 kernel text) for f64. *)
val fp_of_et : Augem_machine.Etype.t -> Augem_ir.Ast.dtype option

(** The per-kernel search space. *)
val space_for : Augem_ir.Kernels.name -> candidate list

(** The graceful-degradation configuration: scalar passes only (no
    unroll&jam, no unrolling, no prefetch).  Generates for every kernel
    on every modelled architecture. *)
val safe_baseline : candidate

(** A representative point of the paper's evaluation sweep for each
    kernel. *)
val reference_workload : Augem_ir.Kernels.name -> Augem_sim.Perf.workload

(** Raised only when even {!safe_baseline} fails to generate — a
    genuinely broken kernel/architecture pair.  An exhausted search
    space alone no longer raises. *)
exception No_viable_configuration of string

(** Step budget: candidates whose generated programs exceed this many
    instructions are discarded ({!Augem_verify.Diag.E_budget_exceeded})
    before the program-length-proportional scheduling and scoring
    analyses run. *)
val default_max_insns : int

(** [lowering_diag arch ~kernel config exn]: the diagnostic a sweep
    records when lowering [kernel] under [config] raises [exn] (a
    failed stage names itself).  [augem] reports a configuration the
    code generator cannot fit with it. *)
val lowering_diag :
  Augem_machine.Arch.t ->
  kernel:string ->
  Augem_transform.Pipeline.config ->
  exn ->
  Augem_verify.Diag.t

(** Generate candidates as a sweep does, classifying {i any} failure —
    anticipated codegen errors and unexpected exceptions alike — as a
    structured diagnostic instead of letting it abort the sweep.
    Prefetch siblings (candidates whose configurations differ only in
    [prefetch], under equal emit options) share one run of the passes
    before prefetching; once one runs out of vector registers, the
    siblings after it get the same diagnostic under their own
    configuration and are not lowered.  Outcomes are in the order of
    the list. *)
val generate_candidates_diag :
  Augem_machine.Arch.t ->
  ?max_insns:int ->
  Augem_ir.Kernels.name ->
  Augem_ir.Ast.kernel ->
  candidate list ->
  (Augem_machine.Insn.program, Augem_verify.Diag.t) Stdlib.result list

(** One candidate: {!generate_candidates_diag} on a one-member list. *)
val generate_candidate_diag :
  Augem_machine.Arch.t ->
  ?max_insns:int ->
  Augem_ir.Kernels.name ->
  Augem_ir.Ast.kernel ->
  candidate ->
  (Augem_machine.Insn.program, Augem_verify.Diag.t) Stdlib.result

(** Score a generated program, classifying failures.  [et] selects the
    element type the performance model counts flops in (default f64)
    and the precision label on the diagnostic. *)
val score_diag :
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  candidate ->
  Augem_machine.Insn.program ->
  Augem_sim.Perf.workload ->
  (float, Augem_verify.Diag.t) Stdlib.result

(** Set the process-wide default sweep parallelism (also settable via
    the [AUGEM_JOBS] environment variable); clamped to at least 1.
    Affects every {!tune}/{!tuned} call that does not pass [?jobs],
    including the sweeps behind the library models. *)
val set_jobs : int -> unit

(** The current default sweep parallelism. *)
val jobs : unit -> int

(** Exhaustive search over the (given or default) space.  Never raises
    on a fully-discarded space: the result carries [fell_back = true],
    the baseline program, and the populated failure histogram.

    [?jobs] shards candidate evaluation across that many domains
    (default: {!jobs}).  Results are {i bit-identical} for every job
    count: candidates are generated and scored in parallel, but the
    best-candidate selection (first-seen maximum, the tie-break the
    search-space ordering depends on) and the failure list are reduced
    sequentially in candidate order.  The same fold collects the
    answer's exact-tie set ([ties]).  {!tune_blocked} searches through
    the same sweep.

    [?et] selects the scalar precision (default f64): the kernel text
    is retyped to [float], the performance model counts f32 flops, and
    diagnostics carry the s-prefixed kernel name. *)
val tune :
  ?et:Augem_machine.Etype.t ->
  ?workload:Augem_sim.Perf.workload ->
  ?space:candidate list ->
  ?max_insns:int ->
  ?jobs:int ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  result

(** [tie_programs ~et arch name r] pairs each member of [r.ties] with
    its program: [r.best_program] for [r.best], the others regenerated
    for [name] at [et] (default f64) as {!generate_candidates_diag}
    lowers them but without its lint gate, which gives the programs the
    sweep scored.  A member that does not generate is left out; the
    callers lint every member before running it.
    [Native_blocked.load] is the one place that builds a plan's
    packing and SCAL members this way, when it times them. *)
val tie_programs :
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  result ->
  (candidate * Augem_machine.Insn.program) list

(** Cache-key version of the sweep semantics and of the marshalled
    layouts of {!result} and of the service's blocked-GEMM plans; part
    of every persistent-cache content address. *)
val tuner_version : string

(** Digest of a candidate space (configurations, codegen options, and
    their order): two sweeps share a persistent-cache entry only if
    their fingerprints match.  Every field of a candidate counts; the
    expansion ways and prefetching without stores add text only when
    set, so other candidates keep their addresses. *)
val space_fingerprint : candidate list -> string

(** {2 The persistent tier}

    {!tuned}'s unbounded memo and the service registry's bounded LRU
    sit in front of one persistent tier: both address it with
    {!cache_key} and reach it only through {!through_disk}, so the
    daemon, the [tune] CLI and offline sweeps share one cache
    population. *)

(** The address of [name] (a kernel, ["sgemm"], or a plan,
    ["blocked-dgemm"]: the precision rides in the name) on [arch] under
    {!tuner_version} and a fingerprint. *)
val cache_key : arch:string -> name:string -> fingerprint:string -> Cache.key

(** One tier decision, reported to the caller's [on_event]: the [tune]
    CLI and the service metrics count the same events.  Diagnostics
    name the arch and kernel. *)
type cache_event =
  | Ev_memory_hit  (** answered from the in-memory tier *)
  | Ev_disk_hit  (** answered from the persistent on-disk tier *)
  | Ev_disk_miss  (** no usable on-disk entry (includes stale fallbacks) *)
  | Ev_disk_corrupt of Augem_verify.Diag.t
      (** on-disk entry failed to load; treated as a miss *)
  | Ev_swept  (** a full tuning sweep ran *)
  | Ev_store  (** the sweep result was persisted *)
  | Ev_store_error of Augem_verify.Diag.t  (** persisting failed (non-fatal) *)

val cache_event_to_string : cache_event -> string

type cache_observer = cache_event -> unit

type ('v, 'c) disk_answer = Loaded of 'v | Computed of 'c

(** [through_disk ?dir ~on_event ~fell_back ~swept key ~compute] loads
    [key] from [dir] and reports a disk hit, miss or corrupt entry (a
    value [fell_back] recognises is a miss).  On a miss it runs
    [compute ()]; if [swept] finds a sweep's answer in the result, it
    reports the sweep, then stores the answer unless it fell back and
    reports the store or its error.  [swept] is [None] for a stand-in
    served without a sweep (the service's deadline baseline).  A
    crashed store, an injected kill included, is a store error, never
    raised.  Without [dir] only the sweep is reported. *)
val through_disk :
  ?dir:string ->
  on_event:cache_observer ->
  fell_back:('v -> bool) ->
  swept:('c -> 'v option) ->
  Cache.key ->
  compute:(unit -> 'c) ->
  ('v, 'c) disk_answer

(** Set the process-wide persistent tuning-cache directory (also
    settable via the [AUGEM_CACHE_DIR] environment variable); [None]
    disables the on-disk layer, and so does the empty name
    [Some ""]. *)
val set_cache_dir : string option -> unit

(** The current persistent-cache directory. *)
val cache_dir : unit -> string option

(** Memoized {!tune} on the reference workload: an unbounded in-memory
    table in front of {!through_disk} (when a cache directory is
    configured via [?cache_dir], {!set_cache_dir} or
    [AUGEM_CACHE_DIR]).  Both layers key on (arch, kernel, space
    fingerprint, tuner version), so a caller-supplied [?space] never
    answers for the default one.  Fallback results
    ([fell_back = true]) are never memoized or persisted — a degraded
    sweep (e.g. over a hostile space) must not poison later callers —
    and a corrupt cache file is a reported miss, never an error.  Safe
    to call from concurrent domains.

    [?et] selects the scalar precision; f32 results address under the
    s-prefixed kernel name in both tiers, so the f64 content addresses
    are untouched by the precision axis.

    [?on_event] receives this call's tier decisions, in order (default:
    none is reported): a memory hit; or a disk hit, miss or corrupt
    entry (with a cache directory), then on a miss the sweep and its
    store or store error.  An exception it raises propagates. *)
val tuned :
  ?et:Augem_machine.Etype.t ->
  ?jobs:int ->
  ?cache_dir:string ->
  ?space:candidate list ->
  ?on_event:cache_observer ->
  Augem_machine.Arch.t ->
  Augem_ir.Kernels.name ->
  result

(** {2 Blocked GEMM}

    The blocked driver adds the MC/KC/NC cache-blocking triple as
    search dimensions: the micro-kernel configuration space is crossed
    with every blocking the configuration's register tile admits
    ({!Augem_sim.Mem_model.blocking_candidates}), scored under the
    blocked performance model {!Augem_sim.Perf.predict_blocked}. *)

(** The MR/NR register tile a candidate's unroll&jam configuration
    produces (i-jam and j-jam factors; 1 when absent). *)
val register_tile : candidate -> int * int

(** Best blocking for one generated micro-kernel on a workload:
    first-seen maximum over {!Augem_sim.Mem_model.blocking_candidates}
    (the analytically-derived triple wins ties).  Returns the triple,
    its predicted MFLOPS, and the number of triples scored.  [et] sets
    the element size of the blocking footprints and the flop counts. *)
val select_blocking :
  et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  candidate ->
  Augem_machine.Insn.program ->
  Augem_sim.Perf.workload ->
  (Augem_sim.Mem_model.blocking * float * int, Augem_verify.Diag.t)
  Stdlib.result

(** One candidate of the blocked cross-product with its best blocking. *)
type blocked_member = {
  bm_candidate : candidate;
  bm_program : Augem_machine.Insn.program;  (** its micro-kernel *)
  bm_blocking : Augem_sim.Mem_model.blocking;  (** its best MC/KC/NC *)
  bm_mr : int;
  bm_nr : int;  (** its register tile ({!register_tile}) *)
}

type blocked_result = {
  bb_ties : blocked_member list;
      (** the first-seen maximum, then every other member whose blocked
          score equals [bb_blocked_score] to the last bit, in space
          order *)
  bb_blocked_score : float;  (** predicted MFLOPS, blocked driver *)
  bb_streamed_score : float;
      (** predicted MFLOPS of the first-seen maximum, unblocked
          baseline *)
  bb_micro_visited : int;  (** candidates in the space *)
  bb_blockings_visited : int;
      (** (candidate, blocking) pairs scored, over the candidates not
          discarded *)
  bb_fell_back : bool;
      (** the whole space was discarded: [bb_ties] is {!safe_baseline}
          alone, with {!Augem_sim.Mem_model.derive_blocking}'s
          blocking *)
  bb_failures : Augem_verify.Diag.t list;
      (** one record per discarded candidate, in sweep order *)
}

(** Tune the full blocked DGEMM over the micro-configuration x blocking
    cross-product.  [workload] must be a [W_gemm] (default: the GEMM
    reference workload; raises [Invalid_argument] otherwise).  The
    search is {!tune}'s sweep, each candidate scored with its best
    blocking ({!select_blocking}): bit-identical for every [?jobs], and
    degrading to {!safe_baseline} with the analytically-derived
    blocking when the whole space is discarded.  [?et] selects the
    scalar precision exactly as in {!tune}; f32 blocking triples are
    derived with 4-byte elements, so the same caches admit larger
    blocks. *)
val tune_blocked :
  ?et:Augem_machine.Etype.t ->
  ?workload:Augem_sim.Perf.workload ->
  ?space:candidate list ->
  ?max_insns:int ->
  ?jobs:int ->
  Augem_machine.Arch.t ->
  blocked_result
