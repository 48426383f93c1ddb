(* The staged-lowering driver: builds the full stage list for a kernel
   — the configured C passes, template identification, vectorization
   planning, parameter binding, body emission, frame emission, and
   (optionally) scheduling — and folds it.  [run] records a
   {!Trace.stage_record} per stage, for the oracle, `augem explain` and
   the CLI; [program] folds the same list with the same checks but no
   record, for callers that read only the program or the failure.  The
   tuner lowers a sweep through [before_prefetch] and [program_from],
   the two halves of [program], so that configurations differing only
   in prefetching run the passes before it once.  [Emit.generate] folds
   the backend stages alone, untraced. *)

open Augem_ir
open Augem_machine
open Augem_templates
open Augem_transform
open Augem_codegen
module M = Matcher

type opts = {
  prefer : Plan.prefer;
  max_width : Insn.vwidth option;  (** cap vector width (None = machine) *)
  snapshots : bool;  (** record each stage's rendered artifact *)
  max_insns : int option;
      (** instruction budget, checked on the unscheduled program *)
  lint : bool;  (** static-check the scheduled program; errors fail *)
  schedule : bool;  (** run the list scheduler as a final stage *)
}

let default_opts =
  {
    prefer = Plan.Prefer_auto;
    max_width = None;
    snapshots = false;
    max_insns = None;
    lint = false;
    schedule = true;
  }

(* A stage's [run] or [validate] raised: the stage name is the
   attribution the tuner's diagnostics record. *)
exception Stage_failed of string * exn

(* The unscheduled program blew the instruction budget (tuner sweeps
   discard such candidates before the length-proportional analyses). *)
exception Budget_exceeded of { stage : string; len : int; budget : int }

let () =
  Printexc.register_printer (function
    | Stage_failed (name, exn) ->
        Some (Printf.sprintf "stage %s: %s" name (Printexc.to_string exn))
    | Budget_exceeded { stage; len; budget } ->
        Some
          (Printf.sprintf "stage %s: %d instructions > budget %d" stage len
             budget)
    | _ -> None)

(* The element type of a kernel, read off its parameter list (kernels
   are monomorphic in their FP type). *)
let etype_of_params (params : Ast.param list) : Etype.t =
  match Ast.fp_type_of_params params ~p_type:(fun p -> p.Ast.p_type) with
  | Ast.Float -> Etype.F32
  | _ -> Etype.F64

let machine_lanes (opts : opts) (arch : Arch.t) ~(et : Etype.t) =
  let base = Arch.simd_lanes ~et arch in
  match opts.max_width with
  | None -> base
  | Some w -> min base (Insn.lanes_of et w)

(* --- stage construction ------------------------------------------------ *)

let typecheck_artifact = function
  | Stage.A_kernel k -> Typecheck.check_kernel k
  | _ -> ()

let c_stage ?validate ((name, pass) : Pipeline.pass) : Stage.t =
  {
    Stage.name;
    run = (function Stage.A_kernel k -> Stage.A_kernel (pass k) | a -> a);
    validate;
  }

(* The C-level stages, one per configured source pass, in the two parts
   [Pipeline] splits them into.  The last stage (simplify) is validated
   by the type checker, which preserves [Pipeline.apply]'s contract. *)
let shared_c_stages (config : Pipeline.config) : Stage.t list =
  List.map c_stage (Pipeline.before_prefetch config)

let own_c_stages (config : Pipeline.config) : Stage.t list =
  let passes = Pipeline.from_prefetch config in
  let last = List.length passes - 1 in
  List.mapi
    (fun i pass ->
      c_stage ?validate:(if i = last then Some typecheck_artifact else None)
        pass)
    passes

(* The tuner's static gate on the scheduled program: any error-severity
   finding fails the stage (and so the candidate). *)
let lint_validator (arch : Arch.t) ~(params : Ast.param list) :
    Stage.artifact -> unit = function
  | Stage.A_program p -> (
      let module AC = Augem_analysis.Asmcheck in
      let config = AC.config_for ~avx:(arch.Arch.simd = Arch.AVX) ~params in
      match AC.errors (AC.check ~config p) with
      | [] -> ()
      | errs -> raise (AC.Lint_error ("asmcheck", errs)))
  | _ -> ()

(* The backend stages, from template identification to the optional
   schedule and its lint gate.  [params] is the kernel's parameter
   list (invariant across the pipeline), needed by the lint gate's
   checker config. *)
let backend_stages (opts : opts) (arch : Arch.t) ~(params : Ast.param list) :
    Stage.t list =
  let et = etype_of_params params in
  let lanes = machine_lanes opts arch ~et in
  let stage name run = { Stage.name; run; validate = None } in
  [
    stage "identify-templates" (function
      | Stage.A_kernel k -> Stage.A_annotated (M.identify k)
      | a -> a);
    stage "plan-vectorization" (function
      | Stage.A_annotated ak ->
          Stage.A_plan
            {
              Stage.pl_ak = ak;
              pl_plan = Plan.build ~et ~machine_lanes:lanes ~prefer:opts.prefer ak;
              pl_lanes = lanes;
            }
      | a -> a);
    stage "bind-parameters" (function
      | Stage.A_plan p ->
          Stage.A_state
            {
              Stage.bd_plan = p;
              bd_st =
                Frame.create_state ~arch ~plan:p.Stage.pl_plan p.Stage.pl_ak;
            }
      | a -> a);
    stage "emit-body" (function
      | Stage.A_state b ->
          Control.emit_astmts b.Stage.bd_st
            b.Stage.bd_plan.Stage.pl_ak.M.ak_body;
          Stage.A_body
            {
              Stage.em_ak = b.Stage.bd_plan.Stage.pl_ak;
              em_st = b.Stage.bd_st;
              em_insns = Frame.body b.Stage.bd_st;
            }
      | a -> a);
    stage "emit-frame" (function
      | Stage.A_body b ->
          Stage.A_program
            (Frame.finish b.Stage.em_st b.Stage.em_ak ~body:b.Stage.em_insns)
      | a -> a);
  ]
  @
  if not opts.schedule then []
  else
    [
      {
        Stage.name = "schedule";
        run =
          (function
          | Stage.A_program p -> Stage.A_program (Schedule.run arch p)
          | a -> a);
        validate =
          (if opts.lint then Some (lint_validator arch ~params) else None);
      };
    ]

(* --- the fold ----------------------------------------------------------- *)

(* One stage: run it, validate its output, and hold the unscheduled
   program to the instruction budget.  A failure names the stage. *)
let step ~(opts : opts) (st : Stage.t) (art : Stage.artifact) : Stage.artifact
    =
  let art' =
    try st.Stage.run art
    with exn -> raise (Stage_failed (st.Stage.name, exn))
  in
  (match st.Stage.validate with
  | None -> ()
  | Some v -> (
      try v art' with exn -> raise (Stage_failed (st.Stage.name, exn))));
  (match (art', opts.max_insns) with
  | Stage.A_program p, Some budget
    when String.equal st.Stage.name "emit-frame" ->
      let len = List.length p.Insn.prog_insns in
      if len > budget then
        raise (Budget_exceeded { stage = st.Stage.name; len; budget })
  | _ -> ());
  art'

(* Fold a stage list, timing and recording each stage.  Returns the
   records and every stage's output artifact, both in execution order,
   and the last artifact. *)
let run_stages ~(avx : bool) ~(et : Etype.t) ~(opts : opts)
    (stages : Stage.t list) (init : Stage.artifact) :
    Trace.stage_record list * Stage.artifact list * Stage.artifact =
  let (_, last), steps =
    List.fold_left_map
      (fun (idx, art) (st : Stage.t) ->
        let t0 = Unix.gettimeofday () in
        let art' = step ~opts st art in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        let record =
          {
            Trace.sr_index = idx;
            sr_name = st.Stage.name;
            sr_kind = Stage.kind art';
            sr_ms = ms;
            sr_fingerprint = Stage.fingerprint ~et ~avx art';
            sr_stats = Stage.stats art';
            sr_artifact =
              (if opts.snapshots then Some (Stage.to_string ~et ~avx art')
               else None);
          }
        in
        ((idx + 1, art'), (record, art')))
      (0, init) stages
  in
  let records, arts = List.split steps in
  (records, arts, last)

(* Fold a stage list with no trace: every check [run_stages] makes,
   but no stage is timed, rendered, fingerprinted or counted. *)
let fold ~(opts : opts) (stages : Stage.t list) (init : Stage.artifact) :
    Stage.artifact =
  List.fold_left (fun art st -> step ~opts st art) init stages

let final_program (art : Stage.artifact) ~(who : string) : Insn.program =
  match art with
  | Stage.A_program p -> p
  | _ -> invalid_arg (who ^ ": lowering produced no program")

(* The stages from prefetching on: the configuration's own C passes,
   template identification, the backend, optional scheduling and
   lint. *)
let own_stages (opts : opts) (arch : Arch.t) (config : Pipeline.config)
    (kernel : Ast.kernel) : Stage.t list =
  own_c_stages config @ backend_stages opts arch ~params:kernel.Ast.k_params

(* The full stage list. *)
let stages (opts : opts) (arch : Arch.t) (config : Pipeline.config)
    (kernel : Ast.kernel) : Stage.t list =
  shared_c_stages config @ own_stages opts arch config kernel

(* --- entry points ------------------------------------------------------- *)

(* The C passes before prefetching, folded untraced: every
   configuration that differs from [config] only in [prefetch] continues
   from this artifact ([program_from]). *)
let before_prefetch ~(config : Pipeline.config) (kernel : Ast.kernel) :
    Stage.artifact =
  fold ~opts:default_opts (shared_c_stages config) (Stage.A_kernel kernel)

(* The rest of [program] for [config], from the [before_prefetch]
   artifact of [kernel] under any configuration that differs from
   [config] at most in [prefetch]. *)
let program_from ?(opts = default_opts) ~(arch : Arch.t)
    ~(config : Pipeline.config) (kernel : Ast.kernel) (art : Stage.artifact)
    : Insn.program =
  final_program
    (fold ~opts (own_stages opts arch config kernel) art)
    ~who:"Lower.program"

(* The full pipeline, untraced: the same stages, checks and failures as
   [run], for callers that want only the program. *)
let program ?opts ~(arch : Arch.t) ~(config : Pipeline.config)
    (kernel : Ast.kernel) : Insn.program =
  program_from ?opts ~arch ~config kernel (before_prefetch ~config kernel)

(* The full pipeline, traced: one record per stage, for `augem
   explain`, the per-pass oracle and the CLI. *)
let run ?(opts = default_opts) ~(arch : Arch.t) ~(config : Pipeline.config)
    (kernel : Ast.kernel) : Trace.t =
  let avx = arch.Arch.simd = Arch.AVX in
  let et = etype_of_params kernel.Ast.k_params in
  let records, arts, last =
    run_stages ~avx ~et ~opts
      (stages opts arch config kernel)
      (Stage.A_kernel kernel)
  in
  let optimized =
    List.fold_left
      (fun acc -> function Stage.A_kernel k -> k | _ -> acc)
      kernel arts
  in
  let annotated =
    match
      List.find_opt (function Stage.A_annotated _ -> true | _ -> false) arts
    with
    | Some (Stage.A_annotated ak) -> ak
    | _ -> invalid_arg "Lower.run: lowering skipped template identification"
  in
  {
    Trace.tr_kernel = kernel.Ast.k_name;
    tr_arch = arch.Arch.name;
    tr_et = et;
    tr_config = Pipeline.config_to_string config;
    tr_stages = records;
    tr_optimized = optimized;
    tr_annotated = annotated;
    tr_program = final_program last ~who:"Lower.run";
  }
