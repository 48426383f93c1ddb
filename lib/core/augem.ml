(* AUGEM — public API.

   A reproduction of "AUGEM: Automatically Generate High Performance
   Dense Linear Algebra Kernels on x86 CPUs" (Wang, Zhang, Zhang, Yi;
   SC '13): a template-based framework that turns a simple C
   implementation of a dense linear algebra kernel into a fully
   optimized x86-64 assembly kernel, with no manual intervention.

   The pipeline (paper Figure 1):

     simple C --(Optimized C Kernel Generator)--> low-level C
              --(Template Identifier)--> template-tagged C
              --(Template Optimizer + Assembly Kernel Generator)--> asm

   Entry points:
   - [generate]: run the full pipeline under an explicit configuration
     (for instance a [Script.parse]d candidate's).
   - [tuned]: let the empirical tuner pick the configuration.
   - [Harness.verify]: execute the generated assembly on the functional
     simulator against the reference BLAS.
   - [Sim.Perf.predict]: cycle-level performance estimate.

   Sub-libraries re-exported for convenience: *)

module Ir = struct
  module Ast = Augem_ir.Ast
  module Pp = Augem_ir.Pp
  module Poly = Augem_ir.Poly
  module Simplify = Augem_ir.Simplify
  module Typecheck = Augem_ir.Typecheck
  module Eval = Augem_ir.Eval
  module Lexer = Augem_ir.Lexer
  module Parser = Augem_ir.Parser
  module Kernels = Augem_ir.Kernels
end

module Analysis = struct
  module Liveness = Augem_analysis.Liveness
  module Arrays = Augem_analysis.Arrays
  module Cfg = Augem_analysis.Cfg
  module Dataflow = Augem_analysis.Dataflow
  module Asmcheck = Augem_analysis.Asmcheck
end

module Transform = struct
  module Unroll = Augem_transform.Unroll
  module Strength_reduction = Augem_transform.Strength_reduction
  module Scalar_repl = Augem_transform.Scalar_repl
  module Prefetch = Augem_transform.Prefetch
  module Pipeline = Augem_transform.Pipeline
  module Names = Augem_transform.Names
end

module Templates = struct
  module Template = Augem_templates.Template
  module Matcher = Augem_templates.Matcher
end

module Machine = struct
  module Etype = Augem_machine.Etype
  module Reg = Augem_machine.Reg
  module Insn = Augem_machine.Insn
  module Arch = Augem_machine.Arch
  module Att = Augem_machine.Att
  module Depgraph = Augem_machine.Depgraph
end

module Codegen = struct
  module Regfile = Augem_codegen.Regfile
  module Gpralloc = Augem_codegen.Gpralloc
  module Plan = Augem_codegen.Plan

  (* The emit options and the untraced backend over the staged-lowering
     driver; see {!Driver.Lower}. *)
  module Emit = Augem_driver.Emit
  module Schedule = Augem_codegen.Schedule
end

module Driver = struct
  module Stage = Augem_driver.Stage
  module Trace = Augem_driver.Trace
  module Lower = Augem_driver.Lower
end

module Sim = struct
  module Exec_sim = Augem_sim.Exec_sim
  module Cycle_sim = Augem_sim.Cycle_sim
  module Cache_sim = Augem_sim.Cache_sim
  module Mem_model = Augem_sim.Mem_model
  module Perf = Augem_sim.Perf
end

module Blas = struct
  module Matrix = Augem_blas.Matrix
  module Level1 = Augem_blas.Level1
  module Level2 = Augem_blas.Level2
  module Level3 = Augem_blas.Level3
end

module Verify = struct
  module Diag = Augem_verify.Diag
  module Oracle = Augem_verify.Oracle
  module Faults = Augem_verify.Faults
end

module Tuner = Augem_autotune.Tuner
module Script = Augem_autotune.Script
module Tuning_cache = Augem_autotune.Cache
module Team = Augem_parallel.Team
module Library = Augem_baselines.Library
module Harness = Harness
module Blocked = Blocked
module Native_check = Native_check
module Native_blocked = Native_blocked

module Jit = struct
  module Encoder = Augem_jit.Encoder
  module Runtime = Augem_jit.Runtime
  module Abi = Augem_jit.Abi
  module Clock = Augem_jit.Clock
end
module Chaos = Chaos
module Report = Report
module Json = Json

(* --- one-call pipeline -------------------------------------------------- *)

type generated = {
  g_kernel : Ir.Kernels.name;
  g_arch : Machine.Arch.t;
  g_et : Machine.Etype.t; (* scalar precision the kernel computes in *)
  g_config : Transform.Pipeline.config;
  g_source : Ir.Ast.kernel; (* the simple C input *)
  g_optimized : Ir.Ast.kernel; (* after the C kernel generator *)
  g_tagged : Ir.Ast.kernel; (* with template annotations *)
  g_program : Machine.Insn.program;
}

(* The IR precision an element type selects: the tuner's. *)
let fp_of_et = Tuner.fp_of_et

(* Run the full pipeline on one of the paper's kernels under an
   explicit configuration.  [?et] selects the scalar precision
   (default f64): f32 retypes the kernel source to [float] and the
   whole stack — vector widths, instruction suffixes, simulation
   semantics — follows the parameter types from there. *)
let generate ?(et = Machine.Etype.F64)
    ?(opts = Codegen.Emit.default_options) ~(arch : Machine.Arch.t)
    ~(config : Transform.Pipeline.config) (name : Ir.Kernels.name) : generated
    =
  let source = Ir.Kernels.kernel_of_name ?fp:(fp_of_et et) name in
  let trace =
    Driver.Lower.run ~opts:(Codegen.Emit.lower_opts opts) ~arch ~config source
  in
  {
    g_kernel = name;
    g_arch = arch;
    g_et = et;
    g_config = config;
    g_source = source;
    g_optimized = Driver.Trace.optimized trace;
    g_tagged = Templates.Matcher.to_tagged_kernel (Driver.Trace.annotated trace);
    g_program = Driver.Trace.program trace;
  }

(* Run the staged-lowering driver on one of the paper's kernels,
   keeping the whole trace (per-stage timings, fingerprints, size
   counters and, when [snapshots], rendered artifacts).  This is what
   `augem explain` renders. *)
let explain ?(et = Machine.Etype.F64) ?(opts = Driver.Lower.default_opts)
    ~(arch : Machine.Arch.t) ~(config : Transform.Pipeline.config)
    (name : Ir.Kernels.name) : Driver.Trace.t =
  Driver.Lower.run ~opts ~arch ~config
    (Ir.Kernels.kernel_of_name ?fp:(fp_of_et et) name)

(* Machine-readable rendering of a lowering trace. *)
let trace_to_json (t : Driver.Trace.t) : Json.t =
  let stage (r : Driver.Trace.stage_record) =
    Json.Obj
      ([
         ("index", Json.Int r.Driver.Trace.sr_index);
         ("name", Json.String r.Driver.Trace.sr_name);
         ("kind", Json.String r.Driver.Trace.sr_kind);
         ("ms", Json.Float r.Driver.Trace.sr_ms);
         ("fingerprint", Json.String r.Driver.Trace.sr_fingerprint);
         ( "stats",
           Json.Obj
             (List.map
                (fun (k, v) -> (k, Json.Int v))
                r.Driver.Trace.sr_stats) );
       ]
      @
      match r.Driver.Trace.sr_artifact with
      | None -> []
      | Some a -> [ ("artifact", Json.String a) ])
  in
  Json.Obj
    [
      ("kernel", Json.String t.Driver.Trace.tr_kernel);
      ("arch", Json.String t.Driver.Trace.tr_arch);
      ("etype", Json.String (Machine.Etype.name t.Driver.Trace.tr_et));
      ("config", Json.String t.Driver.Trace.tr_config);
      ("stages", Json.List (List.map stage t.Driver.Trace.tr_stages));
    ]

(* [generate] with the configuration chosen by the empirical tuner,
   under the process-wide sweep parallelism and cache directory
   ([Tuner.set_jobs] / [Tuner.set_cache_dir], or the AUGEM_JOBS /
   AUGEM_CACHE_DIR environment variables). *)
let tuned ?(et = Machine.Etype.F64) ~(arch : Machine.Arch.t)
    (name : Ir.Kernels.name) : generated =
  let r = Tuner.tuned ~et arch name in
  generate ~et ~arch ~config:r.Tuner.best.Tuner.cand_config
    ~opts:r.Tuner.best.Tuner.cand_opts name

(* Verify a generated kernel end to end (simulator vs reference BLAS). *)
let verify (g : generated) : Harness.outcome =
  Harness.verify ~et:g.g_et g.g_kernel g.g_program

(* The assembly listing, as the Assembly Kernel Generator emits it. *)
let assembly (g : generated) : string =
  Machine.Att.program_to_string ~et:g.g_et
    ~avx:(g.g_arch.Machine.Arch.simd = Machine.Arch.AVX)
    g.g_program

(* Cycle-model MFLOPS estimate on a workload. *)
let predict (g : generated) (w : Sim.Perf.workload) : Sim.Perf.estimate =
  Sim.Perf.(predict (analyze ~et:g.g_et g.g_arch g.g_program) w)
