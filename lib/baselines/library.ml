(* Models of the comparison BLAS libraries (paper section 5): Intel MKL
   11.0 / AMD ACML 5.3 (the vendor library of each platform), ATLAS
   3.11.8, and GotoBLAS2 1.13.  MKL and ACML are closed source and
   GotoBLAS's kernels are hand-written assembly, so per DESIGN.md each
   library is modelled as a kernel-generation policy through our own
   back end plus a small set of structural attributes:

     - ISA reach: GotoBLAS2 1.13 predates AVX and FMA (the paper calls
       this out explicitly), so its kernels are generated for an
       SSE2-only variant of the target machine — its ~2x GEMM deficit
       on both CPUs is structural, not a fudge factor.
     - Register blocking: vendor kernels are expert-tuned (near the
       tuner's optimum); ATLAS's generated C relies on a
       general-purpose compiler for register allocation and scheduling,
       modelled as a smaller blocking than optimal.
     - Software prefetch: vendor Level-1 kernels historically rely on
       the hardware prefetcher (visible in the paper's AXPY/DOT gaps);
       ATLAS C kernels carry no prefetch at all.
     - A scalar software-quality factor per library (packing, edge
       handling, threading machinery overheads) calibrated once,
       globally — not per figure. *)

open Augem_ir
open Augem_transform
module Arch = Augem_machine.Arch
module Insn = Augem_machine.Insn

type id =
  | AUGEM
  | Vendor (* MKL on Intel, ACML on AMD *)
  | ATLAS
  | GotoBLAS

let all = [ AUGEM; Vendor; ATLAS; GotoBLAS ]

let display_name (arch : Arch.t) = function
  | AUGEM -> "AUGEM"
  | Vendor ->
      if String.equal arch.Arch.vendor "Intel" then "MKL 11.0"
      else "ACML 5.3.0"
  | ATLAS -> "ATLAS 3.11.8"
  | GotoBLAS -> "GotoBLAS2 1.13"

(* GotoBLAS runs on the same silicon but uses only SSE2 encodings. *)
let effective_arch (arch : Arch.t) = function
  | GotoBLAS ->
      {
        arch with
        Arch.name = arch.Arch.name ^ "-sse";
        simd = Arch.SSE;
        fma = Arch.No_fma;
        vec_bits = 128;
        native_fp_bits = 128;
      }
  | AUGEM | Vendor | ATLAS -> arch

(* Global software-quality factor (fraction of kernel-roofline
   performance the surrounding library machinery sustains). *)
let efficiency = function
  | AUGEM -> 1.00
  | Vendor -> 0.985
  | ATLAS -> 0.955
  | GotoBLAS -> 0.97

(* Does this library's implementation of [kernel] software-prefetch?
   Vendor Level-1 kernels of the era leaned on the hardware prefetcher
   (visible in the paper's AXPY/DOT gaps); ACML additionally shipped a
   generic (non-prefetching) GEMV path for Piledriver.  ATLAS's tuned C
   kernels carry prefetches except in its scalar reduction code. *)
let prefetches (id : id) (arch : Arch.t) (kernel : Kernels.name) =
  let amd = String.equal arch.Arch.vendor "AMD" in
  match (id, kernel) with
  | AUGEM, _ -> true
  | GotoBLAS, _ -> true
  | Vendor, Kernels.Gemm -> true
  | Vendor, Kernels.Gemv -> not amd
  | Vendor, (Kernels.Axpy | Kernels.Dot | Kernels.Ger | Kernels.Scal
            | Kernels.Copy | Kernels.Pack_a | Kernels.Pack_b) ->
      false
  | ATLAS, Kernels.Dot -> false
  | ATLAS, _ -> true

let pf cfg id arch kernel =
  if prefetches id arch kernel then cfg
  else { cfg with Pipeline.prefetch = None }

(* Fixed kernel configurations for the modelled libraries.  AUGEM's own
   configuration comes from the auto-tuner instead. *)
let config_for (id : id) (arch : Arch.t) (kernel : Kernels.name) :
    Pipeline.config =
  let jam j i = { Pipeline.default with jam = [ ("j", j); ("i", i) ] } in
  let unroll v u ~expand =
    {
      Pipeline.default with
      inner_unroll = Some (v, u);
      expand_reduction = (if expand then Some u else None);
    }
  in
  let amd = String.equal arch.Arch.vendor "AMD" in
  let base =
    match (id, kernel) with
    (* vendor: expert blocking, close to the tuned optimum *)
    | Vendor, Kernels.Gemm -> jam 4 8
    (* ATLAS emits good C; the general-purpose compiler sustains a
       smaller register blocking than the hand-allocated kernels *)
    | ATLAS, Kernels.Gemm -> if amd then jam 4 8 else jam 2 8
    | GotoBLAS, Kernels.Gemm -> jam 2 8
    | AUGEM, Kernels.Gemm -> jam 4 8 (* placeholder; tuner overrides *)
    | _, Kernels.Gemv -> unroll "j" 8 ~expand:false
    | _, Kernels.Axpy -> unroll "i" 8 ~expand:false
    | _, Kernels.Ger -> unroll "i" 8 ~expand:false
    | _, Kernels.Scal -> unroll "i" 8 ~expand:false
    | _, Kernels.Copy -> unroll "i" 8 ~expand:false
    (* packing routines: plain unrolled copies in every library *)
    | _, Kernels.Pack_a -> unroll "i" 8 ~expand:false
    | _, Kernels.Pack_b -> unroll "l" 8 ~expand:false
    (* gcc 4.7 vectorizes reductions only partially (no reassociation
       without -ffast-math): model the ATLAS DOT as a short chain *)
    | ATLAS, Kernels.Dot ->
        { Pipeline.default with inner_unroll = Some ("i", 4);
          expand_reduction = Some 2 }
    | _, Kernels.Dot -> unroll "i" 8 ~expand:true
  in
  pf base id arch kernel

(* Generate the modelled library's kernel for [arch]. *)
let generate_uncached (id : id) (arch : Arch.t) (kernel : Kernels.name) :
    Arch.t * Insn.program =
  let arch' = effective_arch arch id in
  match id with
  | AUGEM ->
      let r = Augem_autotune.Tuner.tuned arch' kernel in
      (arch', r.Augem_autotune.Tuner.best_program)
  | Vendor | ATLAS | GotoBLAS ->
      let cfg = config_for id arch' kernel in
      let optimized = Pipeline.apply (Kernels.kernel_of_name kernel) cfg in
      let prog = Augem_driver.Emit.generate ~arch:arch' optimized in
      (arch', Augem_codegen.Schedule.run arch' prog)

(* The generated kernels, memoized for the figure sweeps.  The table
   has a bound: its key is the modelled arch, the library and the
   kernel, all drawn from closed lists, and nothing a client sends
   reaches it. *)
let gen_cache : (string, Arch.t * Insn.program) Hashtbl.t = Hashtbl.create 32

let generate (id : id) (arch : Arch.t) (kernel : Kernels.name) :
    Arch.t * Insn.program =
  let key =
    Printf.sprintf "%s/%s/%s" (display_name arch id) arch.Arch.name
      (Kernels.name_to_string kernel)
  in
  match Hashtbl.find_opt gen_cache key with
  | Some v -> v
  | None ->
      let v = generate_uncached id arch kernel in
      Hashtbl.replace gen_cache key v;
      v

let analyze (id : id) (arch : Arch.t) (kernel : Kernels.name) :
    Augem_sim.Perf.loop =
  let arch', prog = generate id arch kernel in
  Augem_sim.Perf.analyze arch' prog

(* Predicted MFLOPS of one library on one workload.  Applied to [id],
   [arch] and [kernel] alone, it analyses the kernel once for every
   workload it is then given. *)
let predict (id : id) (arch : Arch.t) (kernel : Kernels.name) :
    Augem_sim.Perf.workload -> float =
  let loop = analyze id arch kernel in
  fun w ->
    (Augem_sim.Perf.predict loop w).Augem_sim.Perf.e_mflops *. efficiency id
