(* Performance model for the six higher-level DLA routines of paper
   Table 6.  Each routine is decomposed exactly as the numeric
   implementations in [Augem_blas.Level3] do it (after Goto & van de
   Geijn's Level-3 paper):

     SYMM / SYRK / SYR2K / TRMM : all flops cast onto the GEMM kernel,
       with a small routine-shape factor (extra packing, triangular
       edges);
     TRSM : two steps — the diagonal-block solve, which is translated
       straightforwardly (NOT through the GEMM kernel; this is the
       paper's stated reason AUGEM loses TRSM), and the trailing GEMM
       update;
     GER : a rank-1 update streaming the whole matrix — Level-1-kernel
       bound, like AXPY over m*n elements.

   The GEMM leg reuses each library's modelled GEMM kernel; the solve
   leg uses a per-library triangular-solve efficiency (vendor libraries
   ship optimized small solvers, AUGEM translates the solve
   straightforwardly). *)

module Arch = Augem_machine.Arch
module Kernels = Augem_ir.Kernels
module Perf = Augem_sim.Perf
module Mem = Augem_sim.Mem_model

type routine =
  | SYMM
  | SYRK
  | SYR2K
  | TRMM
  | TRSM
  | GER

let all = [ SYMM; SYRK; SYR2K; TRMM; TRSM; GER ]

let name = function
  | SYMM -> "SYMM"
  | SYRK -> "SYRK"
  | SYR2K -> "SYR2K"
  | TRMM -> "TRMM"
  | TRSM -> "TRSM"
  | GER -> "GER"

(* Routine-shape factor on the GEMM-cast flops: symmetric packing,
   triangular edge tiles, double passes.  Shared by all libraries. *)
let shape_factor = function
  | SYMM -> 1.0
  | SYRK -> 0.975
  | SYR2K -> 0.98
  | TRMM -> 0.965
  | TRSM -> 1.0 (* handled by the two-step decomposition below *)
  | GER -> 1.0

(* Fraction of peak the library's small triangular solve sustains. *)
let solve_efficiency = function
  | Library.AUGEM -> 0.22 (* straightforward translation, the paper's gap *)
  | Library.Vendor -> 0.70
  | Library.ATLAS -> 0.50
  | Library.GotoBLAS -> 0.35

(* TRSM diagonal-block size of the decomposition. *)
let solve_block = 64

(* Applied to the library, arch and routine alone, it analyses the
   kernel the routine runs on once, for every size it is then given. *)
let predict (id : Library.id) (arch : Arch.t) (r : routine) :
    m:int -> k:int -> float =
  match r with
  | GER ->
      (* A += alpha x y^T: the real generated GER kernel, streaming the
         whole m x m matrix (GEMV-like working set and traffic) *)
      let loop = Library.analyze id arch Kernels.Ger in
      let arch' = loop.Perf.lp_arch in
      fun ~m ~k:_ ->
        let est = Perf.predict loop (Perf.W_gemv { m; n = m }) in
        (* GEMV reads the matrix once; GER reads and writes it: halve
           the effective bandwidth of the memory leg *)
        let est_mem = est.Perf.e_memory_cycles *. 2.0 in
        let total = Float.max est.Perf.e_compute_cycles est_mem +. 2500. in
        est.Perf.e_flops *. arch'.Arch.turbo_ghz *. 1000.0 /. total
        *. Library.efficiency id
  | TRSM ->
      let loop = Library.analyze id arch Kernels.Gemm in
      let solve_rate =
        solve_efficiency id *. Arch.peak_mflops loop.Perf.lp_arch
      in
      fun ~m ~k ->
        let gemm = Perf.predict loop (Perf.W_gemm { m; n = m; k }) in
        let gemm_rate = gemm.Perf.e_mflops in
        (* solve fraction: nb out of every m rows are solved serially *)
        let frac =
          Float.min 1.0 (float_of_int solve_block /. float_of_int m)
        in
        let inv_rate = ((1.0 -. frac) /. gemm_rate) +. (frac /. solve_rate) in
        1.0 /. inv_rate *. Library.efficiency id
  | SYMM | SYRK | SYR2K | TRMM ->
      let loop = Library.analyze id arch Kernels.Gemm in
      fun ~m ~k ->
        let est = Perf.predict loop (Perf.W_gemm { m; n = m; k }) in
        est.Perf.e_mflops *. shape_factor r *. Library.efficiency id

(* Average over the paper's Table 6 size sweep. *)
let table6_sizes = List.init 20 (fun i -> 1024 + (i * 256)) (* 1024..5888 *)

let average (id : Library.id) (arch : Arch.t) (r : routine) : float =
  let k = 256 in
  let ger_sizes = List.init 13 (fun i -> 2048 + (i * 256)) in
  let sizes = match r with GER -> ger_sizes | _ -> table6_sizes in
  let at = predict id arch r in
  let vals = List.map (fun m -> at ~m ~k) sizes in
  List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)
