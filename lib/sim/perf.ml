(* MFLOPS predictor: combines the cycle-level steady-state cost of a
   kernel's hot loop (Cycle_sim) with the streaming-bandwidth bound of
   the memory system (Mem_model) for a given problem size, exactly the
   two-bound reasoning (compute roof vs. bandwidth roof) that governs
   dense linear algebra performance.

   The absolute numbers are those of the modelled microarchitectures;
   the benchmarks compare *libraries* on the *same* model, so relative
   positions — who wins, by what factor — are what carries over from
   the paper. *)

open Augem_machine

type workload =
  | W_gemm of { m : int; n : int; k : int } (* C(m x n) += A(m x k) B(k x n) *)
  | W_gemv of { m : int; n : int } (* y(m) += A(m x n) x(n) *)
  | W_axpy of { n : int }
  | W_dot of { n : int }

let workload_flops = function
  | W_gemm { m; n; k } -> 2.0 *. float_of_int m *. float_of_int n *. float_of_int k
  | W_gemv { m; n } -> 2.0 *. float_of_int m *. float_of_int n
  | W_axpy { n } -> 2.0 *. float_of_int n
  | W_dot { n } -> 2.0 *. float_of_int n

(* Elements touched, for kernels that perform no arithmetic (DCOPY):
   their "MFLOPS" figure is then millions of elements per second. *)
let workload_elements = function
  | W_gemm { m; n; k } -> float_of_int m *. float_of_int n *. float_of_int k
  | W_gemv { m; n } -> float_of_int (m * n)
  | W_axpy { n } | W_dot { n } -> float_of_int n

type estimate = {
  e_mflops : float;
  e_compute_cycles : float;
  e_memory_cycles : float;
  e_flops : float;
  e_level : Mem_model.level;
  e_cycles_per_iter : float;
  e_flops_per_iter : int;
}

(* Fixed call overhead (argument setup, packing-loop startup, BLAS
   interface) in cycles. *)
let call_overhead = 2500.

(* Per-microkernel-invocation overhead for blocked GEMM: accumulator
   zeroing, C tile update, pointer setup. *)
let tile_overhead ~flops_per_iter = 30.0 +. float_of_int flops_per_iter

exception No_hot_loop of string

(* A program's hot loop, analysed once on the arch and at the element
   type every prediction from it is made for. *)
type loop = {
  lp_arch : Arch.t;
  lp_et : Etype.t;
  lp_info : Cycle_sim.loop_info;
}

let analyze ?pipeline_model ?(et = Etype.F64) (arch : Arch.t)
    (p : Insn.program) : loop =
  match Cycle_sim.hot_loop ?pipeline_model ~et arch p with
  | Some li when li.Cycle_sim.li_flops > 0 || li.Cycle_sim.li_load_bytes > 0
    ->
      { lp_arch = arch; lp_et = et; lp_info = li }
  | Some _ | None -> raise (No_hot_loop p.Insn.prog_name)

(* Traffic and working-set model per workload (bytes), at element
   size [eb] (8 for f64, 4 for f32). *)
let memory_profile ~(eb : int) (w : workload) : int * float =
  let feb = float_of_int eb in
  match w with
  | W_gemm { m; n; k } ->
      (* Working set of the steady state: the packed panels (sized by
         the blocking, not the problem); traffic: A and B each read and
         repacked once per panel pass, C read+written once. *)
      let fm = float_of_int m and fn = float_of_int n and fk = float_of_int k in
      let traffic = feb *. ((2. *. fm *. fk) +. (2. *. fk *. fn) +. (3. *. fm *. fn)) in
      (* steady-state working set: packed A block (L2-sized by design) *)
      (256 * 1024, traffic)
  | W_gemv { m; n } ->
      let bytes = eb * ((m * n) + m + n) in
      (bytes, feb *. float_of_int ((m * n) + (2 * m) + n))
  | W_axpy { n } ->
      let ws = 2 * eb * n in
      (ws, 3. *. feb *. float_of_int n)
  | W_dot { n } ->
      let ws = 2 * eb * n in
      (ws, 2. *. feb *. float_of_int n)

(* --- blocked vs streamed GEMM predictors -------------------------------- *)

(* Compute-roof cycles of a GEMM micro-kernel whose hot loop retires
   [li_flops] flops per iteration, over [flops] total flops, including
   the per-microtile invocation overhead (same accounting as the
   W_gemm branch of [predict]). *)
let gemm_compute_cycles (li : Cycle_sim.loop_info) ~(flops : float) : float =
  if li.Cycle_sim.li_flops = 0 then
    raise (No_hot_loop "gemm hot loop retires no flops");
  let per_iter = float_of_int li.Cycle_sim.li_flops in
  let work_per_cycle = per_iter /. li.Cycle_sim.li_cycles in
  let tiles = flops /. 2.0 /. per_iter *. 2.0 /. 256. in
  (flops /. work_per_cycle)
  +. (tiles *. tile_overhead ~flops_per_iter:li.Cycle_sim.li_flops)

let gemm_dims = function
  | W_gemm { m; n; k } -> (float_of_int m, float_of_int n, float_of_int k)
  | _ -> invalid_arg "Perf: blocked/streamed prediction needs a W_gemm workload"

let ceil_div a b = Float.of_int (int_of_float (Float.ceil (a /. b)))

(* The full blocked driver: packing + macro-kernel loops around the
   micro-kernel, under an explicit MC/KC/NC blocking.  DRAM traffic
   follows Goto's analysis: packed B written/read once per (jc,pc)
   panel — 2·k·n total; the A block packed once per jc pass —
   2·m·k·ceil(n/NC); C read+written once per pc pass —
   2·m·n·ceil(k/KC).  Micro-kernel loads stream from the packed
   panels resident in L1/L2, and their port pressure is already inside
   the hot loop's cycle count, so they add no memory-leg traffic. *)
let predict_blocked (l : loop) ~(blocking : Mem_model.blocking)
    (w : workload) : estimate =
  let li = l.lp_info and arch = l.lp_arch and et = l.lp_et in
  let feb = float_of_int (Etype.bytes et) in
  let fm, fn, fk = gemm_dims w in
  let flops = workload_flops w in
  let n_jc = ceil_div fn (float_of_int blocking.Mem_model.bl_nc) in
  let n_pc = ceil_div fk (float_of_int blocking.Mem_model.bl_kc) in
  let n_ic = ceil_div fm (float_of_int blocking.Mem_model.bl_mc) in
  (* per-block driver overhead: one pack-A + one micro-kernel dispatch
     per (jc, pc, ic) block, one pack-B per (jc, pc) *)
  let blocks = n_jc *. n_pc *. n_ic in
  let compute =
    gemm_compute_cycles li ~flops +. (blocks *. 200.) +. (n_jc *. n_pc *. 100.)
  in
  let traffic =
    feb
    *. ((2. *. fk *. fn) (* pack B: read + write packed *)
       +. (2. *. fm *. fk *. n_jc) (* pack A, once per jc pass *)
       +. (2. *. fm *. fn *. n_pc) (* C read + write, once per pc pass *))
  in
  let working_set =
    Etype.bytes et * int_of_float ((fm *. fk) +. (fk *. fn) +. (fm *. fn))
  in
  let prefetch = li.Cycle_sim.li_prefetches > 0 in
  let memory = Mem_model.stream_cycles arch ~working_set ~traffic ~prefetch in
  let total = Float.max compute memory +. call_overhead in
  let mflops = flops *. arch.Arch.turbo_ghz *. 1000.0 /. total in
  let panel_set =
    Etype.bytes et * blocking.Mem_model.bl_mc * blocking.Mem_model.bl_kc
  in
  {
    e_mflops = mflops;
    e_compute_cycles = compute;
    e_memory_cycles = memory;
    e_flops = flops;
    e_level = Mem_model.stream_level arch ~working_set:panel_set;
    e_cycles_per_iter = li.Cycle_sim.li_cycles;
    e_flops_per_iter = li.Cycle_sim.li_flops;
  }

(* The unblocked path the benchmarks measured before the macro-kernel
   existed: the micro-kernel streaming over the full matrices as one
   giant panel.  Without cache blocking the whole of A is re-read for
   every NR-wide column strip of C, so the working set is the full
   problem and the traffic scales with n/NR — DRAM-bound at any size
   that matters.

   Unlike the blocked driver, the memory leg does NOT overlap with
   compute: blocking is precisely what keeps the micro-kernel's
   operands cache-resident so its loads retire at the cycle-model's
   L1 latencies.  Streaming the full matrices, each panel pass misses
   to DRAM and the out-of-order window (tens of instructions) cannot
   hide hundreds of cycles of miss latency, so the legs serialize —
   the textbook account of why unblocked GEMM collapses, and the
   behaviour blocking exists to fix. *)
let predict_streamed (l : loop) ?(nr = 4) (w : workload) : estimate =
  let li = l.lp_info and arch = l.lp_arch and et = l.lp_et in
  let fm, fn, fk = gemm_dims w in
  let flops = workload_flops w in
  let strips = ceil_div fn (float_of_int (max 1 nr)) in
  let compute = gemm_compute_cycles li ~flops in
  let feb = float_of_int (Etype.bytes et) in
  let traffic =
    feb *. ((fm *. fk *. strips) +. (fk *. fn) +. (2. *. fm *. fn))
  in
  let working_set =
    Etype.bytes et * int_of_float ((fm *. fk) +. (fk *. fn) +. (fm *. fn))
  in
  let prefetch = li.Cycle_sim.li_prefetches > 0 in
  let memory = Mem_model.stream_cycles arch ~working_set ~traffic ~prefetch in
  let total = compute +. memory +. call_overhead in
  let mflops = flops *. arch.Arch.turbo_ghz *. 1000.0 /. total in
  {
    e_mflops = mflops;
    e_compute_cycles = compute;
    e_memory_cycles = memory;
    e_flops = flops;
    e_level = Mem_model.stream_level arch ~working_set;
    e_cycles_per_iter = li.Cycle_sim.li_cycles;
    e_flops_per_iter = li.Cycle_sim.li_flops;
  }

let predict (l : loop) (w : workload) : estimate =
  let li = l.lp_info and arch = l.lp_arch and et = l.lp_et in
  let flops = workload_flops w in
  (* work accounting: flops when the loop computes, elements when it
     only moves data (DCOPY-style) *)
  let work, units_per_iter =
    if li.Cycle_sim.li_flops > 0 then
      (flops, float_of_int li.Cycle_sim.li_flops)
    else
      ( workload_elements w,
        Float.max 1.0
          (float_of_int (li.Cycle_sim.li_load_bytes / Etype.bytes et)) )
  in
  let work_per_cycle = units_per_iter /. li.Cycle_sim.li_cycles in
  let compute =
    (work /. work_per_cycle)
    +.
    match w with
    | W_gemm { m; n; k = _ } ->
        (* one microtile pass per (Mr x Nr) tile per Kc block; the k
           loop is the hot loop, so per-invocation overhead amortizes
           over Kc iterations *)
        let tiles =
          flops /. 2.0 /. float_of_int li.Cycle_sim.li_flops *. 2.0 /. 256.
        in
        ignore (m, n);
        tiles *. tile_overhead ~flops_per_iter:li.Cycle_sim.li_flops
    | W_gemv { n; _ } -> float_of_int n *. 12.0 (* per-column setup *)
    | W_axpy _ | W_dot _ -> 0.0
  in
  let working_set, traffic = memory_profile ~eb:(Etype.bytes et) w in
  let prefetch = li.Cycle_sim.li_prefetches > 0 in
  let memory =
    Mem_model.stream_cycles arch ~working_set ~traffic ~prefetch
  in
  let total = Float.max compute memory +. call_overhead in
  let rate_basis = if li.Cycle_sim.li_flops > 0 then flops else work in
  let mflops = rate_basis *. arch.Arch.turbo_ghz *. 1000.0 /. total in
  {
    e_mflops = mflops;
    e_compute_cycles = compute;
    e_memory_cycles = memory;
    e_flops = flops;
    e_level = Mem_model.stream_level arch ~working_set;
    e_cycles_per_iter = li.Cycle_sim.li_cycles;
    e_flops_per_iter = li.Cycle_sim.li_flops;
  }
