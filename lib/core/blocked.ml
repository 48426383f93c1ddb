(* The blocked DGEMM driver: the Goto jc/pc/ic macro-kernel loop nest
   over NC/KC/MC cache blocks, where *every* inner routine — the two
   packing kernels and the micro-kernel — is AUGEM-generated assembly
   executed on the functional simulator.  This is the full generated
   GEMM the paper deploys inside OpenBLAS: the framework produces the
   Mc x Kc x Nc inner kernel and the packing routines; this module is
   only the executor and buffer management around them.

   A plan holds four generated kernels: the micro-kernel, pack-A,
   pack-B and SCAL.  Only the native executor scales with SCAL; this
   simulated executor and the reference keep their OCaml scaling loops,
   because they are the oracles the native result is checked against.

   One nest, three executors: the loop nest is [Level3.nest], shared
   with the reference [Level3.dgemm_blocked] and the native driver, so
   a differential run against the reference executor with the same
   simulated micro-kernel is bit-exact: the macro-kernel layer adds no
   floating-point reassociation of its own. *)

module Exec = Augem_sim.Exec_sim
module Mat = Augem_blas.Matrix
module L3 = Augem_blas.Level3
module Insn = Augem_machine.Insn
module Arch = Augem_machine.Arch
module Tuner = Augem_autotune.Tuner
module Mem_model = Augem_sim.Mem_model
module Perf = Augem_sim.Perf
module Kernels = Augem_ir.Kernels
module Pipeline = Augem_transform.Pipeline
module Et = Augem_machine.Etype

type plan = {
  pl_arch : Arch.t;
  pl_et : Et.t;  (* scalar precision the plan's kernels compute in *)
  pl_blocking : Mem_model.blocking;  (* tuned MC/KC/NC *)
  pl_mr : int;
  pl_nr : int;
  pl_micro : Insn.program;
  pl_micro_config : Tuner.candidate;
  pl_pack_a : Insn.program;
  pl_pack_b : Insn.program;
  pl_scal : Insn.program;  (* X := alpha * X, the native scaling steps *)
  pl_micro_ties : Tuner.blocked_member list;  (* each set: its pick first *)
  pl_pack_a_ties : (Tuner.candidate * Insn.program) list;
  pl_pack_b_ties : (Tuner.candidate * Insn.program) list;
  pl_scal_ties : (Tuner.candidate * Insn.program) list;
  pl_blocked_mflops : float; (* predicted, blocked driver, ref workload *)
  pl_streamed_mflops : float; (* predicted, unblocked baseline *)
  pl_fell_back : bool;  (* some sweep behind the plan fell back *)
}

(* The plan running [micro], [pack_a], [pack_b] and [scal], each set
   cut down to its pick.  The predicted figures stay the plan's: every
   member of the micro-kernel's set has its blocked score. *)
let pick (p : plan) ~(micro : Tuner.blocked_member) ~pack_a ~pack_b ~scal :
    plan =
  {
    p with
    pl_blocking = micro.Tuner.bm_blocking;
    pl_mr = micro.Tuner.bm_mr;
    pl_nr = micro.Tuner.bm_nr;
    pl_micro = micro.Tuner.bm_program;
    pl_micro_config = micro.Tuner.bm_candidate;
    pl_pack_a = snd pack_a;
    pl_pack_b = snd pack_b;
    pl_scal = snd scal;
    pl_micro_ties = [ micro ];
    pl_pack_a_ties = [ pack_a ];
    pl_pack_b_ties = [ pack_b ];
    pl_scal_ties = [ scal ];
  }

let drop_ties (p : plan) : plan =
  pick p
    ~micro:(List.hd p.pl_micro_ties)
    ~pack_a:(List.hd p.pl_pack_a_ties)
    ~pack_b:(List.hd p.pl_pack_b_ties)
    ~scal:(List.hd p.pl_scal_ties)

(* The one place a plan record is built: from the blocked sweep and a
   way to obtain the two packing kernels and SCAL, each the first-seen
   maximum of its sweep, with that sweep's exact-tie set (the packing
   and SCAL members' programs regenerated).  The plan fell back when
   the micro x blocking cross-product was fully discarded or any of the
   other three sweeps fell back to its safe baseline. *)
let assemble ~et (arch : Arch.t) (bb : Tuner.blocked_result)
    (kernel : Kernels.name -> Tuner.result) : plan =
  let pa = kernel Kernels.Pack_a in
  let pb = kernel Kernels.Pack_b in
  let sc = kernel Kernels.Scal in
  let micro = List.hd bb.Tuner.bb_ties in
  let ties name r = Tuner.tie_programs ~et arch name r in
  {
    pl_arch = arch;
    pl_et = et;
    pl_blocking = micro.Tuner.bm_blocking;
    pl_mr = micro.Tuner.bm_mr;
    pl_nr = micro.Tuner.bm_nr;
    pl_micro = micro.Tuner.bm_program;
    pl_micro_config = micro.Tuner.bm_candidate;
    pl_pack_a = pa.Tuner.best_program;
    pl_pack_b = pb.Tuner.best_program;
    pl_scal = sc.Tuner.best_program;
    pl_micro_ties = bb.Tuner.bb_ties;
    pl_pack_a_ties = ties Kernels.Pack_a pa;
    pl_pack_b_ties = ties Kernels.Pack_b pb;
    pl_scal_ties = ties Kernels.Scal sc;
    pl_blocked_mflops = bb.Tuner.bb_blocked_score;
    pl_streamed_mflops = bb.Tuner.bb_streamed_score;
    pl_fell_back =
      bb.Tuner.bb_discarded = bb.Tuner.bb_micro_visited
      || pa.Tuner.fell_back || pb.Tuner.fell_back || sc.Tuner.fell_back;
  }

(* Build the plan for an architecture: tune the micro-kernel jointly
   with its blocking triple (the cross-product sweep), then tune the
   two packing kernels and SCAL through the same staged-lowering
   pipeline (validators, asmcheck lints and all). *)
let plan ?(et = Et.F64) ?jobs ?workload (arch : Arch.t) : plan =
  assemble ~et arch
    (Tuner.tune_blocked ~et ?jobs ?workload arch)
    (Tuner.tuned ~et ?jobs arch)

(* The safe-baseline plan, built without a sweep: the baseline
   micro-kernel with the analytically-derived blocking, and baseline
   packing and SCAL kernels.  Always [pl_fell_back]. *)
let baseline_plan ?(et = Et.F64) ?workload (arch : Arch.t) : plan =
  assemble ~et arch
    (Tuner.tune_blocked ~et ?workload ~space:[] arch)
    (Tuner.tune ~et ~space:[] arch)

type stats = {
  st_micro_calls : int;
  st_pack_a_calls : int;
  st_pack_b_calls : int;
  st_insns : int;  (* instructions interpreted across all three kernels *)
}

(* Default per-call instruction budget, matching the harness's. *)
let default_fuel = 20_000_000

(* The blocking a run uses — [?blocking] if given, else the plan's tuned
   triple — in the loop nest's terms. *)
let nest_blocking ?blocking (p : plan) : L3.blocking =
  let bl = Option.value blocking ~default:p.pl_blocking in
  { L3.bk_mc = bl.Mem_model.bl_mc; bk_kc = bl.bl_kc; bk_nc = bl.bl_nc }

(* Each simulated kernel sees its block as a flat slice of a
   column-major operand, starting at the block's first element. *)
let view (data : float array) ~ld ~off ~rows ~cols =
  Array.sub data off (((cols - 1) * ld) + rows)

(* The plan's micro-kernel on the simulator as a [Level3.micro_kernel]:
   the C tile goes through a [view] and is copied back.  [count] sees
   every call's result. *)
let sim_micro ~fuel ~count (p : plan) : L3.micro_kernel =
 fun ~mc ~kc ~nc ~pa ~pb ~c_data ~c_off ~ldc ->
  let tile = view c_data ~ld:ldc ~off:c_off ~rows:mc ~cols:nc in
  count
    (Exec.call ~et:p.pl_et ~fuel p.pl_micro
       Exec.[ Aint mc; Aint kc; Aint nc; Aint ldc; Abuf pa; Abuf pb;
              Abuf tile ]);
  Array.blit tile 0 c_data c_off (Array.length tile)

(* C := alpha * A * B + beta * C with the plan's generated kernels,
   executed on the functional simulator.  [?blocking] overrides the
   plan's triple — the blocking is a runtime parameter of the generated
   code, so small overrides let tests drive multi-block trips and
   remainder blocks on small matrices.  Raises [Exec.Sim_error] if any
   generated kernel faults, [Invalid_argument] on a shape mismatch. *)
let gemm ?(fuel = default_fuel) ?blocking ?(alpha = 1.0) ?(beta = 1.0)
    (p : plan) (a : Mat.t) (b : Mat.t) (c : Mat.t) : stats =
  let et = p.pl_et in
  let alpha = Et.round et alpha and beta = Et.round et beta in
  let blocking = nest_blocking ?blocking p in
  let run = L3.nest ~who:"Blocked.gemm" ~blocking ~alpha ~beta a b c in
  let pa_len, pb_len = L3.packed_sizes blocking a b in
  let pabuf = Array.make pa_len 0. and pbbuf = Array.make pb_len 0. in
  let micro_calls = ref 0 and pack_a_calls = ref 0 and pack_b_calls = ref 0 in
  let insns = ref 0 in
  let count calls (r : Exec.result) =
    incr calls;
    insns := !insns + r.Exec.r_executed
  in
  let micro = sim_micro ~fuel ~count:(count micro_calls) p in
  run
    {
      L3.scale_c =
        (fun beta ->
          for j = 0 to c.Mat.cols - 1 do
            for i = 0 to c.Mat.rows - 1 do
              Mat.set c i j (Et.round et (beta *. Mat.get c i j))
            done
          done);
      pack_b =
        (fun ~l0 ~j0 ~kc ~nc ->
          let ld = b.Mat.ld in
          let panel =
            view b.Mat.data ~ld ~off:((j0 * ld) + l0) ~rows:kc ~cols:nc
          in
          count pack_b_calls
            (Exec.call ~et ~fuel p.pl_pack_b
               Exec.[ Aint kc; Aint nc; Aint ld; Abuf panel; Abuf pbbuf ]));
      scale_b =
        (fun alpha ~kc ~nc ->
          for idx = 0 to (kc * nc) - 1 do
            pbbuf.(idx) <- Et.round et (alpha *. pbbuf.(idx))
          done);
      workers =
        [|
          {
            L3.pack_a =
              (fun ~i0 ~l0 ~mc ~kc ->
                let ld = a.Mat.ld in
                let block =
                  view a.Mat.data ~ld ~off:((l0 * ld) + i0) ~rows:mc ~cols:kc
                in
                count pack_a_calls
                  (Exec.call ~et ~fuel p.pl_pack_a
                     Exec.[ Aint mc; Aint kc; Aint ld; Abuf block; Abuf pabuf ]));
            micro =
              (fun ~i0 ~j0 ~mc ~kc ~nc ->
                micro ~mc ~kc ~nc ~pa:pabuf ~pb:pbbuf ~c_data:c.Mat.data
                  ~c_off:((j0 * c.Mat.ld) + i0) ~ldc:c.Mat.ld);
          };
        |];
      fork = L3.direct;
    };
  {
    st_micro_calls = !micro_calls;
    st_pack_a_calls = !pack_a_calls;
    st_pack_b_calls = !pack_b_calls;
    st_insns = !insns;
  }

(* Predicted MFLOPS of the plan's blocked driver / unblocked baseline
   on an arbitrary problem size (the cycle model, not simulation). *)
let predict (p : plan) (w : Perf.workload) : Perf.estimate =
  Perf.predict_blocked ~et:p.pl_et p.pl_arch p.pl_micro
    ~blocking:p.pl_blocking w

let predict_streamed (p : plan) (w : Perf.workload) : Perf.estimate =
  Perf.predict_streamed ~et:p.pl_et p.pl_arch p.pl_micro ~nr:p.pl_nr w

(* Seeded random A (m x k), B (k x n) and C0 (m x n), narrowed to [et]
   so reference and generated kernels start from identical representable
   values. *)
let operands ~et ~seed ~m ~n ~k : Mat.t * Mat.t * Mat.t =
  let nar (mat : Mat.t) =
    Array.iteri (fun i x -> mat.Mat.data.(i) <- Et.round et x) mat.Mat.data;
    mat
  in
  ( nar (Mat.random ~seed m k),
    nar (Mat.random ~seed:(seed + 1) k n),
    nar (Mat.random ~seed:(seed + 2) m n) )

(* The result comparison of both differential checks ([check] here and
   [Native_blocked.check]): [a] against [b], bit-exact when [tol = 0.]
   and otherwise within the relative [tol] of [Mat.approx_equal],
   scaled by [a].  The error names the [problem] (shape, alpha, beta),
   [what] diverged, the max |diff| and the tolerance. *)
let agree ~problem ~what ~tol (a : Mat.t) (b : Mat.t) : (unit, string) result =
  let ok =
    if tol = 0.0 then Array.for_all2 Float.equal a.Mat.data b.Mat.data
    else Mat.approx_equal ~tol a b
  in
  if ok then Ok ()
  else
    Error
      (Printf.sprintf "%s: %s (max |diff| = %.3g, tol %.1g)" problem what
         (Mat.max_abs_diff a b) tol)

let problem ~m ~n ~k ~alpha ~beta =
  Printf.sprintf "m=%d n=%d k=%d alpha=%g beta=%g" m n k alpha beta

(* Differential check on one problem shape: the generated blocked
   driver against (1) [dgemm_naive] within [tol], and (2) the reference
   executor ([dgemm_blocked], reference packing) driving the *same*
   simulated micro-kernel, which must agree bit-exactly — one nest, so
   the same block schedule and FP operation order; any deviation is a
   packing bug, not rounding.

   The naive reference accumulates in f64 regardless of the plan's
   precision, so the default tolerance is relative and scales with
   both the element type's epsilon and the K reduction length
   ({!Et.tol}) — a fixed 1e-9 would spuriously fail every f32 plan at
   large K while being looser than necessary for f64 at small K. *)
let check ?fuel ?blocking ?tol ?(seed = 42) (p : plan) ~m ~n ~k () :
    (stats, string) result =
  let et = p.pl_et in
  let tol = match tol with Some t -> t | None -> Et.tol ~k et in
  let a, b, c0 = operands ~et ~seed ~m ~n ~k in
  let c_naive = Mat.copy c0 in
  let c_gen = Mat.copy c0 in
  let c_hybrid = Mat.copy c0 in
  L3.dgemm_naive ~alpha:1.0 ~beta:1.0 a b c_naive;
  match gemm ?fuel ?blocking p a b c_gen with
  | exception Exec.Sim_error msg -> Error ("simulator fault: " ^ msg)
  | stats ->
      let bl = Option.value blocking ~default:p.pl_blocking in
      let fuel = Option.value fuel ~default:default_fuel in
      L3.dgemm_blocked ~blocking:(nest_blocking ?blocking p)
        ~kernel:(sim_micro ~fuel ~count:ignore p) ~alpha:1.0 ~beta:1.0 a b
        c_hybrid;
      let problem =
        problem ~m ~n ~k ~alpha:1.0 ~beta:1.0
        ^ " " ^ Mem_model.blocking_to_string bl
      in
      let ( let* ) = Result.bind in
      let* () =
        agree ~problem ~tol:0.0 c_gen c_hybrid
          ~what:
            "generated packing/loop nest diverges from reference macro-kernel"
      in
      let* () =
        agree ~problem ~what:"blocked result off dgemm_naive" ~tol c_naive c_gen
      in
      Ok stats
