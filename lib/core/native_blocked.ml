(* Natively-executed blocked GEMM and wall-clock kernel measurement.

   [Blocked.gemm] runs the generated packing and micro-kernels on the
   functional simulator, staging every block through [Array.sub] views
   because simulated memory is private per call.  This module runs the
   same plan's kernels as real machine code: the matrices and packing
   buffers live in Bigarrays for the whole loop nest, and blocks are
   addressed by passing interior pointers — no per-call staging, so the
   wall clock measures the kernels, not the harness.

   Every step inside a block is one of the plan's four generated
   kernels, called natively: pack-B, pack-A, the micro-kernel, and SCAL
   for both scaling steps (C by beta, the packed B panel by alpha).
   SCAL does one IEEE multiply per element, so it is bit-identical to
   the OCaml [beta *. x] that the reference and simulated executors
   keep as oracles (at f32, to [Etype.round (beta *. x)]: the product
   of two f32 values is exact in double).

   One nest, three executors: [Level3.nest] drives this executor as it
   drives [Blocked.gemm]'s (same block schedule, same beta-then-alpha
   handling, scaling rounded to the element type), so at f64 the native
   result must agree bit-exactly with the simulated one, and within
   [Etype.tol] at f32 where the simulator's round-after-every-op
   semantics legitimately double-rounds.

   Natively the nest runs on every core, under the schedule
   [Level3.schedule] picks.  Under rows the caller scales C and packs
   and scales each B panel, and each worker packs its ic blocks into its
   own packed-A buffer and runs the micro-kernel on them.  Under columns
   each worker scales, packs and multiplies its own chunks of C's
   columns, with its own packed-B buffer too, and packs A's ic blocks
   once a pass.  The workers are [team]'s, one per core, shared by every
   loaded plan.  Neither split moves a row block boundary or cuts a
   register tile, so every element of C meets the micro-kernel's code
   exactly as in a serial run, and the result is bit-identical to
   [~jobs:1].

   Loading a plan lets the clock break the cycle model's exact ties:
   every member of the plan's four tie sets goes through the gates, the
   members of each set are timed against each other, and the fastest
   runs.  [np_plan] is the plan that runs, so every check compares the
   machine code against that plan's simulated run. *)

module Exec = Augem_sim.Exec_sim
module Mat = Augem_blas.Matrix
module L3 = Augem_blas.Level3
module Insn = Augem_machine.Insn
module Arch = Augem_machine.Arch
module Et = Augem_machine.Etype
module Kernels = Augem_ir.Kernels
module Perf = Augem_sim.Perf
module Mem_model = Augem_sim.Mem_model
module Tuner = Augem_autotune.Tuner
module Runtime = Augem_jit.Runtime
module Abi = Augem_jit.Abi
module Clock = Augem_jit.Clock
module Team = Augem_parallel.Team

(* --- element-typed resident buffers ------------------------------------ *)

(* A Bigarray-backed buffer of the kernel's element type with
   elementwise access and interior-pointer addressing.  The closures
   capture the Bigarray, keeping the storage alive for as long as any
   address derived from it can be used. *)
type tensor = {
  t_len : int;  (* logical length, excluding tail padding *)
  t_get : int -> float;
  t_set : int -> float -> unit;
  t_addr : int -> int64;  (* address of element [i] *)
  t_at : int -> int;  (* the same address as an int, without allocating *)
}

(* [n] elements starting on a page boundary.  Where malloc puts a large
   buffer depends on what the process allocated and freed before (glibc
   moves its mmap threshold as buffers are freed), and the kernels'
   speed depends on where their operands start within a page: aligning
   keeps the wall clock independent of that history. *)
let page_aligned kind n =
  let page = 4096 and bytes = Bigarray.kind_size_in_bytes kind in
  let ba = Bigarray.Array1.create kind Bigarray.c_layout (n + (page / bytes)) in
  let off = Int64.(to_int (rem (Runtime.jit_ba_addr ba) (of_int page))) in
  Bigarray.Array1.sub ba ((page - off) mod page / bytes) n

(* [n] elements, zero but for a prefix copied from [init] (at most [n]
   long).  At f32 a store narrows, as the simulator's typed memory
   does. *)
let tensor ?(init = [||]) (et : Et.t) (n : int) : tensor =
  let n' = max 1 n + Abi.pad_elements in
  if Array.length init > n then invalid_arg "Native_blocked.tensor";
  (* user-space addresses fit in an OCaml int *)
  let addresses ba =
    let base = Int64.to_int (Runtime.jit_ba_addr ba)
    and bytes = Bigarray.kind_size_in_bytes (Bigarray.Array1.kind ba) in
    let t_at i = base + (i * bytes) in
    (t_at, fun i -> Int64.of_int (t_at i))
  in
  match et with
  | Et.F64 ->
      let ba = page_aligned Bigarray.float64 n' in
      Bigarray.Array1.fill ba 0.0;
      for i = 0 to Array.length init - 1 do
        Bigarray.Array1.unsafe_set ba i (Array.unsafe_get init i)
      done;
      let t_at, t_addr = addresses ba in
      {
        t_len = n;
        t_get = Bigarray.Array1.get ba;
        t_set = Bigarray.Array1.set ba;
        t_addr;
        t_at;
      }
  | Et.F32 ->
      let ba = page_aligned Bigarray.float32 n' in
      Bigarray.Array1.fill ba 0.0;
      for i = 0 to Array.length init - 1 do
        Bigarray.Array1.unsafe_set ba i (Array.unsafe_get init i)
      done;
      let t_at, t_addr = addresses ba in
      {
        t_len = n;
        t_get = Bigarray.Array1.get ba;
        t_set = Bigarray.Array1.set ba;
        t_addr;
        t_at;
      }

(* A tensor holding [data]. *)
let stage (et : Et.t) (data : float array) : tensor =
  tensor ~init:data et (Array.length data)

let read_back (t : tensor) (data : float array) : unit =
  for i = 0 to Array.length data - 1 do
    data.(i) <- t.t_get i
  done

(* --- the native plan ---------------------------------------------------- *)

type native_plan = {
  np_plan : Blocked.plan;
  np_micro : Runtime.Exec_buf.t;
  np_pack_a : Runtime.Exec_buf.t;
  np_pack_b : Runtime.Exec_buf.t;
  np_scal : Runtime.Exec_buf.t;
}

(* The process's GEMM workers, one per core, whichever plan runs: its
   helpers start on a split pass and stop at [release], and the next
   split pass of any loaded plan starts them again. *)
let team = Team.create (Team.default_jobs ())

(* Stops [team]'s helper domains and unmaps the code. *)
let release (np : native_plan) =
  Team.release team;
  Runtime.Exec_buf.release np.np_micro;
  Runtime.Exec_buf.release np.np_pack_a;
  Runtime.Exec_buf.release np.np_pack_b;
  Runtime.Exec_buf.release np.np_scal

(* --- the native executor ------------------------------------------------ *)

(* C := alpha*A*B + beta*C over [ta], [tb] and [tc], resident copies of
   [a], [b] and [c]: returns [run] (one full blocked pass; repeatable,
   each pass re-applies beta and accumulates) and [finish] (copy C back
   into [c] and return it).  A pass allocates nothing on one worker.

   [jobs] caps the workers at [team]'s size, its default;
   [Level3.schedule] shares the problem among them.  Each worker has its
   own packed A: one ic block under the row schedule, every ic block
   under the column schedule.  Packed B is one buffer that every worker
   reads under the row schedule, and one per worker under the column
   schedule.  All are sized to the problem and the schedule
   ([Level3.packed_sizes]). *)
let staged_runner ?(jobs = Team.size team) ?blocking ?(alpha = 1.0)
    ?(beta = 1.0) (np : native_plan) (a : Mat.t) (b : Mat.t) (c : Mat.t)
    (ta, tb, tc) : (unit -> unit) * (unit -> unit) =
  let p = np.np_plan in
  let et = p.Blocked.pl_et in
  let alpha = Et.round et alpha and beta = Et.round et beta in
  let blocking = Blocked.nest_blocking ?blocking p in
  let who = "Native_blocked.gemm" in
  L3.check_blocking ~who blocking;
  let schedule =
    L3.schedule blocking ~nr:(Blocked.micro p).Tuner.bm_nr
      ~workers:(min jobs (Team.size team))
      ~m:a.Mat.rows ~n:b.Mat.cols ~k:a.Mat.cols
  in
  let nest = L3.nest ~who ~blocking ~schedule ~alpha ~beta a b c in
  let pa_len, pb_len = L3.packed_sizes blocking schedule a b in
  let shared_pb =
    match schedule with
    | L3.Rows _ -> Some (tensor et pb_len)
    | L3.Columns _ -> None
  in
  let fp32 = et = Et.F32 in
  let call buf i0 i1 i2 i3 i4 i5 i6 =
    Runtime.Exec_buf.call buf ~fp32 i0 i1 i2 i3 i4 i5 i6 0 0. 0. 0. 0.
  in
  (* [len] elements of [t] from [off] on, times [factor] *)
  let scal t ~off ~len factor =
    Runtime.Exec_buf.call np.np_scal ~fp32 len (t.t_at off) 0 0 0 0 0 0
      factor 0. 0. 0.
  in
  (* one call when the columns are contiguous; otherwise one per column,
     so the padding rows between them are never touched *)
  let scale_c beta ~j0 ~nc =
    if c.Mat.ld = c.Mat.rows then
      scal tc ~off:(j0 * c.Mat.ld) ~len:(c.Mat.rows * nc) beta
    else
      for j = j0 to j0 + nc - 1 do
        scal tc ~off:(j * c.Mat.ld) ~len:c.Mat.rows beta
      done
  in
  let worker _ =
    let tpa = tensor et pa_len in
    let tpb =
      match shared_pb with Some t -> t | None -> tensor et pb_len
    in
    {
      L3.scale_c;
      pack_b =
        (fun ~l0 ~j0 ~kc ~nc ->
          call np.np_pack_b kc nc b.Mat.ld
            (tb.t_at ((j0 * b.Mat.ld) + l0))
            (tpb.t_at 0) 0 0);
      scale_b = (fun alpha ~kc ~nc -> scal tpb ~off:0 ~len:(kc * nc) alpha);
      pack_a =
        (fun ~i0 ~l0 ~mc ~kc ~at ->
          call np.np_pack_a mc kc a.Mat.ld
            (ta.t_at ((l0 * a.Mat.ld) + i0))
            (tpa.t_at at) 0 0);
      micro =
        (fun ~i0 ~j0 ~mc ~kc ~nc ~at ->
          call np.np_micro mc kc nc c.Mat.ld (tpa.t_at at) (tpb.t_at 0)
            (tc.t_at ((j0 * c.Mat.ld) + i0)));
    }
  in
  let ex =
    {
      L3.workers = Array.init (L3.schedule_workers schedule) worker;
      fork = Team.fork team;
    }
  in
  let run () = nest ex in
  let finish () = read_back tc c.Mat.data in
  (run, finish)

(* [staged_runner] on operands staged here, once, outside the timed
   region. *)
let gemm_runner ?jobs ?blocking ?alpha ?beta (np : native_plan) (a : Mat.t)
    (b : Mat.t) (c : Mat.t) : (unit -> unit) * (unit -> unit) =
  let et = np.np_plan.Blocked.pl_et in
  staged_runner ?jobs ?blocking ?alpha ?beta np a b c
    (stage et a.Mat.data, stage et b.Mat.data, stage et c.Mat.data)

(* One native C := alpha*A*B + beta*C, in place in [c]. *)
let gemm ?jobs ?blocking ?alpha ?beta (np : native_plan) (a : Mat.t)
    (b : Mat.t) (c : Mat.t) : unit =
  let run, finish = gemm_runner ?jobs ?blocking ?alpha ?beta np a b c in
  run ();
  finish ()

(* --- differential check ------------------------------------------------- *)

(* Native blocked C := alpha*A*B + beta*C against (1) the simulated
   blocked driver on the same plan — bit-exact at f64,
   [Etype.tol]-scaled at f32 — and (2) [dgemm_naive] within the usual
   reduction-scaled tolerance.  The native result is never trusted
   without this. *)
let check ?blocking ?(seed = 42) ?(alpha = 1.0) ?(beta = 1.0)
    (np : native_plan) ~m ~n ~k () : (unit, string) result =
  let p = np.np_plan in
  let et = p.Blocked.pl_et in
  let a, b, c0 = Blocked.operands ~et ~seed ~m ~n ~k in
  let c_native = Mat.copy c0 in
  let c_sim = Mat.copy c0 in
  let c_naive = Mat.copy c0 in
  match gemm ?blocking ~alpha ~beta np a b c_native with
  | exception Failure msg -> Error ("native: " ^ msg)
  | () -> (
      match Blocked.gemm ?blocking ~alpha ~beta p a b c_sim with
      | exception Exec.Sim_error msg -> Error ("simulator fault: " ^ msg)
      | _stats ->
          let problem = Blocked.problem ~m ~n ~k ~alpha ~beta in
          let tol = Et.tol ~k et in
          let agree_tol = match et with Et.F64 -> 0.0 | Et.F32 -> tol in
          Result.bind
            (Blocked.agree ~problem ~tol:agree_tol c_native c_sim
               ~what:"native result diverges from simulator")
            (fun () ->
              L3.dgemm_naive ~alpha ~beta a b c_naive;
              Blocked.agree ~problem ~tol c_naive c_native
                ~what:"native result off dgemm_naive"))

(* --- single-kernel wall-clock measurement (the tuner hook) -------------- *)

(* The reference workloads are sized for the paper's evaluation sweep
   (gigabyte matrices at L2 shapes); a measurement only needs a shape
   big enough to dominate the call overhead while staying
   cache-plausible for the kernel's role — the micro-kernel in
   particular only ever sees MC x KC x NC blocks in real use. *)
let clamp_workload (w : Perf.workload) : Perf.workload =
  match w with
  | Perf.W_gemm { m; n; k } ->
      Perf.W_gemm { m = min m 192; n = min n 192; k = min k 256 }
  | Perf.W_gemv { m; n } -> Perf.W_gemv { m = min m 1024; n = min n 1024 }
  | Perf.W_axpy { n } -> Perf.W_axpy { n = min n 150_000 }
  | Perf.W_dot { n } -> Perf.W_dot { n = min n 150_000 }

(* Kernel-call arguments at a workload's shape, over resident tensors.
   Returns the argument arrays plus the tensors (kept alive for the
   calls) and the flop count of one call. *)
let workload_args (et : Et.t) (kernel : Kernels.name) (w : Perf.workload) :
    (int64 array * float array * tensor list * float) option =
  let i64 = Int64.of_int in
  (* at f32 staging narrows, as [Et.round] would *)
  let data seed n = stage et (Harness.fill seed n) in
  let flops = max (Perf.workload_flops w) (Perf.workload_elements w) in
  match (kernel, w) with
  | Kernels.Gemm, Perf.W_gemm { m; n; k } ->
      let pa = data 21 (m * k)
      and pb = data 22 (k * n)
      and c = data 23 (m * n) in
      Some
        ( [| i64 m; i64 k; i64 n; i64 m; pa.t_addr 0; pb.t_addr 0;
             c.t_addr 0 |],
          [||],
          [ pa; pb; c ],
          flops )
  | Kernels.Gemv, Perf.W_gemv { m; n } ->
      let a = data 24 (m * n) and x = data 25 n and y = data 26 m in
      Some
        ( [| i64 m; i64 n; i64 m; a.t_addr 0; x.t_addr 0; y.t_addr 0 |],
          [||],
          [ a; x; y ],
          flops )
  | Kernels.Ger, Perf.W_gemv { m; n } ->
      let a = data 27 (m * n) and x = data 28 m and y = data 29 n in
      Some
        ( [| i64 m; i64 n; i64 m; x.t_addr 0; y.t_addr 0; a.t_addr 0 |],
          (* alpha = 1.0: same op count, no drift across repeats *)
          [| 1.0 |],
          [ a; x; y ],
          flops )
  | Kernels.Axpy, (Perf.W_axpy { n } | Perf.W_dot { n }) ->
      let x = data 30 n and y = data 31 n in
      Some ([| i64 n; x.t_addr 0; y.t_addr 0 |], [| 1.0 |], [ x; y ], flops)
  | Kernels.Dot, (Perf.W_axpy { n } | Perf.W_dot { n }) ->
      let x = data 32 n and y = data 33 n and out = data 34 1 in
      Some
        ( [| i64 n; x.t_addr 0; y.t_addr 0; out.t_addr 0 |],
          [||],
          [ x; y; out ],
          flops )
  | Kernels.Scal, (Perf.W_axpy { n } | Perf.W_dot { n }) ->
      let x = data 35 n in
      Some ([| i64 n; x.t_addr 0 |], [| 1.0 |], [ x ], flops)
  | Kernels.Copy, (Perf.W_axpy { n } | Perf.W_dot { n }) ->
      let x = data 36 n and y = data 37 (n + 2) in
      Some ([| i64 n; x.t_addr 0; y.t_addr 0 |], [||], [ x; y ], flops)
  | Kernels.Pack_a, _ ->
      let mc = 192 and kc = 256 in
      let a = data 38 (mc * kc) and buf = data 39 (mc * kc) in
      Some
        ( [| i64 mc; i64 kc; i64 mc; a.t_addr 0; buf.t_addr 0 |],
          [||],
          [ a; buf ],
          float_of_int (mc * kc) )
  | Kernels.Pack_b, _ ->
      let kc = 256 and nc = 192 in
      let b = data 40 (kc * nc) and buf = data 41 (kc * nc) in
      Some
        ( [| i64 kc; i64 nc; i64 kc; b.t_addr 0; buf.t_addr 0 |],
          [||],
          [ b; buf ],
          float_of_int (kc * nc) )
  | _ -> None

(* [once] repeated until one run spans [span_s] seconds, keeping a timed
   sample above timer and call-overhead noise; with the repeat count. *)
let batched ~span_s (once : unit -> unit) : (unit -> unit) * int =
  let probe = Clock.measure ~warmup:1 ~repeats:1 once in
  let batch =
    if probe.Clock.t_min_s >= span_s then 1
    else int_of_float (ceil (span_s /. max 1e-9 probe.Clock.t_min_s))
  in
  ((fun () ->
     for _ = 1 to batch do
       once ()
     done),
   batch)

(* Wall-clock MFLOPS of one generated kernel on this host, or [None]
   when the program cannot run here (missing ISA extension) or the
   kernel/workload pair has no native harness shape.  Short kernels are
   batched until one timed sample spans at least ~100us, keeping the
   measurement above timer and call-overhead noise.  This is the
   function behind [Tuner.set_native_measure]. *)
let measure_kernel ?(repeats = 3) ~(arch : Arch.t) ~(et : Et.t)
    (kernel : Kernels.name) (prog : Insn.program) (w : Perf.workload) :
    float option =
  let avx = arch.Arch.simd = Arch.AVX in
  match Native_check.load ~avx ~et prog with
  | Native_check.Rejected _ | Native_check.Unsupported _ -> None
  | Native_check.Ready buf -> (
      match workload_args et kernel (clamp_workload w) with
      | None ->
          Runtime.Exec_buf.release buf;
          None
      | Some (iargs, dargs, keepalive, flops) ->
          let f, batch =
            batched ~span_s:1e-4 (fun () ->
                Runtime.Exec_buf.invoke buf ~iargs ~dargs ~fp32:(et = Et.F32))
          in
          let t = Clock.measure ~warmup:1 ~repeats f in
          ignore (Sys.opaque_identity keepalive);
          Runtime.Exec_buf.release buf;
          Some (flops *. float_of_int batch /. t.Clock.t_min_s /. 1e6))

(* The [Tuner.native_measure] this module provides.  [Skip]-class
   programs return [None] and keep their model score. *)
let tuner_measure : Tuner.native_measure =
 fun ~et arch kernel prog w -> measure_kernel ~arch ~et kernel prog w

(* --- loading: the gates, then the clock breaks the model's ties ---------- *)

(* Timed rounds over a tie set, after one untimed round. *)
let tie_rounds = 4

(* The fastest member of a tie set whose members' code is loaded.
   [sample member buf] stages one timed run of a member and returns it
   with the work it does.  Every round runs each member once, in set
   order, so a burst on a shared host slows every member alike; each
   member keeps its fastest round, and the highest work per time wins
   (the earlier member on equal rates).  The other members' code is
   released.  A one-member set is returned untimed. *)
let fastest ~sample (members : ('m * Runtime.Exec_buf.t) list) :
    'm * Runtime.Exec_buf.t =
  match members with
  | [ only ] -> only
  | _ ->
      let runs =
        Array.of_list (List.map (fun (m, buf) -> sample m buf) members)
      in
      let best = Array.make (Array.length runs) infinity in
      for round = 0 to tie_rounds do
        Array.iteri
          (fun i (run, _work) ->
            let t0 = Clock.now_ns () in
            run ();
            let dt = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) in
            if round > 0 then best.(i) <- Float.min best.(i) dt)
          runs
      done;
      let rate i = snd runs.(i) /. best.(i) in
      let win = ref 0 in
      Array.iteri (fun i _ -> if rate i > rate !win then win := i) runs;
      List.iteri
        (fun i (_, buf) -> if i <> !win then Runtime.Exec_buf.release buf)
        members;
      List.nth members !win

(* A packing or SCAL member at the native harness shape of its kernel
   ([workload_args] at the clamped reference workload), staged on the
   first sample and shared by every member; the work is elements moved.
   A sample spans ~50 us: the members of these sets differ by up to 5x,
   and a load times some twenty of them. *)
let kernel_sample (et : Et.t) (kernel : Kernels.name) :
    'm -> Runtime.Exec_buf.t -> (unit -> unit) * float =
  let args =
    lazy
      (match
         workload_args et kernel
           (clamp_workload (Tuner.reference_workload kernel))
       with
      | Some args -> args
      | None -> invalid_arg "Native_blocked.kernel_sample: no harness shape")
  in
  fun _member buf ->
    let iargs, dargs, keepalive, work = Lazy.force args in
    let run, batch =
      batched ~span_s:5e-5 (fun () ->
          Runtime.Exec_buf.invoke buf ~iargs ~dargs ~fp32:(et = Et.F32);
          ignore (Sys.opaque_identity keepalive))
    in
    (run, work *. float_of_int batch)

(* A micro-kernel member as a one-worker blocked pass under its own
   blocking, in the native plan [native member buf]: two ic blocks, one
   full kc panel and at most 64 columns; the work is flops.  Members
   with one blocking share their staged operands. *)
let micro_sample native : Tuner.blocked_member -> Runtime.Exec_buf.t ->
    (unit -> unit) * float =
  let operands = ref [] in
  fun member buf ->
    let np = native member buf in
    let et = np.np_plan.Blocked.pl_et in
    let bl = member.Tuner.bm_blocking in
    let m = 2 * bl.Mem_model.bl_mc
    and n = min bl.Mem_model.bl_nc 64
    and k = bl.Mem_model.bl_kc in
    let (a, b, c), staged =
      match List.assoc_opt (m, n, k) !operands with
      | Some o -> o
      | None ->
          let ((a, b, c) as abc) = Blocked.operands ~et ~seed:1 ~m ~n ~k in
          let o =
            ( abc,
              (stage et a.Mat.data, stage et b.Mat.data, stage et c.Mat.data) )
          in
          operands := ((m, n, k), o) :: !operands;
          o
    in
    let run, _finish = staged_runner ~jobs:1 np a b c staged in
    (run, 2.0 *. float_of_int (m * n * k))

(* Gate every member of the plan's four tie sets where it stands, the
   micro-kernel's first, then keep the fastest member of each: pack-A,
   pack-B and SCAL first, then the micro-kernel with those three.  The
   packing and SCAL members' programs are built here
   ([Tuner.tie_programs]), the one place they are needed.  All or
   nothing: a plan with a member that cannot run natively is not a
   native plan, and what did load is released.  [np_plan] is the plan
   the machine code runs, each set cut to its kept member; the timings
   go nowhere else.  A plan whose sets each hold one member, like the
   fell-back baseline, loads untimed. *)
let load (p : Blocked.plan) : native_plan Native_check.gated =
  let arch = p.Blocked.pl_arch and et = p.Blocked.pl_et in
  let avx = arch.Arch.simd = Arch.AVX in
  let loaded = ref [] in
  let exception Refused of native_plan Native_check.gated in
  (* each member paired with its loaded code; [parts m] is the
     member's candidate and program *)
  let gate kernel parts =
    List.map (fun m ->
        let (c : Tuner.candidate), prog = parts m in
        let refused msg =
          Printf.sprintf "%s %s: %s" kernel
            (Augem_transform.Pipeline.config_to_string c.Tuner.cand_config)
            msg
        in
        match Native_check.load ~avx ~et prog with
        | Native_check.Ready buf ->
            loaded := buf :: !loaded;
            (m, buf)
        | Native_check.Unsupported msg ->
            raise (Refused (Native_check.Unsupported (refused msg)))
        | Native_check.Rejected msg ->
            raise (Refused (Native_check.Rejected (refused msg))))
  in
  let members kernel name r =
    gate kernel Fun.id (Tuner.tie_programs ~et arch name r)
  in
  match
    let micro =
      gate "micro"
        (fun m -> (m.Tuner.bm_candidate, m.Tuner.bm_program))
        p.Blocked.pl_micro
    in
    let pack_a = members "pack_a" Kernels.Pack_a p.Blocked.pl_pack_a in
    let pack_b = members "pack_b" Kernels.Pack_b p.Blocked.pl_pack_b in
    (micro, pack_a, pack_b, members "scal" Kernels.Scal p.Blocked.pl_scal)
  with
  | exception Refused refusal ->
      List.iter Runtime.Exec_buf.release !loaded;
      refusal
  | micro, pack_a, pack_b, scal ->
      let pick kernel set = fastest ~sample:(kernel_sample et kernel) set in
      let pack_a = pick Kernels.Pack_a pack_a in
      let pack_b = pick Kernels.Pack_b pack_b in
      let scal = pick Kernels.Scal scal in
      let native micro buf =
        {
          np_plan =
            Blocked.pick p ~micro ~pack_a:(fst pack_a) ~pack_b:(fst pack_b)
              ~scal:(fst scal);
          np_micro = buf;
          np_pack_a = snd pack_a;
          np_pack_b = snd pack_b;
          np_scal = snd scal;
        }
      in
      let micro, buf = fastest ~sample:(micro_sample native) micro in
      Native_check.Ready (native micro buf)
