(* Natively-executed blocked GEMM, and the clock breaking the model's ties.

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
   members of each set are timed against each other ([Clock.rounds]),
   and the fastest runs.  [np_plan] is the plan that runs, so every
   check compares the machine code against that plan's simulated run.
   [tie_rates] ranks one tuned kernel's tie set the same way, for
   [augem tune --native]. *)

module Exec = Augem_sim.Exec_sim
module Mat = Augem_blas.Matrix
module L3 = Augem_blas.Level3
module Arch = Augem_machine.Arch
module Et = Augem_machine.Etype
module Kernels = Augem_ir.Kernels
module Mem_model = Augem_sim.Mem_model
module Tuner = Augem_autotune.Tuner
module Runtime = Augem_jit.Runtime
module Abi = Augem_jit.Abi
module Clock = Augem_jit.Clock
module Team = Augem_parallel.Team

(* --- resident operands ------------------------------------------------- *)

(* The operands are [Abi]'s tensors; the names stay here for the
   benchmark's traced copy of the nest ([benchmark/traced_gemm.ml]). *)
type tensor = Abi.tensor = {
  t_len : int;
  t_get : int -> float;
  t_set : int -> float -> unit;
  t_addr : int -> int64;
  t_at : int -> int;
}

let tensor = Abi.tensor
let stage = Abi.stage
let read_back = Abi.read_back

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

(* --- native harness shapes ------------------------------------------------ *)

(* A kernel's call at its native harness shape, written as the
   harness writes it and staged through [Abi.native_args]: the native
   arguments, the tensors (kept alive for the calls) and the work of
   one call, in flops, or in elements moved for packing.  The tuner's
   reference workloads are sized for the paper's evaluation sweep
   (gigabyte matrices at L2 shapes); a harness shape only needs to be
   big enough to dominate the call overhead while staying
   cache-plausible for the kernel's role — the micro-kernel in
   particular only ever sees MC x KC x NC blocks. *)
let harness_args (et : Et.t) (kernel : Kernels.name) :
    int64 array * float array * tensor list * float =
  let data seed n = Exec.Abuf (Harness.fill seed n) in
  let flops n = 2.0 *. float_of_int n in
  (* the vector kernels' length *)
  let len = 150_000 in
  let args, work =
    match kernel with
    | Kernels.Gemm ->
        let m = 192 and n = 192 and k = 256 in
        ( Exec.
            [
              Aint m; Aint k; Aint n; Aint m; data 21 (m * k); data 22 (k * n);
              data 23 (m * n);
            ],
          flops (m * n * k) )
    | Kernels.Gemv ->
        let m = 1024 and n = 1024 in
        ( Exec.
            [ Aint m; Aint n; Aint m; data 24 (m * n); data 25 n; data 26 m ],
          flops (m * n) )
    | Kernels.Ger ->
        let m = 1024 and n = 1024 in
        (* alpha = 1.0: same op count, no drift across repeats *)
        ( Exec.
            [
              Aint m; Aint n; Aint m; Adouble 1.0; data 28 m; data 29 n;
              data 27 (m * n);
            ],
          flops (m * n) )
    | Kernels.Axpy ->
        (Exec.[ Aint len; Adouble 1.0; data 30 len; data 31 len ], flops len)
    | Kernels.Dot ->
        (Exec.[ Aint len; data 32 len; data 33 len; data 34 1 ], flops len)
    | Kernels.Scal -> (Exec.[ Aint len; Adouble 1.0; data 35 len ], flops len)
    | Kernels.Copy ->
        (Exec.[ Aint len; data 36 len; data 37 (len + 2) ], flops len)
    | Kernels.Pack_a ->
        let mc = 192 and kc = 256 in
        ( Exec.[ Aint mc; Aint kc; Aint mc; data 38 (mc * kc); data 39 (mc * kc) ],
          float_of_int (mc * kc) )
    | Kernels.Pack_b ->
        let kc = 256 and nc = 192 in
        ( Exec.[ Aint kc; Aint nc; Aint kc; data 40 (kc * nc); data 41 (kc * nc) ],
          float_of_int (kc * nc) )
  in
  let iargs, dargs, operands = Abi.native_args et args in
  (iargs, dargs, operands, work)

(* [once] repeated until one run spans [span_s] seconds, keeping a timed
   sample above timer and call-overhead noise; with the repeat count.
   The probe is one untimed call, then one timed. *)
let batched ~span_s (once : unit -> unit) : (unit -> unit) * int =
  once ();
  let t0 = Clock.now_ns () in
  once ();
  let probe = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9 in
  let batch =
    if probe >= span_s then 1
    else int_of_float (ceil (span_s /. max 1e-9 probe))
  in
  ((fun () ->
     for _ = 1 to batch do
       once ()
     done),
   batch)

(* --- loading: the gates, then the clock breaks the model's ties ---------- *)

(* Timed rounds over a tie set, after one untimed round. *)
let tie_rounds = 4

(* Each member's rate, in set order: [sample member buf] stages one
   timed run of a member and returns it with the work it does, and the
   rate is that work over the member's fastest timed round of
   [Clock.rounds]. *)
let rates ~sample (members : ('m * Runtime.Exec_buf.t) list) : float list =
  let runs = List.map (fun (m, buf) -> sample m buf) members in
  List.map2
    (fun (_, work) samples ->
      work /. Array.fold_left Float.min infinity samples)
    runs
    (Clock.rounds ~warmup:1 ~rounds:tie_rounds (List.map fst runs))

(* The index of the member [fastest] keeps: the highest rate, the
   earlier member on equal rates. *)
let kept (rates : float list) : int =
  let rates = Array.of_list rates in
  let win = ref 0 in
  Array.iteri (fun i r -> if r > rates.(!win) then win := i) rates;
  !win

(* The fastest member of a tie set whose members' code is loaded, by
   [rates]; the other members' code is released.  A one-member set is
   returned untimed. *)
let fastest ~sample (members : ('m * Runtime.Exec_buf.t) list) :
    'm * Runtime.Exec_buf.t =
  match members with
  | [ only ] -> only
  | _ ->
      let win = kept (rates ~sample members) in
      List.iteri
        (fun i (_, buf) -> if i <> win then Runtime.Exec_buf.release buf)
        members;
      List.nth members win

(* A member of a kernel's tie set at the kernel's native harness shape
   ([harness_args]), staged on the first sample and shared by every
   member.  A sample spans ~50 us: the members of the packing and SCAL
   sets differ by up to 5x, and a load times some twenty of them. *)
let kernel_sample (et : Et.t) (kernel : Kernels.name) :
    'm -> Runtime.Exec_buf.t -> (unit -> unit) * float =
  let args = lazy (harness_args et kernel) in
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

(* A tuned kernel's exact-tie set as [load] would rank a packing or
   SCAL set: every member through the gates, and the members that load
   timed against each other by [rates] at the kernel's native harness
   shape ([kernel_sample]).  In set order, each member with its rate
   (work per second) or its refusal.  Nothing is kept loaded. *)
let tie_rates ~(et : Et.t) (arch : Arch.t) (kernel : Kernels.name)
    (r : Tuner.result) : (Tuner.candidate * float Native_check.gated) list =
  let avx = arch.Arch.simd = Arch.AVX in
  let gated =
    List.map
      (fun (c, prog) -> (c, Native_check.load ~avx ~et prog))
      (Tuner.tie_programs ~et arch kernel r)
  in
  let ready =
    List.filter_map
      (function c, Native_check.Ready buf -> Some (c, buf) | _ -> None)
      gated
  in
  let timed =
    List.combine (List.map snd ready)
      (rates ~sample:(kernel_sample et kernel) ready)
  in
  List.iter (fun (_, buf) -> Runtime.Exec_buf.release buf) ready;
  List.map
    (fun (c, g) ->
      ( c,
        match g with
        | Native_check.Ready buf -> Native_check.Ready (List.assq buf timed)
        | Native_check.Unsupported m -> Native_check.Unsupported m
        | Native_check.Rejected m -> Native_check.Rejected m ))
    gated
