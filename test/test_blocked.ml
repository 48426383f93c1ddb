(* The generated blocked DGEMM driver: differential correctness of the
   packing + macro-kernel layer over degenerate and non-dividing
   shapes.

   Every case runs the full generated stack — pack-A, pack-B and the
   micro-kernel, all simulator-executed assembly — under a deliberately
   tiny blocking so small matrices still take multi-block trips and
   remainder blocks.  [Blocked.check] enforces both oracles: bit-exact
   agreement with the reference macro-kernel loop nest driving the same
   simulated micro-kernel, and tolerance agreement with
   [Level3.dgemm_naive]. *)

module A = Augem
module Blocked = A.Blocked
module Mem_model = A.Sim.Mem_model
module Mat = A.Blas.Matrix
module L3 = A.Blas.Level3
module Arch = A.Machine.Arch

let arch = Plans.arch
let plan = Plans.f64

(* Tiny blocking: forces jc/pc/ic trips and remainder blocks on
   single-digit matrices.  The blocking is a runtime parameter of the
   generated code, so this overrides the plan's tuned triple. *)
let tiny = { Mem_model.bl_mc = 8; bl_kc = 6; bl_nc = 4 }

let check_shape ~m ~n ~k () =
  match Blocked.check (Lazy.force plan) ~blocking:tiny ~m ~n ~k () with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "blocked differential: %s" msg

(* Shapes that historically break blocked GEMM drivers: primes that
   divide by no block dimension, problems smaller than one block, exact
   single blocks, exact multiples, and one-block-plus-remainder. *)
let difficult_shapes =
  [
    ("primes m=17 n=11 k=13", 17, 11, 13);
    ("smaller than one block", 3, 2, 5);
    ("exactly one block", 8, 4, 6);
    ("exact multiple of blocks", 16, 8, 12);
    ("one block + remainder", 9, 5, 7);
    ("m=n=k=1", 1, 1, 1);
    ("single row", 1, 9, 6);
    ("single column", 9, 1, 6);
    ("k smaller than kc", 10, 10, 2);
  ]

let test_shapes =
  List.map
    (fun (label, m, n, k) ->
      Alcotest.test_case label `Quick (check_shape ~m ~n ~k))
    difficult_shapes

(* The tuned blocking also has to work, not just the tiny override. *)
let test_tuned_blocking () =
  match Blocked.check (Lazy.force plan) ~m:23 ~n:17 ~k:19 () with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "tuned blocking: %s" msg

(* alpha/beta handling lives in the macro layer (beta scales C before
   any block, alpha folds into the packed B panel) — check it against
   the naive reference directly. *)
let test_alpha_beta () =
  let p = Lazy.force plan in
  let m = 9 and n = 7 and k = 10 in
  let a = Mat.random ~seed:7 m k in
  let b = Mat.random ~seed:8 k n in
  let c0 = Mat.random ~seed:9 m n in
  let c_gen = Mat.copy c0 in
  let c_ref = Mat.copy c0 in
  ignore (Blocked.gemm ~blocking:tiny ~alpha:2.5 ~beta:(-0.5) p a b c_gen);
  L3.dgemm_naive ~alpha:2.5 ~beta:(-0.5) a b c_ref;
  Alcotest.(check bool)
    "alpha/beta matches dgemm_naive" true
    (Mat.approx_equal ~tol:1e-9 c_ref c_gen)

(* alpha = 0 short-circuits every block trip but must still apply
   beta. *)
let test_alpha_zero () =
  let p = Lazy.force plan in
  let c0 = Mat.random ~seed:10 5 4 in
  let c = Mat.copy c0 in
  let a = Mat.random ~seed:11 5 3 in
  let b = Mat.random ~seed:12 3 4 in
  let stats = Blocked.gemm ~blocking:tiny ~alpha:0. ~beta:2. p a b c in
  Alcotest.(check int) "no micro calls" 0 stats.Blocked.st_micro_calls;
  let ok = ref true in
  for j = 0 to 3 do
    for i = 0 to 4 do
      if not (Float.equal (Mat.get c i j) (2. *. Mat.get c0 i j)) then
        ok := false
    done
  done;
  Alcotest.(check bool) "beta still applied" true !ok

(* The loop nest's call accounting: with blocking (8,6,4) on
   m=17 n=11 k=13, the trips are ic=3, pc=3, jc=3 — 9 pack-B calls
   (one per (jc,pc)) and 27 pack-A/micro calls (one per block). *)
let test_stats_accounting () =
  let p = Lazy.force plan in
  let a = Mat.random ~seed:13 17 13 in
  let b = Mat.random ~seed:14 13 11 in
  let c = Mat.random ~seed:15 17 11 in
  let stats = Blocked.gemm ~blocking:tiny p a b c in
  Alcotest.(check int) "pack_b calls" 9 stats.Blocked.st_pack_b_calls;
  Alcotest.(check int) "pack_a calls" 27 stats.Blocked.st_pack_a_calls;
  Alcotest.(check int) "micro calls" 27 stats.Blocked.st_micro_calls;
  Alcotest.(check bool) "interpreted instructions counted" true
    (stats.Blocked.st_insns > 0)

let test_shape_mismatch () =
  let p = Lazy.force plan in
  let a = Mat.random ~seed:16 4 3 in
  let b = Mat.random ~seed:17 5 2 (* rows <> a.cols *) in
  let c = Mat.random ~seed:18 4 2 in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Blocked.gemm: shape mismatch") (fun () ->
      ignore (Blocked.gemm p a b c))

(* The plan itself: tuned blocking fits the paper's cache-residency
   story and the blocked model beats the streamed one on the tuning
   workload. *)
let test_plan_shape () =
  let p = Lazy.force plan in
  let bl = p.Blocked.pl_blocking in
  let micro = Blocked.micro p in
  Alcotest.(check bool) "positive blocking" true
    (bl.Mem_model.bl_mc > 0 && bl.Mem_model.bl_kc > 0 && bl.Mem_model.bl_nc > 0);
  Alcotest.(check bool) "blocking is the micro-kernel's" true
    (bl = micro.A.Tuner.bm_blocking);
  Alcotest.(check bool) "register tile" true
    (micro.A.Tuner.bm_mr >= 1 && micro.A.Tuner.bm_nr >= 1);
  Alcotest.(check bool) "blocked >= streamed on tuning workload" true
    (p.Blocked.pl_blocked_mflops >= p.Blocked.pl_streamed_mflops);
  (* what the service keeps: the same kernels, the micro-kernel's set
     cut to the plan's own *)
  Alcotest.(check bool) "a set to drop" true
    (List.length p.Blocked.pl_micro > 1);
  Alcotest.(check bool) "drop_ties keeps the plan's kernels" true
    (Blocked.drop_ties p = { p with Blocked.pl_micro = [ micro ] })

(* A swept plan is not fell-back; the sweep-free baseline plan always
   is, so the service never caches it. *)
let test_plan_fell_back () =
  Alcotest.(check bool) "tuned plan" false (Lazy.force plan).Blocked.pl_fell_back;
  let b = Blocked.baseline_plan arch in
  Alcotest.(check bool) "baseline plan" true b.Blocked.pl_fell_back;
  Alcotest.(check bool) "baseline micro-kernel is the safe one" true
    ((Blocked.micro b).A.Tuner.bm_candidate = A.Tuner.safe_baseline)

(* --- natively executed (host-gated) -------------------------------------- *)

module Et = A.Machine.Etype
module NB = A.Native_blocked
module Team = A.Team
module Kernels = A.Ir.Kernels
module Runtime = A.Jit.Runtime

let plan_f32 = Plans.f32
let haswell_plans = Plans.haswell

(* Operands like [Blocked.operands], but every leading dimension is the
   row count + 3, and C's padding rows hold a sentinel. *)
let padded_operands ~et ~seed ~m ~n ~k =
  let mk seed rows cols =
    let mat = Mat.random ~seed ~ld:(rows + 3) rows cols in
    Array.iteri (fun i x -> mat.Mat.data.(i) <- Et.round et x) mat.Mat.data;
    mat
  in
  let c = mk (seed + 2) m n in
  Array.iteri
    (fun idx _ -> if idx mod c.Mat.ld >= m then c.Mat.data.(idx) <- 7.0)
    c.Mat.data;
  (mk seed m k, mk (seed + 1) k n, c)

(* One native run under [blocking] (default: the tiny one), against the
   simulated driver — bit-exact at f64, within [Et.tol] at f32 where
   the simulator double-rounds — and against [dgemm_naive] within
   [Et.tol].  The run with its work split over two workers must be
   bit-identical to the one on a single worker, and C's padding rows,
   if any, must come back bit-unchanged. *)
let bits (c : Mat.t) = Array.map Int64.bits_of_float c.Mat.data

let native_case ?(blocking = tiny) et np label (a, b, c0) (alpha, beta) =
  let p = np.NB.np_plan and k = a.Mat.cols in
  let c_nat = Mat.copy c0 and c_one = Mat.copy c0 in
  let c_sim = Mat.copy c0 and c_ref = Mat.copy c0 in
  NB.gemm ~jobs:2 ~blocking ~alpha ~beta np a b c_nat;
  NB.gemm ~jobs:1 ~blocking ~alpha ~beta np a b c_one;
  if bits c_nat <> bits c_one then
    Alcotest.failf "%s %s alpha=%g beta=%g: jobs:2 differs from jobs:1 by %.3g"
      (Et.name et) label alpha beta (Mat.max_abs_diff c_one c_nat);
  ignore (Blocked.gemm ~blocking ~alpha ~beta p a b c_sim);
  L3.dgemm_naive ~alpha ~beta a b c_ref;
  let tol = Et.tol ~k et in
  List.iter
    (fun (oracle, c, tol) ->
      if not (Mat.approx_equal ~tol c c_nat) then
        Alcotest.failf "%s %s alpha=%g beta=%g: native off %s by %.3g"
          (Et.name et) label alpha beta oracle (Mat.max_abs_diff c c_nat))
    [ ("simulator", c_sim, if et = Et.F64 then 0.0 else tol);
      ("dgemm_naive", c_ref, tol) ];
  Array.iteri
    (fun idx x ->
      if idx mod c0.Mat.ld >= c0.Mat.rows
         && Int64.bits_of_float x <> Int64.bits_of_float c0.Mat.data.(idx)
      then
        Alcotest.failf "%s %s alpha=%g beta=%g: native wrote padding of C"
          (Et.name et) label alpha beta)
    c_nat.Mat.data

(* [f np] on the loaded native plan [p]; skipped where the host cannot
   run it. *)
let with_native et p f =
  match NB.load p with
  | A.Native_check.Ready np ->
      Fun.protect ~finally:(fun () -> NB.release np) (fun () -> f np)
  | A.Native_check.Unsupported m ->
      Printf.printf "%s: skipped (%s)\n" (Et.name et) m
  | A.Native_check.Rejected m -> Alcotest.failf "%s: %s" (Et.name et) m

(* [f et p np] on the loaded native plan of each precision; skipped
   where the host cannot run it. *)
let on_native_plans f =
  if not (A.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else
    List.iter
      (fun (et, plan) ->
        let p = Lazy.force plan in
        with_native et p (f et p))
      [ (Et.F64, plan); (Et.F32, plan_f32) ]

(* Multi-block trips and remainders natively: every difficult shape,
   with (alpha, beta) covering both scaling passes and the alpha = 0
   short-circuit, then with every leading dimension larger than its
   row count, which scales C one column at a time; at both
   precisions. *)
let test_native_differential () =
  on_native_plans (fun et _p np ->
      List.iter
        (fun (label, m, n, k) ->
          List.iter
            (native_case et np label (Blocked.operands ~et ~seed:m ~m ~n ~k))
            [ (1.0, 1.0); (2.5, -0.5); (0.0, 2.0) ];
          native_case et np (label ^ ", ld = rows + 3")
            (padded_operands ~et ~seed:m ~m ~n ~k)
            (2.5, -0.5))
        difficult_shapes)

(* [load] breaks the model's exact ties by the clock, so every member of
   every tie set must be as correct as the model's pick.  Each member,
   with the plan's picks for the other three kernels, loads as a plan
   whose sets hold only it, and goes through [NB.check] on every
   difficult shape under the tiny blocking: bit-exact against the
   simulator at f64, within [Et.tol] at f32, and within [Et.tol] of
   [dgemm_naive].  The haswell plans are skipped where the host lacks
   FMA3. *)
let test_native_tie_members () =
  if not (A.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else
    List.iter
      (fun (et, plan) ->
        let p = Lazy.force plan in
        let set name r = A.Tuner.tie_programs ~et p.Blocked.pl_arch name r in
        let pack_a_set = set Kernels.Pack_a p.Blocked.pl_pack_a in
        let pack_b_set = set Kernels.Pack_b p.Blocked.pl_pack_b in
        let scal_set = set Kernels.Scal p.Blocked.pl_scal in
        let first = List.hd in
        let pick ?(micro = Blocked.micro p) ?(pack_a = first pack_a_set)
            ?(pack_b = first pack_b_set) ?(scal = first scal_set) () =
          Blocked.pick p ~micro ~pack_a ~pack_b ~scal
        in
        let config c =
          A.Transform.Pipeline.config_to_string c.A.Tuner.cand_config
        in
        let members =
          List.map
            (fun m ->
              ("micro " ^ config m.A.Tuner.bm_candidate, pick ~micro:m ()))
            p.Blocked.pl_micro
          @ List.map
              (fun m -> ("pack_a " ^ config (fst m), pick ~pack_a:m ()))
              pack_a_set
          @ List.map
              (fun m -> ("pack_b " ^ config (fst m), pick ~pack_b:m ()))
              pack_b_set
          @ List.map
              (fun m -> ("scal " ^ config (fst m), pick ~scal:m ()))
              scal_set
        in
        List.iter
          (fun (member, q) ->
            with_native et q (fun np ->
                if np.NB.np_plan <> q then
                  Alcotest.failf "%s %s: a one-member plan was re-picked"
                    (Et.name et) member;
                List.iter
                  (fun (label, m, n, k) ->
                    List.iter
                      (fun (alpha, beta) ->
                        match
                          NB.check ~blocking:tiny ~seed:m ~alpha ~beta np ~m
                            ~n ~k ()
                        with
                        | Ok () -> ()
                        | Error e ->
                            Alcotest.failf "%s %s, %s: %s" (Et.name et) member
                              label e)
                      [ (1.0, 1.0); (2.5, -0.5) ])
                  difficult_shapes))
          members)
      ((Et.F64, plan) :: (Et.F32, plan_f32) :: haswell_plans)

(* What [load] keeps is a member of each set, and [np_plan] is the plan
   that runs: its kernels, configuration, blocking and register tile
   are the kept members', each set cut to its member. *)
let test_native_load_picks_members () =
  on_native_plans (fun et p np ->
      let q = np.NB.np_plan in
      let what = Et.name et in
      let micro =
        match q.Blocked.pl_micro with
        | [ m ] when List.mem m p.Blocked.pl_micro -> m
        | _ -> Alcotest.failf "%s micro: not one member of the set" what
      in
      Alcotest.(check bool) (what ^ " blocking is its micro member's") true
        (q.Blocked.pl_blocking = micro.A.Tuner.bm_blocking);
      List.iter
        (fun (name, kernel, kept, r) ->
          let member (c, prog) =
            kept
            = { r with A.Tuner.best = c; best_program = prog; ties = [ c ] }
          in
          if
            not
              (List.exists member
                 (A.Tuner.tie_programs ~et p.Blocked.pl_arch kernel r))
          then Alcotest.failf "%s %s: not one member of the set" what name)
        [
          ("pack_a", Kernels.Pack_a, q.Blocked.pl_pack_a, p.Blocked.pl_pack_a);
          ("pack_b", Kernels.Pack_b, q.Blocked.pl_pack_b, p.Blocked.pl_pack_b);
          ("scal", Kernels.Scal, q.Blocked.pl_scal, p.Blocked.pl_scal);
        ])

(* The packing buffers are sized to the problem, not to the blocking:
   shapes smaller than the plan's tuned blocking in every dimension,
   run under that blocking, against the simulator and [dgemm_naive]. *)
let test_native_small_shapes () =
  on_native_plans (fun et _p np ->
      let bl = np.NB.np_plan.Blocked.pl_blocking in
      let mc = bl.Mem_model.bl_mc and kc = bl.Mem_model.bl_kc in
      let nc = bl.Mem_model.bl_nc in
      List.iter
        (fun (m, n, k) ->
          match NB.check ~alpha:1.5 ~beta:(-0.5) np ~m ~n ~k () with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" (Et.name et) e)
        [
          (1, 1, 1);
          (3, 2, 5);
          (min 17 (mc - 1), min 11 (nc - 1), min 13 (kc - 1));
          (mc - 1, min 3 (nc - 1), min 4 (kc - 1));
          (min 5 (mc - 1), min 3 (nc - 1), kc - 1);
        ])

(* Table 6 on the native GEMM: each Level-3 routine gives bit-identical
   results through a closure over [NB.gemm] and one over [Blocked.gemm]
   on the same inputs, both under the tiny blocking.  That is the GEMM
   contract above, carried through the routines, so f64 only.  TRMM and
   TRSM cross their 64-row diagonal block; SYRK and SYR2K take alpha,
   beta != 1.  Each routine must call the GEMM it is given. *)
let test_native_level3 () =
  on_native_plans (fun et _p np ->
      if et = Et.F64 then begin
        let calls = ref 0 in
        let native : L3.gemm =
         fun ~alpha ~beta a b c ->
          incr calls;
          NB.gemm ~blocking:tiny ~alpha ~beta np a b c
        in
        let simulated : L3.gemm =
         fun ~alpha ~beta a b c ->
          ignore
            (Blocked.gemm ~blocking:tiny ~alpha ~beta np.NB.np_plan a b c)
        in
        let sym = Mat.random ~seed:1 13 13 and sq = Mat.random ~seed:2 13 13 in
        let a = Mat.random ~seed:3 13 9 and b = Mat.random ~seed:4 13 9 in
        let l = Mat.random_lower ~seed:5 70 and rhs = Mat.random ~seed:6 70 5 in
        let alpha = 1.5 and beta = -0.5 in
        let into m f gemm =
          let out = Mat.copy m in
          f gemm out;
          out
        in
        List.iter
          (fun (name, run) ->
            calls := 0;
            let c_nat = run native in
            if !calls = 0 then Alcotest.failf "%s never called its gemm" name;
            let c_sim = run simulated in
            if bits c_nat <> bits c_sim then
              Alcotest.failf "%s: native differs from simulated by %.3g" name
                (Mat.max_abs_diff c_sim c_nat))
          [
            ( "symm left",
              into sq (fun gemm ->
                  L3.dsymm ~gemm ~side:L3.Left ~alpha ~beta sym sq) );
            ( "symm right",
              into sq (fun gemm ->
                  L3.dsymm ~gemm ~side:L3.Right ~alpha ~beta sym sq) );
            ("syrk", into sq (fun gemm -> L3.dsyrk ~gemm ~alpha ~beta a));
            ("syr2k", into sq (fun gemm -> L3.dsyr2k ~gemm ~alpha ~beta a b));
            ("trmm", into rhs (fun gemm -> L3.dtrmm ~gemm ~alpha l));
            ("trsm", into rhs (fun gemm -> L3.dtrsm ~gemm ~alpha l));
          ]
      end)

(* At jobs:1 a warm pass allocates nothing: the minor words counted
   over fifty passes equal those over one (the count itself allocates
   the same in both).  Three ic blocks, alpha and beta != 1, so both
   SCAL steps run. *)
let test_native_no_allocation () =
  on_native_plans (fun et _p np ->
      let a, b, c = Blocked.operands ~et ~seed:5 ~m:17 ~n:11 ~k:13 in
      let run, _finish =
        NB.gemm_runner ~jobs:1 ~blocking:tiny ~alpha:2.5 ~beta:(-0.5) np a b c
      in
      run ();
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let fifty () =
        for _ = 1 to 50 do
          run ()
        done
      in
      let one = words run and many = words fifty in
      if one <> many then
        Alcotest.failf "%s: %g minor words over one pass, %g over fifty"
          (Et.name et) one many)

(* Every member of the plan's SCAL tie set against OCaml scaling, bit
   for bit:
   [beta *. x] at f64 and [Et.round (beta *. x)] at f32, where the
   product of two f32 values is exact in double.  The native executor's
   scaling steps rely on this to stay bit-identical to the simulated
   and reference executors'.  Lengths cover the unrolled vector body
   and the scalar remainder; inputs mix signed zeros, subnormals of
   both precisions and infinities into random values.  Where OCaml
   gives NaN (0 * inf) the native result only has to be NaN.  Two
   sentinels past the length must come back untouched. *)
let specials =
  [|
    0.0; -0.0; infinity; neg_infinity; 4.9e-324; -2.2e-308; Float.min_float;
    Int32.float_of_bits 1l; Int32.float_of_bits 0x807fffffl;
    Int32.float_of_bits 0x00800000l; 3e38; -1e308;
  |]

let check_scal et buf =
  List.iter
    (fun n ->
      let noise = Mat.random ~seed:n 1 n in
      let x =
        Array.init (n + 2) (fun i ->
            if i >= n then 13.0
            else if i mod 3 = 0 then
              Et.round et specials.(i / 3 mod Array.length specials)
            else Et.round et noise.Mat.data.(i))
      in
      List.iter
        (fun beta ->
          let t = NB.stage et x in
          Runtime.Exec_buf.invoke buf
            ~iargs:[| Int64.of_int n; t.NB.t_addr 0 |]
            ~dargs:[| beta |] ~fp32:(et = Et.F32);
          Array.iteri
            (fun i xi ->
              let want = if i >= n then xi else Et.round et (beta *. xi)
              and got = t.NB.t_get i in
              let same =
                if Float.is_nan want then Float.is_nan got
                else Int64.bits_of_float got = Int64.bits_of_float want
              in
              if not same then
                Alcotest.failf "%s n=%d beta=%g x[%d]=%h: SCAL %h, OCaml %h"
                  (Et.name et) n beta i xi got want)
            x)
        [ 0.0; -1.0; 0.5; 2.5; -0.75 ])
    (List.init 38 Fun.id @ [ 64; 1001 ])

let test_native_scal () =
  if not (A.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else
    List.iter
      (fun (et, plan) ->
        let p = Lazy.force plan in
        let avx = p.Blocked.pl_arch.Arch.simd = Arch.AVX in
        List.iter
          (fun (_, scal) ->
            match A.Native_check.load ~avx ~et scal with
            | A.Native_check.Ready buf ->
                check_scal et buf;
                Runtime.Exec_buf.release buf
            | A.Native_check.Unsupported m ->
                Printf.printf "%s: skipped (%s)\n" (Et.name et) m
            | A.Native_check.Rejected m ->
                Alcotest.failf "%s: %s" (Et.name et) m)
          (A.Tuner.tie_programs ~et p.Blocked.pl_arch Kernels.Scal
             p.Blocked.pl_scal))
      [ (Et.F64, plan); (Et.F32, plan_f32) ]

(* Resident operands start on a page boundary whatever the allocation
   history, so the native executor's speed does not depend on it.  So
   does every buffer [Abi] stages for a call's argument list, a
   zero-length one too, and each holds [Abi.pad_elements] zeros after
   its data.  At f32 a staged value, and what reads back, is
   [Et.round] of its input, as an FP argument is. *)
let test_tensor_alignment () =
  let module Abi = A.Jit.Abi in
  let module Exec = A.Sim.Exec_sim in
  let aligned what addr =
    if Int64.rem addr 4096L <> 0L then Alcotest.failf "%s at %Ld" what addr
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun et ->
      let name = Et.name et in
      List.iter
        (fun n ->
          aligned
            (Printf.sprintf "%s tensor of %d elements" name n)
            ((NB.tensor et n).NB.t_addr 0))
        [ 0; 1; 1000; 300_000 ];
      let x = (Mat.random ~seed:3 1 37).Mat.data
      and empty = [||]
      and y = [| 0.1; -1e-3; 3.0 |] in
      let bufs = [ x; empty; y ] in
      let args =
        Exec.[ Aint 37; Adouble 0.1; Abuf x; Abuf empty; Aint 3; Abuf y ]
      in
      let iargs, dargs, staged = Abi.native_args et args in
      let addr i = (List.nth staged i).Abi.t_addr 0 in
      if iargs <> [| 37L; addr 0; addr 1; 3L; addr 2 |] then
        Alcotest.failf "%s: integer-class arguments out of order" name;
      if Array.map bits dargs <> [| bits (Et.round et 0.1) |] then
        Alcotest.failf "%s: FP argument %h" name dargs.(0);
      List.iteri
        (fun j (data, (t : Abi.tensor)) ->
          let len = Array.length data in
          aligned (Printf.sprintf "%s buffer %d of %d elements" name j len)
            (t.Abi.t_addr 0);
          let back = Array.make len nan in
          Abi.read_back t back;
          Array.iteri
            (fun i x ->
              let want = bits (Et.round et x) in
              if bits (t.Abi.t_get i) <> want || bits back.(i) <> want then
                Alcotest.failf "%s buffer %d [%d] = %h: staged %h, read back %h"
                  name j i x (t.Abi.t_get i) back.(i))
            data;
          for i = len to len + Abi.pad_elements - 1 do
            if bits (t.Abi.t_get i) <> 0L then
              Alcotest.failf "%s buffer %d: pad [%d] = %h" name j i
                (t.Abi.t_get i)
          done)
        (List.combine bufs staged))
    [ Et.F64; Et.F32 ]

(* The column schedule natively.  Under [one_panel] every shape is one
   kc panel and one nc panel; the last case spans three nc panels of a
   width that is no multiple of the register tile, so chunks restart at
   each panel.  Every shape is at least as wide as it is tall, so two
   workers share C's columns, as the assertion on [Level3.schedule]
   checks first.  Each case runs [native_case] at jobs:2 against
   jobs:1, the simulator and [dgemm_naive], with both scaling steps, the
   alpha = 0 pass, and every leading dimension at its row count (one
   SCAL call per chunk of C) and at the row count + 3 (one per column,
   with C's padding rows checked).  A non-positive blocking is
   rejected by name. *)
let one_panel = { Mem_model.bl_mc = 8; bl_kc = 16; bl_nc = 60 }

let column_cases =
  List.map
    (fun shape -> (one_panel, shape))
    [ (1, 13, 1); (7, 45, 3); (17, 41, 16); (13, 60, 9); (24, 59, 5) ]
  @ [ ({ one_panel with bl_nc = 20 }, (7, 45, 3)) ]

let test_native_columns () =
  on_native_plans (fun et _p np ->
      let q = np.NB.np_plan in
      List.iter
        (fun (blocking, (m, n, k)) ->
          (match
             L3.schedule
               (Blocked.nest_blocking ~blocking q)
               ~nr:(Blocked.micro q).A.Tuner.bm_nr ~workers:2 ~m ~n ~k
           with
          | L3.Columns { workers = 2; _ } -> ()
          | _ -> Alcotest.failf "%dx%dx%d: not the column schedule" m n k);
          let label =
            Printf.sprintf "%dx%dx%d nc=%d" m n k blocking.Mem_model.bl_nc
          in
          List.iter
            (fun ab ->
              native_case ~blocking et np label
                (Blocked.operands ~et ~seed:n ~m ~n ~k) ab;
              native_case ~blocking et np
                (label ^ ", ld = rows + 3")
                (padded_operands ~et ~seed:n ~m ~n ~k) ab)
            [ (1.0, 1.0); (2.5, -0.5); (0.0, 2.0) ])
        column_cases;
      (* a non-positive blocking is rejected by name before a schedule
         is picked, on either side of the rule *)
      List.iter
        (fun (blocking, (m, n, k)) ->
          let a, b, c = Blocked.operands ~et ~seed:m ~m ~n ~k in
          Alcotest.check_raises "non-positive blocking"
            (Invalid_argument
               "Native_blocked.gemm: blocking dimensions must be positive")
            (fun () -> NB.gemm ~jobs:2 ~blocking np a b c))
        [ ({ one_panel with bl_nc = 0 }, (7, 45, 3));
          ({ one_panel with bl_mc = 0 }, (45, 7, 3)) ])

(* Every loaded plan splits its passes over [NB.team].  With both
   precisions' plans loaded, a split pass of each in turn, by rows under
   the tiny blocking and by columns under [one_panel], is bit-identical
   to jobs:1 ([native_case]) and leaves every helper of the team
   running.  Once one plan is released the other still splits its
   passes, none is left running once both are, and a plan loaded later
   starts them again.  On a one-worker team only the results are
   checked. *)
let test_native_plans_share_team () =
  if not (A.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else begin
    let team = NB.team in
    let one_worker = Team.size team = 1 in
    if one_worker then print_endline "one-worker team: bit-identity only";
    let helpers what want =
      if not one_worker then Alcotest.(check int) what want (Team.helpers team)
    in
    let load (et, plan) =
      match NB.load (Lazy.force plan) with
      | A.Native_check.Ready np -> (et, np)
      | A.Native_check.Unsupported m | A.Native_check.Rejected m ->
          Alcotest.failf "%s: %s" (Et.name et) m
    in
    let split_pass (et, np) =
      List.iter
        (fun (blocking, (m, n, k)) ->
          native_case ~blocking et np
            (Printf.sprintf "%dx%dx%d" m n k)
            (Blocked.operands ~et ~seed:m ~m ~n ~k)
            (2.5, -0.5);
          helpers
            (Printf.sprintf "%s %dx%dx%d: helpers" (Et.name et) m n k)
            (Team.size team - 1))
        [ (tiny, (17, 13, 11)); (one_panel, (13, 59, 9)) ]
    in
    let f64 = load (Et.F64, plan) and f32 = load (Et.F32, plan_f32) in
    split_pass f64;
    split_pass f32;
    NB.release (snd f64);
    split_pass f32;
    NB.release (snd f32);
    helpers "both released" 0;
    let again = load (Et.F64, plan) in
    split_pass again;
    NB.release (snd again);
    helpers "released again" 0
  end

(* The haswell f64 pack-A answer's tie set ranked as [augem tune
   --native] ranks it: every member, in set order, with a positive
   rate. *)
let test_tie_rates () =
  if not (A.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else
    let r = A.Tuner.tuned Arch.haswell Kernels.Pack_a in
    let config c =
      A.Transform.Pipeline.config_to_string c.A.Tuner.cand_config
    in
    let ranked = NB.tie_rates ~et:Et.F64 Arch.haswell Kernels.Pack_a r in
    Alcotest.(check (list string)) "set order"
      (List.map config r.A.Tuner.ties)
      (List.map (fun (c, _) -> config c) ranked);
    List.iter
      (fun (c, gated) ->
        match gated with
        | A.Native_check.Ready rate when rate > 0. -> ()
        | A.Native_check.Ready rate ->
            Alcotest.failf "%s: rate %g" (config c) rate
        | A.Native_check.Unsupported m | A.Native_check.Rejected m ->
            Alcotest.failf "%s: %s" (config c) m)
      ranked

let suite =
  test_shapes
  @ [
      Alcotest.test_case "tuned blocking" `Quick test_tuned_blocking;
      Alcotest.test_case "alpha/beta" `Quick test_alpha_beta;
      Alcotest.test_case "alpha=0 short-circuit" `Quick test_alpha_zero;
      Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
      Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
      Alcotest.test_case "plan shape" `Quick test_plan_shape;
      Alcotest.test_case "plan fell-back flag" `Quick test_plan_fell_back;
      Alcotest.test_case "native differential, multi-block and alpha/beta"
        `Slow test_native_differential;
      Alcotest.test_case "native shapes smaller than the tuned blocking"
        `Slow test_native_small_shapes;
      Alcotest.test_case "Table 6 routines on the native GEMM" `Slow
        test_native_level3;
      Alcotest.test_case "every tie member checks natively" `Slow
        test_native_tie_members;
      Alcotest.test_case "load keeps one member of each tie set" `Slow
        test_native_load_picks_members;
      Alcotest.test_case "native pass allocates nothing at jobs:1" `Quick
        test_native_no_allocation;
      Alcotest.test_case "native SCAL bit-identical to OCaml scaling" `Slow
        test_native_scal;
      Alcotest.test_case "resident tensors are page-aligned" `Quick
        test_tensor_alignment;
      Alcotest.test_case "native column schedule" `Slow test_native_columns;
      Alcotest.test_case "loaded plans share one team" `Slow
        test_native_plans_share_team;
      Alcotest.test_case "tie ranking times every member" `Quick
        test_tie_rates;
    ]
