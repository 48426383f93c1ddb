(* Reference BLAS substrate: Level-1/2/3 numerics, the Goto blocking
   against the naive triple loop, packing layouts, and algebraic
   identities (TRSM inverts TRMM, SYRK symmetry, ...). *)

module Mat = Augem.Blas.Matrix
module L1 = Augem.Blas.Level1
module L2 = Augem.Blas.Level2
module L3 = Augem.Blas.Level3

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a +. Float.abs b)

(* --- level 1 -------------------------------------------------------------- *)

let arb_vec =
  QCheck.(
    make
      ~print:(fun a -> String.concat ";" (Array.to_list (Array.map string_of_float a)))
      Gen.(
        let* n = int_range 1 50 in
        array_size (return n) (float_range (-10.) 10.)))

let prop_dot_commutes =
  QCheck.Test.make ~name:"ddot commutes" ~count:200 (QCheck.pair arb_vec arb_vec)
    (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      close (L1.ddot n x y) (L1.ddot n y x))

let prop_axpy_linear =
  QCheck.Test.make ~name:"daxpy twice = daxpy of sum" ~count:200
    (QCheck.triple arb_vec QCheck.(float_range (-5.) 5.) QCheck.(float_range (-5.) 5.))
    (fun (x, a, b) ->
      let n = Array.length x in
      let y1 = Array.make n 0. and y2 = Array.make n 0. in
      L1.daxpy n a x y1;
      L1.daxpy n b x y1;
      L1.daxpy n (a +. b) x y2;
      Array.for_all2 close y1 y2)

let prop_nrm2_dot =
  QCheck.Test.make ~name:"dnrm2^2 = ddot x x" ~count:200 arb_vec (fun x ->
      let n = Array.length x in
      let nrm = L1.dnrm2 n x in
      close (nrm *. nrm) (L1.ddot n x x))

let test_idamax () =
  Alcotest.(check int) "idamax" 2 (L1.idamax 4 [| 1.; -2.; 5.; 4. |]);
  Alcotest.(check int) "idamax negative" 1 (L1.idamax 3 [| 1.; -7.; 5. |])

let test_dscal_dswap_dcopy () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  L1.dscal 3 2.0 x;
  Alcotest.(check (array (float 0.))) "dscal" [| 2.; 4.; 6. |] x;
  L1.dswap 3 x y;
  Alcotest.(check (array (float 0.))) "dswap" [| 4.; 5.; 6. |] x;
  let z = Array.make 3 0. in
  L1.dcopy 3 y z;
  Alcotest.(check (array (float 0.))) "dcopy" [| 2.; 4.; 6. |] z;
  Alcotest.(check (float 1e-12)) "dasum" 15.0 (L1.dasum 3 x)

(* --- level 2 -------------------------------------------------------------- *)

let test_gemv_trans () =
  let a = Mat.random ~seed:3 5 4 in
  let x = Array.init 5 float_of_int in
  let y = Array.make 4 0. in
  L2.dgemv ~trans:L2.Trans ~alpha:1.0 ~beta:0.0 a x y;
  (* compare with explicit transpose *)
  let at = L3.transpose a in
  let y' = Array.make 4 0. in
  L2.dgemv ~alpha:1.0 ~beta:0.0 at x y';
  Alcotest.(check bool) "A^T x" true (Array.for_all2 close y y')

let test_ger_rank1 () =
  let m = 4 and n = 3 in
  let a = Mat.create m n in
  let x = Array.init m (fun i -> float_of_int (i + 1)) in
  let y = Array.init n (fun j -> float_of_int (j + 2)) in
  L2.dger ~alpha:2.0 a x y;
  Alcotest.(check (float 1e-12)) "a(2,1)" (2.0 *. 3.0 *. 3.0) (Mat.get a 2 1)

let test_trsv_inverts_trmv () =
  let n = 8 in
  let l = Mat.random_lower ~seed:9 n in
  let x = Array.init n (fun i -> float_of_int (i - 3) /. 2.) in
  let b = Array.copy x in
  L2.dtrmv l b; (* b = L x *)
  L2.dtrsv l b; (* b = L^-1 L x = x *)
  Alcotest.(check bool) "round trip" true (Array.for_all2 close b x)

let test_symv () =
  let n = 5 in
  let a = Mat.random_symmetric ~seed:4 n in
  let x = Array.init n (fun i -> float_of_int i /. 3.) in
  let y1 = Array.make n 0. and y2 = Array.make n 0. in
  L2.dsymv ~alpha:1.0 ~beta:0.0 a x y1;
  L2.dgemv ~alpha:1.0 ~beta:0.0 a x y2;
  Alcotest.(check bool) "symv = gemv on full symmetric" true
    (Array.for_all2 close y1 y2)

(* --- level 3 -------------------------------------------------------------- *)

let arb_shape =
  QCheck.(
    make
      ~print:(fun (m, k, n) -> Printf.sprintf "%dx%dx%d" m k n)
      Gen.(triple (int_range 1 40) (int_range 1 40) (int_range 1 40)))

let prop_blocked_equals_naive =
  QCheck.Test.make ~name:"blocked GEMM = naive GEMM" ~count:60 arb_shape
    (fun (m, k, n) ->
      let a = Mat.random ~seed:m m k in
      let b = Mat.random ~seed:(k + 1) k n in
      let c1 = Mat.random ~seed:(n + 2) m n in
      let c2 = Mat.copy c1 in
      L3.dgemm_naive ~alpha:1.5 ~beta:0.5 a b c1;
      L3.dgemm_blocked
        ~blocking:{ L3.bk_mc = 8; bk_kc = 6; bk_nc = 5 }
        ~alpha:1.5 ~beta:0.5 a b c2;
      Mat.approx_equal c1 c2)

let test_packing_roundtrip () =
  let b = Mat.random ~seed:13 7 5 in
  let kc = 4 and nc = 3 in
  let buf = Array.make (kc * nc) 0. in
  L3.pack_b b ~l0:2 ~j0:1 ~kc ~nc buf;
  Alcotest.(check (float 0.)) "stream layout" (Mat.get b 3 2) buf.((1 * kc) + 1)

let test_symm () =
  let n = 12 in
  let a = Mat.random_symmetric ~seed:21 n in
  let b = Mat.random ~seed:22 n n in
  let c1 = Mat.random ~seed:23 n n in
  let c2 = Mat.copy c1 in
  L3.dsymm ~side:L3.Left ~alpha:1.0 ~beta:1.0 a b c1;
  (* reference: full symmetric gemm *)
  L3.dgemm_naive ~alpha:1.0 ~beta:1.0 a b c2;
  Alcotest.(check bool) "symm = gemm(full)" true (Mat.approx_equal c1 c2)

let test_syrk () =
  let n = 9 and k = 6 in
  let a = Mat.random ~seed:31 n k in
  let c = Mat.create n n in
  L3.dsyrk ~alpha:1.0 ~beta:0.0 a c;
  (* lower triangle must hold A A^T *)
  let full = Mat.create n n in
  L3.dgemm_naive ~alpha:1.0 ~beta:0.0 a (L3.transpose a) full;
  let ok = ref true in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      if not (close (Mat.get c i j) (Mat.get full i j)) then ok := false
    done
  done;
  Alcotest.(check bool) "syrk lower triangle" true !ok

let test_syr2k () =
  let n = 7 and k = 5 in
  let a = Mat.random ~seed:41 n k in
  let b = Mat.random ~seed:42 n k in
  let c = Mat.create n n in
  L3.dsyr2k ~alpha:1.0 ~beta:0.0 a b c;
  let full = Mat.create n n in
  L3.dgemm_naive ~alpha:1.0 ~beta:0.0 a (L3.transpose b) full;
  L3.dgemm_naive ~alpha:1.0 ~beta:1.0 b (L3.transpose a) full;
  let ok = ref true in
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      if not (close (Mat.get c i j) (Mat.get full i j)) then ok := false
    done
  done;
  Alcotest.(check bool) "syr2k lower triangle" true !ok

let test_trmm () =
  let n = 20 and rhs = 7 in
  let l = Mat.random_lower ~seed:51 n in
  let b = Mat.random ~seed:52 n rhs in
  let b1 = Mat.copy b in
  L3.dtrmm ~alpha:1.0 l b1;
  (* reference: full gemm with the triangular matrix *)
  let b2 = Mat.create n rhs in
  L3.dgemm_naive ~alpha:1.0 ~beta:0.0 l b b2;
  Alcotest.(check bool) "trmm = L*B" true (Mat.approx_equal b1 b2)

let test_trsm_inverts_trmm () =
  let n = 33 and rhs = 6 in
  let l = Mat.random_lower ~seed:61 n in
  let b = Mat.random ~seed:62 n rhs in
  let x = Mat.copy b in
  L3.dtrmm ~alpha:1.0 l x; (* x = L b *)
  L3.dtrsm ~alpha:1.0 l x; (* x = b *)
  Alcotest.(check bool) "trsm . trmm = id" true
    (Mat.approx_equal ~tol:1e-7 x b)

let test_trsm_small_blocks_cross () =
  (* blocked TRSM crosses diagonal-block boundaries correctly *)
  let n = 100 and rhs = 3 in
  let l = Mat.random_lower ~seed:71 n in
  let b = Mat.random ~seed:72 n rhs in
  let x = Mat.copy b in
  L3.dtrsm ~alpha:1.0 l x;
  (* check L x = b column-wise via trmv *)
  let ok = ref true in
  for j = 0 to rhs - 1 do
    let col = Array.init n (fun i -> Mat.get x i j) in
    L2.dtrmv l col;
    for i = 0 to n - 1 do
      if not (close col.(i) (Mat.get b i j)) then ok := false
    done
  done;
  Alcotest.(check bool) "L (trsm b) = b" true !ok

let test_alpha_beta_handling () =
  let m = 5 and k = 4 and n = 3 in
  let a = Mat.random ~seed:81 m k in
  let b = Mat.random ~seed:82 k n in
  let c = Mat.random ~seed:83 m n in
  let c0 = Mat.copy c in
  (* alpha = 0: C := beta*C *)
  L3.dgemm_blocked ~alpha:0.0 ~beta:2.0 a b c;
  let ok = ref true in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      if not (close (Mat.get c i j) (2.0 *. Mat.get c0 i j)) then ok := false
    done
  done;
  Alcotest.(check bool) "beta scaling" true !ok

(* A zero block dimension used to make the nest spin forever
   (nc = min 0 (n - j0) never advances); it must be rejected up front. *)
let test_non_positive_blocking () =
  let a = Mat.random ~seed:84 4 3 and b = Mat.random ~seed:85 3 2 in
  List.iter
    (fun blocking ->
      Alcotest.check_raises "rejected"
        (Invalid_argument "dgemm: blocking dimensions must be positive")
        (fun () ->
          L3.dgemm_blocked ~blocking ~alpha:1. ~beta:1. a b (Mat.create 4 2)))
    [ { L3.bk_mc = 0; bk_kc = 6; bk_nc = 5 };
      { L3.bk_mc = 8; bk_kc = 6; bk_nc = 0 } ]

(* --- the schedule of a multicore pass ----------------------------------- *)

module Blocked = Augem.Blocked
module NB = Augem.Native_blocked
module Et = Augem.Machine.Etype

(* [Level3.schedule] under the tuned haswell blockings and register
   tiles, at both precisions.  Two workers share the columns of
   gemm-skinny's rank-k updates, in chunks that cover [0, n) once, in
   order, each starting on a multiple of nr.  The 1024^3 cube (k > kc)
   and a tall panel (m > n) keep the row schedule, and one worker gets
   the serial nest whatever the shape. *)
let test_schedule_choice () =
  List.iter
    (fun (et, plan) ->
      let p = Lazy.force plan in
      let blocking = Blocked.nest_blocking p in
      let nr = (Blocked.micro p).Augem.Tuner.bm_nr in
      let pick ~workers (m, n, k) =
        L3.schedule blocking ~nr ~workers ~m ~n ~k
      in
      let what (m, n, k) = Printf.sprintf "%s %dx%dx%d" (Et.name et) m n k in
      let rank_k = [ (1003, 1003, 13); (311, 311, 64) ]
      and others = [ (1024, 1024, 1024); (4096, 11, 256) ] in
      List.iter
        (fun ((_, n, _) as shape) ->
          match pick ~workers:2 shape with
          | L3.Columns { workers = 2; chunks } ->
              let next =
                Array.fold_left
                  (fun j (j0, nc) ->
                    if j0 <> j || nc < 1 then
                      Alcotest.failf "%s: chunk (%d, %d) after column %d"
                        (what shape) j0 nc j;
                    if j0 mod nr <> 0 then
                      Alcotest.failf "%s: chunk at %d, nr = %d" (what shape)
                        j0 nr;
                    j0 + nc)
                  0 chunks
              in
              if next <> n then
                Alcotest.failf "%s: chunks end at column %d" (what shape) next
          | _ -> Alcotest.failf "%s: not two workers on columns" (what shape))
        rank_k;
      List.iter
        (fun shape ->
          if pick ~workers:2 shape <> L3.Rows 2 then
            Alcotest.failf "%s: not two workers on rows" (what shape))
        others;
      List.iter
        (fun shape ->
          if pick ~workers:1 shape <> L3.Rows 1 then
            Alcotest.failf "%s: one worker is not serial" (what shape))
        (rank_k @ others))
    Plans.haswell

(* A warm native pass under the column schedule at jobs:2 allocates no
   more than one under the row schedule: each forks once (one kc panel,
   one nc panel, several ic blocks), and neither schedule's claims
   allocate.  The fewest minor words of five passes each. *)
let test_column_pass_allocation () =
  if not (Augem.Native_check.host_supported ()) then
    print_endline "skipped: host CPU lacks SSE2+AVX"
  else
    match NB.load (Lazy.force Plans.f64) with
    | Augem.Native_check.Ready np ->
        Fun.protect
          ~finally:(fun () -> NB.release np)
          (fun () ->
            let blocking =
              { Augem.Sim.Mem_model.bl_mc = 8; bl_kc = 16; bl_nc = 60 }
            in
            let words ~m ~n =
              let a, b, c = Blocked.operands ~et:Et.F64 ~seed:m ~m ~n ~k:5 in
              let run, _finish =
                NB.gemm_runner ~jobs:2 ~blocking ~alpha:2.5 ~beta:(-0.5) np a
                  b c
              in
              run ();
              List.fold_left Float.min infinity
                (List.init 5 (fun _ ->
                     let w0 = Gc.minor_words () in
                     run ();
                     Gc.minor_words () -. w0))
            in
            let columns = words ~m:24 ~n:59 and rows = words ~m:59 ~n:24 in
            if columns > rows then
              Alcotest.failf "column pass %g minor words, row pass %g" columns
                rows)
    | Augem.Native_check.Unsupported m -> Printf.printf "skipped (%s)\n" m
    | Augem.Native_check.Rejected m -> Alcotest.fail m

(* Two column passes over reference workers that count their packings
   of A, under a fork that runs both slices on the caller, in either
   order: the first slice claims every chunk, as a caller does whose
   helper starts late.  It packs each ic block of A once a pass, not
   once a chunk, and the other worker packs nothing; the result is
   bit-identical to the serial nest's.  A column schedule whose K spans
   two kc panels is rejected. *)
let test_column_pass_packs_a_once () =
  let blocking = { L3.bk_mc = 4; bk_kc = 8; bk_nc = 12 } in
  let m = 10 and n = 30 and k = 6 and alpha = 1.5 and beta = 0.5 in
  let a = Mat.random ~seed:91 m k and b = Mat.random ~seed:92 k n in
  let c0 = Mat.random ~seed:93 m n in
  let schedule = L3.schedule blocking ~nr:2 ~workers:2 ~m ~n ~k in
  let chunks =
    match schedule with
    | L3.Columns { workers = 2; chunks } -> chunks
    | _ -> Alcotest.fail "10x30x6 is not on columns"
  in
  let blocks = (m + blocking.L3.bk_mc - 1) / blocking.L3.bk_mc in
  let serial = Mat.copy c0 in
  for _ = 1 to 2 do
    L3.dgemm_blocked ~blocking ~alpha ~beta a b serial
  done;
  let pa_len, pb_len = L3.packed_sizes blocking schedule a b in
  List.iter
    (fun order ->
      let c = Mat.copy c0 and packs = Array.make 2 0 in
      let worker w =
        let pa = Array.make pa_len 0. and pb = Array.make pb_len 0. in
        {
          L3.scale_c =
            (fun beta ~j0 ~nc ->
              for j = j0 to j0 + nc - 1 do
                for i = 0 to m - 1 do
                  Mat.set c i j (beta *. Mat.get c i j)
                done
              done);
          pack_b = (fun ~l0 ~j0 ~kc ~nc -> L3.pack_b b ~l0 ~j0 ~kc ~nc pb);
          scale_b =
            (fun alpha ~kc ~nc ->
              for idx = 0 to (kc * nc) - 1 do
                pb.(idx) <- alpha *. pb.(idx)
              done);
          pack_a =
            (fun ~i0 ~l0 ~mc ~kc ~at ->
              packs.(w) <- packs.(w) + 1;
              let block = Array.make (mc * kc) 0. in
              L3.pack_a a ~i0 ~l0 ~mc ~kc block;
              Array.blit block 0 pa at (mc * kc));
          micro =
            (fun ~i0 ~j0 ~mc ~kc ~nc ~at ->
              L3.micro_kernel_ref ~mc ~kc ~nc
                ~pa:(Array.sub pa at (mc * kc))
                ~pb ~c_data:c.Mat.data
                ~c_off:((j0 * c.Mat.ld) + i0)
                ~ldc:c.Mat.ld);
        }
      in
      let run = L3.nest ~who:"t" ~blocking ~schedule ~alpha ~beta a b c in
      let ex =
        {
          L3.workers = Array.init 2 worker;
          fork = (fun _ slice -> List.iter slice order);
        }
      in
      run ex;
      run ex;
      let first = List.hd order in
      if packs.(first) <> 2 * blocks || packs.(1 - first) <> 0 then
        Alcotest.failf
          "slices %d then %d: %d and %d packings of A over %d chunks, %d \
           blocks, 2 passes"
          first (1 - first) packs.(first) packs.(1 - first)
          (Array.length chunks) blocks;
      if not (Array.for_all2 Float.equal c.Mat.data serial.Mat.data) then
        Alcotest.failf "slices %d then %d: differs from the serial nest" first
          (1 - first))
    [ [ 0; 1 ]; [ 1; 0 ] ];
  let deep_a = Mat.random ~seed:94 m 9 and deep_b = Mat.random ~seed:95 9 n in
  Alcotest.check_raises "two kc panels"
    (Invalid_argument "t: a column schedule needs K within one kc panel")
    (fun () ->
      let (_ : L3.executor -> unit) =
        L3.nest ~who:"t" ~blocking ~schedule ~alpha ~beta deep_a deep_b
          (Mat.copy c0)
      in
      ())

let suite =
  [
    Alcotest.test_case "idamax" `Quick test_idamax;
    Alcotest.test_case "dscal/dswap/dcopy/dasum" `Quick test_dscal_dswap_dcopy;
    Alcotest.test_case "gemv transpose" `Quick test_gemv_trans;
    Alcotest.test_case "ger rank-1 update" `Quick test_ger_rank1;
    Alcotest.test_case "trsv inverts trmv" `Quick test_trsv_inverts_trmv;
    Alcotest.test_case "symv vs gemv" `Quick test_symv;
    Alcotest.test_case "packing layouts" `Quick test_packing_roundtrip;
    Alcotest.test_case "symm" `Quick test_symm;
    Alcotest.test_case "syrk" `Quick test_syrk;
    Alcotest.test_case "syr2k" `Quick test_syr2k;
    Alcotest.test_case "trmm" `Quick test_trmm;
    Alcotest.test_case "trsm inverts trmm" `Quick test_trsm_inverts_trmm;
    Alcotest.test_case "trsm across blocks" `Quick test_trsm_small_blocks_cross;
    Alcotest.test_case "alpha/beta handling" `Quick test_alpha_beta_handling;
    Alcotest.test_case "non-positive blocking rejected" `Quick
      test_non_positive_blocking;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_dot_commutes; prop_axpy_linear; prop_nrm2_dot;
        prop_blocked_equals_naive ]
  @ [
      Alcotest.test_case "schedule: columns for shallow wide products"
        `Quick test_schedule_choice;
      Alcotest.test_case "column pass allocates no more than a row pass"
        `Quick test_column_pass_allocation;
      Alcotest.test_case "column pass packs A once per worker" `Quick
        test_column_pass_packs_a_once;
    ]
