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
