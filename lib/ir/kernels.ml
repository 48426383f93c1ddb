(* The four "simple C implementations" the paper feeds to AUGEM
   (Figures 12, 15, 16 and 17), expressed directly in the IR.  These are
   the canonical inputs of the whole pipeline; the parser in
   [Parser] accepts the same programs as C text. *)

open Ast

let loop v ~from ~below ?(step = Int_lit 1) body =
  For
    ( {
        loop_var = v;
        loop_init = from;
        loop_cmp = Lt;
        loop_bound = below;
        loop_step = step;
      },
      body )

(* Figure 12: the GEMM micro-kernel operating on a packed Mc x Kc block
   of A (column-major within the block: A[l*Mc + i]) and a packed
   Kc x N block of B (B[j*Kc + l]), accumulating into C (leading
   dimension LDC):

     for (j...) for (i...) { res = 0; for (l...) res += A*B; C += res } *)
let gemm : kernel =
  {
    k_name = "dgemm_kernel";
    k_params =
      [
        { p_name = "Mc"; p_type = Int };
        { p_name = "Kc"; p_type = Int };
        { p_name = "N"; p_type = Int };
        { p_name = "LDC"; p_type = Int };
        { p_name = "A"; p_type = Ptr Double };
        { p_name = "B"; p_type = Ptr Double };
        { p_name = "C"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Int, "j", None);
        Decl (Int, "l", None);
        Decl (Double, "res", None);
        loop "j" ~from:(Int_lit 0) ~below:(Var "N")
          [
            loop "i" ~from:(Int_lit 0) ~below:(Var "Mc")
              [
                Assign (Lvar "res", Double_lit 0.);
                loop "l" ~from:(Int_lit 0) ~below:(Var "Kc")
                  [
                    Assign
                      ( Lvar "res",
                        Var "res"
                        +! Index ("A", (Var "l" *! Var "Mc") +! Var "i")
                           *! Index ("B", (Var "j" *! Var "Kc") +! Var "l") );
                  ];
                Assign
                  ( Lindex ("C", (Var "j" *! Var "LDC") +! Var "i"),
                    Index ("C", (Var "j" *! Var "LDC") +! Var "i") +! Var "res"
                  );
              ];
          ];
      ];
  }

(* GEMM variant over a B block packed row-major within the panel
   (B[l*N + j]), the interleaved packing GotoBLAS produces for its
   micro-kernels.  With this layout the unrolled j-columns of B are
   contiguous in memory, which is the precondition of the Shuf
   vectorization method (paper section 3.4, Figure 9). *)
let gemm_packed : kernel =
  {
    k_name = "dgemm_kernel_packed";
    k_params =
      [
        { p_name = "Mc"; p_type = Int };
        { p_name = "Kc"; p_type = Int };
        { p_name = "N"; p_type = Int };
        { p_name = "LDC"; p_type = Int };
        { p_name = "A"; p_type = Ptr Double };
        { p_name = "B"; p_type = Ptr Double };
        { p_name = "C"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Int, "j", None);
        Decl (Int, "l", None);
        Decl (Double, "res", None);
        loop "j" ~from:(Int_lit 0) ~below:(Var "N")
          [
            loop "i" ~from:(Int_lit 0) ~below:(Var "Mc")
              [
                Assign (Lvar "res", Double_lit 0.);
                loop "l" ~from:(Int_lit 0) ~below:(Var "Kc")
                  [
                    Assign
                      ( Lvar "res",
                        Var "res"
                        +! Index ("A", (Var "l" *! Var "Mc") +! Var "i")
                           *! Index ("B", (Var "l" *! Var "N") +! Var "j") );
                  ];
                Assign
                  ( Lindex ("C", (Var "j" *! Var "LDC") +! Var "i"),
                    Index ("C", (Var "j" *! Var "LDC") +! Var "i") +! Var "res"
                  );
              ];
          ];
      ];
  }

(* Figure 15: column-sweep GEMV, y += A(:, i) * x[i] for each column i.
   The paper writes the primary operation as Y[j] += A[i*LDA + j] *
   scal with scal = X[i]. *)
let gemv : kernel =
  {
    k_name = "dgemv_kernel";
    k_params =
      [
        { p_name = "M"; p_type = Int };
        { p_name = "N"; p_type = Int };
        { p_name = "LDA"; p_type = Int };
        { p_name = "A"; p_type = Ptr Double };
        { p_name = "X"; p_type = Ptr Double };
        { p_name = "Y"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Int, "j", None);
        Decl (Double, "scal", None);
        loop "i" ~from:(Int_lit 0) ~below:(Var "N")
          [
            Assign (Lvar "scal", Index ("X", Var "i"));
            loop "j" ~from:(Int_lit 0) ~below:(Var "M")
              [
                Assign
                  ( Lindex ("Y", Var "j"),
                    Index ("Y", Var "j")
                    +! Index ("A", (Var "i" *! Var "LDA") +! Var "j")
                       *! Var "scal" );
              ];
          ];
      ];
  }

(* Figure 16: AXPY, Y[i] += X[i] * alpha. *)
let axpy : kernel =
  {
    k_name = "daxpy_kernel";
    k_params =
      [
        { p_name = "N"; p_type = Int };
        { p_name = "alpha"; p_type = Double };
        { p_name = "X"; p_type = Ptr Double };
        { p_name = "Y"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        loop "i" ~from:(Int_lit 0) ~below:(Var "N")
          [
            Assign
              ( Lindex ("Y", Var "i"),
                Index ("Y", Var "i") +! (Index ("X", Var "i") *! Var "alpha") );
          ];
      ];
  }

(* Figure 17: DOT, res += X[i] * Y[i].  The scalar result is written to
   a one-element output buffer since kernels return void. *)
let dot : kernel =
  {
    k_name = "ddot_kernel";
    k_params =
      [
        { p_name = "N"; p_type = Int };
        { p_name = "X"; p_type = Ptr Double };
        { p_name = "Y"; p_type = Ptr Double };
        { p_name = "res_out"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Double, "res", None);
        Assign (Lvar "res", Double_lit 0.);
        loop "i" ~from:(Int_lit 0) ~below:(Var "N")
          [
            Assign
              ( Lvar "res",
                Var "res" +! (Index ("X", Var "i") *! Index ("Y", Var "i")) );
          ];
        Assign
          ( Lindex ("res_out", Int_lit 0),
            Index ("res_out", Int_lit 0) +! Var "res" );
      ];
  }

(* GER: the rank-1 update A += alpha * x y^T (paper Table 6 builds it
   from the Level-1 kernels).  The inner column sweep is an mvCOMP
   pattern with the per-column scalar alpha*y[j]. *)
let ger : kernel =
  {
    k_name = "dger_kernel";
    k_params =
      [
        { p_name = "M"; p_type = Int };
        { p_name = "N"; p_type = Int };
        { p_name = "LDA"; p_type = Int };
        { p_name = "alpha"; p_type = Double };
        { p_name = "X"; p_type = Ptr Double };
        { p_name = "Y"; p_type = Ptr Double };
        { p_name = "A"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Int, "j", None);
        Decl (Double, "scal", None);
        loop "j" ~from:(Int_lit 0) ~below:(Var "N")
          [
            Assign (Lvar "scal", Index ("Y", Var "j") *! Var "alpha");
            loop "i" ~from:(Int_lit 0) ~below:(Var "M")
              [
                Assign
                  ( Lindex ("A", (Var "j" *! Var "LDA") +! Var "i"),
                    Index ("A", (Var "j" *! Var "LDA") +! Var "i")
                    +! (Index ("X", Var "i") *! Var "scal") );
              ];
          ];
      ];
  }

(* DSCAL: X *= alpha — exercises the svSCAL extension template. *)
let scal : kernel =
  {
    k_name = "dscal_kernel";
    k_params =
      [
        { p_name = "N"; p_type = Int };
        { p_name = "alpha"; p_type = Double };
        { p_name = "X"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        loop "i" ~from:(Int_lit 0) ~below:(Var "N")
          [ Assign (Lindex ("X", Var "i"), Index ("X", Var "i") *! Var "alpha") ];
      ];
  }

(* DCOPY: Y = X — exercises the svCOPY extension template. *)
let copy : kernel =
  {
    k_name = "dcopy_kernel";
    k_params =
      [
        { p_name = "N"; p_type = Int };
        { p_name = "X"; p_type = Ptr Double };
        { p_name = "Y"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        loop "i" ~from:(Int_lit 0) ~below:(Var "N")
          [ Assign (Lindex ("Y", Var "i"), Index ("X", Var "i")) ];
      ];
  }

(* Pack-A panel: copy an Mc x Kc block of A (leading dimension LDA,
   already offset to the block's first element) into the contiguous
   column-major-within-block layout A[l*Mc + i] the GEMM micro-kernel
   reads.  The inner i-sweep is a unit-stride copy on both sides, so
   it tags as the svCOPY template and vectorizes like DCOPY. *)
let pack_a : kernel =
  {
    k_name = "dpack_a_kernel";
    k_params =
      [
        { p_name = "Mc"; p_type = Int };
        { p_name = "Kc"; p_type = Int };
        { p_name = "LDA"; p_type = Int };
        { p_name = "A"; p_type = Ptr Double };
        { p_name = "P"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "i", None);
        Decl (Int, "l", None);
        loop "l" ~from:(Int_lit 0) ~below:(Var "Kc")
          [
            loop "i" ~from:(Int_lit 0) ~below:(Var "Mc")
              [
                Assign
                  ( Lindex ("P", (Var "l" *! Var "Mc") +! Var "i"),
                    Index ("A", (Var "l" *! Var "LDA") +! Var "i") );
              ];
          ];
      ];
  }

(* Pack-B panel: copy a Kc x Nc block of B (leading dimension LDB,
   offset to the block start) into the per-column stream layout
   B[j*Kc + l].  The inner l-sweep walks one column of B and of the
   packed panel at unit stride — again the svCOPY template. *)
let pack_b : kernel =
  {
    k_name = "dpack_b_kernel";
    k_params =
      [
        { p_name = "Kc"; p_type = Int };
        { p_name = "Nc"; p_type = Int };
        { p_name = "LDB"; p_type = Int };
        { p_name = "B"; p_type = Ptr Double };
        { p_name = "P"; p_type = Ptr Double };
      ];
    k_body =
      [
        Decl (Int, "j", None);
        Decl (Int, "l", None);
        loop "j" ~from:(Int_lit 0) ~below:(Var "Nc")
          [
            loop "l" ~from:(Int_lit 0) ~below:(Var "Kc")
              [
                Assign
                  ( Lindex ("P", (Var "j" *! Var "Kc") +! Var "l"),
                    Index ("B", (Var "j" *! Var "LDB") +! Var "l") );
              ];
          ];
      ];
  }

(* Precision parameterization: the templates above are written once
   with [Double] element types; [retype Float] rewrites every FP
   parameter and declaration to [Float] and renames the d-prefixed
   function to its s-prefixed BLAS sibling (dgemm_kernel ->
   sgemm_kernel).  The loop structure — and therefore the template
   identification and vectorization planning — is shared between the
   two precisions; only the element type differs. *)

let rec retype_dtype fp = function
  | Double -> fp
  | Ptr t -> Ptr (retype_dtype fp t)
  | t -> t

let rec retype_stmt fp s =
  match s with
  | Decl (t, v, init) -> Decl (retype_dtype fp t, v, init)
  | For (h, body) -> For (h, List.map (retype_stmt fp) body)
  | If (a, c, b, t, f) ->
      If (a, c, b, List.map (retype_stmt fp) t, List.map (retype_stmt fp) f)
  | Tagged (tag, body) -> Tagged (tag, List.map (retype_stmt fp) body)
  | Assign _ | Prefetch _ | Comment _ -> s

let retype (fp : dtype) (k : kernel) : kernel =
  if fp = Double then k
  else
    let k_name =
      if String.length k.k_name > 0 && k.k_name.[0] = 'd' then
        "s" ^ String.sub k.k_name 1 (String.length k.k_name - 1)
      else k.k_name
    in
    {
      k_name;
      k_params =
        List.map
          (fun p -> { p with p_type = retype_dtype fp p.p_type })
          k.k_params;
      k_body = List.map (retype_stmt fp) k.k_body;
    }

type name = Gemm | Gemv | Axpy | Dot | Ger | Scal | Copy | Pack_a | Pack_b

let kernel_of_name ?(fp = Double) n =
  retype fp
    (match n with
    | Gemm -> gemm
    | Gemv -> gemv
    | Axpy -> axpy
    | Dot -> dot
    | Ger -> ger
    | Scal -> scal
    | Copy -> copy
    | Pack_a -> pack_a
    | Pack_b -> pack_b)

let names = [ Gemm; Gemv; Axpy; Dot; Ger; Scal; Copy; Pack_a; Pack_b ]
let all_for fp = List.map (fun n -> (n, kernel_of_name ~fp n)) names
let all = all_for Double

let name_to_string ?(fp = Double) n =
  let base =
    match n with
    | Gemm -> "gemm"
    | Gemv -> "gemv"
    | Axpy -> "axpy"
    | Dot -> "dot"
    | Ger -> "ger"
    | Scal -> "scal"
    | Copy -> "copy"
    | Pack_a -> "pack_a"
    | Pack_b -> "pack_b"
  in
  match fp with Float -> "s" ^ base | _ -> base

let name_of_string = function
  | "gemm" -> Some Gemm
  | "gemv" -> Some Gemv
  | "axpy" -> Some Axpy
  | "dot" -> Some Dot
  | "ger" -> Some Ger
  | "scal" -> Some Scal
  | "copy" -> Some Copy
  | "pack_a" -> Some Pack_a
  | "pack_b" -> Some Pack_b
  | _ -> None
