(* Verification harness: runs a generated assembly kernel on the
   functional simulator against the reference BLAS on randomized
   inputs.  This is the end-to-end correctness gate for every kernel,
   architecture and tuning configuration. *)

open Augem_ir
module Exec = Augem_sim.Exec_sim
module L1 = Augem_blas.Level1
module L2 = Augem_blas.Level2
module L3 = Augem_blas.Level3
module Mat = Augem_blas.Matrix
module Insn = Augem_machine.Insn
module Et = Augem_machine.Etype

type shape = {
  sh_m : int; (* rows / vector length *)
  sh_n : int;
  sh_k : int;
  sh_ld_slack : int; (* extra leading-dimension padding *)
}

let default_shape = { sh_m = 8; sh_n = 6; sh_k = 16; sh_ld_slack = 2 }

let fill seed n =
  let state = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (float_of_int !state /. 1073741824.0 *. 2.0) -. 1.0)

(* Narrow random inputs to the element type so the f64 reference and
   the simulated kernel start from identical values; identity at f64. *)
let nar et a = Array.map (Et.round et) a

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

let arrays_close ?tol a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> close ?tol x y) a b

type outcome = {
  ok : bool;
  detail : string;
  sim_result : Exec.result option;
}

let pass sim_result = { ok = true; detail = "ok"; sim_result }
let fail detail = { ok = false; detail; sim_result = None }

(* Instruction budget for one simulated kernel call.  The harness
   shapes execute a few thousand instructions; anything in the millions
   is a diverging mutant or a pathological configuration, and must fail
   fast instead of hanging a tuning sweep or the chaos suite. *)
let default_fuel = 20_000_000

(* How a verify driver executes the kernel under test.  The default
   runner is the functional simulator; the native JIT path plugs in a
   runner that executes real machine code and the simulator and
   cross-checks them, so one set of seeds, shapes and degenerate sweeps
   drives every execution backend. *)
type runner = {
  run_name : string;
  run :
    et:Et.t ->
    fuel:int ->
    Insn.program ->
    Exec.arg list ->
    (Exec.result option, string) result;
}

let sim_runner =
  {
    run_name = "sim";
    run =
      (fun ~et ~fuel prog args ->
        match Exec.call ~et ~fuel prog args with
        | r -> Ok (Some r)
        | exception Exec.Sim_error msg -> Error ("simulator fault: " ^ msg));
  }

(* Run the program and catch executor faults as failures. *)
let run_sim ?(runner = sim_runner) ?(et = Et.F64) ?(fuel = default_fuel) prog
    args =
  runner.run ~et ~fuel prog args

(* --- per-kernel drivers ------------------------------------------------- *)

let verify_gemm ?runner ?(et = Et.F64) ?fuel ?(packed = false) ?(seed = 1)
    ?(shape = default_shape) (prog : Insn.program) : outcome =
  let mc = shape.sh_m and kc = shape.sh_k and n = shape.sh_n in
  let ldc = mc + shape.sh_ld_slack in
  let pa = nar et (fill seed (mc * kc)) in
  let pb = nar et (fill (seed + 1) (kc * n)) in
  let c_ref = nar et (fill (seed + 2) (ldc * n)) in
  let c_sim = Array.copy c_ref in
  (* reference through the independent BLAS micro-kernel *)
  (if packed then
     (* interleaved layout: B[l*n + j]; re-pack into stream layout for
        the reference *)
     let pb_stream = Array.make (kc * n) 0. in
     for j = 0 to n - 1 do
       for l = 0 to kc - 1 do
         pb_stream.((j * kc) + l) <- pb.((l * n) + j)
       done
     done;
     L3.micro_kernel_ref ~mc ~kc ~nc:n ~pa ~pb:pb_stream ~c_data:c_ref
       ~c_off:0 ~ldc
   else
     L3.micro_kernel_ref ~mc ~kc ~nc:n ~pa ~pb ~c_data:c_ref ~c_off:0 ~ldc);
  match
    run_sim ?runner ~et ?fuel prog
      Exec.[ Aint mc; Aint kc; Aint n; Aint ldc; Abuf pa; Abuf pb; Abuf c_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol ~k:kc et) c_ref c_sim then pass r
      else fail "gemm: output mismatch"

let verify_gemv ?runner ?(et = Et.F64) ?fuel ?(seed = 2) ?(shape = default_shape)
    ?m ?n (prog : Insn.program) : outcome =
  let m = match m with Some m -> m | None -> shape.sh_m + 5 in
  let n = match n with Some n -> n | None -> shape.sh_n in
  let lda = m + shape.sh_ld_slack in
  let a = nar et (fill seed (lda * n)) in
  let x = nar et (fill (seed + 1) n) in
  let y_ref = nar et (fill (seed + 2) m) in
  let y_sim = Array.copy y_ref in
  let mat = Mat.{ data = a; rows = m; cols = n; ld = lda } in
  L2.dgemv ~alpha:1.0 ~beta:1.0 mat x y_ref;
  match
    run_sim ?runner ~et ?fuel prog
      Exec.[ Aint m; Aint n; Aint lda; Abuf a; Abuf x; Abuf y_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol ~k:n et) y_ref y_sim then pass r
      else fail "gemv: output mismatch"

let verify_axpy ?runner ?(et = Et.F64) ?fuel ?(seed = 3) ?(n = 37) ?(alpha = 1.7)
    (prog : Insn.program) : outcome =
  let alpha = Et.round et alpha in
  let x = nar et (fill seed n) in
  let y_ref = nar et (fill (seed + 1) n) in
  let y_sim = Array.copy y_ref in
  L1.daxpy n alpha x y_ref;
  match
    run_sim ?runner ~et ?fuel prog Exec.[ Aint n; Adouble alpha; Abuf x; Abuf y_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol et) y_ref y_sim then pass r
      else fail "axpy: output mismatch"

let verify_dot ?runner ?(et = Et.F64) ?fuel ?(seed = 4) ?(n = 37)
    (prog : Insn.program) : outcome =
  let x = nar et (fill seed n) in
  let y = nar et (fill (seed + 1) n) in
  let expect = Et.round et 0.5 +. L1.ddot n x y in
  let out = [| 0.5 |] in
  match run_sim ?runner ~et ?fuel prog Exec.[ Aint n; Abuf x; Abuf y; Abuf out ] with
  | Error e -> fail e
  | Ok r ->
      if close ~tol:(Et.tol ~k:(max 1 n) et) expect out.(0) then pass r
      else
        fail
          (Printf.sprintf "dot: expected %.12g, got %.12g" expect out.(0))

let verify_ger ?runner ?(et = Et.F64) ?fuel ?(seed = 5) ?(shape = default_shape) ?m
    ?n (prog : Insn.program) : outcome =
  let m = match m with Some m -> m | None -> shape.sh_m + 3 in
  let n = match n with Some n -> n | None -> shape.sh_n in
  let lda = m + shape.sh_ld_slack in
  let alpha = 1.25 in
  let a_ref = nar et (fill seed (lda * n)) in
  let a_sim = Array.copy a_ref in
  let x = nar et (fill (seed + 1) m) in
  let y = nar et (fill (seed + 2) n) in
  let mat = Mat.{ data = a_ref; rows = m; cols = n; ld = lda } in
  L2.dger ~alpha mat x y;
  match
    run_sim ?runner ~et ?fuel prog
      Exec.[ Aint m; Aint n; Aint lda; Adouble alpha; Abuf x; Abuf y;
             Abuf a_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol et) a_ref a_sim then pass r
      else fail "ger: output mismatch"

let verify_scal ?runner ?(et = Et.F64) ?fuel ?(seed = 6) ?(n = 37) ?(alpha = 0.75)
    (prog : Insn.program) : outcome =
  let alpha = Et.round et alpha in
  let x_ref = nar et (fill seed n) in
  let x_sim = Array.copy x_ref in
  L1.dscal n alpha x_ref;
  match run_sim ?runner ~et ?fuel prog Exec.[ Aint n; Adouble alpha; Abuf x_sim ] with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol et) x_ref x_sim then pass r
      else fail "scal: output mismatch"

let verify_copy ?runner ?(et = Et.F64) ?fuel ?(seed = 7) ?(n = 37)
    (prog : Insn.program) : outcome =
  let x = nar et (fill seed n) in
  let y = nar et (fill (seed + 1) (n + 2)) in
  match run_sim ?runner ~et ?fuel prog Exec.[ Aint n; Abuf x; Abuf y ] with
  | Error e -> fail e
  | Ok r ->
      let copied =
        Array.for_all2 (close ~tol:(Et.tol et)) x (Array.sub y 0 n)
      in
      if copied then pass r else fail "copy: output mismatch"

let verify_pack_a ?runner ?(et = Et.F64) ?fuel ?(seed = 8) ?(shape = default_shape)
    (prog : Insn.program) : outcome =
  let mc = shape.sh_m and kc = shape.sh_k in
  let lda = mc + shape.sh_ld_slack in
  let a = nar et (fill seed (lda * kc)) in
  let mat = Mat.{ data = a; rows = mc; cols = kc; ld = lda } in
  let buf_ref = Array.make (max 1 (mc * kc)) 0. in
  let buf_sim = Array.copy buf_ref in
  L3.pack_a mat ~i0:0 ~l0:0 ~mc ~kc buf_ref;
  match
    run_sim ?runner ~et ?fuel prog
      Exec.[ Aint mc; Aint kc; Aint lda; Abuf a; Abuf buf_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol et) buf_ref buf_sim then pass r
      else fail "pack_a: packed panel mismatch"

let verify_pack_b ?runner ?(et = Et.F64) ?fuel ?(seed = 9) ?(shape = default_shape)
    (prog : Insn.program) : outcome =
  let kc = shape.sh_k and nc = shape.sh_n in
  let ldb = kc + shape.sh_ld_slack in
  let b = nar et (fill seed (ldb * nc)) in
  let mat = Mat.{ data = b; rows = kc; cols = nc; ld = ldb } in
  let buf_ref = Array.make (max 1 (kc * nc)) 0. in
  let buf_sim = Array.copy buf_ref in
  L3.pack_b mat ~l0:0 ~j0:0 ~kc ~nc buf_ref;
  match
    run_sim ?runner ~et ?fuel prog
      Exec.[ Aint kc; Aint nc; Aint ldb; Abuf b; Abuf buf_sim ]
  with
  | Error e -> fail e
  | Ok r ->
      if arrays_close ~tol:(Et.tol et) buf_ref buf_sim then pass r
      else fail "pack_b: packed panel mismatch"

(* Degenerate problem shapes: unit dimensions and zero-length vectors.
   These exercise the edge where every main loop is skipped and only
   remainder (or no) code runs — a classic source of miscompiles that
   the "nice" shapes never reach. *)
let degenerate_cases ?runner ?et ?fuel (kernel : Kernels.name)
    (prog : Insn.program) : (string * (unit -> outcome)) list =
  let unit_shape = { sh_m = 1; sh_n = 1; sh_k = 1; sh_ld_slack = 0 } in
  match kernel with
  | Kernels.Gemm ->
      [ ( "m=n=k=1",
          fun () -> verify_gemm ?runner ?et ?fuel ~seed:401 ~shape:unit_shape prog ) ]
  | Kernels.Gemv ->
      [
        ("m=1,n=1", fun () -> verify_gemv ?runner ?et ?fuel ~seed:402 ~m:1 ~n:1 prog);
        ("n=0", fun () -> verify_gemv ?runner ?et ?fuel ~seed:403 ~m:3 ~n:0 prog);
      ]
  | Kernels.Ger ->
      [
        ("m=1,n=1", fun () -> verify_ger ?runner ?et ?fuel ~seed:404 ~m:1 ~n:1 prog);
        ("n=0", fun () -> verify_ger ?runner ?et ?fuel ~seed:405 ~m:3 ~n:0 prog);
      ]
  | Kernels.Axpy ->
      [
        ("n=1", fun () -> verify_axpy ?runner ?et ?fuel ~seed:406 ~n:1 prog);
        ("n=0", fun () -> verify_axpy ?runner ?et ?fuel ~seed:407 ~n:0 prog);
      ]
  | Kernels.Dot ->
      [
        ("n=1", fun () -> verify_dot ?runner ?et ?fuel ~seed:408 ~n:1 prog);
        ("n=0", fun () -> verify_dot ?runner ?et ?fuel ~seed:409 ~n:0 prog);
      ]
  | Kernels.Scal ->
      [
        ("n=1", fun () -> verify_scal ?runner ?et ?fuel ~seed:410 ~n:1 prog);
        ("n=0", fun () -> verify_scal ?runner ?et ?fuel ~seed:411 ~n:0 prog);
      ]
  | Kernels.Copy ->
      [
        ("n=1", fun () -> verify_copy ?runner ?et ?fuel ~seed:412 ~n:1 prog);
        ("n=0", fun () -> verify_copy ?runner ?et ?fuel ~seed:413 ~n:0 prog);
      ]
  | Kernels.Pack_a ->
      [
        ( "mc=kc=1",
          fun () -> verify_pack_a ?runner ?et ?fuel ~seed:414 ~shape:unit_shape prog );
        ( "kc=0",
          fun () ->
            verify_pack_a ?runner ?et ?fuel ~seed:415
              ~shape:{ sh_m = 3; sh_n = 1; sh_k = 0; sh_ld_slack = 1 }
              prog );
      ]
  | Kernels.Pack_b ->
      [
        ( "kc=nc=1",
          fun () -> verify_pack_b ?runner ?et ?fuel ~seed:416 ~shape:unit_shape prog );
        ( "nc=0",
          fun () ->
            verify_pack_b ?runner ?et ?fuel ~seed:417
              ~shape:{ sh_m = 1; sh_n = 0; sh_k = 3; sh_ld_slack = 1 }
              prog );
      ]

(* Verify a program implementing [kernel] (the simple-C kernels of the
   paper) on a few shapes, including non-divisible remainder cases and
   degenerate unit / empty shapes. *)
let verify ?runner ?et ?fuel (kernel : Kernels.name) (prog : Insn.program) :
    outcome =
  let shapes =
    [
      default_shape;
      { sh_m = 16; sh_n = 8; sh_k = 32; sh_ld_slack = 0 };
      { sh_m = 13; sh_n = 5; sh_k = 9; sh_ld_slack = 3 }; (* remainders *)
      (* vector length 11*3+1 = 34 / +2 = 35: several remainder
         iterations after an 8-way unrolled main loop, so a fault in
         the remainder loop's own control flow (increment, pointer
         bump) cannot hide behind a single-trip remainder *)
      { sh_m = 11; sh_n = 7; sh_k = 5; sh_ld_slack = 1 };
    ]
  in
  let rec go seed = function
    | [] ->
        (* all regular shapes passed; sweep the degenerate edge cases *)
        let rec degen = function
          | [] -> { ok = true; detail = "ok"; sim_result = None }
          | (label, case) :: rest -> (
              match case () with
              | { ok = true; _ } -> degen rest
              | o -> { o with detail = "degenerate " ^ label ^ ": " ^ o.detail })
        in
        degen (degenerate_cases ?runner ?et ?fuel kernel prog)
    | shape :: rest -> (
        let outcome =
          match kernel with
          | Kernels.Gemm -> verify_gemm ?runner ?et ?fuel ~seed ~shape prog
          | Kernels.Gemv -> verify_gemv ?runner ?et ?fuel ~seed ~shape prog
          | Kernels.Axpy ->
              verify_axpy ?runner ?et ?fuel ~seed ~n:(shape.sh_m * 3 + 1) prog
          | Kernels.Dot ->
              verify_dot ?runner ?et ?fuel ~seed ~n:(shape.sh_m * 3 + 2) prog
          | Kernels.Ger -> verify_ger ?runner ?et ?fuel ~seed ~shape prog
          | Kernels.Scal ->
              verify_scal ?runner ?et ?fuel ~seed ~n:((shape.sh_m * 3) + 1) prog
          | Kernels.Copy ->
              verify_copy ?runner ?et ?fuel ~seed ~n:((shape.sh_m * 3) + 2) prog
          | Kernels.Pack_a -> verify_pack_a ?runner ?et ?fuel ~seed ~shape prog
          | Kernels.Pack_b -> verify_pack_b ?runner ?et ?fuel ~seed ~shape prog
        in
        match outcome.ok with
        | true -> go (seed + 17) rest
        | false -> outcome)
  in
  go 11 shapes
