(* A copy of [Native_blocked.gemm_runner]'s loop nest with a span
   around every kernel call and scaling pass, for the traced run.

   The copy must compute exactly what the program computes: every run
   checks that its output is bit-identical to the native runner's at
   the same shape, alpha and beta, so the two cannot drift apart
   unnoticed.  Keep the block schedule, the beta-then-alpha order and
   the scaling loops in step with lib/core/native_blocked.ml. *)

module A = Augem
module Et = A.Machine.Etype
module Mat = A.Blas.Matrix
module NB = A.Native_blocked
module Mem_model = A.Sim.Mem_model
module Runtime = A.Jit.Runtime

let runner (r : Span.t) ~(rid : int) ~(alpha : float) ~(beta : float)
    (np : NB.native_plan) (a : Mat.t) (b : Mat.t) (c : Mat.t) :
    (unit -> unit) * (unit -> unit) =
  let p = np.NB.np_plan in
  let et = p.A.Blocked.pl_et in
  let alpha = Et.round et alpha and beta = Et.round et beta in
  let m = a.Mat.rows and k = a.Mat.cols and n = b.Mat.cols in
  let bl = p.A.Blocked.pl_blocking in
  let bl_mc = bl.Mem_model.bl_mc
  and bl_kc = bl.Mem_model.bl_kc
  and bl_nc = bl.Mem_model.bl_nc in
  let ta = NB.stage et a.Mat.data in
  let tb = NB.stage et b.Mat.data in
  let tc = NB.stage et c.Mat.data in
  let tpa = NB.tensor et (bl_mc * bl_kc) in
  let tpb = NB.tensor et (bl_kc * bl_nc) in
  let fp32 = et = Et.F32 in
  let invoke name buf iargs =
    Span.span r ~name ~rid (fun () ->
        Runtime.Exec_buf.invoke buf ~iargs ~dargs:[||] ~fp32)
  in
  let i64 = Int64.of_int in
  let run () =
    Span.span r ~name:"gemm" ~rid (fun () ->
        if beta <> 1. then
          Span.span r ~name:"beta_scale" ~rid (fun () ->
              for j = 0 to n - 1 do
                for i = 0 to m - 1 do
                  let idx = (j * c.Mat.ld) + i in
                  tc.NB.t_set idx (beta *. tc.NB.t_get idx)
                done
              done);
        if alpha <> 0. then begin
          let j0 = ref 0 in
          while !j0 < n do
            let nc = min bl_nc (n - !j0) in
            let l0 = ref 0 in
            while !l0 < k do
              let kc = min bl_kc (k - !l0) in
              let b_off = (!j0 * b.Mat.ld) + !l0 in
              invoke "pack_b" np.NB.np_pack_b
                [|
                  i64 kc; i64 nc; i64 b.Mat.ld; tb.NB.t_addr b_off;
                  tpb.NB.t_addr 0;
                |];
              if alpha <> 1. then
                Span.span r ~name:"alpha_scale" ~rid (fun () ->
                    for idx = 0 to (kc * nc) - 1 do
                      tpb.NB.t_set idx (alpha *. tpb.NB.t_get idx)
                    done);
              let i0 = ref 0 in
              while !i0 < m do
                let mc = min bl_mc (m - !i0) in
                let a_off = (!l0 * a.Mat.ld) + !i0 in
                invoke "pack_a" np.NB.np_pack_a
                  [|
                    i64 mc; i64 kc; i64 a.Mat.ld; ta.NB.t_addr a_off;
                    tpa.NB.t_addr 0;
                  |];
                let c_off = (!j0 * c.Mat.ld) + !i0 in
                invoke "micro" np.NB.np_micro
                  [|
                    i64 mc; i64 kc; i64 nc; i64 c.Mat.ld; tpa.NB.t_addr 0;
                    tpb.NB.t_addr 0; tc.NB.t_addr c_off;
                  |];
                i0 := !i0 + mc
              done;
              l0 := !l0 + kc
            done;
            j0 := !j0 + nc
          done
        end)
  in
  let finish () = NB.read_back tc c.Mat.data in
  (run, finish)
