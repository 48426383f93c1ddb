(* The native-GEMM workloads: [Blocked.plan] -> [Native_blocked.load]
   -> [Native_blocked.gemm_runner], timed on resident inputs.

   A pass runs every shape of the workload once, in a fixed seeded
   order; shapes are interleaved pass by pass so that a slow stretch of
   the host hits all of them alike.  [gflops] divides the total work
   (2mnk summed over the shapes) by the sum of per-shape times, each the
   fastest decile of its passes (see [fast_quantile]).  The result file
   also records the median and tail of a pass's milliseconds per
   GFLOP. *)

module A = Augem
module Et = A.Machine.Etype
module Arch = A.Machine.Arch
module Mat = A.Blas.Matrix
module L3 = A.Blas.Level3
module NB = A.Native_blocked
module NC = A.Native_check
module Perf = A.Sim.Perf
module Mem_model = A.Sim.Mem_model
module Cpu = A.Jit.Runtime.Cpu
module Json = A.Json

type shape = {
  sid : int;
  m : int;
  n : int;
  k : int;
  alpha : float;
  beta : float;
}

let flops (s : shape) = 2. *. float_of_int s.m *. float_of_int s.n *. float_of_int s.k

let shape_json (s : shape) =
  Json.Obj
    [
      ("m", Json.Int s.m); ("n", Json.Int s.n); ("k", Json.Int s.k);
      ("alpha", Json.Float s.alpha); ("beta", Json.Float s.beta);
    ]

(* --- the shapes ------------------------------------------------------- *)

(* gemm-square: one large cube at alpha = beta = 1, which bypasses both
   scaling passes. *)
let square ~smoke =
  let d = if smoke then 192 else 1024 in
  [ { sid = 0; m = d; n = d; k = d; alpha = 1.; beta = 1. } ]

let is_prime n =
  let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
  n >= 2 && go 2

let nearest_prime ~lo ~hi v =
  let rec go d =
    if d > hi - lo then v
    else if v - d >= lo && is_prime (v - d) then v - d
    else if v + d <= hi && is_prime (v + d) then v + d
    else go (d + 1)
  in
  go 0

let shuffle rng (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* gemm-skinny: three kinds of shape, [per_kind] of each.  Each
   dimension of a kind is a stratified draw: shape i takes a uniform
   value in stratum i of the range, with the strata of the second
   dimension reversed (and of the third spread) against the first.  The
   seed moves every shape within its stratum, so a pass's total work and
   its mix of shape kinds stay nearly the same from seed to seed. *)
let skinny ~smoke rng : shape list =
  let per_kind = if smoke then 2 else 8 in
  let draw ~lo ~hi slot =
    let w = float_of_int (hi - lo + 1) /. float_of_int per_kind in
    min hi (lo + int_of_float ((float_of_int slot +. Random.State.float rng 1.) *. w))
  in
  let rev i = per_kind - 1 - i and spread i = i * 3 mod per_kind in
  let rk_lo, rk_hi = if smoke then (64, 192) else (256, 1024) in
  let pm_lo, pm_hi = if smoke then (128, 512) else (1024, 4096) in
  let pk = if smoke then 64 else 256 in
  (* rank-k updates: m = n large, k small *)
  let rank_k =
    List.init per_kind (fun i ->
        let d = draw ~lo:rk_lo ~hi:rk_hi i in
        let k = draw ~lo:8 ~hi:64 (rev i) in
        (d, d, k))
  in
  (* panels: m large, n narrow, k fixed *)
  let panels =
    List.init per_kind (fun i ->
        let m = draw ~lo:pm_lo ~hi:pm_hi i in
        let n = draw ~lo:8 ~hi:48 (rev i) in
        (m, n, pk))
  in
  (* small cubes, every other one with all-prime dimensions *)
  let cubes =
    List.init per_kind (fun i ->
        let dim slot =
          let v = draw ~lo:7 ~hi:96 slot in
          if i mod 2 = 0 then nearest_prime ~lo:7 ~hi:96 v else v
        in
        let m = dim i in
        let n = dim (rev i) in
        let k = dim (spread i) in
        (m, n, k))
  in
  let alphas = [| 1.5; -1.; 0.75 |] and betas = [| 0.; 0.5; -1. |] in
  let shapes =
    List.mapi
      (fun sid (m, n, k) ->
        let alpha = alphas.(Random.State.int rng 3) in
        let beta = betas.(Random.State.int rng 3) in
        { sid; m; n; k; alpha; beta })
      (rank_k @ panels @ cubes)
  in
  shuffle rng shapes

(* --- set-up ------------------------------------------------------------ *)

type case = {
  shape : shape;
  a : Mat.t;
  b : Mat.t;
  c0 : Mat.t;  (** C before any pass; never written *)
  c : Mat.t;  (** receives the runner's result *)
  run : unit -> unit;
  finish : unit -> unit;
}

type prepared = {
  plan : A.Blocked.plan;
  np : NB.native_plan;
  cases : case list;
  plan_s : float;
  load_s : float;
  stage_s : float;  (** copy-in of every shape's operands *)
}

let secs_since t0 = float_of_int (Span.now () - t0) /. 1e9

(* The set-up a user pays before the first GEMM: plan (tuning), load
   (lint, encode, map), operands made and staged. *)
let prepare ~arch ~et ~seed (shapes : shape list) () : prepared =
  let t0 = Span.now () in
  let plan = A.Blocked.plan ~et ~jobs:1 arch in
  let plan_s = secs_since t0 in
  let t1 = Span.now () in
  match NB.load plan with
  | NC.Unsupported m -> raise (Setup.Skipped m)
  | NC.Rejected m -> failwith ("native load rejected the plan: " ^ m)
  | NC.Ready np ->
      let load_s = secs_since t1 in
      let stage_s = ref 0. in
      let operand seed rows cols =
        let mat = Mat.random ~seed rows cols in
        Array.iteri (fun i x -> mat.Mat.data.(i) <- Et.round et x) mat.Mat.data;
        mat
      in
      let cases =
        List.map
          (fun s ->
            let base = (seed * 7919) + (s.sid * 3) in
            let a = operand base s.m s.k in
            let b = operand (base + 1) s.k s.n in
            let c0 = operand (base + 2) s.m s.n in
            let c = Mat.copy c0 in
            let ts = Span.now () in
            let run, finish =
              NB.gemm_runner ~alpha:s.alpha ~beta:s.beta np a b c
            in
            stage_s := !stage_s +. secs_since ts;
            { shape = s; a; b; c0; c; run; finish })
          shapes
      in
      { plan; np; cases; plan_s; load_s; stage_s = !stage_s }

(* --- correctness -------------------------------------------------------- *)

(* One checked call per shape, which doubles as the warm-up.  The result
   must match [dgemm_naive] within [Etype.tol]: on the whole of C when
   the shape is small, otherwise on three blocks (the first, the last
   with its remainder rows and columns, and one at a seeded offset) —
   the reference is scalar OCaml and costs seconds at 1024^3.  The
   traced copy of the loop nest must then reproduce the result bit for
   bit. *)
let check ~et ~rng (np : NB.native_plan) (c : case) : string option =
  let s = c.shape in
  c.run ();
  c.finish ();
  let blocks =
    if s.m * s.n * s.k <= 4_000_000 then [ (0, s.m, 0, s.n) ]
    else
      let bm = min 48 s.m and bn = min 48 s.n in
      [
        (0, bm, 0, bn);
        (s.m - bm, bm, s.n - bn, bn);
        (Random.State.int rng (s.m - bm + 1), bm, Random.State.int rng (s.n - bn + 1), bn);
      ]
  in
  let tol = Et.tol ~k:s.k et in
  let off_reference =
    List.find_map
      (fun (i0, bm, j0, bn) ->
        let a = Mat.init bm s.k (fun i l -> Mat.get c.a (i0 + i) l) in
        let b = Mat.init s.k bn (fun l j -> Mat.get c.b l (j0 + j)) in
        let want = Mat.init bm bn (fun i j -> Mat.get c.c0 (i0 + i) (j0 + j)) in
        L3.dgemm_naive ~alpha:s.alpha ~beta:s.beta a b want;
        let got = Mat.init bm bn (fun i j -> Mat.get c.c (i0 + i) (j0 + j)) in
        if Mat.approx_equal ~tol want got then None
        else
          Some
            (Printf.sprintf
               "%dx%dx%d: block at (%d,%d) off dgemm_naive by %.3g (tol %.1g)"
               s.m s.n s.k i0 j0 (Mat.max_abs_diff want got) tol))
      blocks
  in
  match off_reference with
  | Some _ as failure -> failure
  | None ->
      let ct = Mat.copy c.c0 in
      let run, finish =
        Traced_gemm.runner (Span.create ()) ~rid:s.sid ~alpha:s.alpha
          ~beta:s.beta np c.a c.b ct
      in
      run ();
      finish ();
      if Array.for_all2 Float.equal ct.Mat.data c.c.Mat.data then None
      else
        Some
          (Printf.sprintf "%dx%dx%d: traced loop nest diverges from the program"
             s.m s.n s.k)

(* --- timing ------------------------------------------------------------- *)

(* Whole passes until [seconds] have gone by (at least [min_passes]);
   each pass is an array of per-shape seconds. *)
let time_passes ~seconds ~min_passes (runs : (unit -> unit) array) :
    float array list =
  let t_end = Span.now () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_passes && Span.now () >= t_end then List.rev acc
    else
      let pass =
        Array.map
          (fun run ->
            let t0 = Span.now () in
            run ();
            secs_since t0)
          runs
      in
      go (pass :: acc) (n + 1)
  in
  go [] 0

(* A shape's time as the fastest decile of its passes.  On a shared host
   a neighbour's burst slows a stretch of passes by tens of percent; the
   fast decile is the program's own speed, and over ~100 passes it moves
   a fraction of what the median does from run to run. *)
let fast_quantile = 0.10

let per_shape (passes : float array list) (nshapes : int) (q : float) : float array =
  Array.init nshapes (fun i ->
      Stats.percentile (Stats.sorted (List.map (fun p -> p.(i)) passes)) q)

let sum = Array.fold_left ( +. ) 0.

(* --- the workload -------------------------------------------------------- *)

(* The modelled architecture matching the host: FMA3 selects Haswell,
   plain AVX Sandy Bridge; without AVX there is nothing to run. *)
let host_arch () : Arch.t =
  if Cpu.have Cpu.AVX && Cpu.have Cpu.FMA3 then Arch.haswell
  else if Cpu.have Cpu.AVX then Arch.sandy_bridge
  else raise (Setup.Skipped "host lacks AVX: native GEMM cannot run here")

type kind = Square | Skinny

let ratio a b = if b > 0. then a /. b else 0.

(* The cycle model's GFLOPS at each shape ([Blocked.predict]), and over
   the whole set weighted like [gflops]. *)
let predictions (plan : A.Blocked.plan) (shapes : shape list) : float list * float =
  let per =
    List.map
      (fun s ->
        match A.Blocked.predict plan (Perf.W_gemm { m = s.m; n = s.n; k = s.k }) with
        | e -> e.Perf.e_mflops /. 1e3
        | exception Perf.No_hot_loop _ -> nan)
      shapes
  in
  let work, time =
    List.fold_left2
      (fun (w, t) s g ->
        let gf = flops s /. 1e9 in
        if Float.is_finite g && g > 0. then (w +. gf, t +. (gf /. g)) else (w, t))
      (0., 0.) shapes per
  in
  (per, ratio work time)

(* The per-layer metrics of the traced passes.  Rates here are over all
   traced passes, so [gemm.gflops] (the whole loop nest) and the
   kernels' rates are comparable with each other; the end-to-end
   [gflops] is the untraced fast-decile figure. *)
let layer_values ~et (p : prepared) (shapes : shape list) (sm : Span.summary)
    ~passes ~gflop ~predicted_gflops ~untraced_s ~traced_s =
  let total = float_of_int sm.Span.root_ns in
  let self name = float_of_int (Span.self_ns sm name) in
  let pct name = 100. *. ratio (self name) total in
  let np = float_of_int passes in
  let per_pass name = ratio (float_of_int (Span.calls sm name)) np in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0. shapes in
  (* bytes each packing kernel reads and writes per pass, computed from
     the shapes and the blocking: A is packed once per NC column block *)
  let esize = float_of_int (Et.bytes et) in
  let nc = p.plan.A.Blocked.pl_blocking.Mem_model.bl_nc in
  let pack_a_bytes =
    sumf (fun s -> 2. *. esize *. float_of_int (s.m * s.k * ((s.n + nc - 1) / nc)))
  in
  let pack_b_bytes = sumf (fun s -> 2. *. esize *. float_of_int (s.k * s.n)) in
  let gbps bytes name = ratio (np *. bytes) (self name) in
  let setup_s = p.plan_s +. p.load_s +. p.stage_s in
  let gflops = ratio (np *. gflop) (total /. 1e9) in
  [
    ("native_blocked.micro.pct", pct "micro");
    ("native_blocked.pack_a.pct", pct "pack_a");
    ("native_blocked.pack_b.pct", pct "pack_b");
    ("native_blocked.alpha_scale.pct", pct "alpha_scale");
    ("native_blocked.beta_scale.pct", pct "beta_scale");
    ("native_blocked.loop.pct", pct "gemm");
    ("native_blocked.micro.calls", per_pass "micro");
    ("native_blocked.pack_a.calls", per_pass "pack_a");
    ("native_blocked.pack_b.calls", per_pass "pack_b");
    ( "native_blocked.alpha_scale.elems",
      sumf (fun s -> if s.alpha <> 1. && s.alpha <> 0. then float_of_int (s.k * s.n) else 0.) );
    ( "native_blocked.beta_scale.elems",
      sumf (fun s -> if s.beta <> 1. then float_of_int (s.m * s.n) else 0.) );
    ("native_blocked.micro.gflops", ratio (np *. gflop) (self "micro" /. 1e9));
    ("native_blocked.pack_a.gbps_computed", gbps pack_a_bytes "pack_a");
    ("native_blocked.pack_b.gbps_computed", gbps pack_b_bytes "pack_b");
    ("native_blocked.stage.pct", 100. *. ratio p.stage_s untraced_s);
    ("gemm.gflops", gflops);
    ("sim.predicted_gflops", predicted_gflops);
    ("sim.model_over_measured", ratio predicted_gflops gflops);
    ("blocked.plan.setup_pct", 100. *. ratio p.plan_s setup_s);
    ("native_check.load.setup_pct", 100. *. ratio p.load_s setup_s);
    ("trace.overhead_pct", 100. *. ratio (traced_s -. untraced_s) untraced_s);
  ]

let run (ctx : Setup.ctx) ~(kind : kind) ~(et : Et.t) ~(tail : float)
    ~(trace : bool) : Catalog.outcome =
  let arch = host_arch () in
  let rng = Random.State.make [| ctx.Setup.seed; 0x67656d6d |] in
  let shapes =
    match kind with
    | Square -> square ~smoke:ctx.Setup.smoke
    | Skinny -> skinny ~smoke:ctx.Setup.smoke rng
  in
  let p, setup_times =
    Setup.repeat ctx
      ~release:(fun p ->
        NB.release p.np;
        (* free the operands before the next repeat allocates its own *)
        Gc.full_major ())
      (prepare ~arch ~et ~seed:ctx.Setup.seed shapes)
  in
  let cases = Array.of_list p.cases in
  let nshapes = Array.length cases in
  let failures = Array.map (check ~et ~rng p.np) cases in
  let gflop = List.fold_left (fun acc s -> acc +. flops s) 0. shapes /. 1e9 in
  let min_passes = if ctx.Setup.smoke then 2 else 5 in
  let seconds = if trace then ctx.Setup.seconds /. 2. else ctx.Setup.seconds in
  let passes = time_passes ~seconds ~min_passes (Array.map (fun c -> c.run) cases) in
  let fast = per_shape passes nshapes fast_quantile in
  let measured_gflops = gflop /. sum fast in
  let predicted, predicted_gflops = predictions p.plan shapes in
  let op_ms = List.map (fun pass -> sum pass *. 1000. /. gflop) passes in
  (* traced half: the copied loop nest, a span per call *)
  let traced =
    if not trace then None
    else begin
      let r = Span.create () in
      let runs =
        Array.map
          (fun c ->
            let s = c.shape in
            fst
              (Traced_gemm.runner r ~rid:s.sid ~alpha:s.alpha ~beta:s.beta p.np
                 c.a c.b (Mat.copy c.c0)))
          cases
      in
      Array.iter (fun run -> run ()) runs;
      r.Span.spans <- [];
      let tp = time_passes ~seconds ~min_passes runs in
      Option.iter (fun path -> Span.write_jsonl path r.Span.spans) ctx.Setup.trace_out;
      let sm = Span.summarize r.Span.spans in
      let values =
        layer_values ~et p shapes sm ~passes:(List.length tp) ~gflop ~predicted_gflops ~untraced_s:(sum fast)
          ~traced_s:(sum (per_shape tp nshapes fast_quantile))
      in
      let total = float_of_int sm.Span.root_ns in
      let unaccounted =
        100. *. Float.abs (float_of_int (Span.accounted_ns sm) -. total) /. total
      in
      Some (List.length tp, values, unaccounted)
    end
  in
  let values =
    match traced with
    | Some (_, values, _) -> values
    | None ->
        [
          ("gflops", measured_gflops);
          ("setup_s", Stats.median setup_times);
          ("peak_rss_mib", Host.peak_rss_mib ());
        ]
  in
  let trace_bad = match traced with Some (_, _, u) -> u > 5. | None -> false in
  let bad = Array.fold_left (fun acc f -> if f = None then acc else acc + 1) 0 failures in
  let calls_per_shape =
    1 + List.length passes + match traced with Some (n, _, _) -> n | None -> 0
  in
  let medians = per_shape passes nshapes 0.5 in
  let detail =
    [
      ("arch", Json.String arch.Arch.name);
      ("precision", Json.String (Et.name et));
      ("blocking", Json.String (Mem_model.blocking_to_string p.plan.A.Blocked.pl_blocking));
      ("passes", Json.Int (List.length passes));
      ("gflop_per_pass", Json.Float gflop);
      ("p50_ms_per_gflop", Json.Float (Stats.median op_ms));
      ("tail_percentile", Json.Float (100. *. tail));
      ("tail_ms_per_gflop", Json.Float (Stats.percentile (Stats.sorted op_ms) tail));
      ("tail_samples_beyond", Json.Int (Stats.beyond (List.length op_ms) tail));
      ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_times));
      ( "shapes",
        Json.List
          (List.mapi
             (fun i (s, pred) ->
               match shape_json s with
               | Json.Obj f ->
                   Json.Obj
                     (f
                     @ [
                         ("fast_s", Json.Float fast.(i));
                         ("median_s", Json.Float medians.(i));
                         ("measured_gflops", Json.Float (flops s /. 1e9 /. fast.(i)));
                         ("predicted_gflops", Json.Float pred);
                       ])
               | j -> j)
             (List.combine shapes predicted)) );
      ( "failures",
        Json.List (List.filter_map (Option.map (fun m -> Json.String m)) (Array.to_list failures)) );
    ]
    @
    match traced with
    | Some (n, _, u) ->
        [ ("trace", Json.Obj [ ("unaccounted_pct", Json.Float u); ("passes", Json.Int n) ]) ]
    | None -> []
  in
  {
    Catalog.correct = bad = 0 && not trace_bad;
    attempted = (nshapes * calls_per_shape) + if trace then 1 else 0;
    failed = (bad * calls_per_shape) + if trace_bad then 1 else 0;
    values;
    detail;
  }
