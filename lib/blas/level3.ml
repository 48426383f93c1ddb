(* Reference Level-3 BLAS.

   [dgemm_naive] is the semantics oracle.  [nest] is Goto's
   block-partitioned algorithm (the one the paper's GEMM kernel plugs
   into): loops over Kc x Nc panels of B and Mc x Kc blocks of A, with
   packing, scaling and the micro-kernel delegated to an [executor]
   whose workers share either each panel's row blocks or C's columns
   ([schedule] picks which).
   One nest, three executors: [dgemm_blocked] here (reference packing
   into the layouts the generated micro-kernel expects, A[l*Mc + i] and
   B[j*Kc + l], and a micro-kernel callback — by default the reference
   one, in tests the simulated generated assembly), [Blocked.gemm] on
   the simulator and [Native_blocked.gemm_runner] as machine code.

   The remaining routines (SYMM, SYRK, SYR2K, TRMM, TRSM) follow the
   standard cast-onto-GEMM decompositions of Goto & van de Geijn,
   "High-performance implementation of the level-3 BLAS": the bulk of
   their flops run through the [gemm] they are given (by default
   [dgemm_blocked]); TRSM additionally performs small triangular solves
   that do not map onto GEMM — the structural reason AUGEM loses only
   TRSM in the paper's Table 6. *)

open Matrix

(* C := alpha * A * B + beta * C, naive triple loop. *)
let dgemm_naive ~alpha ~beta (a : t) (b : t) (c : t) =
  let m = a.rows and k = a.cols and n = b.cols in
  if b.rows <> k || c.rows <> m || c.cols <> n then
    invalid_arg "dgemm: shape mismatch";
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (get a i l *. get b l j)
      done;
      set c i j ((beta *. get c i j) +. (alpha *. !acc))
    done
  done

(* --- packing ----------------------------------------------------------- *)

(* Pack an mc x kc block of A starting at (i0, l0) into [buf] in the
   micro-kernel layout A[l*mc + i]. *)
let pack_a (a : t) ~i0 ~l0 ~mc ~kc (buf : float array) =
  for l = 0 to kc - 1 do
    for i = 0 to mc - 1 do
      buf.((l * mc) + i) <- get a (i0 + i) (l0 + l)
    done
  done

(* Pack a kc x nc block of B starting at (l0, j0) into the per-column
   stream layout B[j*kc + l]. *)
let pack_b (b : t) ~l0 ~j0 ~kc ~nc (buf : float array) =
  for j = 0 to nc - 1 do
    for l = 0 to kc - 1 do
      buf.((j * kc) + l) <- get b (l0 + l) (j0 + j)
    done
  done

(* The reference micro-kernel: C(mc x nc) += packed_A * packed_B with
   the packed layouts above and C at leading dimension ldc, starting at
   element [c_off] of [c_data].  Matches the semantics of the paper's
   Figure 12 kernel. *)
let micro_kernel_ref ~mc ~kc ~nc ~(pa : float array) ~(pb : float array)
    ~(c_data : float array) ~c_off ~ldc =
  for j = 0 to nc - 1 do
    for i = 0 to mc - 1 do
      let acc = ref 0. in
      for l = 0 to kc - 1 do
        acc := !acc +. (pa.((l * mc) + i) *. pb.((j * kc) + l))
      done;
      let idx = c_off + (j * ldc) + i in
      c_data.(idx) <- c_data.(idx) +. !acc
    done
  done

type micro_kernel =
  mc:int ->
  kc:int ->
  nc:int ->
  pa:float array ->
  pb:float array ->
  c_data:float array ->
  c_off:int ->
  ldc:int ->
  unit

type blocking = {
  bk_mc : int;
  bk_kc : int;
  bk_nc : int;
}

let default_blocking = { bk_mc = 128; bk_kc = 256; bk_nc = 512 }

(* --- the macro-kernel loop nest ----------------------------------------- *)

type worker = {
  scale_c : float -> j0:int -> nc:int -> unit;
  pack_b : l0:int -> j0:int -> kc:int -> nc:int -> unit;
  scale_b : float -> kc:int -> nc:int -> unit;
  pack_a : i0:int -> l0:int -> mc:int -> kc:int -> at:int -> unit;
  micro : i0:int -> j0:int -> mc:int -> kc:int -> nc:int -> at:int -> unit;
}

type fork = int -> (int -> unit) -> unit

let direct : fork =
 fun n slice ->
  for w = 0 to n - 1 do
    slice w
  done

type executor = {
  workers : worker array;
  fork : fork;
}

type schedule =
  | Rows of int
  | Columns of {
      workers : int;
      chunks : (int * int) array;
    }

let schedule_workers = function Rows w -> w | Columns { workers; _ } -> workers

(* Chunks a column-schedule worker claims, on average: enough that a
   slow worker does not hold up the pass.  Of one, two and four, four
   ran shallow 1024-wide updates fastest on two cores, and all three
   tied on cubes (EXPERIMENTS.md, "Chunks per worker"). *)
let chunks_per_worker = 4

(* Each NC panel of C's columns cut into pieces [width] wide from its
   first column, the last piece of a panel taking what is left. *)
let column_chunks ~bk_nc ~width n =
  let panel jb =
    let p0 = jb * bk_nc in
    let pn = min bk_nc (n - p0) in
    List.init ((pn + width - 1) / width) (fun t ->
        (p0 + (t * width), min width (pn - (t * width))))
  in
  Array.of_list (List.concat (List.init ((n + bk_nc - 1) / bk_nc) panel))

let check_blocking ~who { bk_mc; bk_kc; bk_nc } =
  if bk_mc < 1 || bk_kc < 1 || bk_nc < 1 then
    invalid_arg (who ^ ": blocking dimensions must be positive")

let schedule { bk_mc; bk_kc; bk_nc } ~nr ~workers ~m ~n ~k =
  if workers < 2 || k > bk_kc || m > n then
    Rows (max 1 (min workers ((m + bk_mc - 1) / bk_mc)))
  else
    let pieces = chunks_per_worker * workers in
    let width = ((n + pieces - 1) / pieces + nr - 1) / nr * nr in
    let chunks = column_chunks ~bk_nc ~width n in
    let workers = min workers (Array.length chunks) in
    if workers < 2 then Rows 1 else Columns { workers; chunks }

(* Validation happens when the operands are applied, so a caller can
   build its executor knowing the problem is well formed.  No step of a
   pass allocates unless it forks: the cursor and the claim loops are
   made once here, and the loop indices are immutable per iteration. *)
let nest ~who ~blocking ~schedule ~alpha ~beta (a : t) (b : t) (c : t) :
    executor -> unit =
  let m = a.rows and k = a.cols and n = b.cols in
  if b.rows <> k || c.rows <> m || c.cols <> n then
    invalid_arg (who ^ ": shape mismatch");
  check_blocking ~who blocking;
  let { bk_mc; bk_kc; bk_nc } = blocking in
  let workers = schedule_workers schedule in
  let blocks = (m + bk_mc - 1) / bk_mc in
  let cursor = Atomic.make 0 in
  match schedule with
  | Rows _ ->
      let rec claim (w : worker) ~l0 ~j0 ~kc ~nc =
        let blk = Atomic.fetch_and_add cursor 1 in
        if blk < blocks then begin
          let i0 = blk * bk_mc in
          let mc = min bk_mc (m - i0) in
          w.pack_a ~i0 ~l0 ~mc ~kc ~at:0;
          w.micro ~i0 ~j0 ~mc ~kc ~nc ~at:0;
          claim w ~l0 ~j0 ~kc ~nc
        end
      in
      fun ex ->
        let w0 = ex.workers.(0) in
        if beta <> 1. then w0.scale_c beta ~j0:0 ~nc:n;
        if alpha <> 0. then
          for jb = 0 to ((n + bk_nc - 1) / bk_nc) - 1 do
            let j0 = jb * bk_nc in
            let nc = min bk_nc (n - j0) in
            for lb = 0 to ((k + bk_kc - 1) / bk_kc) - 1 do
              let l0 = lb * bk_kc in
              let kc = min bk_kc (k - l0) in
              w0.pack_b ~l0 ~j0 ~kc ~nc;
              if alpha <> 1. then w0.scale_b alpha ~kc ~nc;
              Atomic.set cursor 0;
              if workers = 1 || blocks = 1 then claim w0 ~l0 ~j0 ~kc ~nc
              else
                ex.fork workers (fun w -> claim ex.workers.(w) ~l0 ~j0 ~kc ~nc)
            done
          done
  | Columns { chunks; _ } ->
      if k > bk_kc then
        invalid_arg (who ^ ": a column schedule needs K within one kc panel");
      (* C's columns [j0, j0 + nc), start to finish on one worker.  A is
         one kc panel, so the worker packs its ic blocks on the first
         chunk it claims in a pass ([fresh]), each at its own place in
         the packed-A buffer, and its later chunks reuse them. *)
      let columns (w : worker) ~fresh ~j0 ~nc =
        if beta <> 1. then w.scale_c beta ~j0 ~nc;
        if alpha <> 0. && k > 0 then begin
          w.pack_b ~l0:0 ~j0 ~kc:k ~nc;
          if alpha <> 1. then w.scale_b alpha ~kc:k ~nc;
          for blk = 0 to blocks - 1 do
            let i0 = blk * bk_mc in
            let mc = min bk_mc (m - i0) and at = i0 * k in
            if fresh then w.pack_a ~i0 ~l0:0 ~mc ~kc:k ~at;
            w.micro ~i0 ~j0 ~mc ~kc:k ~nc ~at
          done
        end
      in
      let rec claim w ~fresh =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < Array.length chunks then begin
          let j0, nc = chunks.(i) in
          columns w ~fresh ~j0 ~nc;
          claim w ~fresh:false
        end
      in
      fun ex ->
        Atomic.set cursor 0;
        ex.fork workers (fun w -> claim ex.workers.(w) ~fresh:true)

let packed_sizes { bk_mc; bk_kc; bk_nc } schedule (a : t) (b : t) =
  let kc = min bk_kc a.cols in
  match schedule with
  | Rows _ -> (min bk_mc a.rows * kc, kc * min bk_nc b.cols)
  | Columns { chunks; _ } ->
      (a.rows * kc, kc * Array.fold_left (fun w (_, nc) -> max w nc) 0 chunks)

(* M's columns [j0, j0 + nc) := alpha * M's columns *)
let scale_columns alpha (m : t) ~j0 ~nc =
  for j = j0 to j0 + nc - 1 do
    for i = 0 to m.rows - 1 do
      set m i j (alpha *. get m i j)
    done
  done

let scale alpha (m : t) = scale_columns alpha m ~j0:0 ~nc:m.cols

(* C := alpha * A * B + beta * C: the nest over the reference executor,
   on one worker. *)
let dgemm_blocked ?(blocking = default_blocking)
    ?(kernel : micro_kernel = micro_kernel_ref) ~alpha ~beta (a : t) (b : t)
    (c : t) =
  let schedule = Rows 1 in
  let run = nest ~who:"dgemm" ~blocking ~schedule ~alpha ~beta a b c in
  let pa_len, pb_len = packed_sizes blocking schedule a b in
  let pa = Array.make pa_len 0. and pb = Array.make pb_len 0. in
  run
    {
      workers =
        [|
          {
            scale_c = (fun beta ~j0 ~nc -> scale_columns beta c ~j0 ~nc);
            pack_b = (fun ~l0 ~j0 ~kc ~nc -> pack_b b ~l0 ~j0 ~kc ~nc pb);
            scale_b =
              (fun alpha ~kc ~nc ->
                for idx = 0 to (kc * nc) - 1 do
                  pb.(idx) <- alpha *. pb.(idx)
                done);
            (* [Rows 1]: the packed-A block is always at element 0 *)
            pack_a = (fun ~i0 ~l0 ~mc ~kc ~at:_ -> pack_a a ~i0 ~l0 ~mc ~kc pa);
            micro =
              (fun ~i0 ~j0 ~mc ~kc ~nc ~at:_ ->
                kernel ~mc ~kc ~nc ~pa ~pb ~c_data:c.data
                  ~c_off:((j0 * c.ld) + i0) ~ldc:c.ld);
          };
        |];
      fork = direct;
    }

type gemm = alpha:float -> beta:float -> t -> t -> t -> unit

(* The routines' default GEMM: [dgemm_blocked] with its own defaults. *)
let blocked : gemm = fun ~alpha ~beta a b c -> dgemm_blocked ~alpha ~beta a b c

(* transpose view materialized (reference code, clarity first) *)
let transpose (a : t) : t = init a.cols a.rows (fun i j -> get a j i)

type side =
  | Left
  | Right

(* --- SYMM: C := alpha * A * B + beta * C with A symmetric ------------- *)
let dsymm ?(gemm = blocked) ~(side : side) ~alpha ~beta (a : t) (b : t) (c : t)
    =
  (* materialize the full symmetric matrix (lower storage) and cast to
     GEMM: the flops all run through the GEMM kernel *)
  let n = a.rows in
  let full = init n n (fun i j -> if i >= j then get a i j else get a j i) in
  match side with
  | Left -> gemm ~alpha ~beta full b c
  | Right -> gemm ~alpha ~beta b full c

(* --- SYRK: C := alpha * A * A^T + beta * C (lower) --------------------- *)
let dsyrk ?(gemm = blocked) ~alpha ~beta (a : t) (c : t) =
  let at = transpose a in
  let full = create c.rows c.cols in
  for j = 0 to c.cols - 1 do
    for i = 0 to c.rows - 1 do
      set full i j (get c i j)
    done
  done;
  gemm ~alpha ~beta a at full;
  (* only the lower triangle of C is referenced/updated *)
  for j = 0 to c.cols - 1 do
    for i = j to c.rows - 1 do
      set c i j (get full i j)
    done
  done

(* --- SYR2K: C := alpha * (A * B^T + B * A^T) + beta * C (lower) -------- *)
let dsyr2k ?(gemm = blocked) ~alpha ~beta (a : t) (b : t) (c : t) =
  let full = create c.rows c.cols in
  for j = 0 to c.cols - 1 do
    for i = 0 to c.rows - 1 do
      set full i j (get c i j)
    done
  done;
  gemm ~alpha ~beta a (transpose b) full;
  gemm ~alpha ~beta:1. b (transpose a) full;
  for j = 0 to c.cols - 1 do
    for i = j to c.rows - 1 do
      set c i j (get full i j)
    done
  done

(* --- TRMM: B := alpha * L * B with L lower-triangular ------------------ *)
(* Blocked: partition L in Nb-sized diagonal blocks; the off-diagonal
   update is GEMM, the diagonal part a small triangular multiply. *)
let trmm_block = 64

let dtrmm ?(gemm = blocked) ~alpha (l : t) (b : t) =
  let n = l.rows and rhs = b.cols in
  let nb = trmm_block in
  (* process block rows bottom-up so inputs are unmodified *)
  let i0 = ref (((n - 1) / nb) * nb) in
  while !i0 >= 0 do
    let ib = min nb (n - !i0) in
    (* diagonal: B[i0..i0+ib) := L(i0 block diag) * B(block) *)
    for j = 0 to rhs - 1 do
      for i = !i0 + ib - 1 downto !i0 do
        let acc = ref 0. in
        for t = !i0 to i do
          acc := !acc +. (get l i t *. get b t j)
        done;
        set b i j !acc
      done
    done;
    (* off-diagonal: B(block) += L(i0.., 0..i0) * B(0..i0) — GEMM *)
    if !i0 > 0 then begin
      let l21 = init ib !i0 (fun i j -> get l (!i0 + i) j) in
      let b1 = init !i0 rhs (fun i j -> get b i j) in
      let view = init ib rhs (fun i j -> get b (!i0 + i) j) in
      gemm ~alpha:1. ~beta:1. l21 b1 view;
      for j = 0 to rhs - 1 do
        for i = 0 to ib - 1 do
          set b (!i0 + i) j (get view i j)
        done
      done
    end;
    i0 := !i0 - nb
  done;
  if alpha <> 1. then scale alpha b

(* --- TRSM: B := alpha * L^-1 * B with L lower-triangular --------------- *)
(* The paper's two-step decomposition: B1 := L11^-1 B1 (small solve,
   translated straightforwardly — not GEMM-accelerated), then
   B2 := B2 - L21 * B1 (GEMM). *)
let dtrsm ?(gemm = blocked) ~alpha (l : t) (b : t) =
  let n = l.rows and rhs = b.cols in
  if alpha <> 1. then scale alpha b;
  let nb = trmm_block in
  let i0 = ref 0 in
  while !i0 < n do
    let ib = min nb (n - !i0) in
    (* step 1: small forward substitution on the diagonal block *)
    for j = 0 to rhs - 1 do
      for i = !i0 to !i0 + ib - 1 do
        let acc = ref (get b i j) in
        for t = !i0 to i - 1 do
          acc := !acc -. (get l i t *. get b t j)
        done;
        set b i j (!acc /. get l i i)
      done
    done;
    (* step 2: trailing update B2 -= L21 * B1 — GEMM *)
    if !i0 + ib < n then begin
      let rows = n - !i0 - ib in
      let l21 = init rows ib (fun i j -> get l (!i0 + ib + i) (!i0 + j)) in
      let b1 = init ib rhs (fun i j -> get b (!i0 + i) j) in
      let view = init rows rhs (fun i j -> get b (!i0 + ib + i) j) in
      gemm ~alpha:(-1.) ~beta:1. l21 b1 view;
      for j = 0 to rhs - 1 do
        for i = 0 to rows - 1 do
          set b (!i0 + ib + i) j (get view i j)
        done
      done
    end;
    i0 := !i0 + nb
  done
