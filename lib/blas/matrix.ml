(* Column-major dense matrices (the BLAS convention) backed by flat
   float arrays. *)

type t = {
  data : float array;
  rows : int;
  cols : int;
  ld : int; (* leading dimension: >= rows *)
}

let create ?ld rows cols =
  let ld = match ld with Some l -> max l rows | None -> rows in
  { data = Array.make (ld * cols) 0.; rows; cols; ld }

let init ?ld rows cols f =
  let m = create ?ld rows cols in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      m.data.((j * m.ld) + i) <- f i j
    done
  done;
  m

let get m i j = m.data.((j * m.ld) + i)
let set m i j x = m.data.((j * m.ld) + i) <- x

let copy m =
  { m with data = Array.copy m.data }

(* Deterministic pseudo-random fill (no external RNG dependence). *)
let random ?(seed = 42) ?ld rows cols =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. 1073741824.0 *. 2.0) -. 1.0
  in
  init ?ld rows cols (fun _ _ -> next ())

let random_symmetric ?(seed = 7) n =
  let m = random ~seed n n in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      set m j i (get m i j)
    done
  done;
  m

(* Lower-triangular with a well-conditioned diagonal (for TRSM/TRMM). *)
let random_lower ?(seed = 11) n =
  let m = random ~seed n n in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      if i < j then set m i j 0.
      else if i = j then set m i j (2.0 +. Float.abs (get m i j))
    done
  done;
  m

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "shape mismatch";
  let worst = ref 0. in
  for j = 0 to a.cols - 1 do
    for i = 0 to a.rows - 1 do
      worst := Float.max !worst (Float.abs (get a i j -. get b i j))
    done
  done;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  let scale =
    1.0
    +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a.data
  in
  max_abs_diff a b <= tol *. scale

let pp fmt m =
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      Fmt.pf fmt "%10.4f " (get m i j)
    done;
    Fmt.pf fmt "@\n"
  done
