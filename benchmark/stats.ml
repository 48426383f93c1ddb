(* Order statistics shared by the benchmark and its comparison tool. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so a spread printed
   here is the spread anyone re-deriving it from the result files gets.
   [None] below two samples. *)
let quartiles (xs : float list) : (float * float * float) option =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    Some (q 1, q 2, q 3)

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least a fraction [p] of all samples at or below it. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* Samples strictly above the nearest-rank [p] percentile. *)
let beyond (n : int) (p : float) : int =
  n - int_of_float (Float.ceil (p *. float_of_int n))

(* A growable float buffer: latency samples of one client thread. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let push (b : t) (x : float) =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_list (b : t) : float list = Array.to_list (Array.sub b.data 0 b.len)
end
