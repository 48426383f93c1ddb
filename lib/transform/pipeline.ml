(* The Optimized C Kernel Generator (paper section 2.1): applies the
   five source-to-source optimizations in order — loop unroll&jam, loop
   unrolling, strength reduction, scalar replacement and data
   prefetching — under a tuning configuration that the auto-tuner
   searches over. *)

open Augem_ir

type config = {
  jam : (string * int) list;
      (* outer loops to unroll&jam, applied in list order *)
  inner_unroll : (string * int) option; (* innermost loop unrolling *)
  expand_reduction : int option;
      (* partial-accumulator expansion of the unrolled loop's
         reductions (ways); reassociates FP sums *)
  strength_reduce : bool;
  scalar_replace : bool;
  prefetch : Prefetch.config option;
}

let default =
  {
    jam = [];
    inner_unroll = None;
    expand_reduction = None;
    strength_reduce = true;
    scalar_replace = true;
    prefetch = Some Prefetch.default_config;
  }

let config_to_string (c : config) : string =
  let jam =
    c.jam |> List.map (fun (v, f) -> Printf.sprintf "%s:%d" v f)
    |> String.concat ","
  in
  Printf.sprintf "jam=[%s] unroll=%s sr=%b scalar=%b pf=%s"
    jam
    (match c.inner_unroll with
    | None -> "-"
    | Some (v, f) -> Printf.sprintf "%s:%d" v f)
    c.strength_reduce c.scalar_replace
    (match c.prefetch with
    | None -> "-"
    | Some p -> string_of_int p.Prefetch.pf_distance)

type pass = string * (Ast.kernel -> Ast.kernel)

(* The pass sequence a configuration denotes, split where prefetching
   starts: [before_prefetch] (unroll&jam, unrolling, strength reduction,
   scalar replacement) reads nothing of [prefetch], so configurations
   that differ only in it run the same passes up to there and a tuning
   sweep runs them once for all such siblings; [from_prefetch] is the
   prefetch pass and the closing simplification. *)
let before_prefetch (c : config) : pass list =
  let jam =
    List.map
      (fun (loop_var, factor) ->
        ( Printf.sprintf "unroll&jam %s:%d" loop_var factor,
          fun k -> Unroll.unroll_and_jam k ~loop_var ~factor ))
      c.jam
  in
  let unroll =
    match c.inner_unroll with
    | None -> []
    | Some (loop_var, factor) ->
        ( Printf.sprintf "unroll %s:%d" loop_var factor,
          fun k -> Unroll.unroll k ~loop_var ~factor )
        ::
        (match c.expand_reduction with
        | None -> []
        | Some ways ->
            [
              ( Printf.sprintf "expand-reduction x%d" ways,
                fun k -> Unroll.expand_accumulators k ~loop_var ~ways );
            ])
  in
  let sr =
    if c.strength_reduce then
      [ ("strength-reduction", Strength_reduction.run) ]
    else []
  in
  let scalar =
    if c.scalar_replace then [ ("scalar-replacement", Scalar_repl.run) ]
    else []
  in
  jam @ unroll @ sr @ scalar

let from_prefetch (c : config) : pass list =
  let pf =
    match c.prefetch with
    | None -> []
    | Some cfg ->
        [
          ( Printf.sprintf "prefetch %d" cfg.Prefetch.pf_distance,
            fun k -> Prefetch.insert k cfg );
        ]
  in
  pf @ [ ("simplify", Simplify.simplify_kernel) ]

(* The whole sequence as named kernel-to-kernel functions.  [apply]
   folds over this list; the per-pass differential oracle
   (lib/verify/oracle.ml) walks the same list to pinpoint which pass
   miscompiled. *)
let passes (c : config) : pass list = before_prefetch c @ from_prefetch c

let apply (k : Ast.kernel) (c : config) : Ast.kernel =
  let k = List.fold_left (fun k (_name, pass) -> pass k) k (passes c) in
  Typecheck.check_kernel k;
  k
