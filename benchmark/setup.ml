(* Set-up is repeated within a run and [setup_s] is the median of the
   repeats: one sample of a sub-second set-up is too noisy to hold a
   0.25 bound, and the first repeat also fills the process's memoized
   tuning of the packing kernels.  Repeats go on until about two seconds
   are spent (at least five, so a sub-millisecond set-up repeats hundreds
   of times); only the last repeat's result is kept, the earlier ones are
   released. *)

exception Skipped of string
(** The host cannot run this workload (no AVX); the run reports an
    explicit skip instead of numbers. *)

(* What one invocation was asked to do.  [smoke] shrinks every
   workload to a size the test suite can afford. *)
type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  trace_out : string option;  (** where a traced run writes its spans *)
}

let repeat (ctx : ctx) ~(release : 'a -> unit) (f : unit -> 'a) :
    'a * float list =
  let min_reps, max_reps = if ctx.smoke then (1, 1) else (5, 2000) in
  let timed () =
    let t0 = Span.now () in
    let v = f () in
    (v, float_of_int (Span.now () - t0) /. 1e9)
  in
  let rec go times reps spent =
    let v, s = timed () in
    let reps = reps + 1 and spent = spent +. s and times = s :: times in
    if reps >= max_reps || (reps >= min_reps && spent >= 2.0) then
      (v, List.rev times)
    else begin
      release v;
      go times reps spent
    end
  in
  go [] 0 0.
