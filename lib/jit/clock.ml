(* Monotonic wall-clock timing.

   All native (and serving) timing goes through here instead of ad-hoc
   [Unix.gettimeofday] deltas: CLOCK_MONOTONIC cannot jump backwards
   under NTP slew.  A one-event stopwatch is a [now_ns] delta.  Every
   comparison of pieces of code is [rounds]: they take turns, round by
   round, so a burst on a shared host slows each of them alike, and
   none of them always goes first; the caller reduces the samples (for
   a deterministic kernel the minimum is the best estimate of the true
   cost). *)

let now_ns () : int64 = Runtime.monotonic_ns ()

let now_s () : float = Int64.to_float (now_ns ()) /. 1e9

(* [warmup] untimed rounds, then [rounds] timed ones.  Every round runs
   each thunk once, in list order starting from thunk r mod n in round
   r (the untimed rounds counted).  Each thunk's timed samples, in
   seconds and in round order. *)
let rounds ~warmup ~rounds (thunks : (unit -> unit) list) : float array list
    =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let samples = Array.init n (fun _ -> Array.make rounds 0.0) in
  for r = 0 to warmup + rounds - 1 do
    for j = 0 to n - 1 do
      let i = (r + j) mod n in
      let t0 = now_ns () in
      thunks.(i) ();
      let dt = Int64.sub (now_ns ()) t0 in
      if r >= warmup then samples.(i).(r - warmup) <- Int64.to_float dt /. 1e9
    done
  done;
  Array.to_list samples
