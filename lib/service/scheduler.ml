(* Bounded admission + deadlines over the supervised persistent domain
   pool.  See scheduler.mli. *)

module Taskq = Augem_parallel.Taskq
module Faultpoint = Augem_resilience.Faultpoint

let fp_job = "scheduler.job"
let () = Faultpoint.register fp_job

type 'a outcome = Done of 'a | Expired | Failed of exn | Lost

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a outcome option;
}

type t = {
  pool : Taskq.t;
  clock : unit -> float;
  cap : int;
  n_workers : int;
}

let create ?(workers = 1) ?(capacity = 8) ?(restart_budget = 8)
    ?(now = Augem.Jit.Clock.now_s) () : t =
  {
    pool = Taskq.create ~workers ~capacity ~restart_budget ();
    clock = now;
    cap = capacity;
    n_workers = workers;
  }

let fulfill (fut : 'a future) (o : 'a outcome) : unit =
  Mutex.lock fut.fm;
  (* first resolution wins: an abandon callback racing a normal
     completion must not flip the outcome under an awaiter *)
  if fut.state = None then begin
    fut.state <- Some o;
    Condition.broadcast fut.fc
  end;
  Mutex.unlock fut.fm

let submit (t : t) ?deadline (f : unit -> 'a) : 'a future option =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = None } in
  let job () =
    let expired =
      match deadline with Some d -> t.clock () > d | None -> false
    in
    if expired then fulfill fut Expired
    else
      match
        Faultpoint.hit fp_job;
        f ()
      with
      | v -> fulfill fut (Done v)
      | exception (Faultpoint.Worker_kill _ as e) ->
          (* lethal to the worker: let the pool's supervisor see it (it
             fires [on_abandon], resolving this future to [Lost]) *)
          raise e
      | exception e -> fulfill fut (Failed e)
  in
  let on_abandon () = fulfill fut Lost in
  if Taskq.submit t.pool ~on_abandon job then Some fut else None

let await (fut : 'a future) : 'a outcome =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Some o -> o
    | None ->
        Condition.wait fut.fc fut.fm;
        wait ()
  in
  let o = wait () in
  Mutex.unlock fut.fm;
  o

let now (t : t) : float = t.clock ()
let pending (t : t) : int = Taskq.pending t.pool
let capacity (t : t) : int = t.cap
let workers (t : t) : int = t.n_workers
let live_workers (t : t) : int = Taskq.live_workers t.pool
let worker_deaths (t : t) : int = Taskq.deaths t.pool
let worker_restarts (t : t) : int = Taskq.restarts t.pool
let shutdown (t : t) : unit = Taskq.shutdown t.pool
