(* Bounded job queue over supervised persistent worker domains, with
   admission-to-start deadlines.  See scheduler.mli. *)

module Faultpoint = Augem_resilience.Faultpoint

(* hit by the worker at pickup, then by the job before its body *)
let fp_worker = "taskq.worker"
let fp_job = "scheduler.job"
let () = List.iter Faultpoint.register [ fp_worker; fp_job ]

type 'a outcome = Done of 'a | Expired | Failed of exn | Lost

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a outcome option;
}

(* [run] resolves the job's future itself; [lose] resolves it [Lost]
   when the job does not finish on its worker. *)
type job = { run : unit -> unit; lose : unit -> unit }

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  capacity : int;
  n_workers : int;
  restart_budget : int;
  clock : unit -> float;
  mutable stopped : bool;
  mutable deaths : int;
  mutable restarts : int;
  mutable domains : unit Domain.t list;
}

(* A worker drains the queue until it is stopped and empty.  A
   {!Faultpoint.Worker_kill} ends the worker: its job is lost and a
   replacement is spawned while the budget lasts.  The respawn happens
   under [t.m] so the stopped-check, the budget accounting and the
   domain-list append are atomic with respect to {!shutdown}.  Any
   other exception reaching here escaped before the job could resolve
   its future (e.g. an injected fault at pickup): the job is lost and
   the worker lives on. *)
let rec worker (t : t) () =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopped do
    Condition.wait t.nonempty t.m
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.m
  | Some job -> (
      Mutex.unlock t.m;
      match
        Faultpoint.hit fp_worker;
        job.run ()
      with
      | () -> worker t ()
      | exception Faultpoint.Worker_kill _ ->
          job.lose ();
          Mutex.protect t.m (fun () ->
              t.deaths <- t.deaths + 1;
              if (not t.stopped) && t.restarts < t.restart_budget then begin
                t.restarts <- t.restarts + 1;
                t.domains <- Domain.spawn (worker t) :: t.domains
              end)
      | exception _ ->
          job.lose ();
          worker t ())

let create ?(workers = 1) ?(capacity = 8) ?(restart_budget = 8)
    ?(now = Augem.Jit.Clock.now_s) () : t =
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      capacity;
      n_workers = max 1 workers;
      restart_budget;
      clock = now;
      stopped = false;
      deaths = 0;
      restarts = 0;
      domains = [];
    }
  in
  t.domains <- List.init t.n_workers (fun _ -> Domain.spawn (worker t));
  t

let fulfill (fut : 'a future) (o : 'a outcome) : unit =
  Mutex.lock fut.fm;
  (* first resolution wins: an awaiter never sees its outcome change *)
  if fut.state = None then begin
    fut.state <- Some o;
    Condition.broadcast fut.fc
  end;
  Mutex.unlock fut.fm

let submit (t : t) ?deadline (f : unit -> 'a) : 'a future option =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = None } in
  let run () =
    match deadline with
    | Some d when t.clock () > d -> fulfill fut Expired
    | _ -> (
        match
          Faultpoint.hit fp_job;
          f ()
        with
        | v -> fulfill fut (Done v)
        | exception (Faultpoint.Worker_kill _ as e) ->
            (* lethal to the worker, which resolves the future [Lost] *)
            raise e
        | exception e -> fulfill fut (Failed e))
  in
  Mutex.protect t.m (fun () ->
      if t.stopped || Queue.length t.queue >= t.capacity then None
      else begin
        Queue.add { run; lose = (fun () -> fulfill fut Lost) } t.queue;
        Condition.signal t.nonempty;
        Some fut
      end)

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

let pending (t : t) : int = Mutex.protect t.m (fun () -> Queue.length t.queue)
let capacity (t : t) : int = t.capacity

let live_workers (t : t) : int =
  Mutex.protect t.m (fun () -> t.n_workers - t.deaths + t.restarts)

let worker_deaths (t : t) : int = Mutex.protect t.m (fun () -> t.deaths)
let worker_restarts (t : t) : int = Mutex.protect t.m (fun () -> t.restarts)

let shutdown (t : t) : unit =
  Mutex.protect t.m (fun () ->
      t.stopped <- true;
      Condition.broadcast t.nonempty);
  (* join in rounds: a worker dying concurrently may have appended a
     replacement between our reads (never after [stopped] though) *)
  let rec join () =
    match
      Mutex.protect t.m (fun () ->
          let ds = t.domains in
          t.domains <- [];
          ds)
    with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join ()
  in
  join ()
