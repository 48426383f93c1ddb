(* Persistent fork-join team.  See team.mli.

   Synchronisation: every field a helper reads between forks is an
   [Atomic.t] (sequentially consistent in OCaml 5), and the two sleeps
   use the lost-wakeup-free pattern "announce the sleep, then re-check
   under the lock": a sleeper bumps its counter before re-reading the
   condition, the waker changes the condition before reading the
   counter, so at least one of them sees the other. *)

type job = {
  slice : int -> unit;
  slices : int;
  next : int Atomic.t;  (* the next slice to claim *)
  left : int Atomic.t;  (* slices not yet finished *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int;
  busy : bool Atomic.t;  (* a fork, or release, has taken the team *)
  stopping : bool Atomic.t;  (* set while release stops the helpers *)
  job : job Atomic.t;  (* the latest fork's *)
  generation : int Atomic.t;  (* bumped by every fork and by release *)
  lock : Mutex.t;
  wake : Condition.t;  (* helpers sleep here between forks *)
  finished : Condition.t;  (* the caller sleeps here for [left = 0] *)
  sleepers : int Atomic.t;  (* helpers asleep, or about to sleep, on [wake] *)
  caller_asleep : bool Atomic.t;
  mutable domains : unit Domain.t list;  (* written only while taken *)
}

(* How long a wait polls before it blocks, in seconds.  It spans the
   gaps inside a GEMM pass: a helper idles while the caller finishes its
   last block and packs the next B panel, and the caller waits for the
   helper's last block.  On a 2-vCPU Xeon at the 1024^3 cube those gaps
   are under 2.7 ms in 9 forks of 10 and under 4.1 ms in 99 of 100.  A
   wait that blocks inside a pass puts a wake-up on its critical path:
   about 50 us on a quiet host, and on a shared one its cost depends on
   what else the host runs, so the pass's speed would too.  An idle
   team still sleeps after this long. *)
let spin_s = 0.01
let default_jobs () = max 1 (Domain.recommended_domain_count ())

let create size =
  let none =
    {
      slice = ignore;
      slices = 0;
      next = Atomic.make 0;
      left = Atomic.make 0;
      failure = Atomic.make None;
    }
  in
  {
    size = max 1 size;
    busy = Atomic.make false;
    stopping = Atomic.make false;
    job = Atomic.make none;
    generation = Atomic.make 0;
    lock = Mutex.create ();
    wake = Condition.create ();
    finished = Condition.create ();
    sleepers = Atomic.make 0;
    caller_asleep = Atomic.make false;
    domains = [];
  }

let size t = t.size
let helpers t = List.length t.domains

let broadcast t cond =
  Mutex.lock t.lock;
  Condition.broadcast cond;
  Mutex.unlock t.lock

(* Claim and run slices of [job] until none is left.  A slice's
   exception is recorded, never propagated here, so the slice still
   counts as finished and the caller's wait ends. *)
let rec work t job =
  let w = Atomic.fetch_and_add job.next 1 in
  if w < job.slices then begin
    (match job.slice w with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set job.failure None (Some (e, bt))));
    if Atomic.fetch_and_add job.left (-1) = 1 && Atomic.get t.caller_asleep
    then broadcast t t.finished;
    work t job
  end

(* Spin, then sleep, until [ready ()].  The window is timed on the
   wall clock, which reads without allocating; a clock step either way
   only ends the spin early. *)
let await t ~ready ~(announce : bool -> unit) cond =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    if ready () then ()
    else
      let waited = Unix.gettimeofday () -. t0 in
      if waited >= 0. && waited < spin_s then begin
        Domain.cpu_relax ();
        poll ()
      end
      else begin
        Mutex.lock t.lock;
        announce true;
        while not (ready ()) do
          Condition.wait cond t.lock
        done;
        announce false;
        Mutex.unlock t.lock
      end
  in
  poll ()

(* A helper: wait for a generation past [seen], work the current job,
   repeat until stopped. *)
let rec helper t seen =
  await t
    ~ready:(fun () -> Atomic.get t.generation <> seen)
    ~announce:(fun on ->
      if on then Atomic.incr t.sleepers else Atomic.decr t.sleepers)
    t.wake;
  let g = Atomic.get t.generation in
  if not (Atomic.get t.stopping) then begin
    work t (Atomic.get t.job);
    helper t g
  end

(* Spawn the helpers on the first fork after [create] or [release]; a
   domain limit reached part way leaves a smaller team, which is still
   correct. *)
let start t =
  if t.domains = [] then begin
    let seen = Atomic.get t.generation in
    let rec go k acc =
      if k = 0 then acc
      else
        match Domain.spawn (fun () -> helper t seen) with
        | d -> go (k - 1) (d :: acc)
        | exception Failure _ -> acc
    in
    t.domains <- go (t.size - 1) []
  end

let serial n slice =
  for w = 0 to n - 1 do
    slice w
  done

let fork t n slice =
  if n <= 1 || t.size <= 1 || not (Atomic.compare_and_set t.busy false true)
  then serial n slice
  else begin
    start t;
    let job =
      {
        slice;
        slices = n;
        next = Atomic.make 0;
        left = Atomic.make n;
        failure = Atomic.make None;
      }
    in
    Atomic.set t.job job;
    Atomic.incr t.generation;
    if Atomic.get t.sleepers > 0 then broadcast t t.wake;
    work t job;
    await t
      ~ready:(fun () -> Atomic.get job.left = 0)
      ~announce:(Atomic.set t.caller_asleep)
      t.finished;
    Atomic.set t.busy false;
    match Atomic.get job.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* Takes the team, so a fork in progress finishes first and forks that
   start meanwhile run on their callers.  The helpers see the new
   generation with [stopping] set and return; joined, they leave the
   team as [create] made it. *)
let release t =
  while not (Atomic.compare_and_set t.busy false true) do
    Domain.cpu_relax ()
  done;
  if t.domains <> [] then begin
    Atomic.set t.stopping true;
    Atomic.incr t.generation;
    broadcast t t.wake;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Atomic.set t.stopping false
  end;
  Atomic.set t.busy false

(* One result slot per item, written by the one worker that ran it.  The
   write comes before that worker's decrement of the job's [left], whose
   last value the fork reads before it returns, so the caller sees every
   slot. *)
type 'b cell =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let map ?(jobs = default_jobs ()) f items =
  let n = List.length items in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let items = Array.of_list items in
    let results = Array.make n Pending in
    let t = create (min jobs n) in
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        fork t n (fun i ->
            results.(i) <-
              (match f items.(i) with
              | v -> Done v
              | exception e -> Failed (e, Printexc.get_raw_backtrace ()))));
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false)
         results)
  end
