(** A bounded job queue drained by a supervised set of persistent
    worker domains, with per-request deadlines.

    Workers are spawned once at {!create} and outlive any one job; they
    keep draining the queue until {!shutdown}.

    Admission control: {!submit} returns [None] the instant the queue
    is at capacity (jobs running on a worker do not count) — the caller
    (the server) turns that into a structured [E_overload] rejection;
    nothing ever blocks a producer or buffers unboundedly.

    Deadlines are {i admission-to-start}: an absolute timestamp checked
    when a worker picks the job up.  A job whose deadline has passed is
    not run at all — its future resolves to {!Expired} and the caller
    degrades (the server serves the safe-baseline kernel instead of a
    tuned one).  The clock is injectable ([?now]) so expiry is testable
    deterministically, without sleeps.

    Exceptions raised by the job resolve the future to {!Failed};
    awaiters re-classify (the overload exception propagates to every
    coalesced waiter of a single-flight).

    {b Supervision.}  {!Augem_resilience.Faultpoint.Worker_kill}
    (raised by the ["taskq.worker"] fault point at pickup or the
    ["scheduler.job"] point before the job body) kills the worker
    domain itself, modeling a crashed worker.  The orphaned job's
    future resolves to {!Lost}, so no awaiter ever hangs on a dead
    worker, and a replacement domain is spawned as long as the restart
    budget lasts ({!worker_restarts} ≤ [restart_budget]).  Once the
    budget is exhausted the scheduler keeps running with fewer workers
    ({!live_workers}); admission control still bounds the queue.  Any
    other exception escaping at pickup also resolves the job {!Lost},
    but the worker lives on.

    All operations are safe from any domain or thread. *)

type t

(** [create ~workers ~capacity ~restart_budget ~now ()] spawns
    [workers] (clamped to at least 1) worker domains.  At most
    [restart_budget] replacement domains are ever spawned.  [now]
    defaults to the monotonic {!Augem.Jit.Clock.now_s}. *)
val create :
  ?workers:int ->
  ?capacity:int ->
  ?restart_budget:int ->
  ?now:(unit -> float) ->
  unit ->
  t

type 'a outcome =
  | Done of 'a
  | Expired  (** deadline passed before a worker could start the job *)
  | Failed of exn
  | Lost  (** the worker running the job died; the job did not finish *)

type 'a future

(** [submit t ?deadline f] enqueues [f]; [None] when the queue is at
    capacity (or the scheduler is shut down).  [deadline] is an
    absolute time in [now]'s timebase. *)
val submit : t -> ?deadline:float -> (unit -> 'a) -> 'a future option

(** Block until the job resolves. *)
val await : 'a future -> 'a outcome

(** Jobs queued and not yet started. *)
val pending : t -> int

val capacity : t -> int

(** Workers currently alive (initial - deaths + restarts). *)
val live_workers : t -> int

(** Worker domains killed by
    {!Augem_resilience.Faultpoint.Worker_kill}. *)
val worker_deaths : t -> int

(** Replacement domains spawned. *)
val worker_restarts : t -> int

(** Stop accepting jobs, drain the queue, and join every worker
    (including replacements).  Idempotent. *)
val shutdown : t -> unit
