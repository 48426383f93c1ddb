(** Bounded admission in front of a persistent
    {!Augem_parallel.Taskq} worker pool, with per-request deadlines.

    Admission control: {!submit} returns [None] the instant the queue
    is at capacity — the caller (the server) turns that into a
    structured [E_overload] rejection; nothing ever blocks a producer
    or buffers unboundedly.

    Deadlines are {i admission-to-start}: an absolute timestamp checked
    when a worker picks the job up.  A job whose deadline has passed is
    not run at all — its future resolves to {!Expired} and the caller
    degrades (the server serves the safe-baseline kernel instead of a
    tuned one).  The clock is injectable ([?now]) so expiry is testable
    deterministically, without sleeps.

    Exceptions raised by the job resolve the future to {!Failed};
    awaiters re-classify (the overload exception propagates to every
    coalesced waiter of a single-flight).  One exception is different:
    {!Augem_resilience.Faultpoint.Worker_kill} kills the worker domain
    itself — the pool's supervisor respawns it (budget permitting) and
    the orphaned job's future resolves to {!Lost}, so no awaiter ever
    hangs on a dead worker; the server degrades a {!Lost} job to the
    safe-baseline reply. *)

type t

(** [create ~workers ~capacity ~restart_budget ~now ()] spawns the
    supervised worker domains.  [now] defaults to the monotonic
    {!Augem.Jit.Clock.now_s}. *)
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

(** The scheduler's clock (for deriving absolute deadlines). *)
val now : t -> float

(** Jobs queued and not yet started. *)
val pending : t -> int

val capacity : t -> int
val workers : t -> int

(** Supervision counters, straight from {!Augem_parallel.Taskq}. *)
val live_workers : t -> int

val worker_deaths : t -> int
val worker_restarts : t -> int

(** Drain and join the worker pool.  Idempotent. *)
val shutdown : t -> unit
