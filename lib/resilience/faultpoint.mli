(** Named, injectable fault points — the service-runtime counterpart of
    {!Augem_verify.Faults} for generated code.

    A component marks every operation that can fail in production
    (disk reads, fsyncs, renames, worker task pickup, compute calls)
    with a named point:

    {[
      Faultpoint.hit "cache.store.renamed";             (* control point *)
      Faultpoint.wrap "registry.compute" compute;       (* wrapped thunk *)
      Faultpoint.corrupting "cache.read.bytes" contents (* data point *)
    ]}

    Disarmed (the default), a point only bumps a counter.  The chaos
    driver {!arm}s a deterministic schedule of {!trigger}s — "on the
    2nd hit of [cache.read.bytes], corrupt the bytes with seed 7" —
    runs a scripted serve session, and asserts the service invariants
    held.  Every injection is reproducible from the schedule alone: no
    randomness lives here, only exact (point, hit-index, action)
    triples.

    Thread- and domain-safe; all state is process-global so fault
    points deep inside libraries need no plumbing. *)

(** Raised by a [Fail]-triggered point. *)
exception Injected of string

(** Raised by a [Kill]-triggered point: simulates the death of the
    executing worker.  {!Augem_service.Scheduler} treats it as fatal to
    the worker domain (the job is lost, a replacement is spawned within
    the restart budget) rather than as an ordinary job exception. *)
exception Worker_kill of string

type action =
  | Fail  (** raise {!Injected} *)
  | Kill  (** raise {!Worker_kill} *)
  | Delay_ms of float  (** invoke the installed sleeper *)
  | Corrupt of int  (** mangle bytes deterministically from this seed *)

val action_to_string : action -> string

(** Fire [tr_action] on exactly the [tr_hit]-th (1-based) hit of
    [tr_point] after arming. *)
type trigger = { tr_point : string; tr_hit : int; tr_action : action }

val trigger_to_string : trigger -> string

(** Install a schedule (replacing any previous one).  Hit counters are
    {i not} reset — call {!reset_counters} first for a fresh session. *)
val arm : trigger list -> unit

val disarm : unit -> unit

(** Pre-declare a point so {!points} lists it before first use. *)
val register : string -> unit

(** Every point ever registered or hit, sorted. *)
val points : unit -> string list

val hit_count : string -> int
val injected_total : unit -> int
val reset_counters : unit -> unit

(** The function [Delay_ms] actions call; defaults to a no-op so
    deterministic tests never sleep.  The serve CLI installs a real
    sleeper. *)
val set_sleeper : (float -> unit) -> unit

(** Record a hit of [name]; raise / delay if a trigger matches. *)
val hit : string -> unit

(** [wrap name f] = [hit name; f ()]. *)
val wrap : string -> (unit -> 'a) -> 'a

(** Data-plane point: returns the bytes unchanged unless a [Corrupt]
    trigger matches, in which case they are mangled deterministically
    (truncation + a flipped byte — no checksum can survive it).
    [Fail]/[Kill] triggers raise as for {!hit}. *)
val corrupting : string -> string -> string
