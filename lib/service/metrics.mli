(** Live service counters and latency histograms, snapshotted as JSON
    by the [stats] request.

    Metrics counts events and stores no gauge: the worker, breaker and
    cache-recovery gauges are read from the components that own them
    when the snapshot is taken, and passed to {!snapshot}.

    Everything is guarded by one mutex (mutations are nanoseconds
    against multi-millisecond requests) and safe from any domain or
    thread.  The snapshot is a point-in-time view: the [stats] request
    that takes it has already been counted. *)

type t

(** [create ~now ()] — [now] (default: the monotonic
    {!Augem.Jit.Clock.now_s}) is sampled once for the uptime epoch and
    again at every snapshot. *)
val create : ?now:(unit -> float) -> unit -> t

(** {2 Counters} *)

type counter =
  | Request of string
      (** by op name ("tune", "blocked", "stats", "ping", "shutdown",
          "bad") *)
  | Tier of Proto.tier  (** the tier that answered a request *)
  | Overload  (** rejected: the queue was at capacity *)
  | Degraded_deadline
      (** served the baseline because the deadline expired pre-sweep *)
  | Degraded_fell_back
      (** served a sweep result whose whole space was discarded *)
  | Degraded_lost
      (** served the baseline because the worker running the sweep died *)
  | Degraded_breaker
      (** served the baseline because the key's circuit breaker is open *)
  | Errors
  | Disk_corrupt  (** a disk-tier entry failed its checksum *)
  | Stores  (** a result was stored on disk *)
  | Store_errors  (** storing a result on disk failed *)

val incr : t -> counter -> unit

(** Fold a {!Augem.Tuner.cache_event} into the counters — the shared
    accounting path with the [tune] CLI (disk corruptions, stores,
    store failures). *)
val record_cache_event : t -> Augem.Tuner.cache_event -> unit

(** {2 Latency} *)

(** Whole-request wall clock, admission to response. *)
val observe_request_ms : t -> float -> unit

(** Tuning-sweep wall clock (only requests that ran a sweep). *)
val observe_tuning_ms : t -> float -> unit

(** {2 Reading} *)

(** Counter value by snapshot path, e.g. ["tiers.memory"],
    ["requests.tune"], ["rejects.overload"], ["errors"] — test and
    validation helper.  Raises [Invalid_argument] on a path that names
    no counter. *)
val get : t -> string -> int

(** [snapshot t ~resilience] renders every counter, the uptime and
    both histograms.  [resilience] holds the gauges read from their
    owners, rendered in order under ["resilience"]. *)
val snapshot : t -> resilience:(string * int) list -> Augem.Json.t
