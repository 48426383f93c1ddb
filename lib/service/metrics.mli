(** Live service metrics: counters and latency histograms, snapshotted
    as JSON by the [stats] request.

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

val incr_request : t -> string -> unit
(** by op name ("tune", "blocked", "stats", "ping", "shutdown",
    "bad") *)

val incr_tier : t -> Proto.tier -> unit
val incr_overload : t -> unit

val incr_degraded_deadline : t -> unit
(** served the baseline because the deadline expired pre-sweep *)

val incr_degraded_fell_back : t -> unit
(** served a sweep result whose whole space was discarded *)

val incr_degraded_lost : t -> unit
(** served the baseline because the worker running the sweep died *)

val incr_degraded_breaker : t -> unit
(** served the baseline because the key's circuit breaker is open *)

val incr_errors : t -> unit

(** {2 Resilience gauges}

    Sampled from the owning component (scheduler, breaker, recovery
    scan) at stats time — the snapshot reflects the component's own
    arithmetic, not a parallel count that could drift. *)

val set_workers : t -> live:int -> deaths:int -> restarts:int -> unit
val set_breaker : t -> open_now:int -> opened_total:int -> rejected:int -> unit
val set_cache_recovery : t -> recovered:int -> quarantined:int -> unit

(** Milliseconds since [create]. *)
val uptime_ms : t -> float

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
    ["requests.tune"], ["rejects.overload"],
    ["resilience.worker_restarts"] (flat aliases like
    ["worker_restarts"] also resolve) — test/validation helper. *)
val get : t -> string -> int

val snapshot : t -> Augem.Json.t
