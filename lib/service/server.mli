(** The kernel service runtime: composes {!Proto}, {!Registry},
    {!Scheduler} and {!Metrics} into a long-lived compile-and-serve
    daemon with two transports.

    Request flow for [tune] and [blocked] (one path; the ops differ
    only in the sweep, the baseline and the reply): admission counter
    → registry L1 → single-flight attach → registry L2 (disk) →
    bounded scheduler queue ([E_overload] when full) → sweep on a
    worker domain → store + L1 insert → response.  Kernels and
    blocked-GEMM plans live in two {!Registry} instances that share
    [cfg_lru], [cfg_cache_dir], the breaker and the metrics sink.  A
    deadline that expires while the job is queued degrades the request
    to the safe baseline (kernel or plan) with [degraded: true]
    instead of failing it.

    Transports: [serve_stdio] (one request per stdin line, one response
    per stdout line, EOF = clean shutdown — what the [@serve-smoke]
    alias boots) and [serve_socket] (Unix-domain socket, one thread per
    live client, concurrent requests across clients).  A [shutdown] request
    or SIGINT/SIGTERM ({!request_stop}) stops the accept loop, unblocks
    every client, waits until each has closed, and drains the worker
    pool.

    Resilience: {!create} first quarantines crash debris in the cache
    dir ({!Augem.Tuning_cache.recover}); worker domains that die are
    respawned under [cfg_restart_budget] and their lost jobs degrade to
    the safe baseline ([degraded.lost]); a key whose sweeps keep
    failing trips a per-key circuit breaker and is served the degraded
    baseline (a kernel reply with [provenance.breaker_open = true])
    until a cooldown probe succeeds.  The [stats] snapshot carries the
    supervision, breaker and recovery gauges under ["resilience"], read
    from the scheduler, the breaker and the boot-time recovery result
    when the snapshot is taken. *)

type config = {
  cfg_workers : int;  (** tuning-worker domains *)
  cfg_queue : int;  (** admission-queue capacity *)
  cfg_lru : int;
      (** in-memory tier capacity (entries), for kernels and for plans
          each *)
  cfg_cache_dir : string option;  (** persistent tier; [None] disables *)
  cfg_deadline_ms : float option;
      (** default per-request deadline; a request's own [deadline_ms]
          overrides *)
  cfg_tune_jobs : int;  (** intra-sweep parallelism of one tuning job *)
  cfg_breaker_threshold : int;
      (** consecutive failures before a key's circuit opens; [0]
          disables circuit breaking *)
  cfg_breaker_cooldown_ms : float;
      (** how long an open circuit waits before admitting a probe *)
  cfg_restart_budget : int;
      (** worker-domain respawns allowed over the server's lifetime *)
  cfg_recover : bool;
      (** run {!Augem.Tuning_cache.recover} on the cache dir at
          {!create}, quarantining write debris of a crashed instance *)
}

val default_config : config

type t

(** [create ~now ~config ()].  [now] is the clock used for deadlines
    and latencies (default: the monotonic clock; injectable for
    deterministic tests). *)
val create : ?now:(unit -> float) -> ?config:config -> unit -> t

val metrics : t -> Metrics.t
val registry : t -> Augem.Tuner.result Registry.t

(** The blocked-GEMM plan registry (same bound, cache dir and breaker
    as {!registry}). *)
val plans : t -> Augem.Blocked.plan Registry.t
val scheduler : t -> Scheduler.t

(** Handle one decoded request synchronously (blocks through the
    scheduler for [tune] and [blocked] misses).  Never raises. *)
val handle_request : t -> Proto.request -> Proto.response

(** Parse one wire line and handle it; the response line (no trailing
    newline).  Never raises. *)
val handle_line : t -> string -> string

(** Flag the server to stop and unblock a blocked accept loop.
    Safe to call from a signal handler or any thread. *)
val request_stop : t -> unit

(** Serve stdin/stdout until EOF or [shutdown]; drains the worker pool
    before returning. *)
val serve_stdio : t -> unit

(** Bind a Unix-domain socket at [path] (replacing a stale socket
    file), serve until [shutdown]/{!request_stop}, then unblock every
    client, wait until each has closed, and drain the worker pool.
    Only live clients hold a thread.  The socket file is removed on
    exit. *)
val serve_socket : t -> string -> unit

(** Drain and join the worker pool (idempotent; transports call it on
    the way out — only needed directly when using {!handle_request}
    in-process). *)
val drain : t -> unit
