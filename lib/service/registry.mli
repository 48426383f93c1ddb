(** Two-tier cache of generated artifacts with single-flight
    deduplication — the serving counterpart of {!Augem.Tuner.tuned}.

    Polymorphic in the value it caches: the server keeps one instance
    for tuned kernels ({!Augem.Tuner.result}) and one for blocked-GEMM
    plans ({!Augem.Blocked.plan}), sharing the LRU bound, cache dir,
    breaker and event sink.

    Tier 1 is a {i bounded} in-memory LRU (a server must not grow
    without bound across millions of distinct requests); tier 2 is the
    persistent tier, reached through {!Augem.Tuner.through_disk}, the
    step {!Augem.Tuner.tuned} takes too.  Both tiers key on a
    {!Augem.Tuning_cache.key} that {!Augem.Tuner.cache_key} builds, so
    the daemon, the [tune] CLI and offline sweeps all share one cache
    population.

    Single-flight: N concurrent requests for the same key trigger
    exactly one compute; the other N-1 attach to the in-flight sweep
    and are handed its result (tier {!Proto.T_coalesced}).  If the
    flight fails (e.g. overload at admission), every attached waiter
    fails with the same exception.

    Degraded values (deadline expiry, or a value the [fell_back]
    predicate recognises) are {i never} inserted into either tier — a
    degraded answer must not poison later requests — mirroring the
    tuner's fell-back rule.

    Every tier decision is reported to the [on_event] sink given at
    creation, as the same {!Augem.Tuner.cache_event}s that
    {!Augem.Tuner.tuned} reports.

    Resilience: the lookup and compute steps are
    {!Augem_resilience.Faultpoint}s (["registry.lookup"],
    ["registry.compute"]); a crashed persistent store is accounted as a
    store error, never a failed request; and an optional per-key
    {!Augem_resilience.Breaker} short-circuits keys that keep failing —
    a would-be leader on an open key raises
    {!Augem_resilience.Breaker.Open_circuit} (the server catches it and
    serves the safe baseline immediately), while waiters may still
    coalesce onto a live half-open probe flight. *)

type 'v t

(** [create ~lru_capacity ~cache_dir ~breaker ~on_event ~fell_back ()].
    [cache_dir = None] disables the disk tier.  [breaker = None]
    disables circuit breaking.  [on_event] receives every tier
    decision (default: none is reported).  [fell_back v] is true when
    [v] is a safe-baseline fallback: it is served degraded and never
    stored. *)
val create :
  ?lru_capacity:int ->
  ?cache_dir:string ->
  ?breaker:Augem_resilience.Breaker.t ->
  ?on_event:Augem.Tuner.cache_observer ->
  fell_back:('v -> bool) ->
  unit ->
  'v t

(** The breaker passed at creation, for stats snapshots. *)
val breaker : 'v t -> Augem_resilience.Breaker.t option

(** What a compute (the scheduler round-trip) produced. *)
type 'v computed = {
  c_result : 'v;
  c_deadline_expired : bool;
      (** the baseline was generated because the deadline expired: a
          stand-in, neither reported as swept nor stored *)
}

type 'v outcome = {
  o_result : 'v;
  o_tier : Proto.tier;
  o_degraded : bool;
      (** deadline expiry or a fell-back value: the safe baseline is
          being served *)
  o_deadline_expired : bool;
  o_tuning_ms : float;  (** wall clock of the compute; 0 on cache hits *)
}

(** Look the key up (L1, then the in-flight table, then L2), running
    [compute] on a miss.  Re-raises [compute]'s exception — to this
    caller and to every coalesced waiter.  Raises
    {!Augem_resilience.Breaker.Open_circuit} without computing when the
    key's circuit is open. *)
val find_or_compute :
  'v t ->
  Augem.Tuning_cache.key ->
  compute:(unit -> 'v computed) ->
  'v outcome

(** Entries currently in the in-memory tier. *)
val lru_size : 'v t -> int

val lru_capacity : 'v t -> int

(** Requests that attached to another request's flight, ever. *)
val coalesced_total : 'v t -> int

(** Block until {!coalesced_total} reaches [n] — lets tests release a
    gated compute only after every waiter has attached, making
    coalescing assertions deterministic without sleeps. *)
val wait_coalesced : 'v t -> int -> unit
