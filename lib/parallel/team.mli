(** Fork-join teams: the caller plus up to [size - 1] helper domains
    that stay alive between forks, and {!map}, a parallel [List.map] on
    a team made for the call.  Tuning sweeps and native GEMM take their
    helper domains from here.

    A team starts its helpers on the first {!fork} that can use them
    and keeps them until {!release}; the next fork that can use helpers
    starts them again.  [Native_blocked] keeps one team for every plan
    it loads, so two loaded plans share the same helpers.

    Between forks the helpers wait spin-then-block: they poll for up
    to 10 ms after a fork, long enough to span the gaps inside a GEMM
    pass, then sleep on a condition variable, so an idle team uses no
    CPU.  The caller's wait for the last slice is the same.

    A fork hands out its slices through an atomic cursor.  The caller
    claims slices too, and after running its own it claims every slice
    no helper has started; it only waits for slices a helper is
    actually running.  A helper whose vCPU is descheduled therefore
    delays nothing it never began.

    One fork runs at a time.  A {!fork} that finds another caller's
    fork in progress runs all its slices on its own caller, in index
    order. *)

type t

(** A sensible worker count for this machine: the recommended domain
    count, at least 1. *)
val default_jobs : unit -> int

(** [create size] is a team of at most [size] workers (the caller and
    [size - 1] helpers, clamped to at least 1).  No domain is spawned
    until a fork needs one. *)
val create : int -> t

(** The [size] the team was created with. *)
val size : t -> int

(** [fork t n slice] runs [slice w] exactly once for every [w] in
    [0, n), on the caller and the helpers, and returns when all have
    returned.  If slices raise, the first exception recorded is
    re-raised on the caller, with its backtrace, after every slice has
    finished; the team stays usable.  [n <= 1], a team of size 1 and a
    busy team run every slice on the caller. *)
val fork : t -> int -> (int -> unit) -> unit

(** Stop the helpers and join their domains.  Waits for a fork in
    progress to finish first.  Idempotent; the next {!fork} that can
    use helpers starts them again. *)
val release : t -> unit

(** Helper domains currently started (0 before the first fork that
    needs them and after {!release}). *)
val helpers : t -> int

(** [map ~jobs f items] evaluates [f] over [items] on up to [jobs]
    workers (default {!default_jobs}) and returns the results in
    {i item order}, whichever worker evaluated which item and in
    whatever order they finished.  It forks on a team of
    [min jobs (List.length items)] workers created for the call and
    released after it, the calling domain being one of them.

    Items are handed out dynamically, so unequal per-item costs
    balance across workers.  If one or more applications of [f] raise,
    the exception of the {i earliest item in list order} is re-raised
    with its backtrace after every item has run, so failures are
    deterministic too.  With [jobs <= 1] or a single item no domain is
    spawned and [map] is exactly [List.map].

    This is what keeps the tuner's parallel sweeps bit-identical to
    sequential ones: the caller performs any order-sensitive reduction
    (first-seen maximum, failure lists) sequentially over the ordered
    list, and [f] must be pure up to its return value — it must not
    touch shared mutable state (the transformation and codegen passes
    allocate all their state per call, which is why they can run
    here). *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
