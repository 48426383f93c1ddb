(** A persistent fork-join team: the caller plus up to [size - 1]
    helper domains that stay alive between forks.

    {!Pool.map} spawns and joins its domains on every call, which costs
    more than one block of a small GEMM.  A team is made once per
    long-lived owner (a native GEMM plan), starts its helpers on the
    first {!fork} that can use them, and keeps them until {!release}.

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
    fork in progress, or a released team, runs all its slices on its
    own caller, in index order. *)

type t

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
    finished; the team stays usable.  [n <= 1], a team of size 1, a
    busy team and a released one run every slice on the caller. *)
val fork : t -> int -> (int -> unit) -> unit

(** Stop the helpers and join their domains.  Waits for a fork in
    progress to finish first.  Idempotent; after it every {!fork} runs
    on its caller. *)
val release : t -> unit

(** Helper domains currently started (0 before the first fork that
    needs them and after {!release}). *)
val helpers : t -> int
