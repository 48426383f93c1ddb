(** Per-key circuit breaker: stops one pathological key (kernel ×
    arch × space) from monopolizing the tuning pool.

    State machine, per key:

    {v
      closed --N consecutive failures--> open
      open   --cooldown elapsed, first admit--> half_open (that caller probes)
      half_open --probe success--> closed
      half_open --probe failure--> open (fresh cooldown)
    v}

    While a key is open (or a probe is outstanding), {!admit} answers
    [Reject] immediately — the service serves the safe-baseline kernel
    with an [E_circuit_open] annotation instead of queuing yet another
    doomed sweep.  A success in any state fully closes the key.

    The clock is injectable so cooldown expiry is testable with a fake
    clock, deterministically. *)

(** Raised by callers (e.g. the registry) on a [Reject]ed key; the
    payload is the key description. *)
exception Open_circuit of string

type t

(** [create ~threshold ~cooldown_s ~now ()]: open a key after
    [threshold] consecutive failures (clamped to ≥ 1); allow a probe
    [cooldown_s] after opening, as read on the caller's clock [now]. *)
val create :
  ?threshold:int -> ?cooldown_s:float -> now:(unit -> float) -> unit -> t

val threshold : t -> int
val cooldown_s : t -> float

type decision =
  | Allow  (** closed: proceed normally *)
  | Probe  (** half-open: this caller carries the probe *)
  | Reject  (** open: degrade immediately *)

val decision_to_string : decision -> string

(** Ask to run a compute for [key]; may transition open → half-open. *)
val admit : t -> string -> decision

(** A compute for [key] succeeded: close it (and reset its count). *)
val success : t -> string -> unit

(** A compute for [key] failed: bump its consecutive-failure count,
    opening at the threshold; a failed probe re-opens. *)
val failure : t -> string -> unit

(** ["closed"], ["open"] or ["half_open"] — for stats/tests. *)
val state_name : t -> string -> string

(** Keys currently open or half-open. *)
val open_now : t -> int

(** Times any key transitioned to open, ever. *)
val opened_total : t -> int

(** Admits answered [Reject], ever. *)
val rejected_total : t -> int
