(** Column-major dense matrices (the BLAS convention) backed by flat
    float arrays. *)

type t = {
  data : float array;
  rows : int;
  cols : int;
  ld : int;  (** leading dimension, >= rows *)
}

val create : ?ld:int -> int -> int -> t
val init : ?ld:int -> int -> int -> (int -> int -> float) -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

(** Deterministic pseudo-random fill in [-1, 1] (no global RNG). *)
val random : ?seed:int -> ?ld:int -> int -> int -> t

val random_symmetric : ?seed:int -> int -> t

(** Lower-triangular with a well-conditioned diagonal (for TRSM). *)
val random_lower : ?seed:int -> int -> t

val max_abs_diff : t -> t -> float
val approx_equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
