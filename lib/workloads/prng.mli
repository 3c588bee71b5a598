(** Deterministic pseudo-random numbers for dataset synthesis
    (splitmix64-seeded xoshiro256++).  Every dataset in the suite comes
    from a fixed seed, so runs are exactly reproducible. *)

type t

val create : int -> t

val next : t -> int64
(** The next 64-bit word of the stream.  Inlined into {!int} and
    {!float}: a draw allocates nothing. *)

val int : t -> int -> int
(** Uniform in [0, bound). @raise Invalid_argument when bound <= 0. *)

val float : t -> float
(** Uniform in [0, 1). *)

val float_range : t -> float -> float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
