(** Deterministic pseudo-random number generation for the simulator.

    Every stochastic decision in the reproduction flows from one of these
    generators, so identical seeds yield bit-identical experiment results.
    The core generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state,
    excellent statistical quality for simulation purposes, and cheap
    splitting into independent streams. *)

type t
(** Mutable generator state. Not thread-safe; each simulated thread takes
    its own split stream. *)

val create : seed:int -> t
(** [create ~seed] makes a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]. Used to give each simulated thread or run its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin. *)

val bits53 : t -> int
(** 53 uniform random bits, in [\[0, 2^53)]: the draw behind [float], so
    [float_of_int (bits53 t) *. scale_53 *. bound] equals [float t bound]
    on the same stream. The machine layer builds its per-operation
    jitter factor from it without boxing a float. *)

val scale_53 : float
(** [2^-53], the scale that maps {!bits53} onto [\[0, 1)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used by the
    server workload's inter-arrival times. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
