(** Radix-2 fast Fourier transforms.

    Used by {!Poisson.fft_force_field} to evaluate the open-boundary
    force-field convolution of the paper's eq. (9) in O(G² log G) on a
    G×G density grid.  Data is held in separate real/imaginary
    arrays. *)

(** [is_pow2 n] is true when [n] is a positive power of two. *)
val is_pow2 : int -> bool

(** [next_pow2 n] is the smallest power of two ≥ [max 1 n]. *)
val next_pow2 : int -> int

(** {1 Planned transforms}

    A {!plan} precomputes the bit-reversal permutation and per-stage
    twiddle tables for one power-of-two length.  Plans are immutable,
    cached process-wide and safely shared across domains; the planned
    transforms below are the building blocks of the real-transform
    Poisson path in {!Poisson}. *)

type plan

(** [plan n] returns the (cached) plan for complex transforms of length
    [n].  Raises [Invalid_argument] unless [n] is a power of two. *)
val plan : int -> plan

(** [cfft p ~inverse re im off] performs the in-place complex FFT of
    [re.(off..off+n-1)], [im.(off..off+n-1)] where [n] is the plan's
    length.  The inverse includes the 1/n normalisation.  Twiddles come
    from the plan's tables, computed with direct cos/sin. *)
val cfft : plan -> inverse:bool -> float array -> float array -> int -> unit

(** Plan for real-input transforms of one power-of-two length [n ≥ 2]:
    a half-length complex plan plus the untwiddle table. *)
type rplan

(** [rplan n] returns the (cached) real-transform plan for length [n]. *)
val rplan : int -> rplan

(** [rfft_into rp ~src ~soff ~count ~outr ~outi ~ooff ~zre ~zim] writes
    the Hermitian half spectrum X(0..n/2) of the real sequence
    [src.(soff..soff+count-1)] — implicitly zero-extended to the plan
    length [n] — into [outr]/[outi] at [ooff].  [zre]/[zim] are caller
    scratch of length [n/2].  Costs one complex FFT of length [n/2] plus
    O(n) untwiddling. *)
val rfft_into :
  rplan ->
  src:float array ->
  soff:int ->
  count:int ->
  outr:float array ->
  outi:float array ->
  ooff:int ->
  zre:float array ->
  zim:float array ->
  unit
