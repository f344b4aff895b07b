(** Force fields from density, per the paper's §3.3.

    Given the supply/demand density D(x,y) of eq. (4), the additional force
    field is the open-boundary solution of Poisson's equation, evaluated
    directly as the convolution of eq. (9):

    f(r) = k/(2π) ∬ D(r') · (r − r') / |r − r'|² dA'

    Positive density repels (cells push each other apart); negative density
    (free placement area) attracts.  Two evaluators of eq. (9) are
    provided:

    - {!direct_force_field}: O(G⁴) summation — the test oracle;
    - {!fft_force_field}: zero-padded FFT convolution, O(G² log G) — used
      by the placer.

    {!sor_potential} is a separate Dirichlet-boundary SOR solve of
    ∇²Φ = D (closed instead of open boundary conditions); the routing
    heat map uses it.

    All grids are row-major [rows × cols] with grid pitch [hx × hy];
    density values are per unit area. *)

(** A vector field sampled at grid-bin centres. *)
type field = { rows : int; cols : int; fx : float array; fy : float array }

(** [direct_force_field ~rows ~cols ~hx ~hy density] evaluates eq. (9) by
    direct summation with k = 1.  The self-term (r = r') is skipped, which
    corresponds to the principal value of the singular integral. *)
val direct_force_field :
  rows:int -> cols:int -> hx:float -> hy:float -> float array -> field

(** [fft_force_field ?out ~rows ~cols ~hx ~hy density] evaluates the same
    convolution with zero padding to the next power of two ≥ 2·G, so the
    result is the open-boundary (linear, non-cyclic) convolution.  Agrees
    with {!direct_force_field} to machine precision.

    The density and both kernels
    are real, so only Hermitian half spectra are computed (real-input
    FFTs over the occupied rows of the padded grid), and the two inverse
    transforms pack into one complex inverse with fx in the real plane
    and fy in the imaginary one — no 2G×2G complex grids anywhere.

    Half-plane kernel spectra depend only on [(rows, cols, hx, hy)] and
    are memoised across calls ({!prewarm} builds them eagerly); mutable
    scratch is domain-local and keyed by padded geometry, so a loop
    re-evaluating a fixed grid allocates nothing after its first call
    when [out] is supplied.  [out] must match [rows]/[cols] and is
    returned filled.  Results are bitwise-identical with or without
    [out]. *)
val fft_force_field :
  ?out:field ->
  rows:int ->
  cols:int ->
  hx:float ->
  hy:float ->
  float array ->
  field

(** [prewarm ~rows ~cols ~hx ~hy] builds (or touches) the cached kernel
    spectra of {!fft_force_field} for one grid geometry, so the first
    placement transformation of a job does not pay kernel construction.
    Counts as one cache miss when cold, one hit when already present. *)
val prewarm : rows:int -> cols:int -> hx:float -> hy:float -> unit

(** Empty the kernel-spectrum cache and reset its hit/miss counters
    (benchmarks measure the cold path this way). *)
val clear_kernel_cache : unit -> unit

(** [(hits, misses)] of the kernel-spectrum cache since the last
    {!clear_kernel_cache}. *)
val kernel_cache_stats : unit -> int * int

(** [sor_potential ~rows ~cols ~hx ~hy ?omega ?tol ?max_iter density]
    solves ∇²Φ = density with Φ = 0 on the boundary by successive
    over-relaxation and returns Φ. *)
val sor_potential :
  rows:int ->
  cols:int ->
  hx:float ->
  hy:float ->
  ?omega:float ->
  ?tol:float ->
  ?max_iter:int ->
  float array ->
  float array

(** [max_magnitude f] is the largest |f| over the field. *)
val max_magnitude : field -> float
