(** Per-cell additional forces from the density field (paper §3.3–§4.1).

    The density grid is turned into a force field by the open-boundary
    Poisson solution (eq. 9), sampled bilinearly at each movable cell's
    centre, and scaled so that the strongest force of the field grid
    equals the spring force of a unit-weight net of length K·(W + H);
    no cell force exceeds it. *)

(** Per-movable-cell force increments, indexed by QP variable index. *)
type t = {
  fx : float array;
  fy : float array;
  scale : float;  (** the proportionality constant k actually applied *)
  raw_max : float;
      (** largest unscaled |f| over the whole field grid (not over cell
          centres), the quantity the scaling normalises by *)
  overflow : float;
      (** {!Density_map.overflow} of the demand grid this field was
          built from — the placer's adaptive CG tolerance reads it *)
}

(** The arrays one placement run reuses for every {!at_cells}: the
    balanced density grid, the Poisson field and the per-cell force
    increments. *)
type buffers

(** [buffers region ~nx ~ny ~n_movable] allocates {!buffers} for an
    [nx]×[ny] density grid over [region] and [n_movable] variables. *)
val buffers :
  Geometry.Rect.t -> nx:int -> ny:int -> n_movable:int -> buffers

(** [at_cells ?buffers circuit placement ~demand ~var_of_cell ~n_movable
    ~k_param ?extra ()] computes the scaled additional forces from
    [demand], the {!Density_map.demand} grid of [placement] (the grid
    dimensions are its own), balanced with {!Density_map.balance}
    ?[extra]: [k_param] is the paper's K (0.05 standard, 0.2 fast).
    Returns zero forces when the density is perfectly flat.

    With [buffers] (which must match the grid and [n_movable]) the
    balanced grid, the field and the returned [fx]/[fy] live in them, so
    a call allocates nothing per cell or bin, and the result's arrays are
    overwritten by the next call on the same buffers; without, fresh ones
    are allocated.  The forces are the same bits either way.  Raises
    [Invalid_argument] when [buffers] do not match. *)
val at_cells :
  ?buffers:buffers ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  demand:Geometry.Grid2.t ->
  var_of_cell:int array ->
  n_movable:int ->
  k_param:float ->
  ?extra:Geometry.Grid2.t ->
  unit ->
  t

(** [prewarm ~region ~nx ~ny] eagerly builds the cached FFT Poisson
    kernel spectra for the density grid an [nx]×[ny] run over [region]
    will use, so a job's first transformation doesn't pay kernel
    construction (the historical cold-call spike). *)
val prewarm : region:Geometry.Rect.t -> nx:int -> ny:int -> unit
