(** The supply-and-demand density model of the paper's eq. (4):

    D(x,y) = Σᵢ aᵢ(x,y) − s·A(x,y)

    where aᵢ indicates coverage by cell i, A indicates the placement area,
    and s scales the supply so that ∬D = 0.  We discretise on a bin grid:
    each bin holds the covered cell area minus s times the bin area,
    normalised per unit area, so positive bins are over-full and negative
    bins under-full. *)

(** [auto_bins circuit] picks a grid dimension so a bin holds a handful of
    average cells, clamped to [8 … 128] per axis. *)
val auto_bins : Netlist.Circuit.t -> int * int

(** [demand circuit placement ~nx ~ny] is the demand term: the cell
    area covering each bin, in area units (not yet divided by the bin
    area).  Pads are excluded (they sit on the boundary and are not part
    of the area balance); fixed non-pad cells count as demand, exactly as
    the paper treats pre-placed blocks.  This is the one density splat:
    the placer keeps the demand grid of its current placement and the
    force field, the overflow and the stopping criterion all read it.
    Each cell adds to the bins its rectangle overlaps exactly what
    {!Geometry.Grid2.splat_rect} would add, cells in id order. *)
val demand :
  Netlist.Circuit.t -> Netlist.Placement.t -> nx:int -> ny:int -> Geometry.Grid2.t

(** The per-cell contribution slots of the parallel splat, reused by
    every splat of one placement run. *)
type contributions

(** [contributions ()] is empty {!contributions}; they grow to the
    circuit on the first parallel splat and are reused by every later
    one. *)
val contributions : unit -> contributions

(** [demand_into ?contributions circuit placement g] is {!demand} written into
    [g], a grid over the circuit's region, which is zeroed first: the
    placer's per-transformation splat, allocation-free in its steady
    state.  Circuits of at least 4096 cells splat in two passes across
    the domain pool — per-cell contributions in parallel into
    [contributions] (fresh ones when omitted), then the additions in cell
    order — which
    is bitwise-identical to the sequential splat. *)
val demand_into :
  ?contributions:contributions ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  Geometry.Grid2.t ->
  unit

(** [balance ?extra ?out demand] is the density grid of eq. (4) for a
    {!demand} grid ([demand] is left untouched): per unit area, minus the
    supply s that makes the grid sum to zero.  It is written into [out]
    when given (a buffer the caller reuses; it must not be [demand] or
    [extra]), into a fresh grid otherwise.  [extra], when given, is added
    to the demand bin-wise {e before} the supply is balanced — the hook
    used for congestion- and heat-driven placement (§5): s is recomputed
    so the grid still sums to zero.  Raises [Invalid_argument] when
    [extra]'s or [out]'s dimensions differ. *)
val balance :
  ?extra:Geometry.Grid2.t -> ?out:Geometry.Grid2.t -> Geometry.Grid2.t -> Geometry.Grid2.t

(** [overflow circuit demand] is the ePlace-style density-overflow
    measure of a {!demand} grid: the total bin area demanded beyond 100 %
    utilisation, normalised by the movable cell area.  It is ~1 for the
    all-at-centre initial placement, trends to ~0 as the placement
    spreads, and is the primary per-iteration convergence signal of the
    telemetry trace.  0 when the circuit has no movable area. *)
val overflow : Netlist.Circuit.t -> Geometry.Grid2.t -> float
