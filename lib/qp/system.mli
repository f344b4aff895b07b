(** Assembly and solution of the extended placement equation
    C·p + d + e = 0 (paper, eq. 3).

    Nets expand into the paper's clique model (§2.1, {!Model}).
    Variables exist only for movable cells; fixed cells and pin offsets
    contribute to the constant vector d.  The x and y systems share the
    matrix C and its Jacobi preconditioner (clique weights do not depend
    on axis), so one assembly serves both axes of one two-axis PCG
    solve.

    A tiny anchor spring from every movable cell to the region centre
    (weight [anchor_weight] relative to the mean net weight) keeps C
    positive definite even when a connected component has no path to a
    fixed cell. *)

type t

(** [index_map circuit] maps cell id → variable index for movable cells
    ([-1] for fixed), with the movable count. *)
val index_map : Netlist.Circuit.t -> int array * int

(** Reusable assembly state for one circuit: the frozen symbolic
    sparsity {!Numeric.Sparse.pattern}, the d vectors (and d before its
    hold term), the Jacobi preconditioner storage, one
    {!Numeric.Cg.workspace} per axis, the edges sampled for nets above
    the clique cap and the value cache of {!rebuild}.  A pattern is
    recorded by streaming the pass twice into a {!Numeric.Sparse.shape}
    local to that recording, which keeps no value and one transient int
    per triplet.  Keyed by circuit and clique cap at creation; every
    {!rebuild} against it re-emits at most the numeric values (the
    per-iteration work Kraftwerk repeats ~200 times), paying the
    symbolic sort-and-merge once. *)
type assembly

(** [assembly circuit ?clique_cap ()] allocates the cached assembly
    state. *)
val assembly : Netlist.Circuit.t -> ?clique_cap:int -> unit -> assembly

(** [rebuild asm ~placement ~net_weights ~edge_scale ?anchor_weight
    ?hold ?hold_at ()] re-assembles the system at the given placement
    through the cached state — same semantics and bitwise-identical
    matrices as {!build} with the assembly's cap.

    At the {!Weights.Quadratic} scale the values themselves are
    cached: the matrix, incident sums, mean edge weight
    and d before its hold term depend only on the net weights,
    [anchor_weight], [hold] and the fixed cells' coordinates.  While all
    of these are bitwise equal to the last full pass's, a rebuild only
    re-applies the hold term [d(v) −= hw·hold_at(v)] and returns that
    pass's system, O(cells + nets) with no spring streamed.

    Otherwise a full pass runs.  The structure depends only on the
    circuit and on which nets have a positive weight, so once the first
    pass has recorded its pattern every pass scatters each value
    straight into its matrix slot ({!Numeric.Sparse.slots}) and
    allocates nothing per net or edge; a pass whose structure drifted
    (a net weight reached zero) records the pattern again.  Recordings
    are counted (see {!assembly_stats}; a value-cache hit counts as
    reused).

    The returned system {e aliases} the assembly's storage (matrix
    values, d vectors, preconditioner, the solve buffers): it is
    invalidated by the next [rebuild] on the same assembly. *)
val rebuild :
  assembly ->
  placement:Netlist.Placement.t ->
  net_weights:float array ->
  edge_scale:Weights.scale ->
  ?anchor_weight:float ->
  ?hold:float ->
  ?hold_at:Netlist.Placement.t ->
  unit ->
  t

(** [assembly_stats asm] is [(reused, pattern_rebuilds)]: how many
    {!rebuild} passes reused the cached pattern (or the cached values)
    vs. how many had to record a new one (the first pass always
    records). *)
val assembly_stats : assembly -> int * int

(** [build circuit ~placement ~net_weights ~edge_scale ?clique_cap
    ?anchor_weight ()] assembles the system at the given placement
    (needed for fixed-pin positions and for [edge_scale]).

    [net_weights.(net.id)] multiplies every edge of the net (timing-driven
    weighting); [edge_scale] is {!Weights.Quadratic} for the plain
    quadratic objective or {!Weights.Linearize}, which multiplies each
    edge by a function of its current pin-to-pin distance to approximate
    the linear objective of [14].  [anchor_weight] defaults to [1e-6].

    [hold], when positive, adds to every movable cell a spring of weight
    [hold × (that cell's summed incident edge weight)] pulling toward its
    coordinates in [placement].  This damps the placement transformation:
    a whole clump of cells can no longer translate freely across the
    region in one solve (the region's boundary supply would otherwise
    yo-yo it), at the cost of more transformations to convergence.  It is
    the counterpart of the hold forces of later force-directed placers
    and does not constrain the converged solution — at a fixed point the
    hold springs exert zero force.

    [hold_at] redirects the hold springs toward the coordinates of a
    different placement (indexed by cell id) instead of [placement] —
    e.g. region-centre targets in partitioning-based placers. *)
val build :
  Netlist.Circuit.t ->
  placement:Netlist.Placement.t ->
  net_weights:float array ->
  edge_scale:Weights.scale ->
  ?clique_cap:int ->
  ?anchor_weight:float ->
  ?hold:float ->
  ?hold_at:Netlist.Placement.t ->
  unit ->
  t

(** [solve ?tol t ~placement ~ex ~ey] solves for the movable-cell
    coordinates with additional constant forces [ex], [ey] (indexed by
    {e variable} index, length [num_movable t]) and writes them into
    [placement] (fixed cells untouched).  Warm-starts from the incoming
    coordinates.  [tol] is the relative CG tolerance (default the
    {!Numeric.Cg.solve} default, [1e-8]) — the placer loosens it while
    density overflow is still high and tightens it as the placement
    converges.  Both axes run in one {!Numeric.Cg.solve2_in} over the
    assembly's own CG workspaces: one sweep of the shared C per
    iteration serves both axes, each axis
    stops on its own threshold, and a solve allocates nothing per cell.
    Returns CG statistics for the x and y solves. *)
val solve :
  ?tol:float ->
  t ->
  placement:Netlist.Placement.t ->
  ex:float array ->
  ey:float array ->
  Numeric.Cg.stats * Numeric.Cg.stats

(** [num_movable t] is the variable count per axis. *)
val num_movable : t -> int

(** [mean_edge_weight t] is the average assembled spring weight — the
    reference "unit net" for the paper's force scaling, so the additional
    forces stay commensurate with the wire-length forces whether or not
    linearisation rescaled them. *)
val mean_edge_weight : t -> float

(** [matrix t] exposes the assembled C, shared by both axes, for
    tests. *)
val matrix : t -> Numeric.Sparse.t

(** [constant_terms t] is [(dx, dy)], the constant vectors d of eq. (3)
    by variable index.  They alias the assembly like the matrix.  For
    tests. *)
val constant_terms : t -> float array * float array

(** [residual_force t ~placement ~ex ~ey] evaluates |C·p + d + e|∞ over
    both axes at the given placement — zero at the equilibrium eq. (3)
    defines.  Intended for tests. *)
val residual_force :
  t ->
  placement:Netlist.Placement.t ->
  ex:float array ->
  ey:float array ->
  float
