(** The paper's §4.2 stopping criterion: iterate until there is no empty
    square within the placement area larger than four times the average
    cell area. *)

(** [largest_empty_square_area demand] measures, on a
    {!Density_map.demand} grid, the area of the largest square of bins
    whose occupancy (demand / bin area) is at most 10 % — "empty" up to
    splatter noise. *)
val largest_empty_square_area : Geometry.Grid2.t -> float

(** [should_stop ?multiplier circuit demand] is true when the largest
    empty square of the {!Density_map.demand} grid [demand] is at most
    [multiplier] (default 4.0, the paper's value) times the average
    movable-cell area.  Degenerate circuits — no movable cells, or a
    single movable cell — stop immediately (there is nothing to
    spread). *)
val should_stop : ?multiplier:float -> Netlist.Circuit.t -> Geometry.Grid2.t -> bool

(** [satisfied ?multiplier ~average_cell_area demand] is the criterion
    of {!should_stop} for a caller that knows the circuit has at least
    two movable cells and has computed their average area
    ({!Netlist.Circuit.average_cell_area}) once: true when
    [average_cell_area <= 0.] or the largest empty square is at most
    [multiplier] times [average_cell_area]. *)
val satisfied :
  ?multiplier:float -> average_cell_area:float -> Geometry.Grid2.t -> bool
