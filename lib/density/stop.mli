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
