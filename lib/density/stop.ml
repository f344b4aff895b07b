let largest_empty_square_area demand =
  let bin_area = Geometry.Grid2.dx demand *. Geometry.Grid2.dy demand in
  let side =
    Geometry.Grid2.largest_empty_square ~scale:bin_area demand ~threshold:0.1
  in
  side *. side

let satisfied ?(multiplier = 4.) ~average_cell_area demand =
  average_cell_area <= 0.
  || largest_empty_square_area demand <= multiplier *. average_cell_area

let should_stop ?multiplier c demand =
  (* No movable area means nothing can spread: stop immediately rather
     than compare against a zero threshold forever (empty netlists and
     all-fixed circuits must terminate).  A single movable cell is just
     as degenerate — there is no overlap to resolve, and the empty-square
     measure stays huge forever — so the criterion is satisfied as soon
     as the cell sits at its quadratic optimum. *)
  Netlist.Circuit.num_movable c < 2
  || satisfied ?multiplier
       ~average_cell_area:(Netlist.Circuit.average_cell_area c)
       demand
