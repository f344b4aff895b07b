let largest_empty_square_area demand =
  let bin_area = Geometry.Grid2.dx demand *. Geometry.Grid2.dy demand in
  let side =
    Geometry.Grid2.largest_empty_square ~scale:bin_area demand ~threshold:0.1
  in
  side *. side

let should_stop ?(multiplier = 4.) c demand =
  let avg = Netlist.Circuit.average_cell_area c in
  (* No movable area means nothing can spread: stop immediately rather
     than compare against a zero threshold forever (empty netlists and
     all-fixed circuits must terminate).  A single movable cell is just
     as degenerate — there is no overlap to resolve, and the empty-square
     measure stays huge forever — so the criterion is satisfied as soon
     as the cell sits at its quadratic optimum. *)
  avg <= 0.
  || Netlist.Circuit.num_movable c < 2
  || largest_empty_square_area demand <= multiplier *. avg
