(** Legality-preserving local improvement — the detailed-placement role
    of the paper's final placer.

    Two move classes, both exact-legality-preserving:
    - {e equal-width swaps}: each pass, every movable standard cell draws
      four partners uniformly from all movable standard cells of its
      width class ([int_of_float (width *. 1000.)]), anywhere on the chip
      (not only nearby ones).  A partner is tried only if its width is
      exactly equal, bit for bit: swapping cells of near-equal widths
      could push one past a neighbour or the region edge;
    - {e in-segment slides} that re-centre a cell inside the free gap
      between its row neighbours at the wire-length-optimal x.

    Moves are accepted when the summed HPWL of the affected nets
    improves; each move is priced by {!Nets}' frozen evaluation.
    Deterministic given the seed. *)

(** [run ?seed ?passes ?obstacles circuit placement] mutates [placement];
    returns the number of accepted moves and the HPWL improvement.
    [obstacles] (block rectangles) clip the slide gaps so cells never
    slide into a block; fixed non-pad cells are always treated as
    obstacles. *)
val run :
  ?seed:int ->
  ?passes:int ->
  ?obstacles:Geometry.Rect.t list ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  int * float
