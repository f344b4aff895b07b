(** Legality-preserving local improvement — the detailed-placement role
    of the paper's final placer.

    Two move classes, both exact-legality-preserving:
    - {e equal-width swaps}: each pass, every movable standard cell tries
      four partners drawn uniformly from all movable standard cells of
      its width, anywhere on the chip (not only nearby ones);
    - {e in-segment slides} that re-centre a cell inside the free gap
      between its row neighbours at the wire-length-optimal x.

    Moves are accepted when the summed HPWL of the affected nets
    improves.  Deterministic given the seed. *)

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
