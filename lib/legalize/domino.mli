(** Domino-like detailed placement by network flow (Doll, Johannes &
    Antreich [17] — the final placer used in the paper's reported flow).

    Two legality-preserving optimisation passes over a legal placement:

    - {e flow reassignment}: within a spatial neighbourhood, the cells of
      one exact width and the slots they currently occupy form an
      assignment problem solved exactly by min-cost flow; cells permute
      onto the slot set that minimises (separable) wire length.  Cells
      are grouped by width class ([int_of_float (width *. 1000.)]) and
      tile, and each group is split into runs of one exact width, in
      the order each width is first seen, before it is cut into
      assignments of at most [max_group] cells.
    - {e window reordering}: along each row, every window of [window]
      consecutive cells is repacked in the best of all orderings
      (exhaustive over ≤ window! permutations), capturing the
      non-separable gains the flow pass cannot see.

    Both passes only permute or repack cells within space they already
    occupy, so a legal input stays legal. *)

(** Every pass raises [Invalid_argument], naming the field, when
    [window] is outside 1..8, when [max_group], [neighborhood_rows] or
    [neighborhood_cols] is below 1, or when [passes] is negative. *)
type config = {
  neighborhood_rows : int;  (** rows per flow-reassignment tile, ≥ 1 *)
  neighborhood_cols : int;  (** tiles per row direction, ≥ 1 *)
  max_group : int;  (** assignment-size cap per width run per tile, ≥ 1 *)
  window : int;  (** cells per reorder window, 1..8 (window! orderings each) *)
  passes : int;  (** ≥ 0 *)
}

val default_config : config

(** [flow_pass ?config circuit placement] runs one flow-reassignment
    sweep; mutates [placement], returns (cells moved, HPWL gained). *)
val flow_pass :
  ?config:config -> Netlist.Circuit.t -> Netlist.Placement.t -> int * float

(** [reorder_pass ?config ?obstacles circuit placement] runs one
    window-reordering sweep; mutates [placement], returns (windows
    improved, HPWL gained).  Windows straddling an obstacle (block
    rectangles in [obstacles], plus all fixed non-pad cells) are
    skipped. *)
val reorder_pass :
  ?config:config ->
  ?obstacles:Geometry.Rect.t list ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  int * float

(** [run ?config circuit placement] alternates both passes [passes]
    times, stopping early when neither improves. *)
val run :
  ?config:config ->
  ?obstacles:Geometry.Rect.t list ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  int * float
