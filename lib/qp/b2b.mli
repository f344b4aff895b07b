(** The Bound2Bound net model (Spindler, Schlichtmann & Johannes, 2008)
    as a forward-looking extension of the paper's clique model.

    Per axis, each net connects every pin to the two boundary pins of the
    net's current bounding box with weight 2 / ((k−1)·|span|), which makes
    the quadratic objective equal the half-perimeter wire length at the
    linearisation point.  Unlike the clique model, the expansion differs
    between the x and y axes, so callers assemble one system per axis
    with {!System_xy}. *)

(** One axis-specific spring between two pins, as indices into the
    circuit's pin table. *)
type edge = { pin_a : int; pin_b : int; weight : float }

(** [iter_edges ~coord circuit n f] expands net [n] along the axis whose
    pin coordinate is given by [coord] (absolute position of a pin-table
    index), calling [f pin_a pin_b weight] per edge — the allocation-free emission the
    hot assembly path uses.  Degenerate nets (zero span) fall back to
    clique weights so connectivity is never lost. *)
val iter_edges :
  coord:(int -> float) ->
  Netlist.Circuit.t ->
  int ->
  (int -> int -> float -> unit) ->
  unit

(** [edges ~coord circuit n] is {!iter_edges} materialised as a list, in
    emission order; intended for tests. *)
val edges :
  coord:(int -> float) -> Netlist.Circuit.t -> int -> edge list
