(** The net sets shared by the finishing passes ({!Improve}, {!Domino}).

    A set holds the nets of the cells a candidate move displaces (its
    {e moving} cells), as stamped indices into the circuit's own pin
    table ([Netlist.Circuit.net_start], [pin_cell], [pin_dx],
    [pin_dy]).  A pass fills a set once per move ({!clear}, {!add_cell}
    for each moving cell, {!freeze}), then prices each candidate
    position of the moving cells with {!hpwl_into}.  Nothing is
    allocated once the set's buffers have grown to its largest move.

    {b Frozen evaluation.}  {!freeze} walks every pin of the set's nets
    once and records, per net, the bounding box of its non-moving pins
    and the indices of its moving pins.  {!hpwl_into} then reads only
    the moving pins: it extends each frozen box with them, using the
    same comparisons as [Metrics.Wirelength.hpwl_net], and sums the nets
    last-added first (the order of the list the passes once built by
    prepending each newly seen net).  A net whose frozen box is a point
    and which has one moving pin costs [|px − fx| + |py − fy|] directly.

    {b Bit identity.}  While no cell outside the moving ones has moved
    since {!freeze}, the result equals, bit for bit, the sum of
    [hpwl_net] over the set's nets in that order:
    - each axis's minimum and maximum are exact whatever the order the
      pins are compared in.  Only the sign of a zero extremum can differ,
      and a [±0.] extent cannot change a sum that starts at [+0.] and
      never reaches [-0.];
    - a NaN coordinate is skipped by the comparisons, so a NaN pin
      leaves the box unchanged.  The closed form would return NaN
      there; the net then falls back to the comparisons;
    - a net whose pins give no comparable x or y raises
      [Invalid_argument], as [Metrics.Wirelength.bbox_net] does. *)

(** The stamps of one pass or run: which nets a set already holds and
    which cells are moving, shared by every set made from them. *)
type stamps

(** [stamps circuit] is a fresh stamp pair over [circuit]'s nets and
    cells. *)
val stamps : Netlist.Circuit.t -> stamps

(** A set of distinct nets, in the order they were first added, with
    the frozen boxes of its last {!freeze}. *)
type set

(** [set stamps] is an empty set.  Sets made from one [stamps] keep
    their own members and frozen boxes, but must be filled one at a
    time: between {!clear} and {!freeze} of one set, no other set of the
    same stamps is cleared or added to. *)
val set : stamps -> set

(** [clear s] empties [s] in O(1). *)
val clear : set -> unit

(** [add_cell s id] makes cell [id] a moving cell of [s] and adds its
    nets not already in [s], in [Netlist.Circuit.nets_of_cell] order. *)
val add_cell : set -> int -> unit

(** [freeze s placement] records each net's non-moving pins at their
    [placement] coordinates. *)
val freeze : set -> Netlist.Placement.t -> unit

(** [hpwl_into s placement dst i] stores in [dst.(i)] the summed half
    perimeter of [s]'s nets, last-added net first, with the moving
    cells at their [placement] coordinates and every other cell where
    {!freeze} saw it.  It writes into an array rather than returning, so
    pricing a candidate boxes no float.  Raises [Invalid_argument] like
    [Metrics.Wirelength.bbox_net] when a net has no comparable x or y
    coordinate. *)
val hpwl_into : set -> Netlist.Placement.t -> float array -> int -> unit
