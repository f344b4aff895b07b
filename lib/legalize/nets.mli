(** The net sets shared by the finishing passes ({!Improve}, {!Domino}).

    Stamped net sets over the circuit's own pin table
    ([Netlist.Circuit.net_start], [pin_cell], [pin_dx], [pin_dy]), cleared
    and refilled for every candidate move, so evaluating a move allocates
    nothing.

    {!hpwl} is bit-identical to summing [Metrics.Wirelength.hpwl_net]
    over the set's nets, newest first: the order of the list the passes
    once built by prepending each newly seen net. *)

(** A set of distinct nets, in the order they were first added. *)
type set

(** [set circuit] is an empty set over [circuit]'s nets; sets are
    reusable buffers, independent of each other. *)
val set : Netlist.Circuit.t -> set

(** [clear s] empties [s] in O(1). *)
val clear : set -> unit

(** [add_cell s id] adds the nets of cell [id] not already in [s], in
    [Netlist.Circuit.nets_of_cell] order. *)
val add_cell : set -> int -> unit

(** [hpwl s placement] is the summed half perimeter of [s]'s nets,
    last-added net first.  Raises [Invalid_argument] like
    [Metrics.Wirelength.bbox_net] when a net has no comparable x or y
    coordinate. *)
val hpwl : set -> Netlist.Placement.t -> float
