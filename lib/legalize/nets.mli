(** The net view shared by the finishing passes ({!Improve}, {!Domino}).

    A flat copy of the circuit's pins (net start offsets plus unboxed
    cell/dx/dy arrays), built once per pass call, and stamped net sets
    over it that are cleared and refilled for every candidate move, so
    evaluating a move allocates nothing.

    {!hpwl} is bit-identical to summing [Metrics.Wirelength.hpwl_net]
    over the set's nets, newest first: the order of the list the passes
    once built by prepending each newly seen net. *)

type t

(** [create circuit] copies [circuit]'s pins into flat arrays. *)
val create : Netlist.Circuit.t -> t

(** A set of distinct nets, in the order they were first added. *)
type set

(** [set view] is an empty set over [view]'s nets; sets are reusable
    buffers, independent of each other. *)
val set : t -> set

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
