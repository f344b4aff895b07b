(** Flexible-block floorplanning.

    The paper's floorplanning discussion builds on flexible blocks
    (Otten [10]): a block's area is fixed but its aspect ratio is not.
    This extension runs the mixed global placement, then picks for every
    movable block the aspect ratio (from a candidate list) that minimises
    the half-perimeter length of its incident nets at its global
    position, and finishes with the usual block/cell legalisation. *)

(** Result of the flexible flow. *)
type result = {
  mixed : Mixed.result;  (** final placement and flow statistics *)
  circuit : Netlist.Circuit.t;  (** the reshaped circuit actually placed *)
  chosen_ratios : (int * float) list;  (** block id → height/width ratio *)
}

(** [reshape_blocks circuit placement ~ratios] returns a circuit whose
    movable blocks each take the candidate ratio minimising their
    incident wire length at the given positions (areas preserved, heights
    rounded up to whole rows). *)
val reshape_blocks :
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  ratios:float list ->
  Netlist.Circuit.t * (int * float) list

(** [place ?ratios config circuit placement] is the two-phase flexible
    flow; [ratios] defaults to [0.5; 1.0; 2.0].  [Error] when the
    reshaped blocks do not fit the region ({!Mixed.place}). *)
val place :
  ?ratios:float list ->
  Kraftwerk.Config.t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  (result, string) Stdlib.result
