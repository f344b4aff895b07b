(** Mixed block/cell placement and floorplanning (paper §5).

    Kraftwerk's claim is that blocks and cells need no special treatment
    during global placement — a block is just a big cell in the density
    model.  This module supplies what the paper leaves to the
    surrounding flow: after global placement, blocks are snapped to row
    boundaries and de-overlapped with minimal shoving, and the standard
    cells are then legalised around them. *)

(** Flow result. *)
type result = {
  placement : Netlist.Placement.t;  (** fully legalised *)
  block_displacement : float;
      (** total distance blocks moved during snapping/shoving *)
  hpwl_global : float;  (** before block snapping and legalisation *)
  hpwl_final : float;
  finish : Legalize.Finish.t;
      (** the final placer's report: Abacus, Improve and Domino around
          the blocks *)
}

(** [block_rects circuit placement] is the rectangles of all movable
    blocks at their current positions. *)
val block_rects :
  Netlist.Circuit.t -> Netlist.Placement.t -> (int * Geometry.Rect.t) list

(** [legalize_blocks circuit placement] snaps every movable block's
    bottom edge to a row boundary and resolves block/block and
    block/fixed overlaps by shoving in x order; mutates [placement] and
    returns the total block displacement.  [Error] names the first block
    that cannot fit beside the already-placed ones within the region
    (the blocks placed before it stay moved). *)
val legalize_blocks :
  Netlist.Circuit.t -> Netlist.Placement.t -> (float, string) Stdlib.result

(** [place config circuit placement] is the full mixed flow: Kraftwerk
    global placement (blocks and cells together), block legalisation,
    then the final placer ({!Legalize.Finish.run}) with the blocks as
    obstacles.  [Error]
    when the blocks do not fit the region ({!legalize_blocks}). *)
val place :
  Kraftwerk.Config.t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  (result, string) Stdlib.result
