(** The final placer: Abacus legalisation, then the Improve and Domino
    passes.  This is the only place that knows their order; every flow
    (the engine's completed jobs, the baseline placers, mixed
    block/cell floorplans, the bench tables) hands its global placement
    here, so each global placer is judged through the same final
    placer. *)

type t = {
  placement : Netlist.Placement.t;  (** the legal, improved placement *)
  abacus : Abacus.report;
      (** the legalisation's report; its [placement] is the same array
          as [placement], improved in place by the passes after it *)
  improve_moves : int;  (** accepted moves of {!Improve.run} *)
  improve_delta : float;  (** its HPWL improvement *)
  domino_moves : int;  (** cells moved and windows improved by {!Domino.run} *)
  domino_delta : float;  (** its HPWL improvement *)
}

(** [run ?obstacles circuit global] legalises a copy of [global] with
    {!Abacus.legalize}, then runs {!Improve.run} and {!Domino.run} on
    it, each with default settings.  [global] is left unchanged.
    [obstacles] (block rectangles) carve the rows for all three stages;
    fixed non-pad cells always do. *)
val run :
  ?obstacles:Geometry.Rect.t list ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  t
