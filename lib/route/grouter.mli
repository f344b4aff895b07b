(** A coarse global router.

    The paper's congestion-driven mode runs "a routing estimation …
    before each placement transformation"; {!Congest} provides the cheap
    probabilistic estimate used inside the loop, and this module provides
    an actual router for validating placements after the fact: every net
    is routed on a coarse capacitated grid with L-shaped pattern routes
    falling back to a maze (Dijkstra with congestion-aware edge costs,
    over a binary heap), followed by rip-up-and-reroute passes on
    overflowing nets.  Each call owns its search scratch, so concurrent
    calls from different domains are safe.

    Multi-pin nets are decomposed into a star of two-pin connections from
    the driver.  The grid geometry and wire pitch come from the same
    {!Grid_spec} the estimator uses, so estimate and validation always
    agree on capacity. *)

type config = {
  overflow_penalty : float;
      (** cost multiplier for crossing an edge already at capacity *)
  rip_up_passes : int;
}

val default_config : config

type result = {
  usage_h : Geometry.Grid2.t;  (** horizontal track usage per bin *)
  usage_v : Geometry.Grid2.t;
  total_wirelength : float;  (** routed length in length units *)
  total_overflow : float;  (** Σ max(0, usage − capacity) over edges *)
  max_overflow : float;  (** largest single-edge overflow *)
  failed_nets : int;  (** nets the maze could not connect (0 expected) *)
}

(** [route ?config circuit placement spec] routes every net and returns
    the usage and overflow summary, or reports why [spec] is unusable on
    the circuit's region. *)
val route :
  ?config:config ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  Grid_spec.t ->
  (result, Grid_spec.error) Stdlib.result
