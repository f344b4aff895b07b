(** Probabilistic routing-congestion estimation (paper §5, "Congestion
    and Heat Driven Placement").

    Each net's expected horizontal and vertical wiring is spread uniformly
    over its bounding box; comparing demand against per-bin track capacity
    yields an overflow map.  Fed back through the closed routability
    loop ({!Target}), over-congested bins read as extra demand, so the
    same supply/demand machinery that spreads cells also spreads
    wiring.

    The grid geometry and wire pitch come from a shared {!Grid_spec};
    degenerate specs are rejected up front instead of silently producing
    NaN overflow. *)

(** Multiplier on demand accounting for bends/vias (≥ 1). *)
val default_via_factor : float

(** Result of an estimation. *)
type t = {
  demand_h : Geometry.Grid2.t;  (** horizontal track demand per bin *)
  demand_v : Geometry.Grid2.t;
  overflow : Geometry.Grid2.t;  (** Σ max(0, demand − capacity) per bin *)
  total_overflow : float;
  max_overflow : float;
}

(** [estimate ?via_factor circuit placement spec] runs the estimator, or
    reports why [spec] is unusable on the circuit's region. *)
val estimate :
  ?via_factor:float ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  Grid_spec.t ->
  (t, Grid_spec.error) result
