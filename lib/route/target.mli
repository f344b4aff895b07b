(** Persistent per-bin density targets derived from congestion overflow —
    the state of the closed routability loop.

    Where a one-shot reactive map (a fresh {!Congest.estimate} turned
    into fresh extra demand at every call) forgets the past, a target
    map {e persists} between refreshes: every refresh folds the current
    overflow estimate into the map with an exponential decay,

    {v target'(b) = min(decay · target(b) + strength · overflow(b) · pitch,
                    bin_area) v}

    so congestion seen early in the run keeps claiming space after the
    hotspot has been pushed apart — the GOALPlace "begin with the end in
    mind" idea of placing against per-region targets rather than raw cell
    area.  The map is read as extra area demand by the density machinery
    each iteration and refreshed only every [congest_every] iterations.

    The per-bin clamp at one full bin area bounds the feedback (a bin can
    at most read as completely blocked); how often it fires is reported
    in {!stats} and surfaced through placer telemetry. *)

(** What one refresh observed: the estimator's overflow totals and the
    state of the map after folding them in. *)
type stats = {
  est_total_overflow : float;  (** {!Congest.t.total_overflow} *)
  est_max_overflow : float;
  target_area : float;  (** Σ target over bins after the refresh *)
  clamped_bins : int;  (** bins saturated at one bin area this refresh *)
}

type t

(** [create region spec] is an all-zero target map over [region]. *)
val create : Geometry.Rect.t -> Grid_spec.t -> (t, Grid_spec.error) result

(** The current map: extra area demand per bin, in length-units². *)
val grid : t -> Geometry.Grid2.t

val spec : t -> Grid_spec.t

(** [area t] is Σ {!grid} — zero until congestion has been observed. *)
val area : t -> float

(** [refresh ?via_factor ~strength ~decay t circuit placement] runs
    {!Congest.estimate} on [placement] and folds the overflow into the
    map.  [strength] is the annealed feedback gain, [decay] the retention
    of the previous targets in [0, 1). *)
val refresh :
  ?via_factor:float ->
  strength:float ->
  decay:float ->
  t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  stats

(** Checkpoint support: [values t] is a row-major copy of the map;
    [restore region spec ~values] rebuilds it bitwise. *)
val values : t -> float array

val restore :
  Geometry.Rect.t -> Grid_spec.t -> values:float array -> (t, string) result
