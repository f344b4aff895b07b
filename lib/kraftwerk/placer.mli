(** The iterative force-directed placement algorithm (paper §4).

    A {!state} carries the current placement, the {e accumulated}
    additional-force vector ~e (§2.2 — forces found in earlier
    transformations stay in the system, which is what holds previous
    spreading in place), and the per-net weights that timing-driven
    callers adapt between transformations. *)

(** The density-side buffers a state owns — the demand splat's
    contribution slots, the balanced grid, the Poisson field, the per-cell force
    increments and the sum of two extra-demand sources — created by
    {!init}/{!restore} and reused by every {!transform}.  Checkpoints do
    not store them.  The QP side (matrix, d vectors, CG vectors) lives in
    [assembly]. *)
type work

type state = {
  circuit : Netlist.Circuit.t;
  config : Config.t;
  var_of_cell : int array;
  n_movable : int;
  placement : Netlist.Placement.t;
      (** written only by {!transform} while the state is in use, so
          that [demand] and a deferred {!Controller.lb} describe it;
          hooks read it.  A caller done with the state may take the
          placement over and mutate it, after reading anything of the
          controller it still needs *)
  ex : float array;  (** accumulated additional x-forces, by variable *)
  ey : float array;
  net_weights : float array;  (** mutable contents, indexed by net id *)
  assembly : Qp.System.assembly;
      (** cached QP assembly (symbolic sparsity pattern, scratch and
          preconditioner storage) reused by every transformation *)
  controller : Controller.t;
      (** convergence controller: LB/UB envelope and penalty schedule *)
  telemetry_level : int;
      (** V-cycle stage stamped into emitted telemetry records (0 for
          flat runs; {!Cluster} passes the stage index) *)
  mutable iteration : int;
  route_target : Route.Target.t option;
      (** persistent congestion-target map of the closed routability
          loop ({!Config.t.congest_every}); [None] when the loop is
          off.  Refreshed in place every cadence tick, read as extra
          density demand every transformation, checkpointed next to the
          controller. *)
  demand : Geometry.Grid2.t;
      (** {!Density.Density_map.demand} of [placement] on the run's
          density grid: set by the constructor, re-splatted in place once
          per {!transform} right after the solve.  The density forces,
          the empty-square measure, the telemetry overflow and
          {!converged} all read it instead of splatting the placement
          again; nothing keeps an older grid. *)
  work : work;
}

(** Per-transformation report. *)
type step_report = {
  step : int;
  hpwl : float option;
      (** half-perimeter wire length after the solve, computed only where
          this step has a reader: [Some] on a UB-probe step, with an
          {!Obs.Sink} installed or with an [on_step] hook, [None]
          otherwise.  {!Controller.lb} of [state.controller] gives the
          same bits on any step, computing them on demand. *)
  empty_square_area : float;  (** stopping-criterion measure *)
  force_scale : float;  (** the k applied this transformation *)
  cg_iterations : int;  (** x- and y-solve iterations combined *)
  penalty : float;  (** density-force multiplier used this transformation *)
  ub_hpwl : float option;
      (** legalized-snapshot HPWL when this iteration probed the upper
          bound (every {!Config.t.legalize_every} iterations) *)
  gap : float option;
      (** relative LB/UB gap at this iteration's probe, if taken *)
}

(** Optional per-transformation hooks. *)
type hooks = {
  reweight : (state -> unit) option;
      (** adapt [state.net_weights] before the solve (timing-driven §5) *)
  extra_density :
    (Netlist.Circuit.t -> Netlist.Placement.t -> nx:int -> ny:int ->
     Geometry.Grid2.t option)
    option;
      (** inject extra demand (congestion map, heat map — §5) *)
  on_step : (step_report -> unit) option;  (** observer *)
}

val no_hooks : hooks

(** [route_spec config circuit] is the routing-grid spec the closed
    routability loop bins the region with: the density grid's bin counts
    at {!Config.t.congest_pitch}.  A pure function of (config, circuit),
    so checkpoints need only store the target map's values. *)
val route_spec : Config.t -> Netlist.Circuit.t -> Route.Grid_spec.t

(** [init config circuit placement] builds a fresh state around (a copy
    of) [placement] with ~e = 0 and unit net weights.
    [?telemetry_level] (default 0) is the V-cycle stage stamped into
    telemetry records — purely observational, it never affects the
    trajectory. *)
val init :
  ?telemetry_level:int ->
  Config.t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  state

(** [restore config circuit ~placement ~ex ~ey ~net_weights ~iteration]
    rebuilds a state from externally saved mid-run data (the checkpoint
    path of the job engine).  The accumulated ~e vectors are what make
    mid-run state restartable: with [placement], [ex]/[ey],
    [net_weights] and [iteration] restored bitwise, the subsequent
    trajectory is bitwise-identical to the uninterrupted run — the QP
    assembly and kernel caches rebuilt here are value-transparent
    ({!Qp.System.rebuild} is bitwise {!Qp.System.build}).  The optional
    [controller] restores the convergence controller (penalty, envelope
    history) verbatim; omitting it starts a fresh schedule, which is only
    bitwise-faithful for iteration 0.  The optional [route_target]
    restores the congestion-target map of the routability loop the same
    way; omitting it starts from an all-zero map (fresh-run semantics).
    All inputs are copied (the target map is adopted as-is).  Raises
    [Invalid_argument] on length mismatches ([init] does too, for a
    placement of the wrong length). *)
val restore :
  ?telemetry_level:int ->
  Config.t ->
  Netlist.Circuit.t ->
  placement:Netlist.Placement.t ->
  ex:float array ->
  ey:float array ->
  net_weights:float array ->
  ?controller:Controller.t ->
  ?route_target:Route.Target.t ->
  iteration:int ->
  unit ->
  state

(** [transform ?hooks state] performs one placement transformation
    (§4.1): determine the density forces at the current placement, add
    them to ~e, rebuild the (possibly linearised) system through the
    cached assembly and solve eq. (3) holding ~e constant.  The CG
    tolerance follows the adaptive schedule of {!Config.t.cg_tol_loose}
    driven by the density overflow.

    When an {!Obs.Sink} is installed, each transformation additionally
    emits an {!Obs.Telemetry.iteration} record (HPWL, quadratic wire
    length, density overflow, force magnitudes, displacement, CG and
    kernel-cache statistics, per-phase wall-clock timings); phase
    timings also accumulate in the {!Obs.Registry} under
    ["placer/assemble" | "placer/density" | "placer/solve" |
    "placer/metrics"].  With no sink installed none of these metrics
    are computed.  Without a sink, an [on_step] hook or a UB probe due,
    the global HPWL is not computed either: the report's [hpwl] is
    [None] and {!Controller.lb} evaluates it on demand. *)
val transform : ?hooks:hooks -> state -> step_report

(** [converged state] is true when any stop criterion is satisfied: the
    §4.2 empty-square criterion ({!Density.Stop}), the controller's
    relative LB/UB gap falling to {!Config.t.stop_gap}, or — for
    degenerate circuits with fewer than two movable cells — one
    transformation having run.  The first criterion to fire is recorded
    in the controller as the {!stop_reason}. *)
val converged : state -> bool

(** [stop_reason state] is the first stop criterion that fired, if the
    run has stopped early (or exhausted {!Config.t.max_iterations} under
    {!continue_run}). *)
val stop_reason : state -> Controller.reason option

(** [run ?hooks config circuit placement] is the complete algorithm:
    initialise, transform until {!converged} or the iteration bound, and
    return the final state plus the per-step reports in order. *)
val run :
  ?hooks:hooks ->
  Config.t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  state * step_report list

(** [continue_run ?hooks state ~max_steps] applies up to [max_steps]
    further transformations to an existing state, stopping early when
    {!converged}; used by ECO and the timing-requirement mode. *)
val continue_run : ?hooks:hooks -> state -> max_steps:int -> step_report list
