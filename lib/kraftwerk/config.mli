(** Configuration of the Kraftwerk placer. *)

type t = {
  k_param : float;
      (** the paper's K: force-scaling aggressiveness and hence speed of
          convergence; 0.2 standard, 1.0 fast (§4.2) *)
  max_iterations : int;  (** safety bound on placement transformations *)
  linearize : bool;
      (** apply the GORDIAN-L net-weight linearisation each
          transformation (§4.1, [14]).  Off by default: under continuous
          force injection the down-weighted long edges recover locality
          too slowly and final wire length suffers — see the
          "linearization" ablation in EXPERIMENTS.md. *)
  clique_cap : int;  (** nets above this degree use the sampled model *)
  anchor_weight : float;
      (** relative weight of the positive-definiteness anchor springs *)
  hold_weight : float;
      (** damping springs toward the current position, relative to each
          cell's incident stiffness; 0 disables (see {!Qp.System.build}) *)
  force_decay : float;
      (** leak factor β applied to the accumulated force vector before
          each new increment (e ← β·e + f).  1.0 is the paper's pure
          accumulation; values slightly below 1 let the overshoot noise
          of early transformations bleed out while the converged
          spreading force is maintained. *)
  stop_multiplier : float;
      (** the stopping criterion's multiple of the average cell area
          (4.0 in §4.2) *)
  grid : (int * int) option;
      (** density-grid bins (nx, ny); [None] picks automatically *)
  domains : int option;
      (** domain-pool size for the parallel kernels.  [None] defers to
          the [KRAFTWERK_DOMAINS] environment variable / hardware
          default; [Some 1] forces exact sequential execution (results
          are bitwise-reproducible at any setting, but [1] also takes
          the historical single-core code paths).  Applied by
          {!Placer.init} via {!Numeric.Parallel.set_num_domains}. *)
  cg_tol : float;
      (** tight relative CG tolerance used once the placement has nearly
          converged (default 1e-8) *)
  cg_tol_loose : float;
      (** loose relative CG tolerance while density overflow is still
          high (default 1e-5).  Each transformation solves to
          [max cg_tol (min cg_tol_loose (cg_tol_loose · overflow²))] —
          early transformations are dominated by the still-moving
          density forces, so solving them to 1e-8 buys nothing; the
          tolerance tightens quadratically as the overflow falls.
          Set equal to [cg_tol] to disable the schedule. *)
  grid_scale : float;
      (** multiplier on the automatic density-grid bin counts (ignored
          when [grid] pins them explicitly).  Coarser grids (< 1) smooth
          the density field and speed up low-effort runs; finer grids
          (> 1) sharpen it for high-effort runs. *)
  stop_gap : float;
      (** relative LB/UB gap [(ub - lb) / ub] at which the convergence
          controller stops the loop (requires at least two legalized
          snapshots).  Non-positive disables the gap-target criterion. *)
  stop_stall : int;
      (** stop once this many consecutive UB probes fail to improve the
          best legalized snapshot by more than
          {!Controller.stall_tolerance} — the envelope has stalled and
          further iterations no longer buy legalized quality.
          Non-positive disables the stall criterion. *)
  legalize_every : int;
      (** iterations between legalized upper-bound snapshots; 0 disables
          the UB probe (and with it the gap criterion). *)
  penalty_initial : float;
      (** starting multiplier of the density force *)
  penalty_update : float;
      (** multiplicative growth of the penalty each transformation *)
  penalty_max : float;  (** saturation value of the penalty schedule *)
  ml_threshold : int;
      (** multilevel V-cycle ({!Cluster.start}): keep coarsening while
          the current level has more cells than this.  The flat circuit
          is always coarsened at least once (the historical two-level
          flow); a run only degenerates to flat when clustering makes no
          progress. *)
  ml_max_levels : int;
      (** hard cap on the number of coarsening levels of the V-cycle *)
  ml_refine_iters : int;
      (** per-level budget of refinement transformations after
          unclustering (the coarsest level runs the full
          controller-driven loop under [max_iterations]) *)
  ml_grid_scale : float;
      (** extra multiplier on [grid_scale] applied once per coarsening
          level, so coarse levels can run on coarser density grids
          (1.0 leaves every level at the automatic resolution) *)
  ml_seed : int;
      (** RNG seed of the FirstChoice clustering pass; level [l]
          clusters with [ml_seed + l], so trajectories are a pure
          function of (circuit, config) *)
  congest_every : int;
      (** iterations between congestion-target refreshes of the closed
          routability loop: every cadence tick the placer estimates
          routing overflow on a cheap legalized snapshot and folds it
          into a persistent per-bin density-target map that the density
          machinery reads as extra demand.  0 (the default) disables the
          loop entirely — trajectories are bitwise those of the
          wirelength objective. *)
  congest_strength : float;
      (** initial feedback gain of the congestion loop: each refresh
          adds [strength × overflow × pitch] area demand per bin *)
  congest_update : float;
      (** multiplicative anneal of the gain per refresh (≥ 1), the
          congestion analogue of [penalty_update] *)
  congest_max : float;  (** saturation value of the gain schedule *)
  congest_decay : float;
      (** retention of the previous target map per refresh in [0, 1);
          targets decay geometrically once a hotspot dissolves *)
  congest_pitch : float;
      (** wire pitch of the loop's routing grid ({!Route.Grid_spec}).
          Deliberately coarser than {!Route.Grid_spec.default_wire_pitch}:
          the loop wants a capacity model tight enough that hotspots show
          up while the placement still has freedom to dissolve them *)
}

(** [standard] is the configuration behind the Table-1 "Our Approach"
    column of EXPERIMENTS.md.  The paper's K = 0.2 is calibrated to this
    implementation's force-scaling convention as K = 0.05 with force
    leak β = 0.8 (see DESIGN.md, "calibration"). *)
val standard : t

(** [fast] trades wire length for a several-fold reduction in
    transformations, reproducing the paper's §6.1 fast mode
    (its K = 1.0). *)
val fast : t

(** [effort e] with [e] in 1..9 bundles CG tolerances, density-grid
    resolution, legalization cadence, stop gap/stall patience and penalty
    ramp into a single quality-vs-latency knob.  [effort 5 = standard];
    effort 1 ramps the density penalty for fast spreading and stops on a
    20 % envelope gap (or the first stalled probe) after at most 100
    transformations, effort 9 keeps the calibrated weight and demands a
    3 % gap or five stalled probes on a finer grid.
    @raise Invalid_argument outside 1..9. *)
val effort : int -> t

(** [routability base] overlays the congestion closed loop on any base
    preset: [congest_every] switches from 0 to 5 while everything the
    base tuned stays put.  Used by the engine's [routability]
    objective. *)
val routability : t -> t

val pp : Format.formatter -> t -> unit
