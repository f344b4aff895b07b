(* The density-side buffers of one state, reused by every
   transformation (the QP side lives in the assembly). *)
type work = {
  forces : Density.Forces.buffers;
  extra_sum : Geometry.Grid2.t; (* hook demand + target map, when both run *)
}

type state = {
  circuit : Netlist.Circuit.t;
  config : Config.t;
  var_of_cell : int array;
  n_movable : int;
  placement : Netlist.Placement.t;
  ex : float array;
  ey : float array;
  net_weights : float array;
  assembly : Qp.System.assembly;
  controller : Controller.t;
  telemetry_level : int;
  mutable iteration : int;
  route_target : Route.Target.t option;
      (** persistent congestion-target map of the closed routability
          loop; [Some] iff [config.congest_every > 0] on a non-degenerate
          grid *)
  demand : Geometry.Grid2.t;
  work : work;
}

type step_report = {
  step : int;
  hpwl : float;
  empty_square_area : float;
  force_scale : float;
  cg_iterations : int;
  penalty : float;
  ub_hpwl : float option;
  gap : float option;
}

type hooks = {
  reweight : (state -> unit) option;
  extra_density :
    (Netlist.Circuit.t -> Netlist.Placement.t -> nx:int -> ny:int ->
     Geometry.Grid2.t option)
    option;
  on_step : (step_report -> unit) option;
}

let no_hooks = { reweight = None; extra_density = None; on_step = None }

let grid_dims (config : Config.t) circuit =
  match config.Config.grid with
  | Some (nx, ny) -> (nx, ny)
  | None ->
    let nx, ny = Density.Density_map.auto_bins circuit in
    let s = config.Config.grid_scale in
    if s = 1.0 then (nx, ny)
    else
      let scaled n =
        Stdlib.max 4 (int_of_float (Float.round (s *. float_of_int n)))
      in
      (scaled nx, scaled ny)

(* The routing grid of the closed loop shares the density grid's bin
   counts so the target map can feed straight into the demand splat. *)
let route_spec (config : Config.t) circuit =
  let nx, ny = grid_dims config circuit in
  Route.Grid_spec.make ~wire_pitch:config.Config.congest_pitch ~nx ~ny ()

let fresh_route_target (config : Config.t) circuit =
  if config.Config.congest_every <= 0 then None
  else
    match
      Route.Target.create circuit.Netlist.Circuit.region
        (route_spec config circuit)
    with
    | Ok t -> Some t
    | Error _ -> None

(* The one state constructor.  [init] passes no saved data; [restore]
   passes a checkpoint's, which is validated and copied. *)
let make ?(telemetry_level = 0) ?ex ?ey ?net_weights ?controller ?route_target
    ?(iteration = 0) config circuit placement =
  let var_of_cell, n_movable = Qp.System.index_map circuit in
  let saved ~what n fill = function
    | None -> Array.make n fill
    | Some a ->
      if Array.length a <> n then
        invalid_arg (Printf.sprintf "Placer: %s length mismatch" what);
      Array.copy a
  in
  if
    Array.length placement.Netlist.Placement.x
    <> Netlist.Circuit.num_cells circuit
  then invalid_arg "Placer: placement length mismatch";
  let nx, ny = grid_dims config circuit in
  let placement = Netlist.Placement.copy placement in
  (* The first transformation of a job would otherwise pay Poisson kernel
     construction inside the hot loop (the cold-call spike in
     BENCH_kernels.json); build the spectra for the run's fixed grid now,
     while the caller is still in setup. *)
  Density.Forces.prewarm ~region:circuit.Netlist.Circuit.region ~nx ~ny;
  {
    circuit;
    config;
    var_of_cell;
    n_movable;
    placement;
    ex = saved ~what:"force-vector" n_movable 0. ex;
    ey = saved ~what:"force-vector" n_movable 0. ey;
    net_weights =
      saved ~what:"net-weight" (Netlist.Circuit.num_nets circuit) 1. net_weights;
    assembly =
      Qp.System.assembly circuit ~clique_cap:config.Config.clique_cap ();
    controller =
      (match controller with
      | Some c -> Controller.copy c
      | None -> Controller.create config);
    telemetry_level;
    iteration;
    route_target =
      (match route_target with
      | Some t -> Some t
      | None -> fresh_route_target config circuit);
    demand = Density.Density_map.demand circuit placement ~nx ~ny;
    work =
      {
        forces =
          Density.Forces.buffers circuit.Netlist.Circuit.region ~nx ~ny
            ~n_movable;
        extra_sum = Geometry.Grid2.create circuit.Netlist.Circuit.region ~nx ~ny;
      };
  }

let init ?telemetry_level config circuit placement =
  make ?telemetry_level config circuit placement

let restore ?telemetry_level config circuit ~placement ~ex ~ey ~net_weights
    ?controller ?route_target ~iteration () =
  make ?telemetry_level ~ex ~ey ~net_weights ?controller ?route_target
    ~iteration config circuit placement

let edge_scale state =
  if state.config.Config.linearize then
    Qp.Weights.Linearize
      (Qp.Weights.default_eps state.circuit.Netlist.Circuit.region)
  else Qp.Weights.Quadratic

(* Upper bound of the LB/UB envelope: wire length of a cheap legalized
   snapshot.  Tetris copies the placement internally, so probing never
   perturbs the trajectory. *)
let ub_snapshot state =
  match Legalize.Tetris.legalize state.circuit state.placement () with
  | Ok r ->
    Some
      (Metrics.Wirelength.hpwl state.circuit r.Legalize.Tetris.placement)
  | Error _ -> None

(* Magnitude statistics of the additional-force increment applied this
   transformation (after the reference-weight scaling). *)
let force_stats ~ref_weight (forces : Density.Forces.t) n =
  let max_m = ref 0. and sum_m = ref 0. in
  for v = 0 to n - 1 do
    let fx = ref_weight *. forces.Density.Forces.fx.(v) in
    let fy = ref_weight *. forces.Density.Forces.fy.(v) in
    let m = sqrt ((fx *. fx) +. (fy *. fy)) in
    if m > !max_m then max_m := m;
    sum_m := !sum_m +. m
  done;
  (!max_m, if n = 0 then 0. else !sum_m /. float_of_int n)

let transform ?(hooks = no_hooks) state =
  let cfg = state.config in
  let nx = Geometry.Grid2.nx state.demand
  and ny = Geometry.Grid2.ny state.demand in
  (* Telemetry is collected only when a sink listens; with no sink the
     per-iteration cost is this one ref read plus untaken branches. *)
  let collecting = Obs.Sink.active () in
  let phases = ref [] in
  let timed name f =
    if collecting then begin
      let t0 = Obs.Clock.now () in
      let r = f () in
      let dt = Obs.Clock.elapsed_since t0 in
      phases := (name, dt) :: !phases;
      Obs.Registry.observe ("placer/" ^ name) dt;
      r
    end
    else Obs.Timer.time ("placer/" ^ name) f
  in
  let cache_hits0, cache_misses0 = Numeric.Poisson.kernel_cache_stats () in
  let prev =
    if collecting then Some (Netlist.Placement.copy state.placement) else None
  in
  (match hooks.reweight with Some f -> f state | None -> ());
  (* Assemble first: linearised weights depend on the current placement,
     and the mean edge weight defines the "unit net" the force scaling
     of §4.1 refers to. *)
  let reused0, _ = Qp.System.assembly_stats state.assembly in
  let system =
    timed "assemble" (fun () ->
        Qp.System.rebuild state.assembly ~placement:state.placement
          ~net_weights:state.net_weights ~edge_scale:(edge_scale state)
          ~anchor_weight:cfg.Config.anchor_weight ~hold:cfg.Config.hold_weight
          ())
  in
  let reused1, pattern_rebuilds = Qp.System.assembly_stats state.assembly in
  let ctrl = state.controller in
  (* Closed routability loop (§5 / GOALPlace): on the cadence tick,
     estimate routing overflow on a cheap legalized snapshot of the
     current placement — "begin with the end in mind" — and fold it into
     the persistent target map with the annealed gain.  Off the tick the
     map just keeps contributing, so spreading anticipates congestion
     instead of reacting to the latest estimate only. *)
  (match state.route_target with
  | Some target when cfg.Config.congest_every > 0 ->
    if Controller.congest_due ctrl cfg then begin
      let probe =
        match
          timed "congest_legalize" (fun () ->
              Legalize.Tetris.legalize state.circuit state.placement ())
        with
        | Ok r -> r.Legalize.Tetris.placement
        | Error _ -> state.placement
      in
      let stats =
        timed "congest" (fun () ->
            Route.Target.refresh
              ~strength:ctrl.Controller.congest.Controller.strength
              ~decay:cfg.Config.congest_decay target state.circuit probe)
      in
      Controller.observe_congest ctrl
        ~est_overflow:stats.Route.Target.est_total_overflow
        ~est_max_overflow:stats.Route.Target.est_max_overflow
        ~target_area:stats.Route.Target.target_area
        ~clamped_bins:stats.Route.Target.clamped_bins;
      Controller.advance_congest ctrl cfg
    end
    else Controller.tick_congest ctrl
  | _ -> ());
  let extra =
    let hook_extra =
      match hooks.extra_density with
      | Some f -> f state.circuit state.placement ~nx ~ny
      | None -> None
    in
    let target_extra =
      match state.route_target with
      | Some t when Route.Target.area t > 0. -> Some (Route.Target.grid t)
      | _ -> None
    in
    match (hook_extra, target_extra) with
    | None, e | e, None -> e
    | Some h, Some t ->
      (* Both sources active: sum into the state's buffer; neither input
         is mutated (the target map must persist untouched). *)
      if Geometry.Grid2.nx h <> nx || Geometry.Grid2.ny h <> ny then
        invalid_arg "Density_map.balance: extra grid dimension mismatch";
      let g = state.work.extra_sum in
      let gv = Geometry.Grid2.values g
      and hv = Geometry.Grid2.values h
      and tv = Geometry.Grid2.values t in
      for i = 0 to Array.length gv - 1 do
        gv.(i) <- hv.(i) +. tv.(i)
      done;
      Some g
  in
  let forces =
    timed "density" (fun () ->
        Density.Forces.at_cells ~buffers:state.work.forces state.circuit
          state.placement
          ~demand:state.demand ~var_of_cell:state.var_of_cell
          ~n_movable:state.n_movable ~k_param:cfg.Config.k_param ?extra ())
  in
  let ref_weight = Qp.System.mean_edge_weight system in
  (* The density force is scaled by the controller's penalty, the
     multiplicative schedule replacing a static weight: spreading
     pressure ramps up as the run progresses. *)
  let penalty = state.controller.Controller.penalty in
  let drive = penalty *. ref_weight in
  let beta = cfg.Config.force_decay in
  for v = 0 to state.n_movable - 1 do
    state.ex.(v) <-
      (beta *. state.ex.(v)) +. (drive *. forces.Density.Forces.fx.(v));
    state.ey.(v) <-
      (beta *. state.ey.(v)) +. (drive *. forces.Density.Forces.fy.(v))
  done;
  (* Adaptive CG tolerance: while the density overflow is high the
     solution target is still moving, so a loose solve is enough; the
     tolerance tightens quadratically with the overflow down to cg_tol.
     The overflow signal is the one the density phase already computed
     from its demand splat. *)
  let tol =
    Float.max cfg.Config.cg_tol
      (Float.min cfg.Config.cg_tol_loose
         (cfg.Config.cg_tol_loose
         *. forces.Density.Forces.overflow *. forces.Density.Forces.overflow))
  in
  let sx, sy =
    timed "solve" (fun () ->
        Qp.System.solve ~tol system ~placement:state.placement ~ex:state.ex
          ~ey:state.ey)
  in
  Netlist.Placement.clamp_to_region state.circuit state.placement;
  state.iteration <- state.iteration + 1;
  (* The one splat of the new placement: the stop check, the telemetry
     overflow and the next transformation's forces all read it. *)
  let hpwl, empty_square_area =
    timed "metrics" (fun () ->
        Density.Density_map.demand_into state.circuit state.placement
          state.demand;
        ( Metrics.Wirelength.hpwl state.circuit state.placement,
          Density.Stop.largest_empty_square_area state.demand ))
  in
  Controller.observe_lb ctrl hpwl;
  let ub, gap =
    if Controller.legalization_due ctrl cfg then
      match timed "legalize" (fun () -> ub_snapshot state) with
      | Some ub ->
        Controller.observe_ub ctrl ~lb:hpwl ~ub;
        (Some ub, Some ctrl.Controller.gap)
      | None ->
        (* An unlegalizable snapshot carries no envelope information;
           reset the cadence rather than re-probing every iteration. *)
        ctrl.Controller.since_legalize <- 0;
        (None, None)
    else begin
      Controller.tick_legalize ctrl;
      (None, None)
    end
  in
  Controller.advance_penalty ctrl cfg;
  let report =
    {
      step = state.iteration;
      hpwl;
      empty_square_area;
      force_scale = forces.Density.Forces.scale *. drive;
      cg_iterations = sx.Numeric.Cg.iterations + sy.Numeric.Cg.iterations;
      penalty;
      ub_hpwl = ub;
      gap;
    }
  in
  if collecting then begin
    let cache_hits1, cache_misses1 = Numeric.Poisson.kernel_cache_stats () in
    let max_force, mean_force =
      force_stats ~ref_weight:drive forces state.n_movable
    in
    let displacement =
      match prev with
      | Some before -> Netlist.Placement.displacement before state.placement
      | None -> 0.
    in
    Obs.Sink.iteration
      {
        Obs.Telemetry.step = state.iteration;
        hpwl = report.hpwl;
        quadratic = Metrics.Wirelength.quadratic state.circuit state.placement;
        overflow = Density.Density_map.overflow state.circuit state.demand;
        empty_square_area = report.empty_square_area;
        force_scale = report.force_scale;
        max_force;
        mean_force;
        displacement;
        cg_iterations_x = sx.Numeric.Cg.iterations;
        cg_iterations_y = sy.Numeric.Cg.iterations;
        cg_residual_x = sx.Numeric.Cg.residual;
        cg_residual_y = sy.Numeric.Cg.residual;
        kernel_cache_hits = cache_hits1 - cache_hits0;
        kernel_cache_misses = cache_misses1 - cache_misses0;
        assembly_reused = reused1 > reused0;
        pattern_rebuilds;
        cg_tolerance = tol;
        penalty;
        lb_hpwl = report.hpwl;
        ub_hpwl = report.ub_hpwl;
        gap = report.gap;
        level = state.telemetry_level;
        congest_strength =
          (if cfg.Config.congest_every > 0 then
             ctrl.Controller.congest.Controller.strength
           else 0.);
        est_overflow =
          (let c = ctrl.Controller.congest in
           if
             cfg.Config.congest_every > 0
             && not (Float.is_nan c.Controller.est_overflow)
           then Some c.Controller.est_overflow
           else None);
        target_area = ctrl.Controller.congest.Controller.target_area;
        target_clamped = ctrl.Controller.congest.Controller.clamped_bins;
        phases = List.rev !phases;
      }
  end;
  (match hooks.on_step with Some f -> f report | None -> ());
  report

let converged state =
  let ctrl = state.controller in
  if state.n_movable = 0 then begin
    Controller.record_stop ctrl Controller.Density;
    true
  end
  else if state.n_movable < 2 then
    (* Degenerate circuit: one transformation puts the lone cell at its
       quadratic optimum; stop at iteration 1, in agreement with both
       criteria, instead of running the full schedule. *)
    state.iteration >= 1
    && begin
         Controller.record_stop ctrl Controller.Density;
         true
       end
  else if
    Density.Stop.should_stop ~multiplier:state.config.Config.stop_multiplier
      state.circuit state.demand
  then begin
    Controller.record_stop ctrl Controller.Density;
    true
  end
  else if
    Controller.gap_converged ctrl state.config ~n_movable:state.n_movable
      ~iteration:state.iteration
  then begin
    Controller.record_stop ctrl Controller.Gap;
    true
  end
  else false

let stop_reason state = state.controller.Controller.stop_reason

let continue_run ?(hooks = no_hooks) state ~max_steps =
  let reports = ref [] in
  let steps = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !steps < max_steps do
    if converged state then stopped := true
    else begin
      reports := transform ~hooks state :: !reports;
      incr steps
    end
  done;
  (* Only the global iteration bound counts as a max-steps stop; the
     small incremental budgets of ECO / timing-driven passes are not a
     verdict on convergence. *)
  if (not !stopped) && state.iteration >= state.config.Config.max_iterations
  then Controller.record_stop state.controller Controller.Max_steps;
  List.rev !reports

let run ?(hooks = no_hooks) config circuit placement =
  let state = init config circuit placement in
  let reports =
    continue_run ~hooks state ~max_steps:config.Config.max_iterations
  in
  (state, reports)
