type trace_point = { at_step : int; hpwl : float; delay : float }

type result = {
  placement : Netlist.Placement.t;
  initial_delay : float;
  final_delay : float;
  trace : trace_point list;
  met : bool;
}

let reweight params crit (state : Kraftwerk.Placer.state) =
  let sta =
    Sta.analyse params state.Kraftwerk.Placer.circuit
      state.Kraftwerk.Placer.placement
  in
  Criticality.update crit params ~net_slack:sta.Sta.net_slack;
  Criticality.apply_weights ~cap:params.Params.max_net_weight crit
    state.Kraftwerk.Placer.net_weights;
  sta

let reweight_hook params crit trace =
  fun (state : Kraftwerk.Placer.state) ->
    let sta = reweight params crit state in
    trace :=
      {
        at_step = state.Kraftwerk.Placer.iteration;
        hpwl =
          Metrics.Wirelength.hpwl state.Kraftwerk.Placer.circuit
            state.Kraftwerk.Placer.placement;
        delay = sta.Sta.max_delay;
      }
      :: !trace

let meet_requirement ?(params = Params.default) ?(max_extra_steps = 60) config
    circuit placement ~target =
  (* Phase 1: plain area-driven placement to convergence. *)
  let state, _ = Kraftwerk.Placer.run config circuit placement in
  let delay_of p = (Sta.analyse params circuit p).Sta.max_delay in
  let initial_delay = delay_of state.Kraftwerk.Placer.placement in
  (* Phase 2: weight-adapting transformations until the requirement is
     met — the analysis runs on the actual placement, so meeting it here
     means meeting it, full stop. *)
  let crit = Criticality.create (Netlist.Circuit.num_nets circuit) in
  let trace = ref [] in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.reweight = Some (reweight_hook params crit trace) }
  in
  let current = ref initial_delay in
  let steps = ref 0 in
  while !current > target && !steps < max_extra_steps do
    ignore (Kraftwerk.Placer.transform ~hooks state);
    current := delay_of state.Kraftwerk.Placer.placement;
    incr steps
  done;
  {
    placement = state.Kraftwerk.Placer.placement;
    initial_delay;
    final_delay = !current;
    trace = List.rev !trace;
    met = !current <= target;
  }

let exploitation ~unoptimized ~optimized ~lower_bound =
  let potential = unoptimized -. lower_bound in
  if potential <= 0. then 0. else (unoptimized -. optimized) /. potential
