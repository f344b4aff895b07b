(* Congestion- and heat-driven placement (paper §5): a routing-congestion
   or temperature map is read as extra density demand, so the placement
   and the map converge together.  Congestion runs through the closed
   routability loop ([Kraftwerk.Config.routability]); heat through the
   placer's extra-density hook.

     dune exec examples/congestion_heat.exe *)

let () =
  let profile = Circuitgen.Profiles.find "primary1" in
  let params = Circuitgen.Profiles.params profile ~seed:13 in
  let circuit, pads = Circuitgen.Gen.generate params in
  let initial = Circuitgen.Gen.initial_placement circuit pads in
  let nx, ny = Density.Density_map.auto_bins circuit in
  let spec = Route.Grid_spec.make ~nx ~ny () in
  let est_ok = function
    | Ok e -> e
    | Error e -> failwith (Route.Grid_spec.error_message e)
  in

  (* Reference: plain area-driven placement. *)
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit initial in
  let plain = state.Kraftwerk.Placer.placement in
  let plain_cong = est_ok (Route.Congest.estimate circuit plain spec) in
  let plain_heat = Route.Heat.analyse circuit plain ~nx ~ny in
  Printf.printf "plain:      hpwl %.4g  overflow %.4g  peak heat %.3g\n"
    (Metrics.Wirelength.hpwl circuit plain)
    plain_cong.Route.Congest.total_overflow plain_heat.Route.Heat.peak;

  (* Congestion-driven: the closed routability loop, which folds the
     estimated overflow into persistent per-bin density targets. *)
  let state, _ =
    Kraftwerk.Placer.run
      (Kraftwerk.Config.routability Kraftwerk.Config.standard)
      circuit initial
  in
  let cong_placed = state.Kraftwerk.Placer.placement in
  let cong = est_ok (Route.Congest.estimate circuit cong_placed spec) in
  Printf.printf "congestion: hpwl %.4g  overflow %.4g (%+.0f%%)\n"
    (Metrics.Wirelength.hpwl circuit cong_placed)
    cong.Route.Congest.total_overflow
    (100.
    *. (cong.Route.Congest.total_overflow -. plain_cong.Route.Congest.total_overflow)
    /. Float.max plain_cong.Route.Congest.total_overflow 1e-9);

  (* Heat-driven: the same hook with the temperature map. *)
  let heat_hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.extra_density =
        Some
          (fun c p ~nx ~ny -> Route.Heat.extra_density ~strength:1.0 c p ~nx ~ny) }
  in
  let state, _ =
    Kraftwerk.Placer.run ~hooks:heat_hooks Kraftwerk.Config.standard circuit initial
  in
  let heat_placed = state.Kraftwerk.Placer.placement in
  let heat = Route.Heat.analyse circuit heat_placed ~nx ~ny in
  Printf.printf "heat:       hpwl %.4g  peak heat %.3g (%+.0f%%)\n"
    (Metrics.Wirelength.hpwl circuit heat_placed)
    heat.Route.Heat.peak
    (100. *. (heat.Route.Heat.peak -. plain_heat.Route.Heat.peak)
    /. Float.max plain_heat.Route.Heat.peak 1e-30)
