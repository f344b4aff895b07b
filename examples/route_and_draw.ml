(* Route a placed circuit with the coarse global router and render the
   placement with a congestion heat overlay to SVG.

     dune exec examples/route_and_draw.exe
     → writes placement.svg and congestion.svg in the current directory *)

let () =
  let profile = Circuitgen.Profiles.find "primary1" in
  let params = Circuitgen.Profiles.params profile ~seed:11 in
  let circuit, pads = Circuitgen.Gen.generate params in
  let initial = Circuitgen.Gen.initial_placement circuit pads in

  (* Place, then run the final placer. *)
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit initial in
  let placement =
    (Legalize.Finish.run circuit state.Kraftwerk.Placer.placement)
      .Legalize.Finish.placement
  in

  (* Route on a coarse grid and report. *)
  let nx, ny = Density.Density_map.auto_bins circuit in
  let routed =
    match
      Route.Grouter.route circuit placement (Route.Grid_spec.make ~nx ~ny ())
    with
    | Ok r -> r
    | Error e -> failwith (Route.Grid_spec.error_message e)
  in
  Printf.printf "placed hpwl      %.4g\n" (Metrics.Wirelength.hpwl circuit placement);
  Printf.printf "routed wirelength %.4g (%.2fx hpwl)\n"
    routed.Route.Grouter.total_wirelength
    (routed.Route.Grouter.total_wirelength
    /. Metrics.Wirelength.hpwl circuit placement);
  Printf.printf "overflow          %.4g (max %.4g), %d unroutable nets\n"
    routed.Route.Grouter.total_overflow routed.Route.Grouter.max_overflow
    routed.Route.Grouter.failed_nets;

  (* Plain placement picture. *)
  Viz.Svg.save "placement.svg" circuit placement;
  (* Congestion overlay: combined h+v usage per bin. *)
  let usage = Geometry.Grid2.create circuit.Netlist.Circuit.region ~nx ~ny in
  Geometry.Grid2.map_inplace
    (fun ix iy _ ->
      Geometry.Grid2.get routed.Route.Grouter.usage_h ix iy
      +. Geometry.Grid2.get routed.Route.Grouter.usage_v ix iy)
    usage;
  let options = { Viz.Svg.default_options with Viz.Svg.heat = Some usage } in
  Viz.Svg.save "congestion.svg" ~options circuit placement;
  print_endline "wrote placement.svg and congestion.svg"
