(* Quickstart: generate a small circuit, run the force-directed global
   placer, run the final placer, and print quality metrics at each stage.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A benchmark circuit.  Profiles mirror the paper's Table 1; the
     netlist itself is synthetic (see DESIGN.md). *)
  let profile = Circuitgen.Profiles.find "primary1" in
  let params = Circuitgen.Profiles.params profile ~seed:42 in
  let circuit, pad_positions = Circuitgen.Gen.generate params in
  Printf.printf "circuit: %d cells, %d nets, %d rows, utilization %.0f%%\n"
    (Netlist.Circuit.num_cells circuit)
    (Netlist.Circuit.num_nets circuit)
    (Netlist.Circuit.num_rows circuit)
    (100. *. Netlist.Circuit.utilization circuit);

  (* 2. The paper's initial placement: movable cells at the region
     centre, pads pinned on the boundary. *)
  let initial = Circuitgen.Gen.initial_placement circuit pad_positions in

  (* 3. Iterative force-directed global placement (the paper's §4). *)
  let state, reports =
    Kraftwerk.Placer.run Kraftwerk.Config.standard circuit initial
  in
  let global = state.Kraftwerk.Placer.placement in
  Printf.printf "global placement: %d transformations, hpwl %.4g, overlap ratio %.2f\n"
    (List.length reports)
    (Metrics.Wirelength.hpwl circuit global)
    (Metrics.Overlap.overlap_ratio circuit global);

  (* 4. The final placer: Abacus legalisation, then the Improve and
     Domino local-improvement passes. *)
  let fin = Legalize.Finish.run circuit global in
  let final = fin.Legalize.Finish.placement in
  Printf.printf
    "final: hpwl %.4g (max legalisation displacement %.1f), improve %d moves \
     -%.4g, domino %d moves -%.4g\n"
    (Metrics.Wirelength.hpwl circuit final)
    fin.Legalize.Finish.abacus.Legalize.Abacus.max_displacement
    fin.Legalize.Finish.improve_moves fin.Legalize.Finish.improve_delta
    fin.Legalize.Finish.domino_moves fin.Legalize.Finish.domino_delta;
  Printf.printf "legal: %b\n" (Legalize.Check.is_legal circuit final)
