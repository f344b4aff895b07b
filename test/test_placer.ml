(* Tests for the iterative Kraftwerk placer and ECO support. *)

let build ?(name = "fract") ?(scale = 1.0) ?(seed = 21) () =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed)
  in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

let quick_config =
  { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 40 }

let test_run_spreads_cells () =
  let circuit, p0 = build () in
  let before = Metrics.Overlap.overlap_ratio circuit p0 in
  let state, reports = Kraftwerk.Placer.run quick_config circuit p0 in
  let after = Metrics.Overlap.overlap_ratio circuit state.Kraftwerk.Placer.placement in
  Alcotest.(check bool) "ran" true (List.length reports > 0);
  Alcotest.(check bool) "overlap reduced a lot" true (after < before /. 5.)

let test_run_keeps_cells_in_region () =
  let circuit, p0 = build () in
  let state, _ = Kraftwerk.Placer.run quick_config circuit p0 in
  Alcotest.(check (float 1e-6)) "nothing outside" 0.
    (Metrics.Overlap.out_of_region_area circuit state.Kraftwerk.Placer.placement)

let test_fixed_cells_never_move () =
  let circuit, p0 = build () in
  let pads_before =
    Array.to_list circuit.Netlist.Circuit.cells
    |> List.filter_map (fun (cl : Netlist.Cell.t) ->
           if cl.Netlist.Cell.fixed then
             Some (p0.Netlist.Placement.x.(cl.Netlist.Cell.id),
                   p0.Netlist.Placement.y.(cl.Netlist.Cell.id))
           else None)
  in
  let state, _ = Kraftwerk.Placer.run quick_config circuit p0 in
  let p = state.Kraftwerk.Placer.placement in
  let pads_after =
    Array.to_list circuit.Netlist.Circuit.cells
    |> List.filter_map (fun (cl : Netlist.Cell.t) ->
           if cl.Netlist.Cell.fixed then
             Some (p.Netlist.Placement.x.(cl.Netlist.Cell.id),
                   p.Netlist.Placement.y.(cl.Netlist.Cell.id))
           else None)
  in
  Alcotest.(check bool) "pads pinned" true (pads_before = pads_after)

let test_deterministic () =
  let circuit, p0 = build () in
  let s1, _ = Kraftwerk.Placer.run quick_config circuit p0 in
  let s2, _ = Kraftwerk.Placer.run quick_config circuit p0 in
  Alcotest.(check (float 0.)) "identical runs" 0.
    (Netlist.Placement.displacement s1.Kraftwerk.Placer.placement
       s2.Kraftwerk.Placer.placement)

let test_input_placement_not_mutated () =
  let circuit, p0 = build () in
  let x0 = Array.copy p0.Netlist.Placement.x in
  ignore (Kraftwerk.Placer.run quick_config circuit p0);
  Alcotest.(check bool) "input intact" true
    (Helpers.max_abs_diff x0 p0.Netlist.Placement.x = 0.)

let test_transform_reports_progress () =
  let circuit, p0 = build () in
  let state = Kraftwerk.Placer.init quick_config circuit p0 in
  let r1 = Kraftwerk.Placer.transform state in
  let r2 = Kraftwerk.Placer.transform state in
  Alcotest.(check int) "step 1" 1 r1.Kraftwerk.Placer.step;
  Alcotest.(check int) "step 2" 2 r2.Kraftwerk.Placer.step;
  Alcotest.(check bool) "hpwl positive" true
    (Kraftwerk.Controller.lb state.Kraftwerk.Placer.controller > 0.)

let test_fast_mode_converges_in_fewer_steps () =
  let circuit, p0 = build ~name:"primary1" ~scale:0.5 () in
  let _, std_reports =
    Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0
  in
  let _, fast_reports = Kraftwerk.Placer.run Kraftwerk.Config.fast circuit p0 in
  Alcotest.(check bool) "fast uses fewer transformations" true
    (List.length fast_reports < List.length std_reports)

let test_on_step_hook_called () =
  let circuit, p0 = build () in
  let calls = ref 0 in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.on_step = Some (fun _ -> incr calls) }
  in
  let _, reports = Kraftwerk.Placer.run ~hooks quick_config circuit p0 in
  Alcotest.(check int) "hook per step" (List.length reports) !calls

let test_reweight_hook_applied () =
  let circuit, p0 = build () in
  let seen_weight = ref 0. in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.reweight =
        Some
          (fun state ->
            state.Kraftwerk.Placer.net_weights.(0) <- 5.;
            seen_weight := state.Kraftwerk.Placer.net_weights.(0)) }
  in
  let state = Kraftwerk.Placer.init quick_config circuit p0 in
  ignore (Kraftwerk.Placer.transform ~hooks state);
  Alcotest.(check (float 0.)) "weight set" 5. !seen_weight;
  Alcotest.(check (float 0.)) "weight persisted" 5.
    state.Kraftwerk.Placer.net_weights.(0)

let test_force_decay_leaks () =
  let circuit, p0 = build () in
  let cfg = { quick_config with Kraftwerk.Config.force_decay = 0. } in
  (* β = 0: e is exactly the latest increment; two transforms with an
     identical placement would give identical e.  We just check the run
     still spreads and stays sane. *)
  let state, _ = Kraftwerk.Placer.run cfg circuit p0 in
  Alcotest.(check bool) "finite hpwl" true
    (Float.is_finite (Metrics.Wirelength.hpwl circuit state.Kraftwerk.Placer.placement))

let test_converged_matches_stop_criterion () =
  let circuit, p0 = build () in
  let state, _ =
    Kraftwerk.Placer.run
      { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 300 }
      circuit p0
  in
  (* After a full run either the criterion holds or we hit the bound. *)
  Alcotest.(check bool) "converged or capped" true
    (Kraftwerk.Placer.converged state || state.Kraftwerk.Placer.iteration >= 300)

(* The stop check reads the demand grid the transformation already
   splatted, so it allocates nothing per cell (a splat costs a Rect per
   cell). *)
let test_converged_allocation () =
  let circuit, p0 = build ~name:"primary1" () in
  let state = Kraftwerk.Placer.init Kraftwerk.Config.standard circuit p0 in
  ignore (Kraftwerk.Placer.transform state);
  ignore (Kraftwerk.Placer.converged state);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Kraftwerk.Placer.converged state));
  let words = Gc.minor_words () -. before in
  let cells = Netlist.Circuit.num_cells circuit in
  Alcotest.(check bool)
    (Printf.sprintf "converged allocates %.0f words, fewer than %d cells" words
       cells)
    true
    (words < float_of_int cells)

(* Words allocated by [f], counted as minor + major − promoted (arrays
   above 256 words skip the minor heap). *)
let allocated_by f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* A steady-state transformation — assembly, density forces, solve,
   splat, stop measures — reuses the state's and the assembly's buffers:
   with no sink installed and no UB probe due it allocates fewer words
   than the circuit has cells. *)
let test_transform_allocation () =
  let circuit, p0 = build ~name:"primary1" () in
  let state = Kraftwerk.Placer.init Kraftwerk.Config.standard circuit p0 in
  for _ = 1 to 3 do
    ignore (Kraftwerk.Placer.transform state)
  done;
  let ctrl = state.Kraftwerk.Placer.controller in
  while Kraftwerk.Controller.legalization_due ctrl state.Kraftwerk.Placer.config do
    ignore (Kraftwerk.Placer.transform state)
  done;
  Alcotest.(check bool) "no sink" false (Obs.Sink.active ());
  let words = allocated_by (fun () -> Kraftwerk.Placer.transform state) in
  let cells = Netlist.Circuit.num_cells circuit in
  Alcotest.(check bool)
    (Printf.sprintf "transform allocates %.0f words, fewer than %d cells" words
       cells)
    true
    (words < float_of_int cells)

(* --- ECO --- *)

let test_eco_rewire_counts_preserved () =
  let circuit, _ = build () in
  let rng = Numeric.Rng.create 1 in
  let circuit' = Kraftwerk.Eco.rewire circuit rng ~fraction:0.3 in
  Alcotest.(check int) "cells" (Netlist.Circuit.num_cells circuit)
    (Netlist.Circuit.num_cells circuit');
  Alcotest.(check int) "nets" (Netlist.Circuit.num_nets circuit)
    (Netlist.Circuit.num_nets circuit')

let test_eco_rewire_changes_some_nets () =
  let circuit, _ = build () in
  let rng = Numeric.Rng.create 1 in
  let circuit' = Kraftwerk.Eco.rewire circuit rng ~fraction:0.5 in
  let changed = ref 0 in
  for i = 0 to Netlist.Circuit.num_nets circuit - 1 do
    if Netlist.Circuit.net_cells circuit i <> Netlist.Circuit.net_cells circuit' i
    then incr changed
  done;
  Alcotest.(check bool) "some rewired" true (!changed > 10)

let test_eco_resize_only_widths () =
  let circuit, _ = build () in
  let rng = Numeric.Rng.create 2 in
  let circuit' =
    Kraftwerk.Eco.resize circuit rng ~fraction:1.0 ~scale_range:(2.0, 2.0)
  in
  Array.iteri
    (fun i (cl : Netlist.Cell.t) ->
      let cl' = circuit'.Netlist.Circuit.cells.(i) in
      if cl.Netlist.Cell.kind = Netlist.Cell.Standard && Netlist.Cell.movable cl
      then
        Alcotest.(check (float 1e-9)) "doubled"
          (2. *. cl.Netlist.Cell.width)
          cl'.Netlist.Cell.width
      else
        Alcotest.(check (float 1e-9)) "untouched" cl.Netlist.Cell.width
          cl'.Netlist.Cell.width)
    circuit.Netlist.Circuit.cells

let test_eco_add_cells () =
  let circuit, p0 = build () in
  let rng = Numeric.Rng.create 3 in
  let circuit', p' =
    Kraftwerk.Eco.add_cells circuit p0 rng ~specs:[ (10., 16.); (12., 16.) ]
  in
  Alcotest.(check int) "two more cells"
    (Netlist.Circuit.num_cells circuit + 2)
    (Netlist.Circuit.num_cells circuit');
  Alcotest.(check int) "two more nets"
    (Netlist.Circuit.num_nets circuit + 2)
    (Netlist.Circuit.num_nets circuit');
  Alcotest.(check int) "placement extended"
    (Netlist.Circuit.num_cells circuit')
    (Array.length p'.Netlist.Placement.x);
  (* Old coordinates preserved. *)
  Alcotest.(check bool) "prefix intact" true
    (Array.sub p'.Netlist.Placement.x 0 (Netlist.Circuit.num_cells circuit)
    = p0.Netlist.Placement.x)

let test_eco_replace_small_displacement () =
  let circuit, p0 = build ~name:"primary1" ~scale:0.5 () in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let placed = state.Kraftwerk.Placer.placement in
  let rng = Numeric.Rng.create 4 in
  let circuit' = Kraftwerk.Eco.rewire circuit rng ~fraction:0.02 in
  let adapted, _ =
    Kraftwerk.Eco.replace Kraftwerk.Config.standard circuit'
      (Netlist.Placement.copy placed) ~max_steps:8
  in
  let region = circuit.Netlist.Circuit.region in
  let diag =
    sqrt (((Geometry.Rect.width region) ** 2.) +. ((Geometry.Rect.height region) ** 2.))
  in
  let mean =
    Netlist.Placement.displacement placed adapted
    /. float_of_int (Netlist.Circuit.num_movable circuit)
  in
  Alcotest.(check bool) "mean displacement under 10% of diagonal" true
    (mean < 0.10 *. diag)

let suite =
  [
    Alcotest.test_case "run spreads cells" `Quick test_run_spreads_cells;
    Alcotest.test_case "cells stay in region" `Quick test_run_keeps_cells_in_region;
    Alcotest.test_case "fixed cells pinned" `Quick test_fixed_cells_never_move;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "input not mutated" `Quick test_input_placement_not_mutated;
    Alcotest.test_case "transform reports" `Quick test_transform_reports_progress;
    Alcotest.test_case "fast mode fewer steps" `Slow test_fast_mode_converges_in_fewer_steps;
    Alcotest.test_case "on_step hook" `Quick test_on_step_hook_called;
    Alcotest.test_case "reweight hook" `Quick test_reweight_hook_applied;
    Alcotest.test_case "force decay 0" `Quick test_force_decay_leaks;
    Alcotest.test_case "transform allocation" `Quick test_transform_allocation;
    Alcotest.test_case "converged consistent" `Slow test_converged_matches_stop_criterion;
    Alcotest.test_case "converged allocation" `Quick test_converged_allocation;
    Alcotest.test_case "eco rewire counts" `Quick test_eco_rewire_counts_preserved;
    Alcotest.test_case "eco rewire changes" `Quick test_eco_rewire_changes_some_nets;
    Alcotest.test_case "eco resize widths" `Quick test_eco_resize_only_widths;
    Alcotest.test_case "eco add cells" `Quick test_eco_add_cells;
    Alcotest.test_case "eco replace stable" `Slow test_eco_replace_small_displacement;
  ]
