(* Tests for the mixed block/cell floorplanning flow. *)

let build_mixed ?(blocks = 4) ?(seed = 51) () =
  let prof = Circuitgen.Profiles.find "fract" in
  let params =
    { (Circuitgen.Profiles.params prof ~seed) with
      Circuitgen.Gen.num_blocks = blocks }
  in
  let circuit, pads = Circuitgen.Gen.generate params in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

let quick_config =
  { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 60 }

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let test_block_rects () =
  let circuit, p0 = build_mixed () in
  let rects = Floorplan.Mixed.block_rects circuit p0 in
  Alcotest.(check int) "four blocks" 4 (List.length rects);
  List.iter
    (fun (id, r) ->
      Alcotest.(check bool) "is block" true
        (circuit.Netlist.Circuit.cells.(id).Netlist.Cell.kind = Netlist.Cell.Block);
      Alcotest.(check bool) "positive area" true (Geometry.Rect.area r > 0.))
    rects

let test_legalize_blocks_no_overlaps () =
  let circuit, p0 = build_mixed () in
  (* Scatter blocks overlapping each other. *)
  let p = Netlist.Placement.copy p0 in
  List.iter
    (fun (id, _) ->
      p.Netlist.Placement.x.(id) <- 60.;
      p.Netlist.Placement.y.(id) <- 48.)
    (Floorplan.Mixed.block_rects circuit p);
  let moved = ok_or_fail (Floorplan.Mixed.legalize_blocks circuit p) in
  Alcotest.(check bool) "blocks moved" true (moved > 0.);
  let rects = List.map snd (Floorplan.Mixed.block_rects circuit p) in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if j > i then
            Alcotest.(check (float 1e-6)) "no pairwise overlap" 0.
              (Geometry.Rect.overlap_area a b))
        rects)
    rects

let test_legalize_blocks_row_aligned () =
  let circuit, p0 = build_mixed () in
  let p = Netlist.Placement.copy p0 in
  ignore (ok_or_fail (Floorplan.Mixed.legalize_blocks circuit p));
  let region = circuit.Netlist.Circuit.region in
  List.iter
    (fun (_, (r : Geometry.Rect.t)) ->
      let offset =
        (r.Geometry.Rect.y_lo -. region.Geometry.Rect.y_lo)
        /. circuit.Netlist.Circuit.row_height
      in
      Alcotest.(check (float 1e-6)) "bottom on row boundary"
        (Float.round offset) offset;
      Alcotest.(check bool) "inside region" true
        (Geometry.Rect.overlap_area r region >= Geometry.Rect.area r -. 1e-6))
    (Floorplan.Mixed.block_rects circuit p)

let test_full_flow_legal () =
  let circuit, p0 = build_mixed () in
  let result = ok_or_fail (Floorplan.Mixed.place quick_config circuit p0) in
  let p = result.Floorplan.Mixed.placement in
  Alcotest.(check bool) "cells legal" true (Legalize.Check.is_legal circuit p);
  (* Standard cells clear of blocks. *)
  let blocks = List.map snd (Floorplan.Mixed.block_rects circuit p) in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if cl.Netlist.Cell.kind = Netlist.Cell.Standard && Netlist.Cell.movable cl
      then begin
        let r = Netlist.Placement.cell_rect circuit p cl.Netlist.Cell.id in
        List.iter
          (fun b ->
            Alcotest.(check (float 1e-6)) "cell clear of block" 0.
              (Geometry.Rect.overlap_area r b))
          blocks
      end)
    circuit.Netlist.Circuit.cells

let test_flow_reports_consistent () =
  let circuit, p0 = build_mixed ~blocks:2 () in
  let result = ok_or_fail (Floorplan.Mixed.place quick_config circuit p0) in
  Alcotest.(check bool) "global hpwl positive" true
    (result.Floorplan.Mixed.hpwl_global > 0.);
  Alcotest.(check (float 1e-6)) "final hpwl matches placement"
    (Metrics.Wirelength.hpwl circuit result.Floorplan.Mixed.placement)
    result.Floorplan.Mixed.hpwl_final

let test_no_blocks_degenerates_to_plain_flow () =
  let circuit, p0 = build_mixed ~blocks:0 () in
  let result = ok_or_fail (Floorplan.Mixed.place quick_config circuit p0) in
  Alcotest.(check (float 0.)) "no block movement" 0.
    result.Floorplan.Mixed.block_displacement;
  Alcotest.(check bool) "legal" true
    (Legalize.Check.is_legal circuit result.Floorplan.Mixed.placement)

(* Two blocks each wider and taller than half the region cannot sit side
   by side: the flow reports it as an [Error] (and the CLI as one error
   line) instead of raising. *)
let overfull () =
  let circuit, p0 = build_mixed ~blocks:2 () in
  let region = circuit.Netlist.Circuit.region in
  let rh = circuit.Netlist.Circuit.row_height in
  let cells =
    Array.map
      (fun (cl : Netlist.Cell.t) ->
        if cl.Netlist.Cell.kind = Netlist.Cell.Block then
          {
            cl with
            Netlist.Cell.width = 0.6 *. Geometry.Rect.width region;
            height =
              rh *. Float.ceil (0.6 *. Geometry.Rect.height region /. rh);
          }
        else cl)
      circuit.Netlist.Circuit.cells
  in
  ( Netlist.Circuit.make ~name:"overfull" ~cells
      ~nets:(Netlist.Circuit.nets circuit) ~region ~row_height:rh,
    p0 )

let test_overfull_region_is_an_error () =
  let circuit, p0 = overfull () in
  let p = Netlist.Placement.copy p0 in
  (match Floorplan.Mixed.legalize_blocks circuit p with
  | Ok _ -> Alcotest.fail "legalize_blocks placed blocks that cannot fit"
  | Error msg ->
    Alcotest.(check bool) "names the misfit" true
      (Test_integration.contains msg "does not fit the region"));
  let config = { quick_config with Kraftwerk.Config.max_iterations = 5 } in
  (match Floorplan.Mixed.place config circuit p0 with
  | Ok _ -> Alcotest.fail "Mixed.place accepted an overfull region"
  | Error _ -> ());
  (match Floorplan.Flexible.place ~ratios:[ 1.0 ] config circuit p0 with
  | Ok _ -> Alcotest.fail "Flexible.place accepted an overfull region"
  | Error _ -> ());
  let ckt = Filename.temp_file "overfull" ".ckt" in
  Netlist.Io.save_circuit ckt circuit;
  Netlist.Io.save_placement (ckt ^ ".pos") p0;
  let code, _, err =
    Test_server.run_place
      [ "run"; "--circuit"; ckt; "--flow"; "floorplan"; "--mode"; "fast" ]
  in
  Sys.remove ckt;
  Sys.remove (ckt ^ ".pos");
  Alcotest.(check int) "cli exits 2" 2 code;
  Alcotest.(check (list string)) "one error line"
    [ "place: floorplan: block"; "" ]
    (match String.split_on_char '\n' err with
    | [ line; "" ] -> [ String.sub line 0 (min 23 (String.length line)); "" ]
    | lines -> lines)

let suite =
  [
    Alcotest.test_case "block rects" `Quick test_block_rects;
    Alcotest.test_case "block legalisation overlaps" `Quick test_legalize_blocks_no_overlaps;
    Alcotest.test_case "block row alignment" `Quick test_legalize_blocks_row_aligned;
    Alcotest.test_case "full flow legal" `Quick test_full_flow_legal;
    Alcotest.test_case "reports consistent" `Quick test_flow_reports_consistent;
    Alcotest.test_case "no blocks" `Quick test_no_blocks_degenerates_to_plain_flow;
    Alcotest.test_case "overfull region is an error" `Quick
      test_overfull_region_is_an_error;
  ]
