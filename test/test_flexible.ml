(* Tests for flexible-block floorplanning. *)

let build_mixed ?(blocks = 4) ?(seed = 61) () =
  let prof = Circuitgen.Profiles.find "fract" in
  let params =
    { (Circuitgen.Profiles.params prof ~seed) with
      Circuitgen.Gen.num_blocks = blocks }
  in
  let circuit, pads = Circuitgen.Gen.generate params in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

let quick_config =
  { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 60 }

let test_reshape_preserves_area () =
  let circuit, p0 = build_mixed () in
  let circuit', chosen =
    Floorplan.Flexible.reshape_blocks circuit p0 ~ratios:[ 0.5; 1.0; 2.0 ]
  in
  Alcotest.(check int) "one ratio per block" 4 (List.length chosen);
  List.iter
    (fun (id, _) ->
      let before = Netlist.Cell.area circuit.Netlist.Circuit.cells.(id) in
      let after = Netlist.Cell.area circuit'.Netlist.Circuit.cells.(id) in
      Alcotest.(check (float 1e-6)) "area preserved" before after)
    chosen

let test_reshape_rows_aligned_heights () =
  let circuit, p0 = build_mixed () in
  let circuit', chosen =
    Floorplan.Flexible.reshape_blocks circuit p0 ~ratios:[ 0.25; 1.0; 4.0 ]
  in
  List.iter
    (fun (id, _) ->
      let h = circuit'.Netlist.Circuit.cells.(id).Netlist.Cell.height in
      let rows = h /. circuit.Netlist.Circuit.row_height in
      Alcotest.(check (float 1e-9)) "whole rows" (Float.round rows) rows)
    chosen

let test_reshape_non_blocks_untouched () =
  let circuit, p0 = build_mixed () in
  let circuit', _ =
    Floorplan.Flexible.reshape_blocks circuit p0 ~ratios:[ 1.0 ]
  in
  Array.iteri
    (fun i (cl : Netlist.Cell.t) ->
      if cl.Netlist.Cell.kind <> Netlist.Cell.Block then begin
        Alcotest.(check (float 0.)) "width" cl.Netlist.Cell.width
          circuit'.Netlist.Circuit.cells.(i).Netlist.Cell.width;
        Alcotest.(check (float 0.)) "height" cl.Netlist.Cell.height
          circuit'.Netlist.Circuit.cells.(i).Netlist.Cell.height
      end)
    circuit.Netlist.Circuit.cells

let test_reshape_rejects_bad_input () =
  let circuit, p0 = build_mixed () in
  Alcotest.(check bool) "empty ratios" true
    (try
       ignore (Floorplan.Flexible.reshape_blocks circuit p0 ~ratios:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative ratio" true
    (try
       ignore (Floorplan.Flexible.reshape_blocks circuit p0 ~ratios:[ -1. ]);
       false
     with Invalid_argument _ -> true)

let test_flexible_flow_legal () =
  let circuit, p0 = build_mixed () in
  let r =
    match Floorplan.Flexible.place quick_config circuit p0 with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let p = r.Floorplan.Flexible.mixed.Floorplan.Mixed.placement in
  Alcotest.(check bool) "legal" true
    (Legalize.Check.is_legal r.Floorplan.Flexible.circuit p);
  (* Reshaped blocks still non-overlapping. *)
  let rects =
    Floorplan.Mixed.block_rects r.Floorplan.Flexible.circuit p |> List.map snd
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if j > i then
            Alcotest.(check (float 1e-6)) "blocks disjoint" 0.
              (Geometry.Rect.overlap_area a b))
        rects)
    rects

let suite =
  [
    Alcotest.test_case "reshape preserves area" `Quick test_reshape_preserves_area;
    Alcotest.test_case "reshape row heights" `Quick test_reshape_rows_aligned_heights;
    Alcotest.test_case "non-blocks untouched" `Quick test_reshape_non_blocks_untouched;
    Alcotest.test_case "bad input rejected" `Quick test_reshape_rejects_bad_input;
    Alcotest.test_case "flexible flow legal" `Quick test_flexible_flow_legal;
  ]
