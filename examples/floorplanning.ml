(* Mixed block/cell floorplanning (paper §5): macro blocks and standard
   cells are placed together by the same force-directed iteration — the
   density model treats a block as nothing more than a big cell — and
   the blocks are then snapped and de-overlapped.

     dune exec examples/floorplanning.exe *)

let () =
  let base = Circuitgen.Profiles.find "primary1" in
  let params =
    { (Circuitgen.Profiles.params base ~seed:3) with
      Circuitgen.Gen.name = "primary1+blocks";
      Circuitgen.Gen.num_blocks = 8 }
  in
  let circuit, pads = Circuitgen.Gen.generate params in
  let blocks =
    Array.to_list circuit.Netlist.Circuit.cells
    |> List.filter (fun (cl : Netlist.Cell.t) ->
           cl.Netlist.Cell.kind = Netlist.Cell.Block)
  in
  Printf.printf "mixed design: %d standard cells + %d blocks (%.0f%% of cell area)\n"
    (Netlist.Circuit.num_cells circuit - List.length blocks
    - (Array.length circuit.Netlist.Circuit.cells
      - Netlist.Circuit.num_movable circuit))
    (List.length blocks)
    (100.
    *. (List.fold_left (fun a c -> a +. Netlist.Cell.area c) 0. blocks
       /. Netlist.Circuit.total_cell_area circuit));

  let initial = Circuitgen.Gen.initial_placement circuit pads in
  let result =
    match Floorplan.Mixed.place Kraftwerk.Config.standard circuit initial with
    | Ok r -> r
    | Error msg -> prerr_endline msg; exit 1
  in
  Printf.printf "global hpwl   %.4g\n" result.Floorplan.Mixed.hpwl_global;
  Printf.printf "final  hpwl   %.4g (blocks moved %.1f total during snapping)\n"
    result.Floorplan.Mixed.hpwl_final result.Floorplan.Mixed.block_displacement;
  Printf.printf "cells displaced %.1f on average during legalisation\n"
    (result.Floorplan.Mixed.finish.Legalize.Finish.abacus
       .Legalize.Abacus.total_displacement
    /. float_of_int (Netlist.Circuit.num_movable circuit));

  (* Blocks must not overlap each other after the flow. *)
  let rects = Floorplan.Mixed.block_rects circuit result.Floorplan.Mixed.placement in
  let overlaps = ref 0 in
  List.iteri
    (fun i (_, a) ->
      List.iteri
        (fun j (_, b) ->
          if j > i && Geometry.Rect.overlap_area a b > 1e-6 then incr overlaps)
        rects)
    rects;
  Printf.printf "block overlaps after legalisation: %d\n" !overlaps
