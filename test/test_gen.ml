(* Tests for the synthetic circuit generator and the Table-1 profiles. *)

let generate ?(scale = 0.3) ?(seed = 17) name =
  let prof = Circuitgen.Profiles.find name in
  Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed)

let test_deterministic () =
  let c1, f1 = generate "primary1" in
  let c2, f2 = generate "primary1" in
  Alcotest.(check int) "cells" (Netlist.Circuit.num_cells c1)
    (Netlist.Circuit.num_cells c2);
  Alcotest.(check int) "nets" (Netlist.Circuit.num_nets c1)
    (Netlist.Circuit.num_nets c2);
  Alcotest.(check bool) "pads equal" true (f1 = f2);
  (* Spot-check net structure equality. *)
  for i = 0 to Netlist.Circuit.num_nets c1 - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "net %d" i)
      (Netlist.Circuit.net_cells c1 i)
      (Netlist.Circuit.net_cells c2 i)
  done

let test_seed_changes_netlist () =
  let c1, _ = generate ~seed:1 "fract" in
  let c2, _ = generate ~seed:2 "fract" in
  let cells c =
    List.init (Netlist.Circuit.num_nets c) (Netlist.Circuit.net_cells c)
  in
  Alcotest.(check bool) "different nets" true (cells c1 <> cells c2)

let test_counts_match_profile () =
  let prof = Circuitgen.Profiles.find "fract" in
  let params = Circuitgen.Profiles.params ~scale:1.0 prof ~seed:3 in
  let c, _ = Circuitgen.Gen.generate params in
  let standard =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter (fun (cl : Netlist.Cell.t) ->
           cl.Netlist.Cell.kind = Netlist.Cell.Standard)
  in
  Alcotest.(check int) "standard cells" prof.Circuitgen.Profiles.cells
    (List.length standard)

let test_utilization_near_target () =
  let c, _ = generate "struct" in
  let u = Netlist.Circuit.utilization c in
  Alcotest.(check bool) "within 5% of 0.8" true (u > 0.75 && u < 0.85)

let test_pads_on_boundary_and_fixed () =
  let c, fixed = generate "primary1" in
  let region = c.Netlist.Circuit.region in
  List.iter
    (fun (id, (px, py)) ->
      let cl = c.Netlist.Circuit.cells.(id) in
      Alcotest.(check bool) "is pad" true (cl.Netlist.Cell.kind = Netlist.Cell.Pad);
      Alcotest.(check bool) "fixed" true cl.Netlist.Cell.fixed;
      let on_edge =
        Float.abs (px -. region.Geometry.Rect.x_lo) < 1e-9
        || Float.abs (px -. region.Geometry.Rect.x_hi) < 1e-9
        || Float.abs (py -. region.Geometry.Rect.y_lo) < 1e-9
        || Float.abs (py -. region.Geometry.Rect.y_hi) < 1e-9
      in
      Alcotest.(check bool) "on boundary" true on_edge)
    fixed

let test_no_isolated_internal_cells () =
  let c, _ = generate "struct" in
  let connected = Array.make (Netlist.Circuit.num_cells c) false in
  Array.iter (fun cid -> connected.(cid) <- true) c.Netlist.Circuit.pin_cell;
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then
        Alcotest.(check bool)
          (Printf.sprintf "cell %d connected" cl.Netlist.Cell.id)
          true
          connected.(cl.Netlist.Cell.id))
    c.Netlist.Circuit.cells

let test_acyclic_for_sta () =
  let c, fixed = generate "biomed" in
  let p = Circuitgen.Gen.initial_placement c fixed in
  (* Raises on combinational cycles. *)
  let sta = Timing.Sta.analyse Timing.Params.default c p in
  Alcotest.(check bool) "positive delay" true (sta.Timing.Sta.max_delay > 0.)

let test_huge_nets_present_for_avq () =
  let prof = Circuitgen.Profiles.find "avq.small" in
  let params = Circuitgen.Profiles.params ~scale:0.1 prof ~seed:5 in
  let c, _ = Circuitgen.Gen.generate params in
  let huge =
    List.init (Netlist.Circuit.num_nets c) (Netlist.Circuit.degree c)
    |> List.filter (fun d -> d > 60)
  in
  Alcotest.(check bool) "has > 60-pin nets" true (List.length huge >= 1)

let test_blocks_generated () =
  let prof = Circuitgen.Profiles.find "fract" in
  let params =
    { (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:5) with
      Circuitgen.Gen.num_blocks = 3 }
  in
  let c, _ = Circuitgen.Gen.generate params in
  let blocks =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter (fun (cl : Netlist.Cell.t) ->
           cl.Netlist.Cell.kind = Netlist.Cell.Block)
  in
  Alcotest.(check int) "three blocks" 3 (List.length blocks);
  List.iter
    (fun (b : Netlist.Cell.t) ->
      Alcotest.(check bool) "multi-row" true
        (b.Netlist.Cell.height >= 2. *. c.Netlist.Circuit.row_height))
    blocks

let test_profiles_complete () =
  Alcotest.(check int) "nine MCNC profiles" 9
    (List.length Circuitgen.Profiles.mcnc);
  Alcotest.(check bool) "mega profiles present" true
    (List.length Circuitgen.Profiles.mega >= 2);
  Alcotest.(check int) "all = mcnc + mega"
    (List.length Circuitgen.Profiles.mcnc
    + List.length Circuitgen.Profiles.mega)
    (List.length Circuitgen.Profiles.all);
  List.iter
    (fun name -> ignore (Circuitgen.Profiles.find name))
    Circuitgen.Profiles.names

let test_find_unknown_raises () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Circuitgen.Profiles.find "nonexistent"))

let test_scale_shrinks () =
  let big, _ = generate ~scale:1.0 "primary1" in
  let small, _ = generate ~scale:0.25 "primary1" in
  Alcotest.(check bool) "fewer cells" true
    (Netlist.Circuit.num_cells small < Netlist.Circuit.num_cells big / 2)

let test_driver_has_lowest_index () =
  (* The DAG guarantee: for cell-driven nets, the driver is the member
     with the smallest id. *)
  let c, _ = generate "struct" in
  let n_internal =
    Array.length
      (Array.of_list
         (List.filter
            (fun (cl : Netlist.Cell.t) -> cl.Netlist.Cell.kind <> Netlist.Cell.Pad)
            (Array.to_list c.Netlist.Circuit.cells)))
  in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let drv = c.Netlist.Circuit.pin_cell.(c.Netlist.Circuit.net_start.(n)) in
    if drv < n_internal then
      List.iter
        (fun cid -> Alcotest.(check bool) "driver minimal" true (drv <= cid))
        (Netlist.Circuit.net_cells c n)
  done

let prop_any_profile_seed_generates =
  QCheck.Test.make ~name:"generator succeeds for any profile and seed"
    QCheck.(pair (int_bound 8) small_int)
    (fun (pidx, seed) ->
      let prof = List.nth Circuitgen.Profiles.mcnc pidx in
      let params = Circuitgen.Profiles.params ~scale:0.05 prof ~seed in
      let c, _ = Circuitgen.Gen.generate params in
      Netlist.Circuit.num_cells c > 0 && Netlist.Circuit.num_nets c > 0)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed changes netlist" `Quick test_seed_changes_netlist;
    Alcotest.test_case "counts match profile" `Quick test_counts_match_profile;
    Alcotest.test_case "utilization near target" `Quick test_utilization_near_target;
    Alcotest.test_case "pads on boundary" `Quick test_pads_on_boundary_and_fixed;
    Alcotest.test_case "no isolated cells" `Quick test_no_isolated_internal_cells;
    Alcotest.test_case "acyclic for STA" `Quick test_acyclic_for_sta;
    Alcotest.test_case "huge nets for avq" `Quick test_huge_nets_present_for_avq;
    Alcotest.test_case "blocks generated" `Quick test_blocks_generated;
    Alcotest.test_case "profiles complete" `Quick test_profiles_complete;
    Alcotest.test_case "unknown profile" `Quick test_find_unknown_raises;
    Alcotest.test_case "scale shrinks" `Quick test_scale_shrinks;
    Alcotest.test_case "driver lowest index" `Quick test_driver_has_lowest_index;
    QCheck_alcotest.to_alcotest prop_any_profile_seed_generates;
  ]
