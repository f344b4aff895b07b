(* Tests for congestion estimation, grid specs, congestion-target maps
   and the heat model. *)

let spec8 = Route.Grid_spec.make ~nx:8 ~ny:8 ()

let est_ok = function
  | Ok e -> e
  | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:64. ~y_hi:64.

let circuit_of ?(powers = [||]) cells_spec nets_spec =
  let cells =
    Array.mapi
      (fun i (w, h) ->
        let power = if i < Array.length powers then Some powers.(i) else None in
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "c%d" i) ~width:w
          ~height:h ?power ())
      cells_spec
  in
  let nets =
    Array.mapi
      (fun i members ->
        Netlist.Net.make ~id:i ~name:(Printf.sprintf "n%d" i)
          (Array.map pin members))
      nets_spec
  in
  Netlist.Circuit.make ~name:"r" ~cells ~nets ~region ~row_height:8.

let test_demand_proportional_to_bbox () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 8.; 56. |]; y = [| 32.; 32. |] } in
  let est = est_ok (Route.Congest.estimate c p spec8) in
  (* Horizontal demand totals bbox width × via factor (spread over bins). *)
  let total_h = Geometry.Grid2.total est.Route.Congest.demand_h in
  Alcotest.(check (float 1e-6)) "h demand" (48. *. 1.2) total_h;
  (* Degenerate vertical span: no v demand. *)
  Alcotest.(check (float 1e-6)) "v demand" 0.
    (Geometry.Grid2.total est.Route.Congest.demand_v)

let test_no_overflow_for_sparse_design () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 8.; 56. |]; y = [| 30.; 34. |] } in
  let est = est_ok (Route.Congest.estimate c p spec8) in
  Alcotest.(check (float 0.)) "no overflow" 0. est.Route.Congest.total_overflow

let test_overflow_when_many_nets_cross_one_bin () =
  (* 120 two-pin nets all crossing the same thin channel overflow it. *)
  let n = 40 in
  let cells = Array.init (2 * n) (fun _ -> (2., 2.)) in
  let nets = Array.init n (fun i -> [| i; n + i |]) in
  let c = circuit_of cells nets in
  let p =
    {
      Netlist.Placement.x =
        Array.init (2 * n) (fun i -> if i < n then 4. else 60.);
      y = Array.init (2 * n) (fun _ -> 32.);
    }
  in
  let est = est_ok (Route.Congest.estimate c p spec8) in
  Alcotest.(check bool) "overflows" true (est.Route.Congest.total_overflow > 0.);
  Alcotest.(check bool) "max ≤ total" true
    (est.Route.Congest.max_overflow <= est.Route.Congest.total_overflow +. 1e-9)

(* --- grid specs: degenerate grids are typed errors, not NaN --- *)

let test_grid_spec_zero_bins () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 8.; 56. |]; y = [| 32.; 32. |] } in
  (match Route.Congest.estimate c p (Route.Grid_spec.make ~nx:0 ~ny:8 ()) with
  | Error Route.Grid_spec.Zero_bins -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected Zero_bins");
  match Route.Grouter.route c p (Route.Grid_spec.make ~nx:8 ~ny:0 ()) with
  | Error Route.Grid_spec.Zero_bins -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected Zero_bins"

let test_grid_spec_zero_capacity () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 8.; 56. |]; y = [| 32.; 32. |] } in
  (* A non-positive wire pitch can produce no finite track capacity. *)
  let bad = Route.Grid_spec.make ~wire_pitch:0. ~nx:8 ~ny:8 () in
  (match Route.Congest.estimate c p bad with
  | Error Route.Grid_spec.Zero_capacity -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected Zero_capacity");
  match Route.Grouter.route c p bad with
  | Error Route.Grid_spec.Zero_capacity -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected Zero_capacity"

(* --- congestion-target maps --- *)

let crowded_circuit () =
  let n = 40 in
  let cells = Array.init (2 * n) (fun _ -> (2., 2.)) in
  let nets = Array.init n (fun i -> [| i; n + i |]) in
  let c = circuit_of cells nets in
  let p =
    {
      Netlist.Placement.x =
        Array.init (2 * n) (fun i -> if i < n then 4. else 60.);
      y = Array.init (2 * n) (fun _ -> 32.);
    }
  in
  (c, p)

let test_target_accumulates_and_decays () =
  let c, p = crowded_circuit () in
  let t =
    match Route.Target.create region spec8 with
    | Ok t -> t
    | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)
  in
  Alcotest.(check (float 0.)) "starts empty" 0. (Route.Target.area t);
  let s1 = Route.Target.refresh ~strength:0.5 ~decay:0.5 t c p in
  Alcotest.(check bool) "observes overflow" true
    (s1.Route.Target.est_total_overflow > 0.);
  let a1 = Route.Target.area t in
  Alcotest.(check bool) "claims area" true (a1 > 0.);
  (* Same placement again: decayed old target + fresh overflow ≥ first. *)
  let s2 = Route.Target.refresh ~strength:0.5 ~decay:0.5 t c p in
  Alcotest.(check bool) "persists" true
    (Route.Target.area t >= a1 -. 1e-9 && s2.Route.Target.target_area > 0.)

let test_target_clamped_at_bin_area () =
  let c, p = crowded_circuit () in
  let t =
    match Route.Target.create region spec8 with
    | Ok t -> t
    | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)
  in
  let s = Route.Target.refresh ~strength:1e6 ~decay:0.5 t c p in
  Alcotest.(check bool) "clamp fires" true (s.Route.Target.clamped_bins > 0);
  let g = Route.Target.grid t in
  let bin_area = Geometry.Grid2.dx g *. Geometry.Grid2.dy g in
  Geometry.Grid2.fold
    (fun () _ _ v ->
      Alcotest.(check bool) "≤ bin area" true (v <= bin_area +. 1e-9))
    () g

let test_target_restore_bitwise () =
  let c, p = crowded_circuit () in
  let t =
    match Route.Target.create region spec8 with
    | Ok t -> t
    | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)
  in
  ignore (Route.Target.refresh ~strength:0.7 ~decay:0.5 t c p);
  let values = Route.Target.values t in
  match Route.Target.restore region spec8 ~values with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check bool) "values bitwise" true
      (Route.Target.values t' = values);
    Alcotest.(check bool) "area recomputed" true
      (Route.Target.area t' = Route.Target.area t)

(* --- heat --- *)

let test_heat_peak_at_power_source () =
  let c =
    circuit_of ~powers:[| 1.0; 0. |] [| (8., 8.); (8., 8.) |] [| [| 0; 1 |] |]
  in
  let p = { Netlist.Placement.x = [| 32.; 8. |]; y = [| 32.; 8. |] } in
  let t = Route.Heat.analyse c p ~nx:16 ~ny:16 in
  Alcotest.(check bool) "positive peak" true (t.Route.Heat.peak > 0.);
  (* The hottest bin is where the powered cell sits. *)
  let ix, iy = Geometry.Grid2.locate t.Route.Heat.temperature 32. 32. in
  Alcotest.(check (float 1e-9)) "peak at source" t.Route.Heat.peak
    (Geometry.Grid2.get t.Route.Heat.temperature ix iy)

let test_heat_spreading_reduces_peak () =
  let powers = Array.make 4 0.5 in
  let c =
    circuit_of ~powers
      [| (8., 8.); (8., 8.); (8., 8.); (8., 8.) |]
      [| [| 0; 1; 2; 3 |] |]
  in
  let clumped =
    { Netlist.Placement.x = [| 30.; 34.; 30.; 34. |]; y = [| 30.; 30.; 34.; 34. |] }
  in
  let spread =
    { Netlist.Placement.x = [| 12.; 52.; 12.; 52. |]; y = [| 12.; 12.; 52.; 52. |] }
  in
  let t_clumped = Route.Heat.analyse c clumped ~nx:16 ~ny:16 in
  let t_spread = Route.Heat.analyse c spread ~nx:16 ~ny:16 in
  Alcotest.(check bool) "spreading cools" true
    (t_spread.Route.Heat.peak < t_clumped.Route.Heat.peak)

let test_heat_power_conserved () =
  let c = circuit_of ~powers:[| 0.7; 0.3 |] [| (8., 8.); (8., 8.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 20.; 44. |]; y = [| 32.; 32. |] } in
  let t = Route.Heat.analyse c p ~nx:16 ~ny:16 in
  Alcotest.(check (float 1e-9)) "total power" 1.
    (Geometry.Grid2.total t.Route.Heat.power)

let test_heat_extra_density_targets_hotspot () =
  let c =
    circuit_of ~powers:[| 1.0; 0. |] [| (8., 8.); (8., 8.) |] [| [| 0; 1 |] |]
  in
  let p = { Netlist.Placement.x = [| 32.; 8. |]; y = [| 32.; 8. |] } in
  match Route.Heat.extra_density ~strength:1. c p ~nx:16 ~ny:16 with
  | None -> Alcotest.fail "expected heat"
  | Some g ->
    let ix, iy = Geometry.Grid2.locate g 32. 32. in
    let hot = Geometry.Grid2.get g ix iy in
    let cold = Geometry.Grid2.get g 0 0 in
    Alcotest.(check bool) "hotspot demands more" true (hot > cold)

let suite =
  [
    Alcotest.test_case "demand from bbox" `Quick test_demand_proportional_to_bbox;
    Alcotest.test_case "no overflow sparse" `Quick test_no_overflow_for_sparse_design;
    Alcotest.test_case "overflow when crowded" `Quick test_overflow_when_many_nets_cross_one_bin;
    Alcotest.test_case "grid spec: zero bins" `Quick test_grid_spec_zero_bins;
    Alcotest.test_case "grid spec: zero capacity" `Quick
      test_grid_spec_zero_capacity;
    Alcotest.test_case "target: accumulates and decays" `Quick
      test_target_accumulates_and_decays;
    Alcotest.test_case "target: clamped at bin area" `Quick
      test_target_clamped_at_bin_area;
    Alcotest.test_case "target: restore bitwise" `Quick
      test_target_restore_bitwise;
    Alcotest.test_case "heat peak at source" `Quick test_heat_peak_at_power_source;
    Alcotest.test_case "heat spreading cools" `Quick test_heat_spreading_reduces_peak;
    Alcotest.test_case "heat power conserved" `Quick test_heat_power_conserved;
    Alcotest.test_case "heat hook targets hotspot" `Quick test_heat_extra_density_targets_hotspot;
  ]
