(* Tests for the Bound2Bound net model extension. *)

let pin ?(dx = 0.) ?(dy = 0.) c = { Netlist.Net.cell = c; dx; dy }

(* One net over cells [0 .. k-1], pin [i] on cell [i]. *)
let chain k = Helpers.net_circuit [| Array.init k (fun i -> (i, 0., 0.)) |]

let coord_x (c : Netlist.Circuit.t) xs k =
  xs.(c.Netlist.Circuit.pin_cell.(k)) +. c.Netlist.Circuit.pin_dx.(k)

let test_two_pin_weight () =
  let c = chain 2 in
  let xs = [| 0.; 10. |] in
  match Qp.B2b.edges ~coord:(coord_x c xs) c 0 with
  | [ e ] ->
    Alcotest.(check (float 1e-9)) "weight 2/span" 0.2 e.Qp.B2b.weight
  | l -> Alcotest.fail (Printf.sprintf "expected 1 edge, got %d" (List.length l))

let test_edge_count_k_pins () =
  (* k-pin net: 1 boundary-boundary edge + 2 per interior pin. *)
  let k = 6 in
  let c = chain k in
  let xs = Array.init k (fun i -> float_of_int (i * 3)) in
  let edges = Qp.B2b.edges ~coord:(coord_x c xs) c 0 in
  Alcotest.(check int) "1 + 2(k-2) edges" (1 + (2 * (k - 2))) (List.length edges)

let test_objective_matches_hpwl_at_linearization () =
  (* Σ w·(xi − xj)² over the B2B edges equals twice the span at the
     linearisation point — B2B's defining property per axis (the factor 2
     is uniform over all degrees, so it only rescales the objective). *)
  let k = 5 in
  let c = chain k in
  let xs = [| 2.; 9.; 4.; 17.; 11. |] in
  let coord = coord_x c xs in
  let edges = Qp.B2b.edges ~coord c 0 in
  let objective =
    List.fold_left
      (fun acc (e : Qp.B2b.edge) ->
        let d = coord e.Qp.B2b.pin_a -. coord e.Qp.B2b.pin_b in
        acc +. (e.Qp.B2b.weight *. d *. d))
      0. edges
  in
  (* Span = 17 − 2 = 15; objective = 2 × 15. *)
  Alcotest.(check (float 1e-6)) "objective = 2·span" 30. objective

let test_degenerate_falls_back_to_clique () =
  let c = chain 3 in
  (* All pins at the same x. *)
  let xs = [| 5.; 5.; 5. |] in
  let edges = Qp.B2b.edges ~coord:(coord_x c xs) c 0 in
  Alcotest.(check int) "clique fallback edges" 3 (List.length edges);
  List.iter
    (fun (e : Qp.B2b.edge) ->
      Alcotest.(check (float 1e-9)) "clique weight 1/k" (1. /. 3.) e.Qp.B2b.weight)
    edges

let test_axes_differ_in_system () =
  (* A 3-pin net spread along x but stacked in y: B2B must give different
     x and y matrices (the clique model's are identical). *)
  let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:100. in
  let cells =
    Array.init 3 (fun i ->
        Netlist.Cell.make ~id:i ~name:(string_of_int i) ~width:4. ~height:4.
          ~fixed:(i = 0) ())
  in
  let nets = [| Netlist.Net.make ~id:0 ~name:"n" [| pin 0; pin 1; pin 2 |] |] in
  let c = Netlist.Circuit.make ~name:"b2b" ~cells ~nets ~region ~row_height:4. in
  let p = { Netlist.Placement.x = [| 0.; 40.; 90. |]; y = [| 50.; 50.; 20. |] } in
  let system =
    Qp.System.build c ~placement:p ~net_weights:[| 1. |]
      ~edge_scale:Qp.Weights.Quadratic ~model:Qp.System.Bound2bound ()
  in
  (* Solving with zero forces should keep positions near the spring
     equilibrium and, importantly, run without errors on distinct
     matrices. *)
  let n = Qp.System.num_movable system in
  let sx, sy =
    Qp.System.solve system ~placement:p ~ex:(Array.make n 0.) ~ey:(Array.make n 0.)
  in
  Alcotest.(check bool) "x converged" true sx.Numeric.Cg.converged;
  Alcotest.(check bool) "y converged" true sy.Numeric.Cg.converged

let test_b2b_placement_runs () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let cfg =
    { Kraftwerk.Config.standard with
      Kraftwerk.Config.net_model = Qp.System.Bound2bound;
      Kraftwerk.Config.max_iterations = 40 }
  in
  let state, reports = Kraftwerk.Placer.run cfg circuit p0 in
  Alcotest.(check bool) "iterated" true (List.length reports > 0);
  Alcotest.(check (float 1e-6)) "in region" 0.
    (Metrics.Overlap.out_of_region_area circuit state.Kraftwerk.Placer.placement)

let suite =
  [
    Alcotest.test_case "two-pin weight" `Quick test_two_pin_weight;
    Alcotest.test_case "edge count" `Quick test_edge_count_k_pins;
    Alcotest.test_case "objective = hpwl at point" `Quick test_objective_matches_hpwl_at_linearization;
    Alcotest.test_case "degenerate fallback" `Quick test_degenerate_falls_back_to_clique;
    Alcotest.test_case "axes differ" `Quick test_axes_differ_in_system;
    Alcotest.test_case "b2b placement runs" `Quick test_b2b_placement_runs;
  ]
