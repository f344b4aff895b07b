(* Tests for the min-cost assignment solver and the Domino-like
   detailed placer. *)

module Mcf = Numeric.Mincostflow

let test_assignment_identity () =
  (* Diagonal much cheaper than off-diagonal: identity assignment. *)
  let costs =
    Array.init 5 (fun i -> Array.init 5 (fun j -> if i = j then 0. else 10.))
  in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3; 4 |]
    (Mcf.assignment ~costs)

let test_assignment_optimal_vs_bruteforce () =
  let rng = Numeric.Rng.create 12 in
  for _ = 1 to 20 do
    let n = 2 + Numeric.Rng.int rng 4 in
    let costs =
      Array.init n (fun _ -> Array.init n (fun _ -> Numeric.Rng.uniform rng 0. 10.))
    in
    let total choice =
      Array.to_list choice
      |> List.mapi (fun i j -> costs.(i).(j))
      |> List.fold_left ( +. ) 0.
    in
    let flow_cost = total (Mcf.assignment ~costs) in
    (* Brute force over all permutations. *)
    let best = ref Float.infinity in
    let rec perms acc rest =
      match rest with
      | [] ->
        let choice = Array.of_list (List.rev acc) in
        let c = total choice in
        if c < !best then best := c
      | _ ->
        List.iter (fun j -> perms (j :: acc) (List.filter (( <> ) j) rest)) rest
    in
    perms [] (List.init n Fun.id);
    Alcotest.(check (float 1e-6)) "matches brute force" !best flow_cost
  done

let test_assignment_rectangular () =
  let costs = [| [| 5.; 1.; 9. |]; [| 1.; 5.; 9. |] |] in
  let a = Mcf.assignment ~costs in
  Alcotest.(check (array int)) "rect optimal" [| 1; 0 |] a

let test_assignment_ties_hang_regression () =
  (* Regression: large near-equal costs once stalled the solver through
     float error in the potentials (negative reduced-cost cycles). *)
  let rng = Numeric.Rng.create 99 in
  for _ = 1 to 10 do
    let n = 10 in
    let base = Numeric.Rng.uniform rng 1e3 2e4 in
    let costs =
      Array.init n (fun _ ->
          Array.init n (fun _ -> base +. Numeric.Rng.uniform rng 0. 2000.))
    in
    let a = Mcf.assignment ~costs in
    let seen = Array.make n false in
    Array.iter
      (fun j ->
        Alcotest.(check bool) "valid perm" false seen.(j);
        seen.(j) <- true)
      a
  done

(* The dense solver against the graph solver kept in Mcf_oracle, on
   random square and rectangular matrices whose costs come from a few
   integers, some negative, so that many optimal assignments tie.  The
   two may pick different optima; the dense one must return a valid
   injection whose total is the oracle's exactly (integer costs sum
   without rounding), and the same choice in a reused workspace as in
   a fresh one. *)
let test_assignment_optimal_vs_graph_oracle () =
  let rng = Numeric.Rng.create 2024 in
  let ws = Mcf.workspace () in
  for case = 1 to 1200 do
    let agents = 1 + Numeric.Rng.int rng 20 in
    let objects =
      if case mod 2 = 0 then agents else agents + Numeric.Rng.int rng (21 - agents)
    in
    let levels = 2 + Numeric.Rng.int rng 4 in
    let low = -Numeric.Rng.int rng 3 in
    let costs =
      Array.init agents (fun _ ->
          Array.init objects (fun _ ->
              float_of_int (low + Numeric.Rng.int rng levels)))
    in
    let total a = Array.fold_left ( +. ) 0. (Array.mapi (fun i j -> costs.(i).(j)) a) in
    let expect = total (Mcf_oracle.assignment ~costs) in
    let fresh = Mcf.assignment ~costs and reused = Mcf.assign ws ~costs in
    if reused <> fresh then
      Alcotest.failf "case %d (%dx%d): reused workspace chose differently" case
        agents objects;
    let taken = Array.make objects false in
    Array.iter
      (fun j ->
        if j < 0 || j >= objects || taken.(j) then
          Alcotest.failf "case %d (%dx%d): not an injection" case agents objects;
        taken.(j) <- true)
      fresh;
    if total fresh <> expect then
      Alcotest.failf "case %d (%dx%d): total %g, oracle %g" case agents objects
        (total fresh) expect
  done

(* No complete finite-cost assignment: [Failure], and the workspace
   still solves the next problem. *)
let test_assignment_infeasible () =
  let inf = Float.infinity in
  let ws = Mcf.workspace () in
  List.iter
    (fun costs ->
      match Mcf.assign ws ~costs with
      | _ -> Alcotest.fail "accepted an infeasible matrix"
      | exception Failure _ -> ())
    [
      [| [| 1.; 2. |]; [| inf; inf |] |];
      [| [| 1.; inf; 3. |]; [| 2.; inf; 1. |]; [| 4.; inf; 2. |] |];
    ];
  Alcotest.(check (array int)) "workspace reusable" [| 1; 0 |]
    (Mcf.assign ws ~costs:[| [| 5.; 1.; 9. |]; [| 1.; 5.; 9. |] |])

(* --- Domino --- *)

let placed_circuit ?(name = "fract") ?(seed = 91) () =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let rep = Legalize.Abacus.legalize circuit state.Kraftwerk.Placer.placement () in
  (circuit, rep.Legalize.Abacus.placement)

let test_flow_pass_improves_and_stays_legal () =
  let circuit, p = placed_circuit () in
  let before = Metrics.Wirelength.hpwl circuit p in
  let moves, gain = Legalize.Domino.flow_pass circuit p in
  let after = Metrics.Wirelength.hpwl circuit p in
  Alcotest.(check bool) "legal" true (Legalize.Check.is_legal circuit p);
  Alcotest.(check bool) "improved" true (after <= before);
  Alcotest.(check (float 1e-6)) "gain accounted" (before -. after) gain;
  Alcotest.(check bool) "moved cells" true (moves > 0)

let test_reorder_pass_improves_and_stays_legal () =
  let circuit, p = placed_circuit () in
  let before = Metrics.Wirelength.hpwl circuit p in
  let _, gain = Legalize.Domino.reorder_pass circuit p in
  let after = Metrics.Wirelength.hpwl circuit p in
  Alcotest.(check bool) "legal" true (Legalize.Check.is_legal circuit p);
  Alcotest.(check (float 1e-6)) "gain accounted" (before -. after) gain

let test_run_stops_when_dry () =
  let circuit, p = placed_circuit () in
  (* Enough passes to exhaust the move classes ... *)
  let config = { Legalize.Domino.default_config with Legalize.Domino.passes = 10 } in
  ignore (Legalize.Domino.run ~config circuit p);
  (* ... after which a further run finds (almost) nothing. *)
  let _, gain2 = Legalize.Domino.run ~config circuit p in
  let base = Metrics.Wirelength.hpwl circuit p in
  Alcotest.(check bool) "second run nearly dry" true (gain2 < 0.01 *. base)

let test_domino_respects_obstacles () =
  let circuit, p = placed_circuit () in
  (* A fat obstacle across the middle; cells were legalised without it,
     so only windows clear of it may repack — legality w.r.t. the
     obstacle must not degrade. *)
  let region = circuit.Netlist.Circuit.region in
  let cx, cy = Geometry.Rect.center region in
  let obstacle = Geometry.Rect.of_center ~cx ~cy ~w:60. ~h:32. in
  let overlap_before =
    Array.fold_left
      (fun acc (cl : Netlist.Cell.t) ->
        if Netlist.Cell.movable cl then
          acc
          +. Geometry.Rect.overlap_area obstacle
               (Netlist.Placement.cell_rect circuit p cl.Netlist.Cell.id)
        else acc)
      0. circuit.Netlist.Circuit.cells
  in
  ignore (Legalize.Domino.reorder_pass ~obstacles:[ obstacle ] circuit p);
  let overlap_after =
    Array.fold_left
      (fun acc (cl : Netlist.Cell.t) ->
        if Netlist.Cell.movable cl then
          acc
          +. Geometry.Rect.overlap_area obstacle
               (Netlist.Placement.cell_rect circuit p cl.Netlist.Cell.id)
        else acc)
      0. circuit.Netlist.Circuit.cells
  in
  Alcotest.(check bool) "no new obstacle overlap" true
    (overlap_after <= overlap_before +. 1e-9)

let test_domino_deterministic () =
  let circuit, p1 = placed_circuit () in
  let _, p2 = placed_circuit () in
  ignore (Legalize.Domino.run circuit p1);
  ignore (Legalize.Domino.run circuit p2);
  Alcotest.check (Alcotest.float 0.) "identical" 0.
    (Netlist.Placement.displacement p1 p2)

let suite =
  [
    Alcotest.test_case "assignment identity" `Quick test_assignment_identity;
    Alcotest.test_case "assignment vs brute force" `Quick test_assignment_optimal_vs_bruteforce;
    Alcotest.test_case "assignment rectangular" `Quick test_assignment_rectangular;
    Alcotest.test_case "assignment tie regression" `Quick test_assignment_ties_hang_regression;
    Alcotest.test_case "assignment optimal vs graph oracle" `Quick
      test_assignment_optimal_vs_graph_oracle;
    Alcotest.test_case "assignment infeasible" `Quick test_assignment_infeasible;
    Alcotest.test_case "flow pass" `Quick test_flow_pass_improves_and_stays_legal;
    Alcotest.test_case "reorder pass" `Quick test_reorder_pass_improves_and_stays_legal;
    Alcotest.test_case "run until dry" `Quick test_run_stops_when_dry;
    Alcotest.test_case "obstacle respect" `Quick test_domino_respects_obstacles;
    Alcotest.test_case "deterministic" `Quick test_domino_deterministic;
  ]
