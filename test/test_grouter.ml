(* Tests for the coarse global router. *)

let spec8 = Route.Grid_spec.make ~nx:8 ~ny:8 ()

let route_ok = function
  | Ok r -> r
  | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:64. ~y_hi:64.

let circuit_of cells_spec nets_spec =
  let cells =
    Array.mapi
      (fun i (w, h) ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "c%d" i) ~width:w ~height:h ())
      cells_spec
  in
  let nets =
    Array.mapi
      (fun i members ->
        Netlist.Net.make ~id:i ~name:(Printf.sprintf "n%d" i)
          (Array.map pin members))
      nets_spec
  in
  Netlist.Circuit.make ~name:"gr" ~cells ~nets ~region ~row_height:8.

let test_straight_route_length () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  (* Pins 4 bins apart horizontally on an 8×8 grid of 8-unit bins. *)
  let p = { Netlist.Placement.x = [| 4.; 36. |]; y = [| 4.; 4. |] } in
  let r = route_ok (Route.Grouter.route c p spec8) in
  Alcotest.(check (float 1e-9)) "4 h-edges × 8 units" 32. r.Route.Grouter.total_wirelength;
  Alcotest.(check int) "no failures" 0 r.Route.Grouter.failed_nets;
  Alcotest.(check (float 0.)) "no overflow" 0. r.Route.Grouter.total_overflow

let test_l_route_length () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 4.; 36. |]; y = [| 4.; 36. |] } in
  let r = route_ok (Route.Grouter.route c p spec8) in
  (* Manhattan distance: 4 h-edges + 4 v-edges. *)
  Alcotest.(check (float 1e-9)) "L route" 64. r.Route.Grouter.total_wirelength

let test_same_bin_nothing_routed () =
  let c = circuit_of [| (4., 4.); (4., 4.) |] [| [| 0; 1 |] |] in
  let p = { Netlist.Placement.x = [| 4.; 6. |]; y = [| 4.; 6. |] } in
  let r = route_ok (Route.Grouter.route c p spec8) in
  Alcotest.(check (float 0.)) "zero wirelength" 0. r.Route.Grouter.total_wirelength

let test_star_decomposition () =
  (* A 3-pin net: driver in the middle, sinks left and right. *)
  let c = circuit_of [| (4., 4.); (4., 4.); (4., 4.) |] [| [| 1; 0; 2 |] |] in
  let p = { Netlist.Placement.x = [| 4.; 28.; 52. |]; y = [| 4.; 4.; 4. |] } in
  (* Driver is cell 1 at x=28: 3 edges each way = 6 × 8. *)
  let r = route_ok (Route.Grouter.route c p spec8) in
  Alcotest.(check (float 1e-9)) "two branches" 48. r.Route.Grouter.total_wirelength

let test_maze_detours_around_congestion () =
  (* Saturate the straight channel with parallel nets; the last nets must
     detour (longer wirelength) instead of overflowing.  With a tight
     explicit pitch of 2.0, capacity per edge is dy/pitch = 8/2 = 4
     tracks. *)
  let n = 8 in
  let cells = Array.init (2 * n) (fun _ -> (2., 2.)) in
  let nets = Array.init n (fun i -> [| i; n + i |]) in
  let c = circuit_of cells nets in
  let p =
    {
      Netlist.Placement.x = Array.init (2 * n) (fun i -> if i < n then 4. else 60.);
      y = Array.init (2 * n) (fun _ -> 4.);
    }
  in
  let tight = Route.Grid_spec.make ~wire_pitch:2.0 ~nx:8 ~ny:8 () in
  let r = route_ok (Route.Grouter.route c p tight) in
  Alcotest.(check int) "all routed" 0 r.Route.Grouter.failed_nets;
  (* Straight-line total would be 8 nets × 7 edges × 8 units = 448; the
     detours make it longer. *)
  Alcotest.(check bool) "detoured" true (r.Route.Grouter.total_wirelength > 448.)

let test_rip_up_reduces_overflow () =
  let n = 12 in
  let cells = Array.init (2 * n) (fun _ -> (2., 2.)) in
  let nets = Array.init n (fun i -> [| i; n + i |]) in
  let c = circuit_of cells nets in
  let p =
    {
      Netlist.Placement.x = Array.init (2 * n) (fun i -> if i < n then 4. else 60.);
      y = Array.init (2 * n) (fun _ -> 30.);
    }
  in
  let tight_spec = Route.Grid_spec.make ~wire_pitch:2.0 ~nx:8 ~ny:8 () in
  let tight rip =
    { Route.Grouter.default_config with Route.Grouter.rip_up_passes = rip }
  in
  let no_rip = route_ok (Route.Grouter.route ~config:(tight 0) c p tight_spec) in
  let with_rip =
    route_ok (Route.Grouter.route ~config:(tight 2) c p tight_spec)
  in
  Alcotest.(check bool) "rip-up not worse" true
    (with_rip.Route.Grouter.total_overflow <= no_rip.Route.Grouter.total_overflow)

let test_usage_accounting_consistent () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let p = state.Kraftwerk.Placer.placement in
  let r =
    route_ok (Route.Grouter.route circuit p (Route.Grid_spec.make ~nx:12 ~ny:8 ()))
  in
  Alcotest.(check int) "no failures" 0 r.Route.Grouter.failed_nets;
  (* Routed length is at least the HPWL of the bin-to-bin connections —
     loosely: ≥ half of placed HPWL minus in-bin slack; just check it is
     positive and finite and ≥ max overflow. *)
  Alcotest.(check bool) "sane totals" true
    (r.Route.Grouter.total_wirelength > 0.
    && Float.is_finite r.Route.Grouter.total_wirelength
    && r.Route.Grouter.max_overflow <= r.Route.Grouter.total_overflow +. 1e-9)

(* --- golden bit-pin ---

   The router's search order decides which of several equal-cost paths
   a connection takes, and every later connection sees that choice
   through the usage grid.  These pins hold the exact bits of each
   summary (and a digest of every usage value) on fixtures that reach
   the maze fallback, so a change to the search must reproduce the
   original tie-breaking to pass.  The placed fixtures also pass through
   the placer: if a deliberate placer change moves them, re-capture the
   pins from the router as it stands before the change. *)

let bits = Int64.bits_of_float

let usage_digest (r : Route.Grouter.result) =
  let b = Buffer.create 4096 in
  let add g =
    Array.iter
      (fun v -> Buffer.add_int64_le b (bits v))
      (Geometry.Grid2.values g)
  in
  add r.Route.Grouter.usage_h;
  add r.Route.Grouter.usage_v;
  Digest.to_hex (Digest.string (Buffer.contents b))

type golden = {
  overflow : int64;
  wirelength : int64;
  max_overflow : int64;
  digest : string;
}

let check_golden name (g : golden) (r : Route.Grouter.result) =
  Alcotest.(check int64) (name ^ ": total_overflow bits") g.overflow
    (bits r.Route.Grouter.total_overflow);
  Alcotest.(check int64) (name ^ ": total_wirelength bits") g.wirelength
    (bits r.Route.Grouter.total_wirelength);
  Alcotest.(check int64) (name ^ ": max_overflow bits") g.max_overflow
    (bits r.Route.Grouter.max_overflow);
  Alcotest.(check string) (name ^ ": usage digest") g.digest (usage_digest r)

(* A profile placed under the routability loop at a fixed seed and
   legalized: the circuit and the router input a routability job sees. *)
let placed_fixture profile scale =
  let prof = Circuitgen.Profiles.find profile in
  let c, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed:7)
  in
  let p0 = Circuitgen.Gen.initial_placement c pads in
  let config = Kraftwerk.Config.routability Kraftwerk.Config.standard in
  let state, _ = Kraftwerk.Placer.run config c p0 in
  let rep = Legalize.Abacus.legalize c state.Kraftwerk.Placer.placement () in
  (c, rep.Legalize.Abacus.placement, Kraftwerk.Placer.route_spec config c)

(* [n] parallel nets along the bottom row of a 4-track grid: 8 nets is
   the circuit of [test_maze_detours_around_congestion], which detours
   without overflow; 40 nets exceed the 32 tracks of any vertical cut. *)
let channel_fixture n =
  let cells = Array.init (2 * n) (fun _ -> (2., 2.)) in
  let nets = Array.init n (fun i -> [| i; n + i |]) in
  let c = circuit_of cells nets in
  let p =
    {
      Netlist.Placement.x = Array.init (2 * n) (fun i -> if i < n then 4. else 60.);
      y = Array.init (2 * n) (fun _ -> 4.);
    }
  in
  (c, p, Route.Grid_spec.make ~wire_pitch:2.0 ~nx:8 ~ny:8 ())

let fixtures =
  lazy
    [
      ("primary2@0.5", placed_fixture "primary2" 0.5);
      ("biomed@0.3", placed_fixture "biomed" 0.3);
      ("tight channel", channel_fixture 8);
      ("overfull channel", channel_fixture 40);
    ]

let goldens =
  [
    ( "primary2@0.5",
      {
        overflow = 4634529089567235048L;
        wirelength = 4689225358682095614L;
        max_overflow = 4610184818551597744L;
        digest = "efcd17c9ea8b3d3dcb0ea59bb6c80838";
      } );
    ( "biomed@0.3",
      {
        overflow = 4656791661484417273L;
        wirelength = 4693361028855232848L;
        max_overflow = 4622656325212008342L;
        digest = "f508976db4758b616ca469a9dd85b35f";
      } );
    ( "tight channel",
      {
        overflow = 0L;
        wirelength = 4647714815446351872L;
        max_overflow = 0L;
        digest = "38700e7224ebad5f1ffa96addc5f8fdf";
      } );
    ( "overfull channel",
      {
        overflow = 4640607572284407808L;
        wirelength = 4661471904933085184L;
        max_overflow = 4625196817309499392L;
        digest = "cacd6ba1ec54c42f4af0ccaf5f5ba5f3";
      } );
  ]

(* Every fixture but the tight channel overflows, so the maze fallback
   and the rip-up passes both run; the tight channel's detour is the
   maze's uncongested path. *)
let test_golden_routes () =
  List.iter
    (fun (name, (c, p, spec)) ->
      let r = route_ok (Route.Grouter.route c p spec) in
      if name <> "tight channel" then
        Alcotest.(check bool) (name ^ ": overflows") true
          (r.Route.Grouter.total_overflow > 0.);
      check_golden name (List.assoc name goldens) r)
    (Lazy.force fixtures)

(* The sharded scheduler calls the router from worker domains: two
   congested circuits routed at once must each reproduce the pinned
   bits of their sequential run, which fails if routing state is ever
   shared. *)
let test_concurrent_domains () =
  let names = [ "primary2@0.5"; "biomed@0.3" ] in
  let spawn name =
    let c, p, spec = List.assoc name (Lazy.force fixtures) in
    Domain.spawn (fun () -> route_ok (Route.Grouter.route c p spec))
  in
  let domains = List.map spawn names in
  List.iter2
    (fun name d ->
      check_golden (name ^ " (concurrent)") (List.assoc name goldens)
        (Domain.join d))
    names domains

(* --- circuit statistics (generator validation) --- *)

let test_degree_histogram () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let circuit, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let hist = Circuitgen.Stats.degree_histogram circuit in
  Alcotest.(check int) "no degree-0" 0 hist.(0);
  Alcotest.(check int) "no degree-1" 0 hist.(1);
  Alcotest.(check bool) "two-pin dominated" true
    (hist.(2) > Array.fold_left ( + ) 0 hist / 3)

let test_rent_exponent_realistic () =
  let prof = Circuitgen.Profiles.find "struct" in
  let circuit, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let _, p = Circuitgen.Stats.rent_exponent circuit in
  Alcotest.(check bool)
    (Printf.sprintf "rent p = %.3f in [0.4, 0.85]" p)
    true
    (p > 0.4 && p < 0.85)

let test_average_degree () =
  let prof = Circuitgen.Profiles.find "biomed" in
  let circuit, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:0.3 prof ~seed:42)
  in
  let d = Circuitgen.Stats.average_degree circuit in
  Alcotest.(check bool) "2.2 ≤ avg ≤ 4.5" true (d >= 2.2 && d <= 4.5)

(* --- SVG --- *)

let test_svg_well_formed () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  let svg = Viz.Svg.render circuit p in
  Alcotest.(check bool) "opens svg" true
    (String.length svg > 10 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) "closes svg" true
    (let tail = String.sub svg (String.length svg - 7) 7 in
     tail = "</svg>\n");
  (* One rect per cell plus background and outline at least. *)
  let count_rects =
    List.length (String.split_on_char '<' svg)
  in
  Alcotest.(check bool) "has content" true
    (count_rects > Netlist.Circuit.num_cells circuit)

let test_svg_with_heat_and_nets () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:42)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  let heat = Density.Density_map.demand circuit p ~nx:8 ~ny:8 in
  let options =
    { Viz.Svg.default_options with Viz.Svg.show_nets = true; Viz.Svg.heat = Some heat }
  in
  let svg = Viz.Svg.render ~options circuit p in
  Alcotest.(check bool) "has fly-lines" true
    (String.length svg > 0
    &&
    let found = ref false in
    String.iteri
      (fun i ch ->
        if (not !found) && ch = 'l' && i + 4 < String.length svg then
          if String.sub svg i 5 = "line " then found := true)
      svg;
    !found)

let suite =
  [
    Alcotest.test_case "straight route" `Quick test_straight_route_length;
    Alcotest.test_case "L route" `Quick test_l_route_length;
    Alcotest.test_case "same bin" `Quick test_same_bin_nothing_routed;
    Alcotest.test_case "star decomposition" `Quick test_star_decomposition;
    Alcotest.test_case "maze detours" `Quick test_maze_detours_around_congestion;
    Alcotest.test_case "rip-up helps" `Quick test_rip_up_reduces_overflow;
    Alcotest.test_case "usage accounting" `Quick test_usage_accounting_consistent;
    Alcotest.test_case "golden routes" `Quick test_golden_routes;
    Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "rent exponent" `Quick test_rent_exponent_realistic;
    Alcotest.test_case "average degree" `Quick test_average_degree;
    Alcotest.test_case "svg well-formed" `Quick test_svg_well_formed;
    Alcotest.test_case "svg heat and nets" `Quick test_svg_with_heat_and_nets;
  ]
