(* Tests for the netlist model: cells, nets, circuits, placements. *)

let approx = Alcotest.float 1e-9

let cell ?(kind = Netlist.Cell.Standard) ?fixed id w h =
  Netlist.Cell.make ~id ~name:(Printf.sprintf "c%d" id) ~width:w ~height:h
    ~kind ?fixed ()

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:64.

let tiny_circuit () =
  let cells =
    [|
      cell 0 8. 16.;
      cell 1 12. 16.;
      cell ~kind:Netlist.Cell.Pad 2 4. 4.;
      cell ~kind:Netlist.Cell.Block 3 30. 32.;
    |]
  in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"n0" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"n1" [| pin 2; pin 0; pin 3 |];
    |]
  in
  Netlist.Circuit.make ~name:"tiny" ~cells ~nets ~region ~row_height:16.

(* --- cells --- *)

let test_cell_defaults () =
  let c = cell 0 8. 16. in
  Alcotest.(check bool) "standard not fixed" false c.Netlist.Cell.fixed;
  Alcotest.(check bool) "standard not seq" false c.Netlist.Cell.sequential;
  let p = cell ~kind:Netlist.Cell.Pad 1 4. 4. in
  Alcotest.(check bool) "pad fixed" true p.Netlist.Cell.fixed;
  Alcotest.(check bool) "pad sequential" true p.Netlist.Cell.sequential

let test_cell_area_movable () =
  let c = cell 0 8. 16. in
  Alcotest.check approx "area" 128. (Netlist.Cell.area c);
  Alcotest.(check bool) "movable" true (Netlist.Cell.movable c);
  let f = cell ~fixed:true 1 8. 16. in
  Alcotest.(check bool) "fixed not movable" false (Netlist.Cell.movable f)

let test_cell_validation () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Cell.make: non-positive size") (fun () ->
      ignore (cell 0 0. 16.))

(* --- nets --- *)

let test_net_accessors () =
  let c = Helpers.net_circuit [| [| (0, 0., 0.); (1, 0., 0.) |];
                                 [| (3, 0., 0.); (1, 0., 0.); (2, 0., 0.) |] |] in
  let s = c.Netlist.Circuit.net_start.(1) in
  Alcotest.(check (array int)) "net starts" [| 0; 2; 5 |] c.Netlist.Circuit.net_start;
  Alcotest.(check int) "pins" 5 (Netlist.Circuit.num_pins c);
  Alcotest.(check int) "degree" 3 (Netlist.Circuit.degree c 1);
  Alcotest.(check int) "driver" 3 c.Netlist.Circuit.pin_cell.(s);
  Alcotest.(check string) "name" "n1" c.Netlist.Circuit.net_name.(1);
  Alcotest.(check (list int)) "cells in order" [ 3; 1; 2 ]
    (Netlist.Circuit.net_cells c 1);
  let n = (Netlist.Circuit.nets c).(1) in
  Alcotest.(check (list int)) "builder record" [ 3; 1; 2 ]
    (Array.to_list (Array.map (fun (p : Netlist.Net.pin) -> p.Netlist.Net.cell)
                      n.Netlist.Net.pins))

let test_net_validation () =
  Alcotest.check_raises "one pin"
    (Invalid_argument "Net.make: needs at least two pins") (fun () ->
      ignore (Netlist.Net.make ~id:0 ~name:"n" [| pin 0 |]));
  Alcotest.check_raises "duplicate pin"
    (Invalid_argument "Net.make: duplicate pin") (fun () ->
      ignore (Netlist.Net.make ~id:0 ~name:"n" [| pin 0; pin 0 |]))

(* Duplicate pins are judged under [compare] equality on (cell, dx, dy),
   as the [Hashtbl] check they replaced judged them: [-0.] equals [0.]
   and NaN equals NaN, on short nets (pairwise check) and long ones
   (sorted check) alike. *)
let pad_pins k = List.init k (fun x -> { Netlist.Net.cell = 10 + x; dx = 0.; dy = 0. })

let raises_duplicate pins =
  match Netlist.Net.make ~id:0 ~name:"n" (Array.of_list pins) with
  | _ -> false
  | exception Invalid_argument msg when msg = "Net.make: duplicate pin" -> true

let test_net_duplicate_signed_zero () =
  List.iter
    (fun filler ->
      let tag what = Printf.sprintf "%s, %d pins" what (filler + 2) in
      let p dx dy = { Netlist.Net.cell = 0; dx; dy } in
      Alcotest.(check bool) (tag "-0. dx equals 0.") true
        (raises_duplicate ((p 0. 1. :: pad_pins filler) @ [ p (-0.) 1. ]));
      Alcotest.(check bool) (tag "-0. dy equals 0.") true
        (raises_duplicate ((p 1. (-0.) :: pad_pins filler) @ [ p 1. 0. ]));
      Alcotest.(check bool) (tag "0. and 1. differ") false
        (raises_duplicate ((p 0. 0. :: pad_pins filler) @ [ p 1. 0. ])))
    [ 0; 1; 20 ]

let test_net_duplicate_nan () =
  List.iter
    (fun filler ->
      let tag what = Printf.sprintf "%s, %d pins" what (filler + 2) in
      let p dx dy = { Netlist.Net.cell = 0; dx; dy } in
      Alcotest.(check bool) (tag "NaN dx equals NaN") true
        (raises_duplicate ((p nan 0. :: pad_pins filler) @ [ p (-.nan) 0. ]));
      Alcotest.(check bool) (tag "NaN dy equals NaN") true
        (raises_duplicate ((p 2. nan :: pad_pins filler) @ [ p 2. nan ]));
      Alcotest.(check bool) (tag "NaN and 0. differ") false
        (raises_duplicate ((p nan 0. :: pad_pins filler) @ [ p 0. 0. ]));
      Alcotest.(check bool) (tag "NaN on other cells differ") false
        (raises_duplicate
           ((p nan nan :: pad_pins filler) @ [ { Netlist.Net.cell = 1; dx = nan; dy = nan } ])))
    [ 0; 1; 20 ]

(* [Net.make] agrees with a [Hashtbl] of (cell, dx, dy) keys on random
   pin lists drawn from few cells and offsets, -0. and NaN among them. *)
let prop_net_duplicates_as_hashtbl =
  QCheck.Test.make ~count:300 ~name:"Net.make duplicates are the Hashtbl's"
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let offsets = [| 0.; -0.; 1.; nan; -.nan |] in
      let k = 2 + Random.State.int st 40 in
      let pins =
        List.init k (fun _ ->
            { Netlist.Net.cell = Random.State.int st (1 + (k / 2));
              dx = offsets.(Random.State.int st 5);
              dy = offsets.(Random.State.int st 5) })
      in
      let seen = Hashtbl.create k in
      let expected =
        List.exists
          (fun (p : Netlist.Net.pin) ->
            let key = (p.Netlist.Net.cell, p.Netlist.Net.dx, p.Netlist.Net.dy) in
            Hashtbl.mem seen key || (Hashtbl.add seen key (); false))
          pins
      in
      raises_duplicate pins = expected)

(* A long net's check sorts one k-sized index array in place: with the
   heap sort's two-word exceptions it stays under 5 words per pin, where
   the [Hashtbl] check took 9.4 (200 pins). *)
let test_net_make_allocation () =
  let k = 200 in
  let pins =
    Array.init k (fun x ->
        { Netlist.Net.cell = x mod 50; dx = float_of_int (x / 50); dy = 0. })
  in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Netlist.Net.make ~id:0 ~name:"n" pins));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d pins" words k)
    true
    (words < float_of_int (5 * k))

let test_net_same_cell_distinct_offsets () =
  (* Two pins on the same cell at different offsets are legitimate. *)
  let c = Helpers.net_circuit [| [| (0, -1., 0.); (0, 1., 0.) |] |] in
  Alcotest.(check int) "two pins" 2 (Netlist.Circuit.degree c 0);
  Alcotest.(check (list int)) "one distinct cell" [ 0 ] (Netlist.Circuit.net_cells c 0)

(* --- circuit --- *)

let test_circuit_counts () =
  let c = tiny_circuit () in
  Alcotest.(check int) "cells" 4 (Netlist.Circuit.num_cells c);
  Alcotest.(check int) "nets" 2 (Netlist.Circuit.num_nets c);
  Alcotest.(check int) "movable (pad excluded)" 3 (Netlist.Circuit.num_movable c);
  Alcotest.(check int) "rows" 4 (Netlist.Circuit.num_rows c)

let test_circuit_areas () =
  let c = tiny_circuit () in
  Alcotest.check approx "movable area" (128. +. 192. +. 960.)
    (Netlist.Circuit.movable_area c);
  (* Pads excluded from total cell area. *)
  Alcotest.check approx "total area" (128. +. 192. +. 960.)
    (Netlist.Circuit.total_cell_area c);
  Alcotest.check approx "utilization" ((128. +. 192. +. 960.) /. 6400.)
    (Netlist.Circuit.utilization c)

let test_circuit_incidence () =
  let c = tiny_circuit () in
  Alcotest.(check (array int)) "cell 0 nets" [| 0; 1 |]
    (Netlist.Circuit.nets_of_cell c 0);
  Alcotest.(check (array int)) "cell 1 nets" [| 0 |]
    (Netlist.Circuit.nets_of_cell c 1)

let test_circuit_validation () =
  let cells = [| cell 0 8. 16. |] in
  let bad_net = [| Netlist.Net.make ~id:0 ~name:"n" [| pin 0; pin 7 |] |] in
  Alcotest.check_raises "dangling pin"
    (Invalid_argument "Circuit.make: pin references unknown cell") (fun () ->
      ignore
        (Netlist.Circuit.make ~name:"bad" ~cells ~nets:bad_net ~region
           ~row_height:16.))

let test_pin_position () =
  (* A pin sits at its cell's centre plus its offset. *)
  let c = Helpers.net_circuit [| [| (1, 0., 0.); (0, 2., -3.) |] |] in
  let x = [| 10.; 0. |] and y = [| 20.; 0. |] in
  let k = c.Netlist.Circuit.net_start.(0) + 1 in
  let cl = c.Netlist.Circuit.pin_cell.(k) in
  Alcotest.check approx "px" 12. (x.(cl) +. c.Netlist.Circuit.pin_dx.(k));
  Alcotest.check approx "py" 17. (y.(cl) +. c.Netlist.Circuit.pin_dy.(k));
  let box = Metrics.Wirelength.bbox_net c ~x ~y 0 in
  Alcotest.check approx "bbox x_hi" 12. box.Geometry.Rect.x_hi;
  Alcotest.check approx "bbox y_lo" 0. box.Geometry.Rect.y_lo

(* A generated circuit's heap size per pin.  With boxed pin records
   under per-net records it was 18.46 words (primary1, seed 1: 51136
   words for 2770 pins); the flat pin table makes it 11.14 (30849). *)
let test_circuit_words_per_pin () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let c, _ = Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:1) in
  let per_pin =
    float_of_int (Obj.reachable_words (Obj.repr c))
    /. float_of_int (Netlist.Circuit.num_pins c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "circuit words per pin (%.2f) below 15" per_pin)
    true (per_pin < 15.)

(* --- placement --- *)

let test_placement_centered () =
  let c = tiny_circuit () in
  let p = Netlist.Placement.centered c ~fixed_positions:[ (2, (0., 32.)) ] in
  Alcotest.check approx "movable at centre x" 50. p.Netlist.Placement.x.(0);
  Alcotest.check approx "movable at centre y" 32. p.Netlist.Placement.y.(1);
  Alcotest.check approx "pad pinned" 0. p.Netlist.Placement.x.(2);
  Alcotest.check approx "pad pinned y" 32. p.Netlist.Placement.y.(2)

let test_cell_rect () =
  let c = tiny_circuit () in
  let p = Netlist.Placement.centered c ~fixed_positions:[] in
  let r = Netlist.Placement.cell_rect c p 0 in
  Alcotest.check approx "width" 8. (Geometry.Rect.width r);
  let cx, _ = Geometry.Rect.center r in
  Alcotest.check approx "centred" 50. cx

let test_clamp_to_region () =
  let c = tiny_circuit () in
  let p = Netlist.Placement.centered c ~fixed_positions:[] in
  p.Netlist.Placement.x.(0) <- 1000.;
  p.Netlist.Placement.y.(0) <- -1000.;
  p.Netlist.Placement.x.(2) <- 1000.;
  (* pad: fixed, must not move *)
  Netlist.Placement.clamp_to_region c p;
  Alcotest.check approx "x clamped" 96. p.Netlist.Placement.x.(0);
  Alcotest.check approx "y clamped" 8. p.Netlist.Placement.y.(0);
  Alcotest.check approx "fixed untouched" 1000. p.Netlist.Placement.x.(2)

let test_displacement () =
  let a = { Netlist.Placement.x = [| 0.; 0. |]; y = [| 0.; 0. |] } in
  let b = { Netlist.Placement.x = [| 3.; 0. |]; y = [| 4.; 1. |] } in
  Alcotest.check approx "total" 6. (Netlist.Placement.displacement a b);
  Alcotest.check approx "max" 5. (Netlist.Placement.max_displacement a b)

let suite =
  [
    Alcotest.test_case "cell defaults" `Quick test_cell_defaults;
    Alcotest.test_case "cell area/movable" `Quick test_cell_area_movable;
    Alcotest.test_case "cell validation" `Quick test_cell_validation;
    Alcotest.test_case "net accessors" `Quick test_net_accessors;
    Alcotest.test_case "net validation" `Quick test_net_validation;
    Alcotest.test_case "net same-cell pins" `Quick test_net_same_cell_distinct_offsets;
    Alcotest.test_case "net duplicate: -0. equals 0." `Quick
      test_net_duplicate_signed_zero;
    Alcotest.test_case "net duplicate: NaN equals NaN" `Quick
      test_net_duplicate_nan;
    QCheck_alcotest.to_alcotest prop_net_duplicates_as_hashtbl;
    Alcotest.test_case "Net.make allocation" `Quick test_net_make_allocation;
    Alcotest.test_case "circuit counts" `Quick test_circuit_counts;
    Alcotest.test_case "circuit areas" `Quick test_circuit_areas;
    Alcotest.test_case "circuit incidence" `Quick test_circuit_incidence;
    Alcotest.test_case "circuit validation" `Quick test_circuit_validation;
    Alcotest.test_case "pin position" `Quick test_pin_position;
    Alcotest.test_case "circuit words per pin" `Quick test_circuit_words_per_pin;
    Alcotest.test_case "placement centered" `Quick test_placement_centered;
    Alcotest.test_case "cell rect" `Quick test_cell_rect;
    Alcotest.test_case "clamp to region" `Quick test_clamp_to_region;
    Alcotest.test_case "displacement" `Quick test_displacement;
  ]
