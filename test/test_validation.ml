(* Constructor and argument validation across all libraries: every
   public entry point that documents an [Invalid_argument] or [Failure]
   must actually raise it, with no partial state mutation. *)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let raises_failure f =
  try
    f ();
    false
  with Failure _ -> true

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:64. ~y_hi:64.

let tiny () =
  let cells =
    [|
      Netlist.Cell.make ~id:0 ~name:"a" ~width:8. ~height:16. ();
      Netlist.Cell.make ~id:1 ~name:"b" ~width:8. ~height:16. ();
    |]
  in
  let nets = [| Netlist.Net.make ~id:0 ~name:"n" [| pin 0; pin 1 |] |] in
  Netlist.Circuit.make ~name:"v" ~cells ~nets ~region ~row_height:16.

(* --- numeric --- *)

let test_numeric_validation () =
  Alcotest.(check bool) "sparse negative dim" true
    (raises_invalid (fun () -> ignore (Numeric.Sparse.builder (-1))));
  Alcotest.(check bool) "fft length" true
    (raises_invalid (fun () -> ignore (Numeric.Fft.plan 6)));
  Alcotest.(check bool) "real fft length" true
    (raises_invalid (fun () -> ignore (Numeric.Fft.rplan 1)));
  Alcotest.(check bool) "poisson empty grid" true
    (raises_invalid (fun () ->
         ignore (Numeric.Poisson.direct_force_field ~rows:0 ~cols:4 ~hx:1. ~hy:1. [||])));
  Alcotest.(check bool) "rng geometric p" true
    (raises_invalid (fun () ->
         ignore (Numeric.Rng.geometric (Numeric.Rng.create 1) 1.5)));
  Alcotest.(check bool) "assignment ragged" true
    (raises_invalid (fun () ->
         ignore (Numeric.Mincostflow.assignment ~costs:[| [| 1.; 2. |]; [| 1. |] |])));
  Alcotest.(check bool) "assignment too many agents" true
    (raises_invalid (fun () ->
         ignore
           (Numeric.Mincostflow.assignment
              ~costs:[| [| 1. |]; [| 2. |] |])))

(* --- geometry --- *)

let test_geometry_validation () =
  Alcotest.(check bool) "rect inverted" true
    (raises_invalid (fun () ->
         ignore (Geometry.Rect.make ~x_lo:1. ~y_lo:0. ~x_hi:0. ~y_hi:1.)));
  Alcotest.(check bool) "of_center negative" true
    (raises_invalid (fun () ->
         ignore (Geometry.Rect.of_center ~cx:0. ~cy:0. ~w:(-1.) ~h:1.)));
  Alcotest.(check bool) "grid zero dims" true
    (raises_invalid (fun () -> ignore (Geometry.Grid2.create region ~nx:0 ~ny:4)))

(* --- netlist --- *)

let test_netlist_validation () =
  Alcotest.(check bool) "cell id order" true
    (raises_invalid (fun () ->
         let cells =
           [| Netlist.Cell.make ~id:1 ~name:"x" ~width:1. ~height:1. () |]
         in
         ignore
           (Netlist.Circuit.make ~name:"bad" ~cells ~nets:[||] ~region
              ~row_height:16.)));
  Alcotest.(check bool) "net id order" true
    (raises_invalid (fun () ->
         let cells =
           [|
             Netlist.Cell.make ~id:0 ~name:"x" ~width:1. ~height:1. ();
             Netlist.Cell.make ~id:1 ~name:"y" ~width:1. ~height:1. ();
           |]
         in
         let nets = [| Netlist.Net.make ~id:3 ~name:"n" [| pin 0; pin 1 |] |] in
         ignore
           (Netlist.Circuit.make ~name:"bad" ~cells ~nets ~region ~row_height:16.)));
  Alcotest.(check bool) "zero row height" true
    (raises_invalid (fun () ->
         ignore
           (Netlist.Circuit.make ~name:"bad" ~cells:[||] ~nets:[||] ~region
              ~row_height:0.)))

(* --- generator / profiles --- *)

let test_gen_validation () =
  Alcotest.(check bool) "too few cells" true
    (raises_invalid (fun () ->
         ignore
           (Circuitgen.Gen.generate
              (Circuitgen.Gen.default_params ~name:"x" ~num_cells:2 ~num_nets:2
                 ~num_rows:2 ~seed:1))));
  Alcotest.(check bool) "bad utilization" true
    (raises_invalid (fun () ->
         let p =
           { (Circuitgen.Gen.default_params ~name:"x" ~num_cells:10 ~num_nets:10
                ~num_rows:2 ~seed:1)
             with Circuitgen.Gen.utilization = 1.5 }
         in
         ignore (Circuitgen.Gen.generate p)));
  Alcotest.(check bool) "bad scale" true
    (raises_invalid (fun () ->
         ignore (Circuitgen.Profiles.params ~scale:0. (List.hd Circuitgen.Profiles.all) ~seed:1)))

(* --- qp / kraftwerk --- *)

let test_qp_validation () =
  let c = tiny () in
  let p = Netlist.Placement.create c in
  Alcotest.(check bool) "net_weights length" true
    (raises_invalid (fun () ->
         ignore
           (Qp.System.build c ~placement:p ~net_weights:[| 1.; 1. |]
              ~edge_scale:Qp.Weights.Quadratic ())));
  let system =
    Qp.System.build c ~placement:p ~net_weights:[| 1. |]
      ~edge_scale:Qp.Weights.Quadratic ()
  in
  Alcotest.(check bool) "force length" true
    (raises_invalid (fun () ->
         ignore (Qp.System.solve system ~placement:p ~ex:[| 0. |] ~ey:[||])))

let test_eco_validation () =
  let c = tiny () in
  let rng = Numeric.Rng.create 1 in
  Alcotest.(check bool) "rewire fraction" true
    (raises_invalid (fun () -> ignore (Kraftwerk.Eco.rewire c rng ~fraction:1.5)));
  Alcotest.(check bool) "resize range" true
    (raises_invalid (fun () ->
         ignore (Kraftwerk.Eco.resize c rng ~fraction:0.5 ~scale_range:(2., 1.))))

let test_flexible_validation () =
  let c = tiny () in
  let p = Netlist.Placement.create c in
  Alcotest.(check bool) "empty ratios" true
    (raises_invalid (fun () ->
         ignore (Floorplan.Flexible.reshape_blocks c p ~ratios:[])))

(* --- io --- *)

let test_io_failures () =
  Alcotest.(check bool) "bookshelf missing aux entries" true
    (let f = Filename.temp_file "val" ".aux" in
     Fun.protect
       ~finally:(fun () -> Sys.remove f)
       (fun () ->
         let oc = open_out f in
         output_string oc "\n";
         close_out oc;
         Result.is_error (Netlist.Bookshelf.load_aux f)));
  (* A directory opens but cannot be read: a typed error naming it. *)
  let dir = Filename.get_temp_dir_name () in
  let names_dir = function
    | Error e -> e.Netlist.Io.file = Some dir
    | Ok _ -> false
  in
  Alcotest.(check bool) "circuit from a directory" true
    (names_dir (Netlist.Io.load_circuit dir));
  Alcotest.(check bool) "placement from a directory" true
    (names_dir (Netlist.Io.load_placement dir ~num_cells:1))

let suite =
  [
    Alcotest.test_case "numeric" `Quick test_numeric_validation;
    Alcotest.test_case "geometry" `Quick test_geometry_validation;
    Alcotest.test_case "netlist" `Quick test_netlist_validation;
    Alcotest.test_case "generator" `Quick test_gen_validation;
    Alcotest.test_case "qp" `Quick test_qp_validation;
    Alcotest.test_case "eco" `Quick test_eco_validation;
    Alcotest.test_case "flexible" `Quick test_flexible_validation;
    Alcotest.test_case "io failures" `Quick test_io_failures;
  ]
