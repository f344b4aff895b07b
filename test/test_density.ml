(* Tests for the supply/demand density model, the cell force computation
   and the stopping criterion. *)

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:64. ~y_hi:64.

let small_circuit ?(n = 8) () =
  let cells =
    Array.init n (fun i ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "c%d" i) ~width:8.
          ~height:8. ())
  in
  let nets =
    Array.init (n - 1) (fun i ->
        Netlist.Net.make ~id:i ~name:(Printf.sprintf "n%d" i)
          [| pin i; pin (i + 1) |])
  in
  Netlist.Circuit.make ~name:"d" ~cells ~nets ~region ~row_height:8.

let clumped_placement c =
  Netlist.Placement.centered c ~fixed_positions:[]

let spread_placement (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.num_cells c in
  let p = Netlist.Placement.create c in
  (* 8 cells on a uniform 4×2 lattice inside 64×64. *)
  for i = 0 to n - 1 do
    p.Netlist.Placement.x.(i) <- 8. +. (float_of_int (i mod 4) *. 16.);
    p.Netlist.Placement.y.(i) <- 16. +. (float_of_int (i / 4) *. 32.)
  done;
  p

(* The demand grid of [p], on [bins]×[bins] or the automatic grid. *)
let demand ?bins c p =
  let nx, ny =
    match bins with
    | Some n -> (n, n)
    | None -> Density.Density_map.auto_bins c
  in
  Density.Density_map.demand c p ~nx ~ny

let test_density_sums_to_zero () =
  let c = small_circuit () in
  let g = Density.Density_map.balance (demand ~bins:8 c (clumped_placement c)) in
  Alcotest.(check (float 1e-9)) "balanced" 0. (Geometry.Grid2.total g)

let test_density_positive_at_clump () =
  let c = small_circuit () in
  let g = Density.Density_map.balance (demand ~bins:8 c (clumped_placement c)) in
  let ix, iy = Geometry.Grid2.locate g 32. 32. in
  Alcotest.(check bool) "over-dense centre" true (Geometry.Grid2.get g ix iy > 0.);
  Alcotest.(check bool) "under-dense corner" true (Geometry.Grid2.get g 0 0 < 0.)

let test_occupancy_values () =
  let c = small_circuit ~n:1 () in
  let p = Netlist.Placement.create c in
  p.Netlist.Placement.x.(0) <- 4.;
  p.Netlist.Placement.y.(0) <- 4.;
  (* One 8×8 cell exactly covering bin (0,0) of an 8×8 grid over 64×64. *)
  let d = demand ~bins:8 c p in
  let occ ix iy = Geometry.Grid2.get d ix iy /. 64. in
  Alcotest.(check (float 1e-9)) "full bin" 1. (occ 0 0);
  Alcotest.(check (float 1e-9)) "empty bin" 0. (occ 4 4)

let test_extra_density_rebalances () =
  let c = small_circuit () in
  let extra = Geometry.Grid2.create region ~nx:8 ~ny:8 in
  Geometry.Grid2.set extra 0 0 100.;
  let d = demand ~bins:8 c (clumped_placement c) in
  let before = Array.copy (Geometry.Grid2.values d) in
  let g = Density.Density_map.balance ~extra d in
  Alcotest.(check bool) "demand grid untouched" true
    (before = Geometry.Grid2.values d);
  (* Still balanced after the injection. *)
  Alcotest.(check (float 1e-6)) "balanced with extra" 0. (Geometry.Grid2.total g);
  Alcotest.(check bool) "extra bin now positive" true (Geometry.Grid2.get g 0 0 > 0.)

let test_extra_dimension_mismatch () =
  let c = small_circuit () in
  let extra = Geometry.Grid2.create region ~nx:4 ~ny:4 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Density_map.balance: extra grid dimension mismatch")
    (fun () ->
      ignore
        (Density.Density_map.balance ~extra (demand ~bins:8 c (clumped_placement c))))

let test_auto_bins_in_range () =
  let prof = Circuitgen.Profiles.find "struct" in
  let circuit, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:0.5 prof ~seed:1)
  in
  let nx, ny = Density.Density_map.auto_bins circuit in
  Alcotest.(check bool) "nx in range" true (nx >= 8 && nx <= 128);
  Alcotest.(check bool) "ny in range" true (ny >= 8 && ny <= 128)

(* --- forces --- *)

let forces_for c p =
  let var_of_cell, n_movable = Qp.System.index_map c in
  Density.Forces.at_cells c p ~demand:(demand ~bins:16 c p) ~var_of_cell
    ~n_movable ~k_param:0.2 ()

let test_forces_zero_for_uniform () =
  (* Cells exactly tiling the region: density is flat, forces vanish. *)
  let cells =
    Array.init 4 (fun i ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "c%d" i) ~width:32.
          ~height:32. ())
  in
  let nets =
    [| Netlist.Net.make ~id:0 ~name:"n" (Array.init 4 (fun i -> pin i)) |]
  in
  let c = Netlist.Circuit.make ~name:"t" ~cells ~nets ~region ~row_height:8. in
  let p = Netlist.Placement.create c in
  let coords = [| (16., 16.); (48., 16.); (16., 48.); (48., 48.) |] in
  Array.iteri
    (fun i (x, y) ->
      p.Netlist.Placement.x.(i) <- x;
      p.Netlist.Placement.y.(i) <- y)
    coords;
  let f = forces_for c p in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-6)) "fx ~ 0" 0. v)
    f.Density.Forces.fx

let test_forces_push_clump_apart () =
  (* Two cells stacked left of centre; with e entering C·p + d + e = 0,
     moving along −e reduces density, so the force on the leftmost cell
     must have e pointing right... the repelling direction is encoded by
     the solve: we check the two cells get opposite-signed x forces. *)
  let c = small_circuit ~n:2 () in
  let p = Netlist.Placement.create c in
  p.Netlist.Placement.x.(0) <- 28.;
  p.Netlist.Placement.x.(1) <- 36.;
  p.Netlist.Placement.y.(0) <- 32.;
  p.Netlist.Placement.y.(1) <- 32.;
  let f = forces_for c p in
  Alcotest.(check bool) "opposite x forces" true
    (f.Density.Forces.fx.(0) *. f.Density.Forces.fx.(1) < 0.)

let test_forces_scale_bound () =
  let c = small_circuit () in
  let f = forces_for c (clumped_placement c) in
  let target = 0.2 *. (64. +. 64.) in
  Array.iteri
    (fun v fx ->
      let m = sqrt ((fx *. fx) +. (f.Density.Forces.fy.(v) *. f.Density.Forces.fy.(v))) in
      Alcotest.(check bool) "bounded by K(W+H)" true (m <= target +. 1e-6))
    f.Density.Forces.fx

let test_solver_variants_agree () =
  let c = small_circuit () in
  let grid = Density.Density_map.balance (demand ~bins:12 c (clumped_placement c)) in
  let rows = Geometry.Grid2.ny grid and cols = Geometry.Grid2.nx grid in
  let hx = Geometry.Grid2.dx grid and hy = Geometry.Grid2.dy grid in
  let density = Geometry.Grid2.values grid in
  let fft = Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density in
  let direct = Numeric.Poisson.direct_force_field ~rows ~cols ~hx ~hy density in
  Alcotest.(check bool) "fft = direct (x)" true
    (Helpers.max_abs_diff fft.Numeric.Poisson.fx direct.Numeric.Poisson.fx < 1e-6);
  Alcotest.(check bool) "fft = direct (y)" true
    (Helpers.max_abs_diff fft.Numeric.Poisson.fy direct.Numeric.Poisson.fy < 1e-6)

(* --- stopping criterion --- *)

let test_stop_false_when_clumped () =
  let c = small_circuit () in
  Alcotest.(check bool) "clumped: keep going" false
    (Density.Stop.should_stop c (demand ~bins:16 c (clumped_placement c)))

let test_stop_true_when_spread () =
  let c = small_circuit () in
  Alcotest.(check bool) "spread: stop" true
    (Density.Stop.should_stop ~multiplier:16. c (demand ~bins:8 c (spread_placement c)))

let test_empty_square_monotone () =
  let c = small_circuit () in
  let area p = Density.Stop.largest_empty_square_area (demand ~bins:16 c p) in
  let clumped = area (clumped_placement c) in
  let spread = area (spread_placement c) in
  Alcotest.(check bool) "spreading shrinks the largest empty square" true
    (spread < clumped)

(* --- stopping criterion: edge cases ---------------------------------- *)

let test_stop_empty_circuit () =
  let c =
    Netlist.Circuit.make ~name:"empty" ~cells:[||] ~nets:[||] ~region
      ~row_height:8.
  in
  let p = Netlist.Placement.create c in
  Alcotest.(check bool) "no cells: stop immediately" true
    (Density.Stop.should_stop c (demand ~bins:8 c p));
  Alcotest.(check (float 0.)) "no movable area: zero overflow" 0.
    (Density.Density_map.overflow c (demand ~bins:8 c p))

let test_stop_single_cell () =
  let c = small_circuit ~n:1 () in
  let p = clumped_placement c in
  (* One 8x8 cell in a 64x64 region: there is nothing to spread, so the
     criterion declares convergence immediately regardless of the
     multiplier — the degenerate rule, agreeing with the controller's
     envelope criterion. *)
  Alcotest.(check bool) "single cell: stop immediately" true
    (Density.Stop.should_stop c (demand ~bins:8 c p));
  Alcotest.(check bool) "single cell: any multiplier stops" true
    (Density.Stop.should_stop ~multiplier:1e-9 c (demand ~bins:8 c p))

(* The placer must agree with the stop criterion on degenerate circuits:
   a single movable cell is placed at its quadratic optimum in exactly
   one transformation, then both Density.Stop and the envelope criterion
   report convergence. *)
let test_placer_single_movable_one_iteration () =
  let cells =
    [|
      Netlist.Cell.make ~id:0 ~name:"m" ~width:8. ~height:8. ();
      Netlist.Cell.make ~id:1 ~name:"p0" ~width:8. ~height:8. ~fixed:true ();
      Netlist.Cell.make ~id:2 ~name:"p1" ~width:8. ~height:8. ~fixed:true ();
    |]
  in
  let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. } in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"n0" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"n1" [| pin 0; pin 2 |];
    |]
  in
  let c =
    Netlist.Circuit.make ~name:"degenerate" ~cells ~nets ~region ~row_height:8.
  in
  let p = Netlist.Placement.create c in
  p.Netlist.Placement.x.(1) <- 8.;
  p.Netlist.Placement.y.(1) <- 8.;
  p.Netlist.Placement.x.(2) <- 56.;
  p.Netlist.Placement.y.(2) <- 56.;
  p.Netlist.Placement.x.(0) <- 2.;
  p.Netlist.Placement.y.(0) <- 2.;
  let state, reports = Kraftwerk.Placer.run Kraftwerk.Config.standard c p in
  Alcotest.(check int) "exactly one transformation" 1 (List.length reports);
  Alcotest.(check bool) "criterion agrees post-hoc" true
    (Density.Stop.should_stop c (demand c state.Kraftwerk.Placer.placement));
  (* The lone movable cell moves toward the quadratic optimum between
     its two anchors (the hold spring damps the first step, so it need
     not arrive — only leave its corner and stay within the span). *)
  let x = state.Kraftwerk.Placer.placement.Netlist.Placement.x.(0) in
  Alcotest.(check bool) "cell moved toward the optimum" true
    (x > 2. && x >= 8. -. 1e-6 && x <= 56. +. 1e-6)

let test_placer_all_fixed_zero_iterations () =
  let cells =
    Array.init 3 (fun i ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "f%d" i) ~width:8.
          ~height:8. ~fixed:true ())
  in
  let c =
    Netlist.Circuit.make ~name:"allfixed" ~cells ~nets:[||] ~region
      ~row_height:8.
  in
  let p = Netlist.Placement.create c in
  let state, reports = Kraftwerk.Placer.run Kraftwerk.Config.standard c p in
  Alcotest.(check int) "no transformations" 0 (List.length reports);
  Alcotest.(check bool) "criterion agrees" true
    (Density.Stop.should_stop c (demand c state.Kraftwerk.Placer.placement))

let test_stop_all_fixed () =
  let cells =
    Array.init 4 (fun i ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "f%d" i) ~width:8.
          ~height:8. ~fixed:true ())
  in
  let c =
    Netlist.Circuit.make ~name:"fixed" ~cells ~nets:[||] ~region ~row_height:8.
  in
  let p = Netlist.Placement.create c in
  Alcotest.(check bool) "nothing movable: stop immediately" true
    (Density.Stop.should_stop c (demand ~bins:8 c p))

let test_stop_already_converged_run () =
  (* A placement that already satisfies the criterion must stop the
     placer loop before the first transformation. *)
  let c = small_circuit () in
  let p = spread_placement c in
  let cfg =
    { Kraftwerk.Config.standard with
      Kraftwerk.Config.stop_multiplier = 16.;
      grid = Some (8, 8) }
  in
  let _, reports = Kraftwerk.Placer.run cfg c p in
  Alcotest.(check int) "no transformations" 0 (List.length reports)

let test_stop_oscillating_terminates () =
  (* An adversarial hook teleports the clump back and forth so the
     density (and its overflow) oscillates and the criterion never
     fires; the loop must still terminate at the iteration bound. *)
  let c = small_circuit () in
  let p0 = clumped_placement c in
  let flip = ref false in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.reweight =
        Some
          (fun st ->
            flip := not !flip;
            let off = if !flip then 12. else -12. in
            let p = st.Kraftwerk.Placer.placement in
            Array.iteri (fun i _ -> p.Netlist.Placement.x.(i) <- 32. +. off)
              p.Netlist.Placement.x) }
  in
  let cfg =
    { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 12 }
  in
  let _, reports = Kraftwerk.Placer.run ~hooks cfg c p0 in
  let n = List.length reports in
  Alcotest.(check bool) "terminates within the bound" true (n >= 1 && n <= 12)

(* --- overflow metric -------------------------------------------------- *)

let test_overflow_ratio_extremes () =
  let c = small_circuit () in
  (* All eight 8x8 cells stacked on the centre: every unit of movable
     area beyond one bin's capacity overflows. *)
  let overflow p = Density.Density_map.overflow c (demand ~bins:8 c p) in
  let clumped = overflow (clumped_placement c) in
  let spread = overflow (spread_placement c) in
  (* The centred stack spreads over four bins at occupancy 2.0: exactly
     half the movable area sits above capacity. *)
  Alcotest.(check (float 1e-9)) "clump overflow" 0.5 clumped;
  Alcotest.(check (float 1e-9)) "uniform lattice has no overflow" 0. spread;
  Alcotest.(check bool) "spreading reduces overflow" true (spread < clumped)

(* Words allocated by [f], counted as minor + major − promoted (arrays
   above 256 words skip the minor heap). *)
let allocated_by f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* biomed at a random placement with a band of cells pushed past the
   region's edge (clipped or dropped by the splat). *)
let scattered_biomed () =
  let prof = Circuitgen.Profiles.find "biomed" in
  let c, _ = Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:5) in
  let rng = Numeric.Rng.create 11 in
  let r = c.Netlist.Circuit.region in
  let w = Geometry.Rect.width r in
  let p = Netlist.Placement.create c in
  for i = 0 to Netlist.Circuit.num_cells c - 1 do
    p.Netlist.Placement.x.(i) <-
      Numeric.Rng.uniform rng (r.Geometry.Rect.x_lo -. (0.05 *. w))
        (r.Geometry.Rect.x_hi +. (0.05 *. w));
    p.Netlist.Placement.y.(i) <-
      Numeric.Rng.uniform rng r.Geometry.Rect.y_lo r.Geometry.Rect.y_hi
  done;
  (c, p)

(* The placer's splat (in place) adds exactly what Grid2.splat_rect adds
   per cell rectangle, cell by cell: on the automatic grid and on one
   four times finer, where cells cover many bins. *)
let test_demand_matches_splat_rect () =
  let c, p = scattered_biomed () in
  let region = c.Netlist.Circuit.region in
  let anx, any = Density.Density_map.auto_bins c in
  List.iter
    (fun (nx, ny) ->
      let reference = Geometry.Grid2.create region ~nx ~ny in
      Array.iter
        (fun (cl : Netlist.Cell.t) ->
          if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then
            Geometry.Grid2.splat_rect reference
              (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
              (Netlist.Cell.area cl))
        c.Netlist.Circuit.cells;
      let bits g = Array.map Int64.bits_of_float (Geometry.Grid2.values g) in
      let g = Geometry.Grid2.create region ~nx ~ny in
      (* Twice: the second splat reuses a dirty grid. *)
      for pass = 1 to 2 do
        Density.Density_map.demand_into c p g;
        Alcotest.(check bool)
          (Printf.sprintf "%dx%d pass %d" nx ny pass)
          true
          (bits g = bits reference)
      done)
    [ (anx, any); (4 * anx, 4 * any) ]

(* Steady-state allocation of the splat into a reused grid: a few words
   per call, not per cell or bin. *)
let test_splat_allocation () =
  let c, p = scattered_biomed () in
  let nx, ny = Density.Density_map.auto_bins c in
  let g = Geometry.Grid2.create c.Netlist.Circuit.region ~nx ~ny in
  Density.Density_map.demand_into c p g;
  let words = allocated_by (fun () -> Density.Density_map.demand_into c p g) in
  Alcotest.(check bool)
    (Printf.sprintf "splat allocates %.0f words, budget 64" words)
    true (words <= 64.)

(* [Grid2.splat_rect] allocates nothing per bin: a rectangle over 1,600
   bins of a 64x64 grid costs what a one-bin rectangle costs. *)
let test_splat_rect_allocation () =
  let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:64. ~y_hi:64. in
  let g = Geometry.Grid2.create region ~nx:64 ~ny:64 in
  let splat rect = allocated_by (fun () -> Geometry.Grid2.splat_rect g rect 3.) in
  let one = Geometry.Rect.make ~x_lo:5.25 ~y_lo:7.5 ~x_hi:5.75 ~y_hi:7.75 in
  let many = Geometry.Rect.make ~x_lo:10.5 ~y_lo:3.25 ~x_hi:49.5 ~y_hi:42.75 in
  ignore (splat many);
  let w_one = splat one and w_many = splat many in
  Alcotest.(check bool)
    (Printf.sprintf "1600 bins allocate %.0f words, one bin %.0f, budget 8"
       w_many w_one)
    true
    (w_many = w_one && w_many <= 8.)

(* Forces through reused buffers are the same bits as through fresh
   ones, and a steady-state call allocates a few words, not a grid or a
   force vector. *)
let test_forces_buffers () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let c, pads = Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:3) in
  let p0 = Circuitgen.Gen.initial_placement c pads in
  let p = Netlist.Placement.copy p0 in
  let rng = Numeric.Rng.create 5 in
  let r = c.Netlist.Circuit.region in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if Netlist.Cell.movable cl then begin
        p.Netlist.Placement.x.(cl.Netlist.Cell.id) <-
          Numeric.Rng.uniform rng r.Geometry.Rect.x_lo r.Geometry.Rect.x_hi;
        p.Netlist.Placement.y.(cl.Netlist.Cell.id) <-
          Numeric.Rng.uniform rng r.Geometry.Rect.y_lo r.Geometry.Rect.y_hi
      end)
    c.Netlist.Circuit.cells;
  let var_of_cell, n_movable = Qp.System.index_map c in
  let nx, ny = Density.Density_map.auto_bins c in
  let demand = Density.Density_map.demand c p ~nx ~ny in
  let extra = Geometry.Grid2.create r ~nx ~ny in
  Geometry.Grid2.set extra 1 2 3.5;
  let buffers = Density.Forces.buffers r ~nx ~ny ~n_movable in
  let forces ?buffers () =
    Density.Forces.at_cells ?buffers c p ~demand ~var_of_cell ~n_movable
      ~k_param:0.2 ~extra ()
  in
  let bits (f : Density.Forces.t) =
    ( Array.map Int64.bits_of_float f.Density.Forces.fx,
      Array.map Int64.bits_of_float f.Density.Forces.fy,
      Int64.bits_of_float f.Density.Forces.scale )
  in
  let fresh = bits (forces ()) in
  Alcotest.(check bool) "buffered = fresh" true (bits (forces ~buffers ()) = fresh);
  Alcotest.(check bool) "again, reused" true (bits (forces ~buffers ()) = fresh);
  let words = allocated_by (fun () -> forces ~buffers ()) in
  Alcotest.(check bool)
    (Printf.sprintf "at_cells allocates %.0f words, budget 64" words)
    true (words <= 64.);
  Alcotest.check_raises "mismatched buffers"
    (Invalid_argument "Forces.at_cells: buffers do not match") (fun () ->
      ignore
        (Density.Forces.at_cells
           ~buffers:(Density.Forces.buffers r ~nx ~ny ~n_movable:(n_movable + 1))
           c p ~demand ~var_of_cell ~n_movable ~k_param:0.2 ()))

(* The splat on two worker domains at once, each into its own grid, is
   the calling domain's splat bit for bit. *)
let test_demand_bitwise_across_domains () =
  let c, p = scattered_biomed () in
  let nx, ny = Density.Density_map.auto_bins c in
  let splat () =
    let g = Geometry.Grid2.create c.Netlist.Circuit.region ~nx ~ny in
    Density.Density_map.demand_into c p g;
    Array.map Int64.bits_of_float (Geometry.Grid2.values g)
  in
  let reference = splat () in
  List.iteri
    (fun w bits ->
      Alcotest.(check bool) (Printf.sprintf "worker %d bitwise" w) true
        (bits = reference))
    (List.init 2 (fun _ -> Domain.spawn splat) |> List.map Domain.join)

let suite =
  [
    Alcotest.test_case "density sums to zero" `Quick test_density_sums_to_zero;
    Alcotest.test_case "density signs" `Quick test_density_positive_at_clump;
    Alcotest.test_case "occupancy values" `Quick test_occupancy_values;
    Alcotest.test_case "extra density rebalances" `Quick test_extra_density_rebalances;
    Alcotest.test_case "extra dimension mismatch" `Quick test_extra_dimension_mismatch;
    Alcotest.test_case "auto bins range" `Quick test_auto_bins_in_range;
    Alcotest.test_case "forces zero for uniform" `Quick test_forces_zero_for_uniform;
    Alcotest.test_case "forces push clump apart" `Quick test_forces_push_clump_apart;
    Alcotest.test_case "force scale bound" `Quick test_forces_scale_bound;
    Alcotest.test_case "fft/direct fields agree" `Quick test_solver_variants_agree;
    Alcotest.test_case "stop false when clumped" `Quick test_stop_false_when_clumped;
    Alcotest.test_case "stop true when spread" `Quick test_stop_true_when_spread;
    Alcotest.test_case "empty square monotone" `Quick test_empty_square_monotone;
    Alcotest.test_case "stop: empty circuit" `Quick test_stop_empty_circuit;
    Alcotest.test_case "stop: single cell" `Quick test_stop_single_cell;
    Alcotest.test_case "stop: placer runs single movable exactly once" `Quick
      test_placer_single_movable_one_iteration;
    Alcotest.test_case "stop: placer skips all-fixed circuit" `Quick
      test_placer_all_fixed_zero_iterations;
    Alcotest.test_case "stop: all cells fixed" `Quick test_stop_all_fixed;
    Alcotest.test_case "stop: already-converged run takes no steps" `Quick
      test_stop_already_converged_run;
    Alcotest.test_case "stop: oscillating density still terminates" `Quick
      test_stop_oscillating_terminates;
    Alcotest.test_case "overflow ratio extremes" `Quick
      test_overflow_ratio_extremes;
    Alcotest.test_case "demand = per-cell splat_rect, auto and fine grids" `Quick
      test_demand_matches_splat_rect;
    Alcotest.test_case "splat allocation" `Quick test_splat_allocation;
    Alcotest.test_case "splat_rect allocation" `Quick test_splat_rect_allocation;
    Alcotest.test_case "forces through reused buffers" `Quick
      test_forces_buffers;
    Alcotest.test_case "demand bitwise across domains" `Quick
      test_demand_bitwise_across_domains;
  ]
