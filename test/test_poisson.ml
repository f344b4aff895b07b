(* Tests for the Poisson / force-field solvers, including the oracle
   equivalence between the FFT evaluation and the direct summation of
   the paper's eq. (9). *)

let test_fft_matches_direct () =
  let rows = 6 and cols = 10 in
  let rng = Numeric.Rng.create 7 in
  let density =
    Array.init (rows * cols) (fun _ -> Numeric.Rng.uniform rng (-1.) 1.)
  in
  let d = Numeric.Poisson.direct_force_field ~rows ~cols ~hx:2. ~hy:3. density in
  let f = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:2. ~hy:3. density in
  Alcotest.(check bool) "fx" true
    (Helpers.max_abs_diff d.Numeric.Poisson.fx f.Numeric.Poisson.fx < 1e-9);
  Alcotest.(check bool) "fy" true
    (Helpers.max_abs_diff d.Numeric.Poisson.fy f.Numeric.Poisson.fy < 1e-9)

let test_point_source_repels () =
  (* A single positive density bin at the centre: forces point away from
     it everywhere (requirement 2 of §3.2). *)
  let rows = 9 and cols = 9 in
  let density = Array.make (rows * cols) 0. in
  density.((4 * cols) + 4) <- 1.;
  let f = Numeric.Poisson.direct_force_field ~rows ~cols ~hx:1. ~hy:1. density in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if r <> 4 || c <> 4 then begin
        let dx = float_of_int (c - 4) and dy = float_of_int (r - 4) in
        let i = (r * cols) + c in
        let dot =
          (f.Numeric.Poisson.fx.(i) *. dx) +. (f.Numeric.Poisson.fy.(i) *. dy)
        in
        Alcotest.(check bool)
          (Printf.sprintf "outward at (%d,%d)" r c)
          true (dot > 0.)
      end
    done
  done

let test_point_source_symmetry () =
  let rows = 9 and cols = 9 in
  let density = Array.make (rows * cols) 0. in
  density.((4 * cols) + 4) <- 1.;
  let f = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1. ~hy:1. density in
  (* Mirror symmetry: fx(r, 4+d) = −fx(r, 4−d). *)
  for d = 1 to 4 do
    let left = f.Numeric.Poisson.fx.((4 * cols) + 4 - d) in
    let right = f.Numeric.Poisson.fx.((4 * cols) + 4 + d) in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "mirror %d" d) (-.left) right
  done

let test_negative_density_attracts () =
  let rows = 7 and cols = 7 in
  let density = Array.make (rows * cols) 0. in
  density.((3 * cols) + 3) <- -1.;
  let f = Numeric.Poisson.direct_force_field ~rows ~cols ~hx:1. ~hy:1. density in
  let i = 3 * cols in
  (* At the left edge, the force should point right, toward the sink. *)
  Alcotest.(check bool) "attracted" true (f.Numeric.Poisson.fx.(i) > 0.)

let test_zero_density_zero_force () =
  let f =
    Numeric.Poisson.fft_force_field ~rows:4 ~cols:4 ~hx:1. ~hy:1.
      (Array.make 16 0.)
  in
  Alcotest.(check (float 0.)) "max" 0. (Numeric.Poisson.max_magnitude f)

let test_superposition () =
  let rows = 6 and cols = 6 in
  let d1 = Array.make (rows * cols) 0. and d2 = Array.make (rows * cols) 0. in
  d1.(7) <- 1.;
  d2.(28) <- -0.5;
  let sum = Array.init (rows * cols) (fun i -> d1.(i) +. d2.(i)) in
  let f1 = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1. ~hy:1. d1 in
  let f2 = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1. ~hy:1. d2 in
  let fs = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1. ~hy:1. sum in
  let combined =
    Array.init (rows * cols) (fun i ->
        f1.Numeric.Poisson.fx.(i) +. f2.Numeric.Poisson.fx.(i))
  in
  Alcotest.(check bool) "linear superposition" true
    (Helpers.max_abs_diff combined fs.Numeric.Poisson.fx < 1e-9)

let test_sor_sign () =
  (* ∇²Φ = D with a positive source: Φ is negative in the interior (pulled
     below the zero boundary), like a membrane pushed down. *)
  let rows = 9 and cols = 9 in
  let density = Array.make (rows * cols) 0. in
  density.((4 * cols) + 4) <- 1.;
  let phi = Numeric.Poisson.sor_potential ~rows ~cols ~hx:1. ~hy:1. density in
  Alcotest.(check bool) "centre below boundary" true (phi.((4 * cols) + 4) < 0.)

(* The SOR potential of a centred point source inherits the grid's
   mirror symmetry about both centre lines and its diagonal. *)
let test_sor_potential_symmetry () =
  let rows = 9 and cols = 9 in
  let density = Array.make (rows * cols) 0. in
  density.((4 * cols) + 4) <- 1.;
  let phi = Numeric.Poisson.sor_potential ~rows ~cols ~hx:1. ~hy:1. density in
  let at r c = phi.((r * cols) + c) in
  for d = 1 to 4 do
    Alcotest.(check (float 1e-6)) (Printf.sprintf "left/right %d" d)
      (at 4 (4 - d)) (at 4 (4 + d));
    Alcotest.(check (float 1e-6)) (Printf.sprintf "up/down %d" d)
      (at (4 - d) 4) (at (4 + d) 4);
    Alcotest.(check (float 1e-6)) (Printf.sprintf "transpose %d" d)
      (at 4 (4 - d)) (at (4 - d) 4)
  done;
  Alcotest.(check bool) "nonzero" true (Float.abs (at 4 2) > 1e-9)

let test_size_mismatch () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Poisson.fft_force_field: size mismatch") (fun () ->
      ignore (Numeric.Poisson.fft_force_field ~rows:4 ~cols:4 ~hx:1. ~hy:1. (Array.make 3 0.)))

(* ------------------------------------------------------------------ *)
(* FFT path: parity with direct summation, ?out, domains                *)

let random_density rng rows cols =
  Array.init (rows * cols) (fun _ -> Numeric.Rng.uniform rng (-2.) 2.)

let fields_close tag a b =
  Alcotest.(check bool) (tag ^ " fx") true
    (Helpers.max_abs_diff a.Numeric.Poisson.fx b.Numeric.Poisson.fx < 1e-9);
  Alcotest.(check bool) (tag ^ " fy") true
    (Helpers.max_abs_diff a.Numeric.Poisson.fy b.Numeric.Poisson.fy < 1e-9)

let fields_bitwise tag a b =
  let check plane pa pb =
    Array.iteri
      (fun i v ->
        if Int64.bits_of_float v <> Int64.bits_of_float pb.(i) then
          Alcotest.failf "%s: %s[%d] differs: %h vs %h" tag plane i v pb.(i))
      pa
  in
  check "fx" a.Numeric.Poisson.fx b.Numeric.Poisson.fx;
  check "fy" a.Numeric.Poisson.fy b.Numeric.Poisson.fy

(* The FFT evaluation and direct summation are the same operator
   computed two ways: they must agree to machine precision across grid
   shapes (non-square, non-power-of-two) and anisotropic pitches. *)
let test_fft_matches_direct_shapes () =
  let rng = Numeric.Rng.create 42 in
  List.iter
    (fun (rows, cols, hx, hy) ->
      let density = random_density rng rows cols in
      let fft = Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density in
      let direct =
        Numeric.Poisson.direct_force_field ~rows ~cols ~hx ~hy density
      in
      fields_close (Printf.sprintf "%dx%d (%g,%g)" rows cols hx hy) fft direct)
    [
      (5, 5, 1., 1.);
      (6, 10, 2., 3.);
      (17, 3, 0.25, 4.);
      (12, 12, 1.5, 0.75);
      (24, 24, 0.5, 0.5);
      (1, 9, 1., 2.);
    ]

(* [?out] is a pure scratch optimisation: supplying it must not change a
   single bit of the result. *)
let test_out_bitwise_equivalent () =
  let rows = 11 and cols = 7 in
  let rng = Numeric.Rng.create 8 in
  let density = random_density rng rows cols in
  let fresh = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1.25 ~hy:2. density in
  let out =
    {
      Numeric.Poisson.rows;
      cols;
      fx = Array.make (rows * cols) Float.nan;
      fy = Array.make (rows * cols) Float.nan;
    }
  in
  let reused =
    Numeric.Poisson.fft_force_field ~out ~rows ~cols ~hx:1.25 ~hy:2. density
  in
  fields_bitwise "?out" fresh reused;
  (* And the returned field really is the caller's buffer. *)
  Alcotest.(check bool) "aliases out" true
    (reused.Numeric.Poisson.fx == out.Numeric.Poisson.fx)

(* A job on a worker domain gets that domain's own scratch planes and
   the shared kernel cache: its field is the calling domain's bits, from
   a cold cache (one build) and a warm one (one hit). *)
let test_real_bitwise_across_domains () =
  let rows = 48 and cols = 48 in
  let rng = Numeric.Rng.create 13 in
  let density = random_density rng rows cols in
  let field () = Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1. ~hy:1. density in
  let reference = field () in
  let cold, warm, stats =
    Domain.join
      (Domain.spawn (fun () ->
           Numeric.Poisson.clear_kernel_cache ();
           let cold = field () in
           let warm = field () in
           (cold, warm, Numeric.Poisson.kernel_cache_stats ())))
  in
  fields_bitwise "cold" reference cold;
  fields_bitwise "warm" reference warm;
  Alcotest.(check (pair int int)) "one build, one hit" (1, 1) stats

(* The satellite fix under test: a fixed-grid loop hitting the warm
   kernel cache with a caller-supplied [out] must not allocate per call.
   The bound is loose (a few words of boxing are tolerated) but far
   below what any padded-plane allocation would cost (a 48² grid pads to
   96×128 ≥ 10⁴ words per plane). *)
let test_warm_loop_allocation_free () =
  let rows = 48 and cols = 48 in
  let rng = Numeric.Rng.create 21 in
  let density = random_density rng rows cols in
  let out =
    {
      Numeric.Poisson.rows;
      cols;
      fx = Array.make (rows * cols) 0.;
      fy = Array.make (rows * cols) 0.;
    }
  in
  (* Warm the kernel cache and the domain-local workspaces. *)
  ignore (Numeric.Poisson.fft_force_field ~out ~rows ~cols ~hx:1. ~hy:1. density);
  ignore (Numeric.Poisson.fft_force_field ~out ~rows ~cols ~hx:1. ~hy:1. density);
  let calls = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore
      (Numeric.Poisson.fft_force_field ~out ~rows ~cols ~hx:1. ~hy:1. density)
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "steady state allocates ~nothing (%.0f words/call)" per_call)
    true (per_call < 2048.)

let prop_fft_direct_agree_grids =
  QCheck.Test.make ~name:"fft field vs direct on random grids"
    QCheck.(
      triple (int_range 2 14) (int_range 2 14)
        (pair (float_range 0.3 3.) (float_range 0.3 3.)))
    (fun (rows, cols, (hx, hy)) ->
      let rng = Numeric.Rng.create ((rows * 31) + cols) in
      let density = random_density rng rows cols in
      let f = Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density in
      let d = Numeric.Poisson.direct_force_field ~rows ~cols ~hx ~hy density in
      Helpers.max_abs_diff f.Numeric.Poisson.fx d.Numeric.Poisson.fx < 1e-9
      && Helpers.max_abs_diff f.Numeric.Poisson.fy d.Numeric.Poisson.fy < 1e-9)

let prop_real_direct_agree_pitches =
  QCheck.Test.make ~name:"real path equals direct summation, random pitches"
    QCheck.(
      triple (int_range 2 7) (int_range 2 7)
        (pair (float_range 0.3 3.) (float_range 0.3 3.)))
    (fun (rows, cols, (hx, hy)) ->
      let rng = Numeric.Rng.create ((rows * 17) + cols) in
      let density = random_density rng rows cols in
      let d = Numeric.Poisson.direct_force_field ~rows ~cols ~hx ~hy density in
      let f = Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density in
      Helpers.max_abs_diff d.Numeric.Poisson.fx f.Numeric.Poisson.fx < 1e-9
      && Helpers.max_abs_diff d.Numeric.Poisson.fy f.Numeric.Poisson.fy
         < 1e-9)

let prop_fft_direct_agree =
  QCheck.Test.make ~name:"FFT field equals direct summation"
    QCheck.(array_of_size (QCheck.Gen.return 25) (float_range (-2.) 2.))
    (fun density ->
      let d = Numeric.Poisson.direct_force_field ~rows:5 ~cols:5 ~hx:1.5 ~hy:0.5 density in
      let f = Numeric.Poisson.fft_force_field ~rows:5 ~cols:5 ~hx:1.5 ~hy:0.5 density in
      Helpers.max_abs_diff d.Numeric.Poisson.fx f.Numeric.Poisson.fx < 1e-9
      && Helpers.max_abs_diff d.Numeric.Poisson.fy f.Numeric.Poisson.fy < 1e-9)

let suite =
  [
    Alcotest.test_case "fft matches direct" `Quick test_fft_matches_direct;
    Alcotest.test_case "point source repels" `Quick test_point_source_repels;
    Alcotest.test_case "point source symmetry" `Quick test_point_source_symmetry;
    Alcotest.test_case "negative density attracts" `Quick test_negative_density_attracts;
    Alcotest.test_case "zero density zero force" `Quick test_zero_density_zero_force;
    Alcotest.test_case "superposition" `Quick test_superposition;
    Alcotest.test_case "sor sign" `Quick test_sor_sign;
    Alcotest.test_case "sor potential symmetry" `Quick test_sor_potential_symmetry;
    Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
    Alcotest.test_case "fft matches direct across shapes" `Quick
      test_fft_matches_direct_shapes;
    Alcotest.test_case "?out is bitwise equivalent" `Quick
      test_out_bitwise_equivalent;
    Alcotest.test_case "real path bitwise across domains" `Quick
      test_real_bitwise_across_domains;
    Alcotest.test_case "warm fixed-grid loop is allocation-free" `Quick
      test_warm_loop_allocation_free;
    QCheck_alcotest.to_alcotest prop_fft_direct_agree_grids;
    QCheck_alcotest.to_alcotest prop_real_direct_agree_pitches;
    QCheck_alcotest.to_alcotest prop_fft_direct_agree;
  ]
