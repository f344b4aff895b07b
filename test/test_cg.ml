(* Tests for the preconditioned conjugate-gradient solver. *)

let approx = Alcotest.float 1e-5

let solve_exact a b =
  (* Gaussian elimination reference for small dense systems. *)
  let n = Array.length b in
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
    done;
    let tmp = m.(col) in
    m.(col) <- m.(!pivot);
    m.(!pivot) <- tmp;
    let t = x.(col) in
    x.(col) <- x.(!pivot);
    x.(!pivot) <- t;
    for r = col + 1 to n - 1 do
      let f = m.(r).(col) /. m.(col).(col) in
      for c = col to n - 1 do
        m.(r).(c) <- m.(r).(c) -. (f *. m.(col).(c))
      done;
      x.(r) <- x.(r) -. (f *. x.(col))
    done
  done;
  for col = n - 1 downto 0 do
    for r = 0 to col - 1 do
      let f = m.(r).(col) /. m.(col).(col) in
      x.(r) <- x.(r) -. (f *. x.(col))
    done;
    x.(col) <- x.(col) /. m.(col).(col)
  done;
  x

let test_identity () =
  let a = Numeric.Sparse.of_dense [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let x, stats = Numeric.Cg.solve a [| 3.; -4. |] in
  Alcotest.check approx "x0" 3. x.(0);
  Alcotest.check approx "x1" (-4.) x.(1);
  Alcotest.(check bool) "converged" true stats.Numeric.Cg.converged

let test_diagonal () =
  let a = Numeric.Sparse.of_dense [| [| 2.; 0. |]; [| 0.; 4. |] |] in
  let x, _ = Numeric.Cg.solve a [| 2.; 2. |] in
  Alcotest.check approx "x0" 1. x.(0);
  Alcotest.check approx "x1" 0.5 x.(1)

let test_spd_small () =
  let dense = [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 5. |] |] in
  let b = [| 1.; 2.; 3. |] in
  let x, stats = Numeric.Cg.solve (Numeric.Sparse.of_dense dense) b in
  let expected = solve_exact dense b in
  Alcotest.(check bool) "converged" true stats.Numeric.Cg.converged;
  Array.iteri (fun i e -> Alcotest.check approx (Printf.sprintf "x%d" i) e x.(i)) expected

let test_warm_start_fewer_iterations () =
  let dense =
    Array.init 20 (fun i ->
        Array.init 20 (fun j ->
            if i = j then 4. else if abs (i - j) = 1 then -1. else 0.))
  in
  let a = Numeric.Sparse.of_dense dense in
  let b = Array.init 20 (fun i -> float_of_int (i mod 3)) in
  let x_cold, s_cold = Numeric.Cg.solve a b in
  let _, s_warm = Numeric.Cg.solve ~x0:x_cold a b in
  Alcotest.(check bool) "warm start converges immediately" true
    (s_warm.Numeric.Cg.iterations <= 1);
  Alcotest.(check bool) "cold start took iterations" true
    (s_cold.Numeric.Cg.iterations > 1)

let test_nonpositive_diagonal_rejected () =
  let a = Numeric.Sparse.of_dense [| [| 0.; 1. |]; [| 1.; 2. |] |] in
  Alcotest.check_raises "zero diagonal"
    (Invalid_argument "Cg.solve: non-positive diagonal (matrix not anchored?)")
    (fun () -> ignore (Numeric.Cg.solve a [| 1.; 1. |]))

(* A wrong-length right-hand side is a typed error, not an assertion
   (which -noassert would compile out). *)
let test_rhs_length_rejected () =
  let a = Numeric.Sparse.of_dense [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  Alcotest.check_raises "short rhs"
    (Invalid_argument "Cg.solve: rhs length mismatch")
    (fun () -> ignore (Numeric.Cg.solve a [| 1. |]));
  Alcotest.check_raises "long rhs"
    (Invalid_argument "Cg.solve: rhs length mismatch")
    (fun () -> ignore (Numeric.Cg.solve a [| 1.; 2.; 3. |]))

(* The workspace solves are the same recurrence: bitwise the solution
   and statistics of [solve] with the same warm start, reusing their
   vectors across solves — one axis at a time ([solve_in]) or two side
   by side on one matrix ([solve2_in]), with different right-hand sides
   and starts, including an axis that stops long before the other. *)
let test_solve_in_matches_solve () =
  let n = 40 in
  let dense =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 4. +. float_of_int (i mod 3)
            else if abs (i - j) = 1 then -1. else 0.))
  in
  let a = Numeric.Sparse.of_dense dense in
  let w = Numeric.Cg.workspace n in
  List.iter
    (fun seed ->
      let b = Array.init n (fun i -> float_of_int (((i + seed) * 7919) mod 13) -. 6.) in
      let x0 = Array.init n (fun i -> float_of_int ((i * seed) mod 5)) in
      let x, s = Numeric.Cg.solve ~tol:1e-10 ~x0 a b in
      Array.blit x0 0 (Numeric.Cg.solution w) 0 n;
      Array.blit b 0 (Numeric.Cg.rhs w) 0 n;
      let s' = Numeric.Cg.solve_in ~tol:1e-10 w a in
      let bits = Array.map Int64.bits_of_float in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d solution" seed)
        true
        (bits x = bits (Numeric.Cg.solution w));
      Alcotest.(check int) "iterations" s.Numeric.Cg.iterations
        s'.Numeric.Cg.iterations;
      Alcotest.(check bool) "residual" true
        (Int64.bits_of_float s.Numeric.Cg.residual
        = Int64.bits_of_float s'.Numeric.Cg.residual))
    [ 1; 2; 3 ];
  let wx = Numeric.Cg.workspace n and wy = Numeric.Cg.workspace n in
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun (tag, seed_y) ->
      let rhs seed =
        if seed = 0 then Array.make n 0.
        else Array.init n (fun i -> float_of_int (((i + seed) * 7919) mod 13) -. 6.)
      in
      let start seed = Array.init n (fun i -> float_of_int ((i * seed) mod 5)) in
      let bx = rhs 1 and by = rhs seed_y in
      let x0 = start 1 and y0 = start seed_y in
      let ex, sx = Numeric.Cg.solve ~tol:1e-10 ~x0 a bx in
      let ey, sy = Numeric.Cg.solve ~tol:1e-10 ~x0:y0 a by in
      Array.blit x0 0 (Numeric.Cg.solution wx) 0 n;
      Array.blit bx 0 (Numeric.Cg.rhs wx) 0 n;
      Array.blit y0 0 (Numeric.Cg.solution wy) 0 n;
      Array.blit by 0 (Numeric.Cg.rhs wy) 0 n;
      let sx', sy' =
        Numeric.Cg.solve2_in ~tol:1e-10 ~inv:(Numeric.Cg.inv_diagonal a) wx wy a
      in
      List.iter
        (fun (axis, e, w, (s : Numeric.Cg.stats), (s' : Numeric.Cg.stats)) ->
          let name what = Printf.sprintf "%s %s %s" tag axis what in
          Alcotest.(check bool) (name "solution") true
            (bits e = bits (Numeric.Cg.solution w));
          Alcotest.(check int) (name "iterations") s.Numeric.Cg.iterations
            s'.Numeric.Cg.iterations;
          Alcotest.(check bool) (name "residual") true
            (Int64.bits_of_float s.Numeric.Cg.residual
            = Int64.bits_of_float s'.Numeric.Cg.residual))
        [ ("x", ex, wx, sx, sx'); ("y", ey, wy, sy, sy') ])
    [ ("shared", 2); ("y at rest", 0) ];
  Alcotest.check_raises "workspace size"
    (Invalid_argument "Cg.solve_in: workspace dimension mismatch") (fun () ->
      ignore (Numeric.Cg.solve_in (Numeric.Cg.workspace (n + 1)) a))

let test_max_iter_respected () =
  let dense =
    Array.init 30 (fun i ->
        Array.init 30 (fun j ->
            if i = j then 2. else if abs (i - j) = 1 then -1. else 0.))
  in
  let a = Numeric.Sparse.of_dense dense in
  let b = Array.make 30 1. in
  let _, stats = Numeric.Cg.solve ~max_iter:2 a b in
  Alcotest.(check bool) "capped" true (stats.Numeric.Cg.iterations <= 2)

let laplacian_gen =
  (* Random SPD matrices: Laplacian of a path + random positive diagonal. *)
  QCheck.(
    pair
      (list_of_size Gen.(return 6) (float_range 0.1 5.))
      (array_of_size Gen.(return 6) (float_range (-3.) 3.)))

let prop_residual_small =
  QCheck.Test.make ~name:"CG residual below tolerance on SPD systems"
    laplacian_gen (fun (diag_boost, b) ->
      let n = 6 in
      let boosts = Array.of_list diag_boost in
      let dense =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 2. +. boosts.(i)
                else if abs (i - j) = 1 then -1.
                else 0.))
      in
      let a = Numeric.Sparse.of_dense dense in
      let x, _ = Numeric.Cg.solve a b in
      let ax = Array.make n 0. in
      Numeric.Sparse.mul a x ax;
      let r2 = ref 0. in
      Array.iteri (fun i bi -> r2 := !r2 +. ((bi -. ax.(i)) *. (bi -. ax.(i)))) b;
      sqrt !r2 < 1e-5)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "diagonal" `Quick test_diagonal;
    Alcotest.test_case "SPD vs gaussian elimination" `Quick test_spd_small;
    Alcotest.test_case "warm start" `Quick test_warm_start_fewer_iterations;
    Alcotest.test_case "non-positive diagonal" `Quick test_nonpositive_diagonal_rejected;
    Alcotest.test_case "max_iter" `Quick test_max_iter_respected;
    Alcotest.test_case "rhs length mismatch" `Quick test_rhs_length_rejected;
    Alcotest.test_case "workspace solve = solve" `Quick
      test_solve_in_matches_solve;
    QCheck_alcotest.to_alcotest prop_residual_small;
  ]
