(* Tests for the quadratic-placement formulation: net models, system
   assembly, solving, and the force-equilibrium semantics of eq. (3). *)

let approx = Alcotest.float 1e-6

let pin ?(dx = 0.) ?(dy = 0.) c = { Netlist.Net.cell = c; dx; dy }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:100.

(* --- Model: clique expansion --- *)

(* One net over cells [0 .. k-1], pin [i] on cell [i]. *)
let chain k = Helpers.net_circuit [| Array.init k (fun i -> (i, 0., 0.)) |]

let test_clique_edge_count_and_weight () =
  let edges = Qp.Model.edges (chain 5) 0 in
  Alcotest.(check int) "k(k-1)/2 edges" 10 (List.length edges);
  List.iter
    (fun (e : Qp.Model.edge) ->
      Alcotest.check approx "weight 1/k" 0.2 e.Qp.Model.weight)
    edges

let test_clique_total_weight () =
  let total =
    List.fold_left (fun acc (e : Qp.Model.edge) -> acc +. e.Qp.Model.weight) 0.
      (Qp.Model.edges (chain 7) 0)
  in
  Alcotest.check approx "(k-1)/2" (Qp.Model.total_weight 7) total

let test_capped_net_preserves_total_weight () =
  let edges = Qp.Model.edges ~cap:16 (chain 40) 0 in
  let total =
    List.fold_left (fun acc (e : Qp.Model.edge) -> acc +. e.Qp.Model.weight) 0. edges
  in
  Alcotest.check approx "total preserved" (Qp.Model.total_weight 40) total;
  Alcotest.(check bool) "far fewer than clique" true
    (List.length edges < 40 * 39 / 2)

let test_capped_net_connected () =
  let c = chain 50 in
  let edges = Qp.Model.edges ~cap:16 c 0 in
  (* Union-find connectivity over the 50 pins. *)
  let parent = Array.init 50 Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  List.iter
    (fun (e : Qp.Model.edge) ->
      let a = find c.Netlist.Circuit.pin_cell.(e.Qp.Model.pin_a) in
      let b = find c.Netlist.Circuit.pin_cell.(e.Qp.Model.pin_b) in
      if a <> b then parent.(a) <- b)
    edges;
  let root = find 0 in
  for i = 1 to 49 do
    Alcotest.(check int) (Printf.sprintf "pin %d connected" i) root (find i)
  done

(* --- System assembly and solve --- *)

let two_cell_circuit () =
  (* One movable cell between two fixed cells at x = 0 and x = 100. *)
  let cells =
    [|
      Netlist.Cell.make ~id:0 ~name:"m" ~width:4. ~height:4. ();
      Netlist.Cell.make ~id:1 ~name:"f0" ~width:4. ~height:4. ~fixed:true ();
      Netlist.Cell.make ~id:2 ~name:"f1" ~width:4. ~height:4. ~fixed:true ();
    |]
  in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"a" [| pin 1; pin 0 |];
      Netlist.Net.make ~id:1 ~name:"b" [| pin 0; pin 2 |];
    |]
  in
  Netlist.Circuit.make ~name:"spring" ~cells ~nets ~region ~row_height:4.

let solve_system ?hold ?net_weights circuit placement =
  let net_weights =
    match net_weights with
    | Some w -> w
    | None -> Array.make (Netlist.Circuit.num_nets circuit) 1.
  in
  let system =
    Qp.System.build circuit ~placement ~net_weights
      ~edge_scale:Qp.Weights.Quadratic ?hold ()
  in
  let n = Qp.System.num_movable system in
  let stats =
    Qp.System.solve system ~placement ~ex:(Array.make n 0.) ~ey:(Array.make n 0.)
  in
  (system, stats)

let test_equal_springs_settle_midway () =
  let c = two_cell_circuit () in
  let p =
    { Netlist.Placement.x = [| 50.; 0.; 100. |]; y = [| 50.; 40.; 60. |] }
  in
  ignore (solve_system c p);
  Alcotest.check approx "x midway" 50. p.Netlist.Placement.x.(0);
  Alcotest.check approx "y midway" 50. p.Netlist.Placement.y.(0)

let test_weighted_spring_pulls_harder () =
  let c = two_cell_circuit () in
  let p =
    { Netlist.Placement.x = [| 50.; 0.; 100. |]; y = [| 50.; 50.; 50. |] }
  in
  (* Net b (to the right fixed cell) three times heavier: equilibrium at
     w0·x = w1·(100−x) → x = 75. *)
  ignore (solve_system ~net_weights:[| 1.; 3. |] c p);
  (* The tiny positive-definiteness anchor shifts the equilibrium by
     O(anchor_weight): allow that slack. *)
  Alcotest.check (Alcotest.float 1e-3) "x weighted" 75. p.Netlist.Placement.x.(0)

let test_pin_offsets_shift_equilibrium () =
  let cells =
    [|
      Netlist.Cell.make ~id:0 ~name:"m" ~width:4. ~height:4. ();
      Netlist.Cell.make ~id:1 ~name:"f" ~width:4. ~height:4. ~fixed:true ();
    |]
  in
  (* The movable cell's pin sits at +2 from its centre; connecting it to
     a fixed pin at x = 50 must place the cell centre at 48. *)
  let nets =
    [| Netlist.Net.make ~id:0 ~name:"n" [| pin ~dx:2. 0; pin 1 |] |]
  in
  let c = Netlist.Circuit.make ~name:"off" ~cells ~nets ~region ~row_height:4. in
  let p = { Netlist.Placement.x = [| 0.; 50. |]; y = [| 0.; 50. |] } in
  ignore (solve_system c p);
  Alcotest.check (Alcotest.float 1e-3) "offset corrected" 48. p.Netlist.Placement.x.(0)

let test_matrix_symmetric_positive_diagonal () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:2)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  let weights = Array.make (Netlist.Circuit.num_nets circuit) 1. in
  let system =
    Qp.System.build circuit ~placement:p ~net_weights:weights
      ~edge_scale:Qp.Weights.Quadratic ()
  in
  let m = Qp.System.matrix system in
  Alcotest.(check bool) "symmetric" true (Numeric.Sparse.is_symmetric ~tol:1e-9 m);
  let d = Numeric.Sparse.diagonal m in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "diag %d > 0" i) true (v > 0.))
    d

let test_residual_zero_at_equilibrium () =
  let c = two_cell_circuit () in
  let p =
    { Netlist.Placement.x = [| 10.; 0.; 100. |]; y = [| 10.; 40.; 60. |] }
  in
  let system, _ = solve_system c p in
  let res =
    Qp.System.residual_force system ~placement:p ~ex:[| 0. |] ~ey:[| 0. |]
  in
  Alcotest.(check bool) "residual ~ 0" true (res < 1e-6)

let test_additional_force_shifts_solution () =
  let c = two_cell_circuit () in
  let p =
    { Netlist.Placement.x = [| 50.; 0.; 100. |]; y = [| 50.; 50.; 50. |] }
  in
  let weights = Array.make 2 1. in
  let system =
    Qp.System.build c ~placement:p ~net_weights:weights
      ~edge_scale:Qp.Weights.Quadratic ()
  in
  (* Both springs have weight 1/2; total stiffness 1.  A constant force
     e = +1 shifts the equilibrium to x = 50 − e/k_total ≈ 49 (modulo the
     tiny anchor spring). *)
  ignore (Qp.System.solve system ~placement:p ~ex:[| 1. |] ~ey:[| 0. |]);
  Alcotest.(check bool) "moved left" true (p.Netlist.Placement.x.(0) < 49.5);
  Alcotest.(check bool) "by about e/k" true
    (Float.abs (p.Netlist.Placement.x.(0) -. 49.) < 0.1)

let test_hold_springs_damp_movement () =
  let c = two_cell_circuit () in
  (* Start off-equilibrium at x = 10; without hold the solve jumps to 50,
     with hold = 1 it only goes part way. *)
  let p_free =
    { Netlist.Placement.x = [| 10.; 0.; 100. |]; y = [| 50.; 50.; 50. |] }
  in
  ignore (solve_system c p_free);
  let p_held =
    { Netlist.Placement.x = [| 10.; 0.; 100. |]; y = [| 50.; 50.; 50. |] }
  in
  ignore (solve_system ~hold:1.0 c p_held);
  Alcotest.check approx "free jumps to optimum" 50. p_free.Netlist.Placement.x.(0);
  Alcotest.(check bool) "held lands between" true
    (p_held.Netlist.Placement.x.(0) > 11. && p_held.Netlist.Placement.x.(0) < 49.)

let test_hold_at_targets () =
  let c = two_cell_circuit () in
  let p = { Netlist.Placement.x = [| 50.; 0.; 100. |]; y = [| 50.; 50.; 50. |] } in
  let targets =
    { Netlist.Placement.x = [| 90.; 0.; 100. |]; y = [| 50.; 50.; 50. |] }
  in
  let weights = Array.make 2 1. in
  let system =
    Qp.System.build c ~placement:p ~net_weights:weights
      ~edge_scale:Qp.Weights.Quadratic ~hold:5. ~hold_at:targets ()
  in
  ignore (Qp.System.solve system ~placement:p ~ex:[| 0. |] ~ey:[| 0. |]);
  Alcotest.(check bool) "pulled toward target" true (p.Netlist.Placement.x.(0) > 70.)

let test_index_map () =
  let c = two_cell_circuit () in
  let var_of_cell, n = Qp.System.index_map c in
  Alcotest.(check int) "one movable" 1 n;
  Alcotest.(check int) "cell 0 is var 0" 0 var_of_cell.(0);
  Alcotest.(check int) "fixed has no var" (-1) var_of_cell.(1)

let test_weights_module () =
  Alcotest.check approx "linearize" 0.1 (Qp.Weights.linearize ~eps:1. ~dist:10.);
  Alcotest.check approx "linearize clamped" 1. (Qp.Weights.linearize ~eps:1. ~dist:0.);
  Alcotest.check approx "default eps" 0.2 (Qp.Weights.default_eps region)

let prop_solution_is_minimum =
  (* Perturbing the solved placement can only increase the quadratic
     objective (the solution of eq. (2) is the global optimum). *)
  QCheck.Test.make ~name:"QP solution minimises quadratic wirelength"
    QCheck.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (ddx, ddy) ->
      QCheck.assume (Float.abs ddx > 0.01 || Float.abs ddy > 0.01);
      let c = two_cell_circuit () in
      let p = { Netlist.Placement.x = [| 7.; 0.; 100. |]; y = [| 3.; 40.; 60. |] } in
      ignore (solve_system c p);
      let base = Metrics.Wirelength.quadratic c p in
      let q = Netlist.Placement.copy p in
      q.Netlist.Placement.x.(0) <- q.Netlist.Placement.x.(0) +. ddx;
      q.Netlist.Placement.y.(0) <- q.Netlist.Placement.y.(0) +. ddy;
      Metrics.Wirelength.quadratic c q >= base -. 1e-9)

(* --- cached assembly: rebuild ≡ from-scratch build -------------------- *)

let bits_equal_arr a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let bits_equal_mat a b =
  let da = Numeric.Sparse.to_dense a and db = Numeric.Sparse.to_dense b in
  Array.length da = Array.length db && Array.for_all2 bits_equal_arr da db

let test_rebuild_matches_build () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:5)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let nw = Array.make (Netlist.Circuit.num_nets circuit) 1. in
  let r = circuit.Netlist.Circuit.region in
  let random_placement seed =
    let p = Netlist.Placement.copy p0 in
    let rng = Numeric.Rng.create seed in
    Array.iter
      (fun (cl : Netlist.Cell.t) ->
        if Netlist.Cell.movable cl then begin
          p.Netlist.Placement.x.(cl.Netlist.Cell.id) <-
            Numeric.Rng.uniform rng r.Geometry.Rect.x_lo r.Geometry.Rect.x_hi;
          p.Netlist.Placement.y.(cl.Netlist.Cell.id) <-
            Numeric.Rng.uniform rng r.Geometry.Rect.y_lo r.Geometry.Rect.y_hi
        end)
      circuit.Netlist.Circuit.cells;
    p
  in
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      List.iter
        (fun domains ->
          Numeric.Parallel.set_num_domains domains;
          let asm = Qp.System.assembly circuit () in
          List.iter
            (fun seed ->
              let name part = Printf.sprintf "%s d=%d seed=%d" part domains seed in
              let p = random_placement seed in
              let fresh =
                Qp.System.build circuit ~placement:p ~net_weights:nw
                  ~edge_scale:Qp.Weights.Quadratic ()
              in
              let cached =
                Qp.System.rebuild asm ~placement:p ~net_weights:nw
                  ~edge_scale:Qp.Weights.Quadratic ()
              in
              Alcotest.(check bool) (name "matrix") true
                (bits_equal_mat (Qp.System.matrix fresh)
                   (Qp.System.matrix cached));
              let zeros = Array.make (Qp.System.num_movable fresh) 0. in
              let pf = Netlist.Placement.copy p
              and pc = Netlist.Placement.copy p in
              ignore (Qp.System.solve fresh ~placement:pf ~ex:zeros ~ey:zeros);
              ignore (Qp.System.solve cached ~placement:pc ~ex:zeros ~ey:zeros);
              Alcotest.(check bool) (name "solution x") true
                (bits_equal_arr pf.Netlist.Placement.x pc.Netlist.Placement.x);
              Alcotest.(check bool) (name "solution y") true
                (bits_equal_arr pf.Netlist.Placement.y pc.Netlist.Placement.y))
            [ 3; 4; 5 ];
          let reused, rebuilds = Qp.System.assembly_stats asm in
          Alcotest.(check int) "rebuild passes accounted" 3 (reused + rebuilds);
          (* The structure never drifts here: only the first pass may
             record, the rest must scatter into its pattern. *)
          Alcotest.(check int) "records once" 1 rebuilds)
        [ 1; 2; 4 ])

(* --- independent assembly oracle ---------------------------------------- *)

(* The placement equation written out from its definition, sharing no
   code with System's assembly beyond the net model: every net's edges
   come from Model.iter_edges and go into a plain triplet builder — each
   spring's two diagonal terms, then its off-diagonal pair — followed by
   the anchor springs and the hold springs, one Sparse.finalize.  That
   triplet order is the documented accumulation order, so System must
   reproduce the matrix, the d vectors and the mean edge weight bit for
   bit. *)

type scale = Quadratic | Linearize of float

let api_scale = function
  | Quadratic -> Qp.Weights.Quadratic
  | Linearize eps -> Qp.Weights.Linearize eps

(* Returns (matrix, dx, dy, mean edge weight). *)
let reference_system c ~(placement : Netlist.Placement.t) ~net_weights ~scale
    ~cap ~anchor_weight ~hold ?hold_at () =
  let var_of_cell, n = Qp.System.index_map c in
  let cell_of_var = Array.make n 0 in
  Array.iteri (fun id v -> if v >= 0 then cell_of_var.(v) <- id) var_of_cell;
  let px = placement.Netlist.Placement.x and py = placement.Netlist.Placement.y in
  let cell = c.Netlist.Circuit.pin_cell in
  let off_x k = c.Netlist.Circuit.pin_dx.(k)
  and off_y k = c.Netlist.Circuit.pin_dy.(k) in
  let pin_x k = px.(cell.(k)) +. off_x k in
  let pin_y k = py.(cell.(k)) +. off_y k in
  let b = Numeric.Sparse.builder n in
  let dx = Array.make n 0. and dy = Array.make n 0. in
  let inc = Array.make n 0. in
  let total = ref 0. and count = ref 0 in
  (* One spring of weight [w] between pins [pa] and [pb]: a pin of a
     fixed cell enters d at its absolute position. *)
  let spring pa pb w =
    if w > 0. && cell.(pa) <> cell.(pb) then begin
      total := !total +. w;
      incr count;
      let va = var_of_cell.(cell.(pa)) and vb = var_of_cell.(cell.(pb)) in
      if va >= 0 && vb >= 0 then begin
        inc.(va) <- inc.(va) +. w;
        inc.(vb) <- inc.(vb) +. w;
        Numeric.Sparse.add b va va w;
        Numeric.Sparse.add b vb vb w;
        Numeric.Sparse.add b va vb (-.w);
        Numeric.Sparse.add b vb va (-.w);
        dx.(va) <- dx.(va) +. (w *. (off_x pa -. off_x pb));
        dx.(vb) <- dx.(vb) +. (w *. (off_x pb -. off_x pa));
        dy.(va) <- dy.(va) +. (w *. (off_y pa -. off_y pb));
        dy.(vb) <- dy.(vb) +. (w *. (off_y pb -. off_y pa))
      end
      else if va >= 0 then begin
        inc.(va) <- inc.(va) +. w;
        Numeric.Sparse.add b va va w;
        dx.(va) <- dx.(va) +. (w *. (off_x pa -. pin_x pb));
        dy.(va) <- dy.(va) +. (w *. (off_y pa -. pin_y pb))
      end
      else if vb >= 0 then begin
        inc.(vb) <- inc.(vb) +. w;
        Numeric.Sparse.add b vb vb w;
        dx.(vb) <- dx.(vb) +. (w *. (off_x pb -. pin_x pa));
        dy.(vb) <- dy.(vb) +. (w *. (off_y pb -. pin_y pa))
      end
    end
  in
  for net = 0 to Netlist.Circuit.num_nets c - 1 do
    let nw = net_weights.(net) in
    if nw > 0. then
      Qp.Model.iter_edges ~cap c net (fun pa pb w_raw ->
          let s =
            match scale with
            | Quadratic -> 1.
            | Linearize eps ->
              Qp.Weights.linearize ~eps
                ~dist:
                  (sqrt
                     (((pin_x pa -. pin_x pb) ** 2.)
                     +. ((pin_y pa -. pin_y pb) ** 2.)))
          in
          spring pa pb (w_raw *. nw *. s))
  done;
  let mean = if !count = 0 then 1. else !total /. float_of_int !count in
  let aw = anchor_weight *. mean in
  let cx, cy = Geometry.Rect.center c.Netlist.Circuit.region in
  for v = 0 to n - 1 do
    Numeric.Sparse.add b v v aw;
    dx.(v) <- dx.(v) -. (aw *. cx);
    dy.(v) <- dy.(v) -. (aw *. cy)
  done;
  if hold > 0. then begin
    let h = Option.value hold_at ~default:placement in
    for v = 0 to n - 1 do
      let id = cell_of_var.(v) in
      let hw = hold *. Float.max inc.(v) mean in
      Numeric.Sparse.add b v v hw;
      dx.(v) <- dx.(v) -. (hw *. h.Netlist.Placement.x.(id));
      dy.(v) <- dy.(v) -. (hw *. h.Netlist.Placement.y.(id))
    done
  end;
  (Numeric.Sparse.finalize b, dx, dy, mean)

let bits_equal_sparse a b =
  Numeric.Sparse.nnz a = Numeric.Sparse.nnz b && bits_equal_mat a b

(* One cached assembly per (pool, clique cap) replays a sequence that
   exercises the steady state (same structure, new values), the hold
   springs at the placer's weight and at explicit targets, the
   linearised scale, and structural drift from zero and underflowing
   net weights, then the return to the original structure.  Its tail
   walks the value cache's key one input at a time: a repeat
   that may reuse the values, then a move of one fixed cell along x
   alone, then along y alone, then a change of [anchor_weight] alone,
   then new hold targets alone.  Every step
   must equal the oracle and a fresh [build]. *)
let assembly_oracle label circuit p0 =
  let r = circuit.Netlist.Circuit.region in
  let nnets = Netlist.Circuit.num_nets circuit in
  let random_placement seed =
    let p = Netlist.Placement.copy p0 in
    let rng = Numeric.Rng.create seed in
    Array.iter
      (fun (cl : Netlist.Cell.t) ->
        if Netlist.Cell.movable cl then begin
          p.Netlist.Placement.x.(cl.Netlist.Cell.id) <-
            Numeric.Rng.uniform rng r.Geometry.Rect.x_lo r.Geometry.Rect.x_hi;
          p.Netlist.Placement.y.(cl.Netlist.Cell.id) <-
            Numeric.Rng.uniform rng r.Geometry.Rect.y_lo r.Geometry.Rect.y_hi
        end)
      circuit.Netlist.Circuit.cells;
    p
  in
  let ones = Array.make nnets 1. in
  let sparse_weights =
    (* Every fifth net off, one net at the smallest subnormal (its edge
       weights underflow to zero), the rest timing-like. *)
    Array.init nnets (fun i ->
        if i mod 5 = 0 then 0.
        else if i = 1 then 5e-324
        else 1. +. (float_of_int (i mod 7) /. 3.))
  in
  let eps = Qp.Weights.default_eps r in
  let fixed_id =
    match
      List.find_opt
        (fun (cl : Netlist.Cell.t) -> not (Netlist.Cell.movable cl))
        (Array.to_list circuit.Netlist.Circuit.cells)
    with
    | Some cl -> cl.Netlist.Cell.id
    | None -> Alcotest.fail "fract has no fixed cell"
  in
  (* (seed, weights, scale, hold, hold_at seed, anchor weight, fixed cell
     moves: 0 none, 1 along x, 2 along x and y) *)
  let steps =
    [
      (3, ones, Quadratic, 0., None, 1e-6, 0);
      (4, ones, Quadratic, 1.0, None, 1e-6, 0);
      (5, sparse_weights, Quadratic, 1.0, None, 1e-6, 0);
      (6, ones, Quadratic, 0.5, Some 11, 1e-6, 0);
      (7, ones, Linearize eps, 1.0, None, 1e-6, 0);
      (8, sparse_weights, Linearize eps, 0., None, 1e-6, 0);
      (9, ones, Quadratic, 1.0, None, 1e-6, 0);
      (10, ones, Quadratic, 1.0, None, 1e-6, 0);
      (10, ones, Quadratic, 1.0, None, 1e-6, 1);
      (10, ones, Quadratic, 1.0, None, 1e-6, 2);
      (10, ones, Quadratic, 1.0, None, 3e-3, 2);
      (12, ones, Quadratic, 1.0, Some 13, 3e-3, 2);
    ]
  in
  let max_degree =
    List.fold_left max 0
      (List.init (Netlist.Circuit.num_nets circuit) (Netlist.Circuit.degree circuit))
  in
  Alcotest.(check bool) "a net above the small clique cap" true (max_degree > 4);
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      List.iter
        (fun domains ->
          Numeric.Parallel.set_num_domains domains;
          List.iter
            (fun cap ->
              let asm = Qp.System.assembly circuit ~clique_cap:cap () in
              List.iter
                (fun (seed, net_weights, scale, hold, hold_seed, anchor_weight,
                      moves) ->
                  let name part =
                    Printf.sprintf "%s cap %d d=%d seed=%d anchor=%g moves=%d %s"
                      label cap domains seed anchor_weight moves part
                  in
                  let placement = random_placement seed in
                  let shift (a : float array) = a.(fixed_id) <- a.(fixed_id) +. 3. in
                  if moves >= 1 then shift placement.Netlist.Placement.x;
                  if moves >= 2 then shift placement.Netlist.Placement.y;
                  let hold_at = Option.map random_placement hold_seed in
                  let sys =
                    Qp.System.rebuild asm ~placement ~net_weights
                      ~edge_scale:(api_scale scale) ~anchor_weight ~hold ?hold_at
                      ()
                  in
                  let check_against what (m, dx, dy, mean) =
                    let name part = name (what ^ " " ^ part) in
                    let sdx, sdy = Qp.System.constant_terms sys in
                    Alcotest.(check bool) (name "matrix") true
                      (bits_equal_sparse m (Qp.System.matrix sys));
                    Alcotest.(check bool) (name "dx") true (bits_equal_arr dx sdx);
                    Alcotest.(check bool) (name "dy") true (bits_equal_arr dy sdy);
                    Alcotest.(check bool) (name "mean edge weight") true
                      (Int64.bits_of_float mean
                      = Int64.bits_of_float (Qp.System.mean_edge_weight sys))
                  in
                  check_against "oracle"
                    (reference_system circuit ~placement ~net_weights ~scale ~cap
                       ~anchor_weight ~hold ?hold_at ());
                  let fresh =
                    Qp.System.build circuit ~placement ~net_weights
                      ~edge_scale:(api_scale scale) ~clique_cap:cap ~anchor_weight
                      ~hold ?hold_at ()
                  in
                  let fdx, fdy = Qp.System.constant_terms fresh in
                  check_against "build"
                    ( Qp.System.matrix fresh,
                      fdx,
                      fdy,
                      Qp.System.mean_edge_weight fresh ))
                steps)
            [ 16; 4 ])
        [ 1; 2; 4 ])

(* fract with one movable cell turned into a hub: 200 more nets of 2 to
   12 pins, each on the hub and on cells drawn at random (a cell drawn
   twice gets a second pin at another offset), so the hub's matrix row
   spans about a hundred distinct columns and many of its nets are above
   the small clique cap. *)
let with_hub (c : Netlist.Circuit.t) =
  let rng = Numeric.Rng.create 17 in
  let cells = c.Netlist.Circuit.cells in
  let hub =
    match List.find_opt Netlist.Cell.movable (Array.to_list cells) with
    | Some cl -> cl.Netlist.Cell.id
    | None -> Alcotest.fail "no movable cell"
  in
  let nets = Netlist.Circuit.nets c in
  let base = Array.length nets in
  let hub_net k =
    let pin p =
      let cell = if p = 0 then hub else Numeric.Rng.int rng (Array.length cells) in
      { Netlist.Net.cell; dx = 0.01 *. float_of_int p; dy = 0. }
    in
    Netlist.Net.make ~id:(base + k) ~name:(Printf.sprintf "hub%d" k)
      (Array.init (2 + Numeric.Rng.int rng 11) pin)
  in
  Netlist.Circuit.make ~name:"fract+hub" ~cells
    ~nets:(Array.append nets (Array.init 200 hub_net))
    ~region:c.Netlist.Circuit.region ~row_height:c.Netlist.Circuit.row_height

let test_assembly_oracle () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:5)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  assembly_oracle "fract" circuit p0;
  let hub = with_hub circuit in
  Alcotest.(check bool) "the hub has hundreds of nets" true
    (Array.exists (fun ns -> Array.length ns >= 200) hub.Netlist.Circuit.cell_nets);
  assembly_oracle "fract+hub" hub p0

(* --- steady-state allocation ------------------------------------------- *)

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

(* A clique rebuild on a warm assembly either reuses the cached values
   (unchanged inputs) or, when a net weight changed, scatters into the
   cached slots; a solve runs in the assembly's CG vectors.  Each costs a
   handful of words (the returned records), not a word per net, edge or
   cell. *)
let test_rebuild_solve_allocation () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:21)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  let nw = Array.make (Netlist.Circuit.num_nets circuit) 1. in
  let asm = Qp.System.assembly circuit () in
  let rebuild () =
    Qp.System.rebuild asm ~placement:p ~net_weights:nw
      ~edge_scale:Qp.Weights.Quadratic ~hold:1.0 ()
  in
  Numeric.Parallel.set_num_domains 1;
  ignore (rebuild ());
  let words = allocated_by rebuild in
  Alcotest.(check bool)
    (Printf.sprintf "rebuild allocates %.0f words, budget 64" words)
    true (words <= 64.);
  (* Alternating two weight vectors of one structure forces the direct
     scatter path every time. *)
  let nw2 = Array.map (fun w -> w *. 1.5) nw in
  let flip = ref false in
  let rebuild_direct () =
    flip := not !flip;
    Qp.System.rebuild asm ~placement:p
      ~net_weights:(if !flip then nw2 else nw)
      ~edge_scale:Qp.Weights.Quadratic ~hold:1.0 ()
  in
  ignore (rebuild_direct ());
  let words = allocated_by rebuild_direct in
  Alcotest.(check bool)
    (Printf.sprintf "direct rebuild allocates %.0f words, budget 64" words)
    true (words <= 64.);
  let sys = rebuild () in
  let n = Qp.System.num_movable sys in
  let ex = Array.make n 0.5 and ey = Array.make n (-0.25) in
  let words = ref 0. and iterations = ref 0 in
  words :=
    allocated_by (fun () ->
        let sx, sy = Qp.System.solve sys ~placement:p ~ex ~ey in
        iterations := sx.Numeric.Cg.iterations + sy.Numeric.Cg.iterations);
  Alcotest.(check bool) "the solve iterates" true (!iterations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "solve allocates %.0f words, budget 64" !words)
    true (!words <= 64.)

(* --- storage -------------------------------------------------------- *)

(* The triplets of one clique pass at default cap with hold springs and
   every net weighted, counted from Model.iter_edges: four per spring
   between movable cells, one per spring to a fixed cell, then an
   anchor and a hold diagonal per variable. *)
let clique_triplets circuit =
  let var_of_cell, n = Qp.System.index_map circuit in
  let cell = circuit.Netlist.Circuit.pin_cell in
  let count = ref (2 * n) in
  for net = 0 to Netlist.Circuit.num_nets circuit - 1 do
    Qp.Model.iter_edges circuit net (fun pa pb _ ->
        let ma = var_of_cell.(cell.(pa)) >= 0 and mb = var_of_cell.(cell.(pb)) >= 0 in
        if cell.(pa) <> cell.(pb) then
          count := !count + (if ma && mb then 4 else if ma || mb then 1 else 0))
  done;
  !count

(* A clique assembly keeps only what its steady state reads: between
   passes it holds the pattern (CSR and triplet → slot map), its
   per-variable vectors and the value cache, not a recorder nor a
   per-triplet copy of the stream's (i, j).  The recording pass stores
   no value and one transient int per triplet.  Both bounds are words
   per recorded triplet on primary1: an assembly that kept its builder
   and (i, j) copies held 10.8 and its recording pass allocated 17.6; a
   recording through a sized triplet builder allocated 7.3; this one
   holds 3.1 and allocates 3.1. *)
let test_assembly_storage () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:21)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  let nw = Array.make (Netlist.Circuit.num_nets circuit) 1. in
  let nw2 = Array.map (fun w -> w *. 1.5) nw in
  let asm = Qp.System.assembly circuit () in
  let rebuild net_weights =
    ignore
      (Qp.System.rebuild asm ~placement:p ~net_weights
         ~edge_scale:Qp.Weights.Quadratic ~hold:1.0 ())
  in
  Numeric.Parallel.set_num_domains 1;
  let triplets = float_of_int (clique_triplets circuit) in
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  let m0 = major () in
  rebuild nw;
  let recording = (major () -. m0) /. triplets in
  List.iter rebuild [ nw; nw2; nw; nw2 ];
  let held =
    float_of_int
      (Obj.reachable_words (Obj.repr asm)
      - Obj.reachable_words (Obj.repr circuit))
    /. triplets
  in
  Alcotest.(check bool)
    (Printf.sprintf "assembly holds %.2f words per triplet, budget 5" held)
    true (held <= 5.);
  Alcotest.(check bool)
    (Printf.sprintf "recording rebuild allocates %.2f major words per triplet, budget 5"
       recording)
    true (recording <= 5.)

let suite =
  [
    Alcotest.test_case "clique edges and weights" `Quick test_clique_edge_count_and_weight;
    Alcotest.test_case "clique total weight" `Quick test_clique_total_weight;
    Alcotest.test_case "capped weight preserved" `Quick test_capped_net_preserves_total_weight;
    Alcotest.test_case "capped net connected" `Quick test_capped_net_connected;
    Alcotest.test_case "equal springs midway" `Quick test_equal_springs_settle_midway;
    Alcotest.test_case "weighted spring" `Quick test_weighted_spring_pulls_harder;
    Alcotest.test_case "pin offsets" `Quick test_pin_offsets_shift_equilibrium;
    Alcotest.test_case "matrix SPD shape" `Quick test_matrix_symmetric_positive_diagonal;
    Alcotest.test_case "residual at equilibrium" `Quick test_residual_zero_at_equilibrium;
    Alcotest.test_case "additional force shifts" `Quick test_additional_force_shifts_solution;
    Alcotest.test_case "hold damps" `Quick test_hold_springs_damp_movement;
    Alcotest.test_case "hold_at targets" `Quick test_hold_at_targets;
    Alcotest.test_case "index map" `Quick test_index_map;
    Alcotest.test_case "weights module" `Quick test_weights_module;
    QCheck_alcotest.to_alcotest prop_solution_is_minimum;
    Alcotest.test_case "rebuild = build, pools 1/2/4" `Quick
      test_rebuild_matches_build;
    Alcotest.test_case "assembly oracle, every rebuild input, pools 1/2/4"
      `Quick test_assembly_oracle;
    Alcotest.test_case "rebuild and solve allocation" `Quick
      test_rebuild_solve_allocation;
    Alcotest.test_case "assembly storage" `Quick test_assembly_storage;
  ]
