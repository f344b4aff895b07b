type config = {
  moves_per_cell : int;
  t_steps : int;
  cooling : float;
  initial_acceptance : float;
  overlap_weight : float;
  seed : int;
}

let default_config =
  {
    moves_per_cell = 12;
    t_steps = 80;
    cooling = 0.92;
    initial_acceptance = 0.85;
    overlap_weight = 8.;
    seed = 17;
  }

(* Quick mode cools much faster so the 25-step schedule still ends
   effectively frozen (0.75²⁵ ≈ 8·10⁻⁴ of T₀). *)
let quick_config =
  { default_config with moves_per_cell = 3; t_steps = 25; cooling = 0.75 }

type stats = {
  attempted : int;
  accepted : int;
  final_cost : float;
  final_hpwl : float;
  final_overlap : float;
}

(* Mutable annealing state over one circuit. *)
type st = {
  c : Netlist.Circuit.t;
  p : Netlist.Placement.t;
  weights : float array;
  movable : int array; (* ids of movable standard cells *)
  row_of : int array; (* per cell id, current row (-1 for others) *)
  buckets : int list array array; (* row -> bucket -> cell ids *)
  nbuckets : int;
  bucket_w : float;
  max_w : float; (* widest movable cell *)
  stamp : int array; (* net dedupe stamps *)
  mutable stamp_val : int;
}

let bucket_of st x =
  let region = st.c.Netlist.Circuit.region in
  let b =
    int_of_float ((x -. region.Geometry.Rect.x_lo) /. st.bucket_w)
  in
  max 0 (min (st.nbuckets - 1) b)

let bucket_add st id =
  let r = st.row_of.(id) in
  let b = bucket_of st st.p.Netlist.Placement.x.(id) in
  st.buckets.(r).(b) <- id :: st.buckets.(r).(b)

let bucket_del st id =
  let r = st.row_of.(id) in
  let b = bucket_of st st.p.Netlist.Placement.x.(id) in
  st.buckets.(r).(b) <- List.filter (fun j -> j <> id) st.buckets.(r).(b)

(* Overlap of cell [id] (at its current coordinates) against the other
   movable cells of its row. *)
let cell_overlap st id =
  let r = st.row_of.(id) in
  let x = st.p.Netlist.Placement.x.(id) in
  let w = st.c.Netlist.Circuit.cells.(id).Netlist.Cell.width in
  let reach = (w +. st.max_w) /. 2. in
  let b_lo = bucket_of st (x -. reach) and b_hi = bucket_of st (x +. reach) in
  let acc = ref 0. in
  for b = b_lo to b_hi do
    List.iter
      (fun j ->
        if j <> id then begin
          let xj = st.p.Netlist.Placement.x.(j) in
          let wj = st.c.Netlist.Circuit.cells.(j).Netlist.Cell.width in
          let ov = ((w +. wj) /. 2.) -. Float.abs (x -. xj) in
          if ov > 0. then acc := !acc +. ov
        end)
      st.buckets.(r).(b)
  done;
  !acc

let nets_of st ids =
  st.stamp_val <- st.stamp_val + 1;
  let nets = ref [] in
  List.iter
    (fun id ->
      Array.iter
        (fun n ->
          if st.stamp.(n) <> st.stamp_val then begin
            st.stamp.(n) <- st.stamp_val;
            nets := n :: !nets
          end)
        (Netlist.Circuit.nets_of_cell st.c id))
    ids;
  !nets

let wl_of st nets =
  List.fold_left
    (fun acc n ->
      acc
      +. st.weights.(n)
         *. Metrics.Wirelength.hpwl_net st.c ~x:st.p.Netlist.Placement.x
              ~y:st.p.Netlist.Placement.y n)
    0. nets

(* Deterministic striped initial arrangement: x-sorted cells dealt into
   rows, packed from the left. *)
let initial_rows st =
  let region = st.c.Netlist.Circuit.region in
  let nrows = max 1 (Netlist.Circuit.num_rows st.c) in
  let sorted = Array.copy st.movable in
  Array.sort
    (fun a b ->
      Float.compare st.p.Netlist.Placement.x.(a) st.p.Netlist.Placement.x.(b))
    sorted;
  let cursor = Array.make nrows region.Geometry.Rect.x_lo in
  Array.iteri
    (fun i id ->
      let r = i mod nrows in
      let w = st.c.Netlist.Circuit.cells.(id).Netlist.Cell.width in
      st.row_of.(id) <- r;
      st.p.Netlist.Placement.x.(id) <- cursor.(r) +. (w /. 2.);
      st.p.Netlist.Placement.y.(id) <-
        region.Geometry.Rect.y_lo
        +. ((float_of_int r +. 0.5) *. st.c.Netlist.Circuit.row_height);
      cursor.(r) <- cursor.(r) +. w;
      bucket_add st id)
    sorted

let place ?(config = default_config) ?net_weights ?(keep_arrangement = false)
    (c : Netlist.Circuit.t) placement =
  let p = Netlist.Placement.copy placement in
  let weights =
    match net_weights with
    | Some w -> w
    | None -> Array.make (Netlist.Circuit.num_nets c) 1.
  in
  let movable =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter (fun (cl : Netlist.Cell.t) ->
           Netlist.Cell.movable cl && cl.Netlist.Cell.kind = Netlist.Cell.Standard)
    |> List.map (fun (cl : Netlist.Cell.t) -> cl.Netlist.Cell.id)
    |> Array.of_list
  in
  let region = c.Netlist.Circuit.region in
  let max_w =
    Array.fold_left
      (fun m id -> Float.max m c.Netlist.Circuit.cells.(id).Netlist.Cell.width)
      1. movable
  in
  let nrows = max 1 (Netlist.Circuit.num_rows c) in
  let nbuckets =
    max 4 (int_of_float (Geometry.Rect.width region /. Float.max max_w 1.))
  in
  let st =
    {
      c;
      p;
      weights;
      movable;
      row_of = Array.make (Netlist.Circuit.num_cells c) (-1);
      buckets = Array.init nrows (fun _ -> Array.make nbuckets []);
      nbuckets;
      bucket_w = Geometry.Rect.width region /. float_of_int nbuckets;
      max_w;
      stamp = Array.make (Netlist.Circuit.num_nets c) (-1);
      stamp_val = 0;
    }
  in
  if Array.length movable = 0 then
    (p, { attempted = 0; accepted = 0; final_cost = 0.; final_hpwl = 0.; final_overlap = 0. })
  else begin
    if keep_arrangement then
      (* Adopt the incoming coordinates: snap rows from y, keep x. *)
      Array.iter
        (fun id ->
          let r =
            let y = st.p.Netlist.Placement.y.(id) in
            let idx =
              int_of_float
                (Float.floor
                   ((y -. region.Geometry.Rect.y_lo)
                   /. c.Netlist.Circuit.row_height))
            in
            max 0 (min (nrows - 1) idx)
          in
          st.row_of.(id) <- r;
          st.p.Netlist.Placement.y.(id) <-
            region.Geometry.Rect.y_lo
            +. ((float_of_int r +. 0.5) *. c.Netlist.Circuit.row_height);
          bucket_add st id)
        st.movable
    else initial_rows st;
    let rng = Numeric.Rng.create config.seed in
    let lambda = config.overlap_weight in
    (* Move proposal: displace within the range window or swap. *)
    let row_y r =
      region.Geometry.Rect.y_lo
      +. ((float_of_int r +. 0.5) *. c.Netlist.Circuit.row_height)
    in
    let delta_displace id ~nx ~nrow ~commit =
      let ox = st.p.Netlist.Placement.x.(id) in
      let oy = st.p.Netlist.Placement.y.(id) in
      let orow = st.row_of.(id) in
      let nets = nets_of st [ id ] in
      let before = wl_of st nets +. (lambda *. cell_overlap st id) in
      bucket_del st id;
      st.row_of.(id) <- nrow;
      st.p.Netlist.Placement.x.(id) <- nx;
      st.p.Netlist.Placement.y.(id) <- row_y nrow;
      bucket_add st id;
      let after = wl_of st nets +. (lambda *. cell_overlap st id) in
      let delta = after -. before in
      if not (commit delta) then begin
        bucket_del st id;
        st.row_of.(id) <- orow;
        st.p.Netlist.Placement.x.(id) <- ox;
        st.p.Netlist.Placement.y.(id) <- oy;
        bucket_add st id
      end;
      delta
    in
    let delta_swap a b ~commit =
      let nets = nets_of st [ a; b ] in
      let before =
        wl_of st nets +. (lambda *. (cell_overlap st a +. cell_overlap st b))
      in
      let swap () =
        let ax = st.p.Netlist.Placement.x.(a) and ay = st.p.Netlist.Placement.y.(a) in
        let ar = st.row_of.(a) in
        bucket_del st a;
        bucket_del st b;
        st.p.Netlist.Placement.x.(a) <- st.p.Netlist.Placement.x.(b);
        st.p.Netlist.Placement.y.(a) <- st.p.Netlist.Placement.y.(b);
        st.row_of.(a) <- st.row_of.(b);
        st.p.Netlist.Placement.x.(b) <- ax;
        st.p.Netlist.Placement.y.(b) <- ay;
        st.row_of.(b) <- ar;
        bucket_add st a;
        bucket_add st b
      in
      swap ();
      let after =
        wl_of st nets +. (lambda *. (cell_overlap st a +. cell_overlap st b))
      in
      let delta = after -. before in
      if not (commit delta) then swap ();
      delta
    in
    let random_move ~window ~commit =
      let id = Numeric.Rng.choose rng st.movable in
      if Numeric.Rng.float rng 1. < 0.7 then begin
        let dx = Numeric.Rng.uniform rng (-.window) window in
        let drow_span =
          max 1 (int_of_float (window /. c.Netlist.Circuit.row_height))
        in
        let drow = Numeric.Rng.int rng ((2 * drow_span) + 1) - drow_span in
        let nrow = max 0 (min (nrows - 1) (st.row_of.(id) + drow)) in
        let w = c.Netlist.Circuit.cells.(id).Netlist.Cell.width in
        let nx =
          Float.min
            (Float.max
               (st.p.Netlist.Placement.x.(id) +. dx)
               (region.Geometry.Rect.x_lo +. (w /. 2.)))
            (region.Geometry.Rect.x_hi -. (w /. 2.))
        in
        delta_displace id ~nx ~nrow ~commit
      end
      else begin
        let b = Numeric.Rng.choose rng st.movable in
        if b = id then 0. else delta_swap id b ~commit
      end
    in
    (* Calibrate T0 from the uphill deltas of exploratory moves. *)
    let window0 =
      Float.max (Geometry.Rect.width region) (Geometry.Rect.height region)
    in
    let uphill = ref 0. and nup = ref 0 in
    for _ = 1 to 200 do
      let d = random_move ~window:window0 ~commit:(fun _ -> false) in
      if d > 0. then begin
        uphill := !uphill +. d;
        incr nup
      end
    done;
    let t0 =
      if !nup = 0 then 1.
      else -.(!uphill /. float_of_int !nup) /. log config.initial_acceptance
    in
    let attempted = ref 0 and accepted = ref 0 in
    let t = ref t0 in
    for step = 0 to config.t_steps - 1 do
      let frac = float_of_int step /. float_of_int (max 1 (config.t_steps - 1)) in
      let window =
        Float.max (2. *. c.Netlist.Circuit.row_height) (window0 *. (1. -. frac))
      in
      let moves = config.moves_per_cell * Array.length st.movable in
      for _ = 1 to moves do
        incr attempted;
        let commit delta =
          let ok =
            delta <= 0.
            || Numeric.Rng.float rng 1. < exp (-.delta /. Float.max !t 1e-30)
          in
          if ok then incr accepted;
          ok
        in
        ignore (random_move ~window ~commit)
      done;
      t := !t *. config.cooling
    done;
    (* Final greedy cleanup at T ≈ 0. *)
    let moves = config.moves_per_cell * Array.length st.movable in
    for _ = 1 to moves do
      incr attempted;
      let d = random_move ~window:(4. *. c.Netlist.Circuit.row_height)
          ~commit:(fun delta -> delta < 0.)
      in
      if d < 0. then incr accepted
    done;
    let final_hpwl = Metrics.Wirelength.hpwl c st.p in
    let final_overlap =
      Array.fold_left (fun acc id -> acc +. cell_overlap st id) 0. st.movable /. 2.
    in
    ( st.p,
      {
        attempted = !attempted;
        accepted = !accepted;
        final_cost = final_hpwl +. (lambda *. final_overlap);
        final_hpwl;
        final_overlap;
      } )
  end
