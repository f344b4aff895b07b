type t = {
  circuit : Netlist.Circuit.t;
  var_of_cell : int array; (* -1 for fixed cells *)
  cell_of_var : int array;
  n_movable : int;
  m : Numeric.Sparse.t; (* C, shared by the x and y systems *)
  dx : float array; (* constant term of the x system *)
  dy : float array;
  mean_edge_weight : float;
  (* The Jacobi preconditioner of C, owned by the assembly and computed
     in the numeric phase (a plain array — Lazy is not domain-safe).
     [None] marks a non-positive diagonal; the error surfaces at solve
     time so building a never-solved singular system stays error-free. *)
  inv_diag : float array option;
  cg_x : Numeric.Cg.workspace; (* the assembly's solve buffers, per axis *)
  cg_y : Numeric.Cg.workspace;
}

let index_map (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.num_cells c in
  let var_of_cell = Array.make n (-1) in
  let count = ref 0 in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if Netlist.Cell.movable cl then begin
        var_of_cell.(cl.Netlist.Cell.id) <- !count;
        incr count
      end)
    c.Netlist.Circuit.cells;
  (var_of_cell, !count)

type assembly = {
  a_circuit : Netlist.Circuit.t;
  a_cap : int;
  a_var_of_cell : int array;
  a_cell_of_var : int array;
  a_n : int;
  a_sampled : Model.edge array array;
      (* by net index: the edges Model.iter_edges samples for a net above
         the cap (they depend only on the net), empty otherwise *)
  incident : float array; (* each variable's summed spring weight *)
  mutable pat : Numeric.Sparse.pattern option; (* of the last recorded pass *)
  mutable next : int; (* stream position of a direct pass *)
  adx : float array; (* d-vector scratch, aliased by the emitted {!t} *)
  ady : float array;
  inv : float array; (* preconditioner storage *)
  a_cg_x : Numeric.Cg.workspace; (* one per axis of the two-axis PCG *)
  a_cg_y : Numeric.Cg.workspace;
  pre_dx : float array; (* d before the hold term, as the last pass left it *)
  pre_dy : float array;
  (* The value cache.  [cached] is the system of the last full pass at
     the quadratic scale; the [key_*] arrays hold copies of the
     other inputs that decided its values.  While they match bit for
     bit, a rebuild re-applies only the hold term of d. *)
  mutable cached : t option;
  key_net_weights : float array;
  key_scalars : float array; (* anchor_weight; hold *)
  key_x : float array; (* coordinates by cell; only fixed cells are keys *)
  key_y : float array;
  mutable reused : int;
  mutable pattern_rebuilds : int;
}

let assembly (c : Netlist.Circuit.t) ?(clique_cap = 16) () =
  let var_of_cell, n = index_map c in
  let cell_of_var = Array.make (max 1 n) 0 in
  Array.iteri (fun id v -> if v >= 0 then cell_of_var.(v) <- id) var_of_cell;
  let sampled n =
    if Netlist.Circuit.degree c n > clique_cap then
      Array.of_list (Model.edges ~cap:clique_cap c n)
    else [||]
  in
  {
    a_circuit = c;
    a_cap = clique_cap;
    a_var_of_cell = var_of_cell;
    a_cell_of_var = cell_of_var;
    a_n = n;
    a_sampled = Array.init (Netlist.Circuit.num_nets c) sampled;
    incident = Array.make n 0.;
    pat = None;
    next = 0;
    adx = Array.make n 0.;
    ady = Array.make n 0.;
    inv = Array.make n 0.;
    a_cg_x = Numeric.Cg.workspace n;
    a_cg_y = Numeric.Cg.workspace n;
    pre_dx = Array.make n 0.;
    pre_dy = Array.make n 0.;
    cached = None;
    key_net_weights = Array.make (Netlist.Circuit.num_nets c) 0.;
    key_scalars = Array.make 2 0.;
    key_x = Array.make (Array.length var_of_cell) 0.;
    key_y = Array.make (Array.length var_of_cell) 0.;
    reused = 0;
    pattern_rebuilds = 0;
  }

let assembly_stats asm = (asm.reused, asm.pattern_rebuilds)

(* A direct pass met a triplet other than the one its pattern was
   recorded from. *)
exception Drift

(* Where a pass sends its triplets.  A pattern is recorded by streaming
   the pass twice with no value kept: [Count] tallies each triplet's
   row, [Place] lays out its (row, column).  A direct pass [Scatter]
   adds each value straight into the slot the pattern assigns to that
   stream position, once that slot is checked to sit at (i, j): a slot
   then receives its values in stream order, the order [Sparse.finalize]
   sums them in, so the sums are bitwise those of the reference. *)
type sink =
  | Count of Numeric.Sparse.shape
  | Place of Numeric.Sparse.shape
  | Scatter of Numeric.Sparse.slots

let[@inline] emit asm sink i j v =
  match sink with
  | Count sh -> Numeric.Sparse.count sh i
  | Place sh -> Numeric.Sparse.place sh i j
  | Scatter sl ->
    let k = asm.next in
    let s = if k < Array.length sl.s_slot then sl.s_slot.(k) else -1 in
    if s < sl.s_indptr.(i) || s >= sl.s_indptr.(i + 1) || sl.s_indices.(s) <> j then
      raise_notrace Drift;
    sl.s_values.(s) <- sl.s_values.(s) +. v;
    asm.next <- k + 1

(* The clique spring of one pin pair, [w] being the model weight times
   the net weight: scales it, emits it and returns the scaled weight, or
   0. when the pair adds no spring (non-positive weight, or both pins on
   one cell).  Spring weights are axis-independent, so the matrix term is
   emitted once and only the constant terms split between the x and y
   systems; a recording pass, which keeps no value, skips them.
   Contributions follow the half-gradient convention (the common factor
   2 is dropped throughout).  Inlined into the net loop: it reads the pin
   table and coordinates directly and passes no float across a call. *)
let[@inline] clique_spring asm sink ~edge_scale ~px ~py pa pb w =
  let c = asm.a_circuit in
  let pin_dx = c.Netlist.Circuit.pin_dx and pin_dy = c.Netlist.Circuit.pin_dy in
  let ca = c.Netlist.Circuit.pin_cell.(pa) and cb = c.Netlist.Circuit.pin_cell.(pb) in
  let w =
    match edge_scale with
    | Weights.Quadratic -> w
    | Weights.Linearize eps ->
      let dx = px.(ca) +. pin_dx.(pa) -. (px.(cb) +. pin_dx.(pb)) in
      let dy = py.(ca) +. pin_dy.(pa) -. (py.(cb) +. pin_dy.(pb)) in
      w *. Weights.linearize ~eps ~dist:(sqrt ((dx ** 2.) +. (dy ** 2.)))
  in
  if w > 0. && ca <> cb then begin
    let incident = asm.incident and ddx = asm.adx and ddy = asm.ady in
    let va = asm.a_var_of_cell.(ca) and vb = asm.a_var_of_cell.(cb) in
    if va >= 0 then emit asm sink va va w;
    if vb >= 0 then emit asm sink vb vb w;
    if va >= 0 && vb >= 0 then begin
      emit asm sink va vb (-.w);
      emit asm sink vb va (-.w)
    end;
    (match sink with
    | Count _ | Place _ -> ()
    | Scatter _ ->
      if va >= 0 && vb >= 0 then begin
        incident.(va) <- incident.(va) +. w;
        incident.(vb) <- incident.(vb) +. w;
        ddx.(va) <- ddx.(va) +. (w *. (pin_dx.(pa) -. pin_dx.(pb)));
        ddx.(vb) <- ddx.(vb) +. (w *. (pin_dx.(pb) -. pin_dx.(pa)));
        ddy.(va) <- ddy.(va) +. (w *. (pin_dy.(pa) -. pin_dy.(pb)));
        ddy.(vb) <- ddy.(vb) +. (w *. (pin_dy.(pb) -. pin_dy.(pa)))
      end
      else if va >= 0 then begin
        incident.(va) <- incident.(va) +. w;
        ddx.(va) <- ddx.(va) +. (w *. (pin_dx.(pa) -. (px.(cb) +. pin_dx.(pb))));
        ddy.(va) <- ddy.(va) +. (w *. (pin_dy.(pa) -. (py.(cb) +. pin_dy.(pb))))
      end
      else if vb >= 0 then begin
        incident.(vb) <- incident.(vb) +. w;
        ddx.(vb) <- ddx.(vb) +. (w *. (pin_dx.(pb) -. (px.(ca) +. pin_dx.(pa))));
        ddy.(vb) <- ddy.(vb) +. (w *. (pin_dy.(pb) -. (py.(ca) +. pin_dy.(pa))))
      end);
    w
  end
  else 0.

(* The clique model's springs: nets in order, each net's pin pairs in
   Model.iter_edges order — every pair i < j with weight 1/k up to the
   cap, the recorded sample above it.  Returns the mean spring weight. *)
let stream_clique asm sink ~edge_scale ~px ~py ~net_weights =
  let start = asm.a_circuit.Netlist.Circuit.net_start in
  let total = ref 0. and count = ref 0 in
  for ni = 0 to Netlist.Circuit.num_nets asm.a_circuit - 1 do
    let net_w = net_weights.(ni) in
    if net_w > 0. then begin
      let s = start.(ni) and e = start.(ni + 1) in
      if e - s <= asm.a_cap then begin
        let w = 1. /. float_of_int (e - s) *. net_w in
        for i = s to e - 1 do
          for j = i + 1 to e - 1 do
            let w = clique_spring asm sink ~edge_scale ~px ~py i j w in
            if w > 0. then begin
              total := !total +. w;
              incr count
            end
          done
        done
      end
      else begin
        let edges = asm.a_sampled.(ni) in
        for e = 0 to Array.length edges - 1 do
          let edge = edges.(e) in
          let w =
            clique_spring asm sink ~edge_scale ~px ~py edge.Model.pin_a
              edge.Model.pin_b (edge.Model.weight *. net_w)
          in
          if w > 0. then begin
            total := !total +. w;
            incr count
          end
        done
      end
    end
  done;
  if !count = 0 then 1. else !total /. float_of_int !count

(* The hold springs' d terms: d = d_pre − hw·hold_at, hw being the
   cell's hold spring weight, or d = d_pre when there is no hold. *)
let apply_hold asm ~(placement : Netlist.Placement.t) ~mean_w ~hold ~hold_at =
  let n = asm.a_n in
  if hold > 0. then begin
    let hp = match hold_at with Some hp -> hp | None -> placement in
    let hx = hp.Netlist.Placement.x and hy = hp.Netlist.Placement.y in
    for v = 0 to n - 1 do
      let id = asm.a_cell_of_var.(v) in
      let hw = hold *. Float.max asm.incident.(v) mean_w in
      asm.adx.(v) <- asm.pre_dx.(v) -. (hw *. hx.(id));
      asm.ady.(v) <- asm.pre_dy.(v) -. (hw *. hy.(id))
    done
  end
  else begin
    Array.blit asm.pre_dx 0 asm.adx 0 n;
    Array.blit asm.pre_dy 0 asm.ady 0 n
  end

(* One assembly pass: every clique spring, then the anchor springs, then
   the hold springs, into a recorder or the cached pattern's slots.
   Returns the mean edge weight. *)
let stream asm sink ~(placement : Netlist.Placement.t) ~net_weights ~edge_scale
    ~anchor_weight ~hold ~hold_at =
  let n = asm.a_n in
  Array.fill asm.incident 0 n 0.;
  Array.fill asm.adx 0 n 0.;
  Array.fill asm.ady 0 n 0.;
  let px = placement.Netlist.Placement.x
  and py = placement.Netlist.Placement.y in
  let mean_w = stream_clique asm sink ~edge_scale ~px ~py ~net_weights in
  (* Anchor springs to the region centre, scaled off the mean edge
     weight so the relative strength is size-independent. *)
  let aw = anchor_weight *. mean_w in
  let r = asm.a_circuit.Netlist.Circuit.region in
  let cx = (r.Geometry.Rect.x_lo +. r.Geometry.Rect.x_hi) /. 2.
  and cy = (r.Geometry.Rect.y_lo +. r.Geometry.Rect.y_hi) /. 2. in
  for v = 0 to n - 1 do
    emit asm sink v v aw;
    asm.adx.(v) <- asm.adx.(v) -. (aw *. cx);
    asm.ady.(v) <- asm.ady.(v) -. (aw *. cy)
  done;
  (* Hold springs: damp the step by pulling each cell toward where it is
     now, in proportion to its own connectivity stiffness.  Their matrix
     terms go in here; their d terms in [apply_hold]. *)
  Array.blit asm.adx 0 asm.pre_dx 0 n;
  Array.blit asm.ady 0 asm.pre_dy 0 n;
  if hold > 0. then
    for v = 0 to n - 1 do
      emit asm sink v v (hold *. Float.max asm.incident.(v) mean_w)
    done;
  apply_hold asm ~placement ~mean_w ~hold ~hold_at;
  mean_w

(* A full pass: every spring, anchor and hold term streamed into the
   matrix and d vectors. *)
let full_pass asm ~placement ~net_weights ~edge_scale ~anchor_weight ~hold
    ~hold_at =
  let pass sink =
    stream asm sink ~placement ~net_weights ~edge_scale ~anchor_weight ~hold
      ~hold_at
  in
  (* A recording streams the pass twice into a recorder that is local
     to it and caches the new pattern; the values come from the direct
     pass that follows, as on every later pass.  The timer [qp/refill]
     covers the freeze steps (the pattern's merge, [seal]); perfbench
     reports it as [qp.refill_ms]. *)
  let record () =
    let sh = Numeric.Sparse.shape asm.a_n in
    ignore (pass (Count sh));
    ignore (pass (Place sh));
    let pat = Obs.Timer.time "qp/refill" (fun () -> Numeric.Sparse.pattern sh) in
    asm.pat <- Some pat;
    asm.pattern_rebuilds <- asm.pattern_rebuilds + 1;
    pat
  in
  let scatter pat =
    let sl = Numeric.Sparse.slots pat in
    Array.fill sl.s_values 0 (Array.length sl.s_values) 0.;
    asm.next <- 0;
    let mean_w = pass (Scatter sl) in
    if asm.next <> Array.length sl.s_slot then raise_notrace Drift;
    (mean_w, Obs.Timer.time "qp/refill" (fun () -> Numeric.Sparse.seal pat))
  in
  (* The structure is fixed by the circuit and the sign of the net
     weights, so once a pattern exists the pass scatters straight into
     it; a drifted structure (a net weight reaching zero) is recorded
     again. *)
  let mean_w, m =
    match asm.pat with
    | Some pat -> (
      match scatter pat with
      | r ->
        asm.reused <- asm.reused + 1;
        r
      | exception Drift -> scatter (record ()))
    | None -> scatter (record ())
  in
  {
    circuit = asm.a_circuit;
    var_of_cell = asm.a_var_of_cell;
    cell_of_var = asm.a_cell_of_var;
    n_movable = asm.a_n;
    m;
    dx = asm.adx;
    dy = asm.ady;
    mean_edge_weight = mean_w;
    inv_diag =
      (if Numeric.Cg.inv_diagonal_into m asm.inv then Some asm.inv else None);
    cg_x = asm.a_cg_x;
    cg_y = asm.a_cg_y;
  }

(* Bitwise equality, so that a cache hit can never change a result:
   [=] would identify 0. with -0. and refuse NaN. *)
let same_bits src key =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length key do
    if Int64.bits_of_float src.(!i) <> Int64.bits_of_float key.(!i) then
      ok := false;
    incr i
  done;
  !ok

let same_fixed asm coords key =
  let ok = ref true and id = ref 0 in
  while !ok && !id < Array.length key do
    if
      asm.a_var_of_cell.(!id) < 0
      && Int64.bits_of_float coords.(!id) <> Int64.bits_of_float key.(!id)
    then ok := false;
    incr id
  done;
  !ok

(* At the quadratic scale, the matrix, the
   incident sums, the mean edge weight and d before its hold term are
   decided by the net weights, [anchor_weight], [hold] and the fixed
   cells' coordinates alone: the movable cells enter only through the
   hold targets. *)
let key_matches asm ~(placement : Netlist.Placement.t) ~net_weights
    ~anchor_weight ~hold =
  let k = asm.key_scalars in
  Int64.bits_of_float anchor_weight = Int64.bits_of_float k.(0)
  && Int64.bits_of_float hold = Int64.bits_of_float k.(1)
  && same_bits net_weights asm.key_net_weights
  && same_fixed asm placement.Netlist.Placement.x asm.key_x
  && same_fixed asm placement.Netlist.Placement.y asm.key_y

let remember asm ~(placement : Netlist.Placement.t) ~net_weights
    ~anchor_weight ~hold =
  Array.blit net_weights 0 asm.key_net_weights 0 (Array.length net_weights);
  asm.key_scalars.(0) <- anchor_weight;
  asm.key_scalars.(1) <- hold;
  Array.blit placement.Netlist.Placement.x 0 asm.key_x 0 (Array.length asm.key_x);
  Array.blit placement.Netlist.Placement.y 0 asm.key_y 0 (Array.length asm.key_y)

let rebuild (asm : assembly) ~(placement : Netlist.Placement.t) ~net_weights
    ~edge_scale ?(anchor_weight = 1e-6) ?(hold = 0.) ?hold_at () =
  if Array.length net_weights <> Netlist.Circuit.num_nets asm.a_circuit then
    invalid_arg "System.rebuild: net_weights length mismatch";
  let quadratic =
    match edge_scale with Weights.Quadratic -> true | Weights.Linearize _ -> false
  in
  match asm.cached with
  | Some t
    when quadratic
         && key_matches asm ~placement ~net_weights ~anchor_weight ~hold ->
    apply_hold asm ~placement ~mean_w:t.mean_edge_weight ~hold ~hold_at;
    asm.reused <- asm.reused + 1;
    t
  | _ ->
    asm.cached <- None;
    let t =
      full_pass asm ~placement ~net_weights ~edge_scale ~anchor_weight ~hold
        ~hold_at
    in
    if quadratic then begin
      remember asm ~placement ~net_weights ~anchor_weight ~hold;
      asm.cached <- Some t
    end;
    t

let build (c : Netlist.Circuit.t) ~placement ~net_weights ~edge_scale
    ?(clique_cap = 16) ?(anchor_weight = 1e-6) ?(hold = 0.) ?hold_at () =
  let asm = assembly c ~clique_cap () in
  rebuild asm ~placement ~net_weights ~edge_scale ~anchor_weight ~hold ?hold_at
    ()

let mean_edge_weight t = t.mean_edge_weight

let num_movable t = t.n_movable

let matrix t = t.m

let constant_terms t = (t.dx, t.dy)

let gather t (p : Netlist.Placement.t) =
  let x0 = Array.make t.n_movable 0. and y0 = Array.make t.n_movable 0. in
  for v = 0 to t.n_movable - 1 do
    x0.(v) <- p.Netlist.Placement.x.(t.cell_of_var.(v));
    y0.(v) <- p.Netlist.Placement.y.(t.cell_of_var.(v))
  done;
  (x0, y0)

let solve ?tol t ~(placement : Netlist.Placement.t) ~ex ~ey =
  if Array.length ex <> t.n_movable || Array.length ey <> t.n_movable then
    invalid_arg "System.solve: force vector length mismatch";
  let px = placement.Netlist.Placement.x and py = placement.Netlist.Placement.y in
  let x0 = Numeric.Cg.solution t.cg_x and y0 = Numeric.Cg.solution t.cg_y in
  let bx = Numeric.Cg.rhs t.cg_x and by = Numeric.Cg.rhs t.cg_y in
  (* Warm start from the incoming coordinates; C·p + d + e = 0  ⇔
     C·p = −(d + e). *)
  for v = 0 to t.n_movable - 1 do
    let id = t.cell_of_var.(v) in
    x0.(v) <- px.(id);
    y0.(v) <- py.(id);
    bx.(v) <- -.(t.dx.(v) +. ex.(v));
    by.(v) <- -.(t.dy.(v) +. ey.(v))
  done;
  (* A [None] preconditioner means the assembly saw a non-positive
     diagonal; re-derive it here so the canonical Cg error surfaces at
     solve time, exactly as the old lazy computation did. *)
  let inv =
    match t.inv_diag with Some d -> d | None -> Numeric.Cg.inv_diagonal t.m
  in
  (* The axes are independent SPD systems; one two-axis PCG solves both,
     sweeping the shared matrix once per iteration. *)
  let sx, sy =
    Obs.Timer.time "qp/solve" (fun () ->
        Numeric.Cg.solve2_in ?tol ~inv t.cg_x t.cg_y t.m)
  in
  if Obs.Registry.enabled () then begin
    Obs.Registry.observe "qp/cg_iterations"
      (float_of_int (sx.Numeric.Cg.iterations + sy.Numeric.Cg.iterations));
    Obs.Registry.observe "qp/cg_residual"
      (Float.max sx.Numeric.Cg.residual sy.Numeric.Cg.residual)
  end;
  for v = 0 to t.n_movable - 1 do
    let id = t.cell_of_var.(v) in
    px.(id) <- x0.(v);
    py.(id) <- y0.(v)
  done;
  (sx, sy)

let residual_force t ~placement ~ex ~ey =
  let x0, y0 = gather t placement in
  let rx = Array.make t.n_movable 0. and ry = Array.make t.n_movable 0. in
  Numeric.Sparse.mul2 t.m x0 rx y0 ry;
  let acc = ref 0. in
  for v = 0 to t.n_movable - 1 do
    let fx = rx.(v) +. t.dx.(v) +. ex.(v) in
    let fy = ry.(v) +. t.dy.(v) +. ey.(v) in
    acc := Float.max !acc (Float.max (Float.abs fx) (Float.abs fy))
  done;
  !acc
