type config = { overflow_penalty : float; rip_up_passes : int }

let default_config = { overflow_penalty = 8.; rip_up_passes = 2 }

type result = {
  usage_h : Geometry.Grid2.t;
  usage_v : Geometry.Grid2.t;
  total_wirelength : float;
  total_overflow : float;
  max_overflow : float;
  failed_nets : int;
}

(* Edge-indexed routing state.  Horizontal edge (ix, iy) joins bins
   (ix, iy) and (ix+1, iy); vertical edge (ix, iy) joins (ix, iy) and
   (ix, iy+1).  An edge is named by the packed int [idx * 2 + 1] when
   horizontal and [idx * 2] when vertical; a route is an array of them.

   The maze scratch (Dijkstra labels, predecessors and the heap) is
   sized once per [route] call and reused by every search in it.  It
   lives here rather than in module globals because worker domains of
   the sharded scheduler route concurrently. *)
type state = {
  nx : int;
  ny : int;
  cap_h : float; (* tracks per horizontal edge *)
  cap_v : float;
  use_h : float array; (* (nx-1) * ny *)
  use_v : float array; (* nx * (ny-1) *)
  cfg : config;
  dist : float array; (* nx * ny: tentative distance per bin *)
  prev_node : int array; (* bin the best path arrived from *)
  prev_edge : int array; (* packed edge it arrived over *)
  heap_d : float array; (* binary min-heap: distance key *)
  heap_seq : int array; (* push sequence, larger pops first on ties *)
  heap_v : int array; (* bin *)
  mutable heap_len : int;
  mutable pushes : int;
}

let h_index st ix iy = (iy * (st.nx - 1)) + ix

let v_index st ix iy = (iy * st.nx) + ix

let h_edge st ix iy = (h_index st ix iy * 2) + 1

let v_edge st ix iy = v_index st ix iy * 2

let is_over st e =
  let idx = e lsr 1 in
  if e land 1 = 1 then st.use_h.(idx) >= st.cap_h else st.use_v.(idx) >= st.cap_v

let[@inline] cost st use cap =
  1. +. (if use >= cap then st.cfg.overflow_penalty *. (1. +. use -. cap) else 0.)

let[@inline] edge_cost st e =
  let idx = e lsr 1 in
  if e land 1 = 1 then cost st st.use_h.(idx) st.cap_h
  else cost st st.use_v.(idx) st.cap_v

let apply st delta route =
  Array.iter
    (fun e ->
      let idx = e lsr 1 in
      if e land 1 = 1 then st.use_h.(idx) <- st.use_h.(idx) +. delta
      else st.use_v.(idx) <- st.use_v.(idx) +. delta)
    route

let overflowed st route = Array.exists (is_over st) route

(* The two L-shapes between bins a and b: [h_first] runs along a's row
   then b's column, otherwise a's column then b's row.  Each leg lists
   its edges in increasing coordinate order. *)
let l_shape st ~h_first (ax, ay) (bx, by) =
  let nh = abs (bx - ax) and nv = abs (by - ay) in
  let hx = min ax bx and vy = min ay by in
  let row = if h_first then ay else by and col = if h_first then bx else ax in
  let h k = h_edge st (hx + k) row and v k = v_edge st col (vy + k) in
  Array.init (nh + nv) (fun k ->
      if h_first then if k < nh then h k else v (k - nh)
      else if k < nv then v k
      else h (k - nv))

(* Binary min-heap over (distance, -push sequence) in parallel arrays:
   among equal distances the most recent push pops first.  Sifts move a
   hole and write the moving entry once, at its final slot. *)
let[@inline] heap_set st i d q v =
  st.heap_d.(i) <- d;
  st.heap_seq.(i) <- q;
  st.heap_v.(i) <- v

let[@inline] heap_move st ~src ~dst =
  heap_set st dst st.heap_d.(src) st.heap_seq.(src) st.heap_v.(src)

(* Whether slot [i] pops before the entry (d, q). *)
let[@inline] heap_before st i d q =
  let di = st.heap_d.(i) in
  di < d || (di = d && st.heap_seq.(i) > q)

(* Push bin [v] keyed by its current [dist] (read here rather than
   passed, which would box it). *)
let heap_push st v =
  let d = st.dist.(v) in
  let q = st.pushes in
  st.pushes <- q + 1;
  let i = ref st.heap_len in
  st.heap_len <- st.heap_len + 1;
  while !i > 0 && not (heap_before st ((!i - 1) / 2) d q) do
    let parent = (!i - 1) / 2 in
    heap_move st ~src:parent ~dst:!i;
    i := parent
  done;
  heap_set st !i d q v

(* Remove the root (the caller has read it): the last entry fills the
   hole, sifted down from the root. *)
let heap_drop_min st =
  let n = st.heap_len - 1 in
  st.heap_len <- n;
  let d = st.heap_d.(n) and q = st.heap_seq.(n) and v = st.heap_v.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < n && heap_before st (l + 1) st.heap_d.(l) st.heap_seq.(l)
      then l + 1
      else l
    in
    if c < n && heap_before st c d q then begin
      heap_move st ~src:c ~dst:!i;
      i := c
    end
    else sifting := false
  done;
  heap_set st !i d q v

(* Offer bin v the path through u (at distance d) and edge e. *)
let[@inline] relax st d u e v =
  let nd = d +. edge_cost st e in
  if nd < st.dist.(v) then begin
    st.dist.(v) <- nd;
    st.prev_node.(v) <- u;
    st.prev_edge.(v) <- e;
    heap_push st v
  end

(* Congestion-aware maze route (Dijkstra over bins).  The pop order —
   least distance, latest push among ties — decides which of several
   equal-cost paths is taken, so it is part of the router's output:
   test_grouter.ml pins the resulting bits.  Edge costs are at least 1,
   so each bin is expanded at most once and at most 4 pushes follow
   each expansion: the heap holds at most 4 * nx * ny + 1 entries. *)
let maze st (ax, ay) (bx, by) =
  let node ix iy = (iy * st.nx) + ix in
  let source = node ax ay and target = node bx by in
  Array.fill st.dist 0 (Array.length st.dist) Float.infinity;
  st.heap_len <- 0;
  st.pushes <- 0;
  st.dist.(source) <- 0.;
  heap_push st source;
  let finished = ref false in
  while not !finished do
    if st.heap_len = 0 then finished := true
    else begin
      let d = st.heap_d.(0) and u = st.heap_v.(0) in
      heap_drop_min st;
      if u = target then finished := true
      else if d <= st.dist.(u) then begin
        let uy = u / st.nx in
        let ux = u - (uy * st.nx) in
        if ux > 0 then relax st d u (h_edge st (ux - 1) uy) (u - 1);
        if ux < st.nx - 1 then relax st d u (h_edge st ux uy) (u + 1);
        if uy > 0 then relax st d u (v_edge st ux (uy - 1)) (u - st.nx);
        if uy < st.ny - 1 then relax st d u (v_edge st ux uy) (u + st.nx)
      end
    end
  done;
  if st.dist.(target) = Float.infinity then None
  else begin
    let len = ref 0 and v = ref target in
    while !v <> source do
      incr len;
      v := st.prev_node.(!v)
    done;
    let route = Array.make !len 0 in
    v := target;
    for k = !len - 1 downto 0 do
      route.(k) <- st.prev_edge.(!v);
      v := st.prev_node.(!v)
    done;
    Some route
  end

(* The first L-shape clear of full edges, else the maze.  Both L-shapes
   have the Manhattan length and a clear edge costs exactly 1, so the
   first clear one is also the cheapest. *)
let connect st ((ax, ay) as a) ((bx, by) as b) =
  if a = b then Some [||]
  else
    let l1 = l_shape st ~h_first:true a b in
    if not (overflowed st l1) then Some l1
    else if ax = bx || ay = by then maze st a b
    else
      let l2 = l_shape st ~h_first:false a b in
      if not (overflowed st l2) then Some l2 else maze st a b

let route_unchecked ~config (c : Netlist.Circuit.t) (p : Netlist.Placement.t)
    (spec : Grid_spec.t) =
  let region = c.Netlist.Circuit.region in
  let nx = spec.Grid_spec.nx and ny = spec.Grid_spec.ny in
  let ref_grid = Geometry.Grid2.create region ~nx ~ny in
  let dx = Geometry.Grid2.dx ref_grid and dy = Geometry.Grid2.dy ref_grid in
  let bins = nx * ny in
  let heap_cap = (4 * bins) + 1 in
  let st =
    {
      nx;
      ny;
      cap_h = dy /. spec.Grid_spec.wire_pitch;
      cap_v = dx /. spec.Grid_spec.wire_pitch;
      use_h = Array.make (max 1 ((nx - 1) * ny)) 0.;
      use_v = Array.make (max 1 (nx * (ny - 1))) 0.;
      cfg = config;
      dist = Array.make bins Float.infinity;
      prev_node = Array.make bins 0;
      prev_edge = Array.make bins 0;
      heap_d = Array.make heap_cap 0.;
      heap_seq = Array.make heap_cap 0;
      heap_v = Array.make heap_cap 0;
      heap_len = 0;
      pushes = 0;
    }
  in
  let bin_of k =
    let cl = c.Netlist.Circuit.pin_cell.(k) in
    Geometry.Grid2.locate ref_grid
      (p.Netlist.Placement.x.(cl) +. c.Netlist.Circuit.pin_dx.(k))
      (p.Netlist.Placement.y.(cl) +. c.Netlist.Circuit.pin_dy.(k))
  in
  (* Star decomposition per net: driver bin to each distinct sink bin. *)
  let net_connections n =
    let s = c.Netlist.Circuit.net_start.(n) in
    let drv = bin_of s in
    let sinks =
      List.init (Netlist.Circuit.degree c n - 1) (fun j -> bin_of (s + 1 + j))
      |> List.sort_uniq compare
      |> List.filter (fun b -> b <> drv)
    in
    (drv, sinks)
  in
  let routes = Array.make (Netlist.Circuit.num_nets c) [] in
  let failed = ref 0 in
  let route_net n =
    let drv, sinks = net_connections n in
    let segs = ref [] in
    List.iter
      (fun sink ->
        match connect st drv sink with
        | Some r ->
          apply st 1. r;
          segs := r :: !segs
        | None -> incr failed)
      sinks;
    routes.(n) <- !segs
  in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    route_net n
  done;
  (* Rip-up and reroute nets that sit on overflowing edges. *)
  for _ = 1 to config.rip_up_passes do
    for n = 0 to Netlist.Circuit.num_nets c - 1 do
      if List.exists (overflowed st) routes.(n) then begin
        List.iter (apply st (-1.)) routes.(n);
        route_net n
      end
    done
  done;
  (* Summaries. *)
  let usage_h = Geometry.Grid2.create region ~nx ~ny in
  let usage_v = Geometry.Grid2.create region ~nx ~ny in
  let total_wl = ref 0. and total_ov = ref 0. and max_ov = ref 0. in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 2 do
      let u = st.use_h.(h_index st ix iy) in
      total_wl := !total_wl +. (u *. dx);
      Geometry.Grid2.add usage_h ix iy (u /. 2.);
      Geometry.Grid2.add usage_h (ix + 1) iy (u /. 2.);
      let ov = Float.max 0. (u -. st.cap_h) in
      total_ov := !total_ov +. ov;
      if ov > !max_ov then max_ov := ov
    done
  done;
  for iy = 0 to ny - 2 do
    for ix = 0 to nx - 1 do
      let u = st.use_v.(v_index st ix iy) in
      total_wl := !total_wl +. (u *. dy);
      Geometry.Grid2.add usage_v ix iy (u /. 2.);
      Geometry.Grid2.add usage_v ix (iy + 1) (u /. 2.);
      let ov = Float.max 0. (u -. st.cap_v) in
      total_ov := !total_ov +. ov;
      if ov > !max_ov then max_ov := ov
    done
  done;
  {
    usage_h;
    usage_v;
    total_wirelength = !total_wl;
    total_overflow = !total_ov;
    max_overflow = !max_ov;
    failed_nets = !failed;
  }

let route ?(config = default_config) c p spec =
  match Grid_spec.validate spec c.Netlist.Circuit.region with
  | Error _ as e -> e
  | Ok () -> Ok (route_unchecked ~config c p spec)
